"""Job bodies reject unknown fields; the memory-walk backend is reported
(stats JSON, ``/metrics``, ``profile``) but never digested."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.mem import walk_backend
from repro.service import ServiceClient, ServiceError, start_in_thread
from repro.service.spec import JobValidationError, parse_job_request

TINY_SIM = {"horizon_ms": 12.0, "warmup_ms": 2.0, "accesses_per_segment": 3}


@pytest.mark.parametrize("body,field", [
    ({"kind": "sweep", "systems": "NoHarvest", "sim": {"horizon_ms": 5}}, "sim"),
    ({"kind": "sweep", "seeds": "0..1", "system": "NoHarvest"}, "system"),
    ({"kind": "cluster", "systems": "all"}, "systems"),
    ({"kind": "cluster", "cluster": {}, "fault": "crash-storm"}, "fault"),
])
def test_unknown_job_fields_are_rejected(body, field):
    with pytest.raises(JobValidationError) as excinfo:
        parse_job_request(body)
    assert excinfo.value.field == field
    assert repr(field) in str(excinfo.value)


def test_known_job_fields_still_parse():
    sweep = parse_job_request({"kind": "sweep", "workers": 1, "systems": "NoHarvest",
                               "seeds": "0..1", "simulation": dict(TINY_SIM)})
    assert sweep.kind == "sweep"
    cluster = parse_job_request({"kind": "cluster", "workers": 1,
                                 "system": "HardHarvest-Block", "cluster": {},
                                 "simulation": dict(TINY_SIM), "fault_plan": None})
    assert cluster.kind == "cluster"


@pytest.fixture()
def client(tmp_path):
    handle = start_in_thread(cache_dir=str(tmp_path / "cache"), service_workers=1)
    try:
        yield ServiceClient(port=handle.port)
    finally:
        handle.stop()


def test_http_unknown_field_is_400_naming_it(client):
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"kind": "sweep", "systems": "NoHarvest", "seeds": "0..1",
                       "sim": dict(TINY_SIM)})
    assert excinfo.value.status == 400
    assert excinfo.value.body["field"] == "sim"


def test_metrics_expose_walk_backend(client):
    backend = walk_backend()
    text = client.metrics()
    assert (f'repro_mem_walk_backend_info{{backend="{backend["backend"]}",'
            in text)


def test_run_stats_json_reports_backend_outside_digest(tmp_path, monkeypatch):
    from repro.mem import kernel

    args = ["run", "--system", "NoHarvest", "--horizon-ms", "20",
            "--accesses", "4", "--seed", "1"]
    default = walk_backend()["backend"]
    assert main(args + ["--stats-json", str(tmp_path / "a.json")]) == 0
    monkeypatch.setattr(kernel, "_LOADER", kernel.KernelLoader(cc="false",
                                                               directory=str(tmp_path)))
    assert main(args + ["--stats-json", str(tmp_path / "b.json")]) == 0
    a, b = (json.loads((tmp_path / f"{n}.json").read_text()) for n in "ab")
    assert b["walk_backend"]["backend"] == "python"
    assert a["walk_backend"]["backend"] == default
    assert a["digest"] == b["digest"]


def test_profile_header_names_backend(capsys):
    assert main(["profile", "--system", "NoHarvest", "--horizon-ms", "10",
                 "--accesses", "2", "--top", "1"]) == 0
    assert capsys.readouterr().out.startswith("memory walk: ")
