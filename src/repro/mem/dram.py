"""Main-memory model.

The paper uses DRAMSim2; here a fixed-latency model with a light
bandwidth-pressure term stands in. Each access costs ``access_ns`` plus a
queueing penalty that grows once the recent access rate approaches the
configured bandwidth (keeping memory-intensive batch jobs, e.g. RndFTrain in
Figure 17, from enjoying free unlimited bandwidth).
"""

from __future__ import annotations

import ctypes

from repro.config import MemoryConfig


class DramState(ctypes.Structure):
    """DRAM model state, shared in place with the C walk (``dram_t``)."""

    _fields_ = [
        ("accesses", ctypes.c_int64),
        ("avg_gap_ns", ctypes.c_double),
        ("last_access_ns", ctypes.c_int64),
        ("access_ns", ctypes.c_int64),
        ("saturation_gap_ns", ctypes.c_double),
    ]


def _field(name: str) -> property:
    def get(self):
        return getattr(self.state, name)

    def put(self, value) -> None:
        setattr(self.state, name, value)

    return property(get, put)


class DramModel:
    """Latency/bandwidth main-memory model shared by one server."""

    LINE_BYTES = 64

    accesses = _field("accesses")
    # Exponentially-averaged inter-access gap (ns) used as a pressure
    # signal; starts relaxed.
    _avg_gap_ns = _field("avg_gap_ns")
    _last_access_ns = _field("last_access_ns")

    def __init__(self, config: MemoryConfig):
        self.config = config
        # Gap that saturates the configured bandwidth for 64B lines (ns).
        saturation_gap = self.LINE_BYTES / config.bandwidth_gbps
        # The C walk runs only for integer latencies (CoreMemory checks).
        access_ns = config.access_ns if type(config.access_ns) is int else 0
        self.state = DramState(0, 1000.0, 0, access_ns, saturation_gap)

    def access_latency(self, now_ns: int) -> int:
        """Latency (ns) of one line fill issued at ``now_ns``."""
        self.accesses += 1
        gap = max(0, now_ns - self._last_access_ns)
        self._last_access_ns = now_ns
        self._avg_gap_ns = 0.99 * self._avg_gap_ns + 0.01 * gap
        saturation_gap = self.state.saturation_gap_ns
        if self._avg_gap_ns < saturation_gap:
            # Pressure: queueing inflates latency up to 3x at full saturation.
            pressure = min(1.0, saturation_gap / max(self._avg_gap_ns, 1e-9) - 1.0)
            return int(self.config.access_ns * (1.0 + 2.0 * pressure))
        return self.config.access_ns
