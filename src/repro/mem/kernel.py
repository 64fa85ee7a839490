"""Build, load and bind the compiled memory walk and sampler (``walk.c``).

The library is compiled with the local C compiler on first use (the first
:class:`~repro.mem.hierarchy.CoreMemory` or sampler construction), never
at import.
The shared library is cached by the sha256 of (C source, compile command,
platform) under ``$XDG_CACHE_HOME/repro/kernels`` (``~/.cache`` when unset),
or under the temp dir when that is not writable.  It is loaded with stdlib
``ctypes`` (which releases the GIL around the call) and accepted only if
the source hash it exports matches the source next to this file.

Without a compiler, or if the build or the load fails, the walk falls back
to the per-access Python reference (:meth:`SetAssocArray.access`) over the
same arrays and sampling to the vectorised numpy bodies;
:func:`walk_backend` says which backend runs and why.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from typing import Optional, Tuple

from repro.mem.cache import SetAssocArray
from repro.mem.replacement import HardHarvestPolicy, LruPolicy, RripPolicy

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "walk.c")
#: No -ffast-math: the DRAM EWMA must round exactly like Python's floats.
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_POLICY_CODES = {LruPolicy: 0, HardHarvestPolicy: 1, RripPolicy: 2}
_P = ctypes.c_void_p
_I64 = ctypes.c_int64


class Level(ctypes.Structure):
    """``level_t``: one SetAssocArray's flat arrays and policy constants."""

    _fields_ = [(name, _P) for name in (
        "tags", "stamp", "valid", "shared", "dirty", "rrpv",
        "clock", "seen", "row", "log", "flushed_at", "meta",
    )] + [("ways", _I64), ("policy", _I64), ("harvest", ctypes.c_uint64)]


class Step(ctypes.Structure):
    """``step_t``: one level as one core addresses it."""

    _fields_ = [
        ("lv", _P), ("gshift", _I64), ("smask", _I64), ("tshift", _I64),
        ("mask", ctypes.c_uint64 * 2), ("win", _I64 * 2), ("lat", _I64 * 3),
    ]


class Core(ctypes.Structure):
    """``core_t``: the private levels, the memory latency row and DRAM."""

    _fields_ = [(name, Step) for name in (
        "l1tlb", "l2tlb", "l1i", "l1d", "l2", "mem",
    )] + [("dram", _P)]


class Draw(ctypes.Structure):
    """``draw_t``: one sampler's draw buffers and batch arrays for one n."""

    _fields_ = [("n", _I64), ("max_line", ctypes.c_uint32)] + [(name, _P) for name in (
        "u", "line", "addr", "shared", "instr", "write",
    )]


class Classes(ctypes.Structure):
    """``classes_t``: a sampler's three address classes (regions)."""

    _fields_ = [
        ("lim", ctypes.c_double * 2), ("write_below", ctypes.c_double),
        ("page_bytes", _I64), ("line_bytes", _I64),
        ("base", _I64 * 3), ("last", _I64 * 3), ("pages", ctypes.c_double * 3),
        ("shared", ctypes.c_uint8 * 3), ("instr", ctypes.c_uint8 * 3),
    ]


def _log2(x: int) -> int:
    """log2 of a power of two, else -1."""
    return x.bit_length() - 1 if x > 0 and x & (x - 1) == 0 else -1


def level(arr: SetAssocArray) -> Optional[Level]:
    """The kernel's view of ``arr``, or None if only Python can walk it
    (another policy class, more than 64 ways, an out-of-range mask)."""
    pol = arr.policy
    code = _POLICY_CODES.get(type(pol))
    harvest = pol.harvest_mask if code == 1 else 0
    if code is None or arr.ways > 64 or not 0 <= harvest < 1 << 64:
        return None
    base = ctypes.addressof(ctypes.c_char.from_buffer(arr.block))
    ptrs = {key: base + start for key, (start, _, _) in arr.layout.items()}
    return Level(ways=arr.ways, policy=code, harvest=harvest, **ptrs)


def step(lv: Level, arr: SetAssocArray, granule: int, masks, lat) -> Optional[Step]:
    """A :class:`Step` for ``arr`` at ``granule`` bytes per entry, or None
    for geometries whose shift/mask split would diverge from ``//``/``%``."""
    gshift, sbits = _log2(granule), _log2(arr.num_sets)
    if gshift < 0 or sbits < 0:
        return None
    full = (1 << arr.ways) - 1
    masks = [m & full for m in masks]
    pol = arr.policy
    win = [pol.window(m, arr.ways)[1] if isinstance(pol, HardHarvestPolicy) else 0
           for m in masks]
    return Step(ctypes.addressof(lv), gshift, arr.num_sets - 1, gshift + sbits,
                (ctypes.c_uint64 * 2)(*masks), (_I64 * 2)(*win), (_I64 * 3)(*lat))


# ----------------------------------------------------------------------
# Build cache and loader
# ----------------------------------------------------------------------
def cache_dir() -> str:
    """Kernel cache directory: XDG cache, else a per-user temp dir."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    preferred = os.path.join(root, "repro", "kernels")
    for path in (preferred, os.path.join(tempfile.gettempdir(),
                                          f"repro-kernels-{os.getuid()}")):
        try:
            os.makedirs(path, exist_ok=True)
            if os.access(path, os.W_OK | os.X_OK):
                return path
        except OSError:
            continue
    raise OSError(f"no writable kernel cache directory (tried {preferred})")


class KernelLoader:
    """Builds and loads the library once per process, thread-safely."""

    def __init__(self, cc: Optional[str] = None, directory: Optional[str] = None):
        self.cc = cc
        self.directory = directory
        self.lib = None
        self.reason = "not loaded yet"
        self._done = False
        self._lock = threading.Lock()

    def load(self):
        """The bound library, or None (see :attr:`reason`)."""
        if not self._done:
            with self._lock:
                if not self._done:
                    self.lib, self.reason = self._load()
                    self._done = True
        return self.lib

    def _load(self) -> Tuple[object, str]:
        import sysconfig

        try:
            with open(SOURCE, "rb") as fh:
                source = fh.read()
            directory = self.directory or cache_dir()
        except OSError as exc:
            return None, f"kernel unavailable: {exc}"
        sha = hashlib.sha256(source).hexdigest()
        cc = self.cc or shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            return None, "no C compiler (cc) on PATH"
        command = [cc, *CFLAGS, f'-DHH_SOURCE_SHA="{sha}"', "-o", "{out}", SOURCE]
        key = hashlib.sha256("\0".join(
            [sha, cc, *CFLAGS, sysconfig.get_platform(), sys.byteorder]).encode()
        ).hexdigest()
        path = os.path.join(directory, f"walk-{key[:24]}.so")
        if _intact(path):
            lib, _ = _bind(path, sha)
            if lib is not None:
                return lib, f"cached {os.path.basename(path)}"
        # Build under a unique name (dlopen would hand back a stale library
        # already loaded from ``path``), load, then publish atomically.
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(prefix="walk-", suffix=".so", dir=directory)
            os.close(fd)
            done = subprocess.run(
                [tmp if a == "{out}" else a for a in command],
                capture_output=True, text=True, timeout=300,
            )
            if done.returncode != 0:
                err = (done.stderr.strip().splitlines() or ["?"])[-1]
                return None, f"compile failed ({cc}): {err}"
            lib, why = _bind(tmp, sha)
            if lib is None:
                return None, why
            try:
                _publish(tmp, path)
            except OSError:
                return lib, "compiled (not cached: cache directory not writable)"
            return lib, f"compiled {os.path.basename(path)}"
        except (OSError, subprocess.SubprocessError) as exc:
            return None, f"compile failed ({cc}): {exc}"
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _intact(path: str) -> bool:
    """True if ``path`` still has the digest recorded when it was
    published.  Checked before dlopen, because loading a truncated
    library can kill the process instead of failing."""
    try:
        with open(path + ".sha256") as fh:
            return fh.read().strip() == _file_sha(path)
    except OSError:
        return False


def _publish(tmp: str, path: str) -> None:
    """Move a verified build into place, then record its digest; each
    step is an atomic rename, so readers never see a partial file."""
    digest = _file_sha(tmp)
    os.replace(tmp, path)
    fd, side = tempfile.mkstemp(dir=os.path.dirname(path))
    with os.fdopen(fd, "w") as fh:
        fh.write(digest)
    os.replace(side, path + ".sha256")


def _bind(path: str, sha: str):
    """(library, None) if ``path`` loads and exports ``sha``, else (None, why)."""
    try:
        lib = ctypes.CDLL(path)
        exported = lib.hh_source_sha
        walk, draw, build = lib.hh_walk, lib.hh_draw, lib.hh_build
    except (OSError, AttributeError) as exc:
        return None, f"kernel library unusable: {exc}"
    exported.restype = ctypes.c_char_p
    exported.argtypes = []
    if exported() != sha.encode():
        return None, "kernel library source hash mismatch"
    walk.argtypes = [_P] * 6 + [_I64] * 3
    walk.restype = _I64
    draw.argtypes = build.argtypes = [_P, _P]
    draw.restype = build.restype = None
    return lib, None


_LOADER = KernelLoader()


def walk_function():
    """The compiled walk, loading it on first call; None means fallback."""
    lib = _LOADER.load()
    return None if lib is None else lib.hh_walk


def sample_functions():
    """The compiled ``(hh_draw, hh_build)``, or None (numpy sampling)."""
    lib = _LOADER.load()
    return None if lib is None else (lib.hh_draw, lib.hh_build)


def walk_backend() -> dict:
    """Which memory walk runs: ``{"backend": "c"|"python", "reason": ...}``.

    Host information only: it must never enter a digest or a cache key."""
    return {"backend": "c" if _LOADER.load() is not None else "python",
            "reason": _LOADER.reason}
