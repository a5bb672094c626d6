"""One BLAS thread per serving process.

numpy and scipy each ship their own OpenBLAS, and each starts a pool of
helper threads on import.  The serving path's BLAS calls are tiny — a
(n, 32, 69) covariance matmul and 32x32 ``eigh`` per window, often one
window per call — so the helpers never shorten a call.  Instead they
spin between calls on whatever CPU the process leaves idle, which is
most of a server's CPU.  The service scales across processes
(``repro fleet --workers N``), so :class:`~repro.serve.server.SensingServer`
pins every loaded pool to one thread when it starts.

The pin changes threading, not numerics: for these kernels OpenBLAS
gives the same bytes at its default thread count and at one, so a
pinned server still matches the unpinned offline pipeline bit for bit
(``tests/dsp/test_blas.py`` checks this in a fresh process).

Pools are found through ``/proc/self/maps`` and driven through their
exported ``*_set_num_threads`` / ``*_get_num_threads`` symbols.  Where
there is no ``/proc`` (non-Linux) or no OpenBLAS (another BLAS build),
both functions find no pools and do nothing.
"""

from __future__ import annotations

import ctypes
import os

# Symbol names per OpenBLAS build: numpy's ILP64 wheel build, scipy's
# LP64 wheel build, and a plain system OpenBLAS.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)
_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads",
)


def _loaded_openblas_paths() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6:
            path = fields[5].strip()
            name = os.path.basename(path)
            if "openblas" in name.lower() and ".so" in name:
                paths.add(path)
    return sorted(paths)


def _symbol(lib: ctypes.CDLL, names: tuple[str, ...]):
    for name in names:
        if hasattr(lib, name):
            return getattr(lib, name)
    return None


def _resolve(path: str):
    """The pool's ``(get, set)`` pair, or ``None`` if it lacks one."""
    try:
        # RTLD_NOLOAD: only attach to a library already mapped.
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    getter, setter = _symbol(lib, _GETTERS), _symbol(lib, _SETTERS)
    if getter is None or setter is None:
        return None
    getter.restype = ctypes.c_int
    getter.argtypes = []
    setter.restype = None
    setter.argtypes = [ctypes.c_int]
    return getter, setter


def _loaded_pools():
    """``(file name, get, set)`` for each loaded, resolvable pool."""
    pools = []
    for path in _loaded_openblas_paths():
        pool = _resolve(path)
        if pool is not None:
            pools.append((os.path.basename(path), *pool))
    return pools


#: The pools the last pin resolved (or the first report, before any pin).
_POOLS: list | None = None


def blas_threads() -> dict[str, int]:
    """Each OpenBLAS pool's live thread count, keyed by library file name.

    The pools are resolved once — by :func:`pin_blas_threads`, or by the
    first call here — and each call reads their live
    ``*_get_num_threads`` values, so a ``server_stats`` poll does not
    re-read ``/proc/self/maps`` or re-open the libraries.
    """
    global _POOLS
    if _POOLS is None:
        _POOLS = _loaded_pools()
    return {name: int(get()) for name, get, _ in _POOLS}


def pin_blas_threads() -> dict[str, int]:
    """Set every loaded OpenBLAS pool to one thread; return the pools set.

    Re-resolves the loaded pools (a library may have loaded since the
    last call) and keeps them for :func:`blas_threads`.  Idempotent;
    each call reads ``/proc/self/maps``, so call it once per process
    start, not per poll.  Returns ``{}`` where no pool is found
    (non-Linux, or a BLAS other than OpenBLAS).
    """
    global _POOLS
    _POOLS = _loaded_pools()
    for _, _, set_threads in _POOLS:
        set_threads(1)
    return blas_threads()
