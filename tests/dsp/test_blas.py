"""One BLAS thread per serving process: the pin, its visibility, its bits.

A serving process pins every loaded OpenBLAS pool to one thread in
``SensingServer.start()``.  The offline reference runs unpinned, so the
served == offline contract needs the pin to change threading only:
the same bytes at the library's default thread count and at one.
"""

import asyncio
import json
import os
import subprocess
import sys

import pytest

from repro.dsp.blas import _loaded_pools, blas_threads, pin_blas_threads
from repro.serve import AsyncServeClient, SensingServer

pytestmark = pytest.mark.skipif(
    not blas_threads(), reason="no OpenBLAS pool loaded (non-Linux or another BLAS)"
)


def _pool_names(maps_path):
    """File names of the OpenBLAS libraries a ``/proc/<pid>/maps`` lists."""
    names = set()
    with open(maps_path) as maps:
        for line in maps:
            fields = line.split(maxsplit=5)
            if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower():
                names.add(os.path.basename(fields[5].strip()))
    return names


def _unpin(threads=2):
    """Undo an earlier pin in this process (any in-process server pins)."""
    for _, _, set_threads in _loaded_pools():
        set_threads(threads)
    assert set(blas_threads().values()) == {threads}


def test_pin_sets_every_loaded_pool_to_one_thread():
    _unpin()
    pinned = pin_blas_threads()
    assert set(pinned) == _pool_names("/proc/self/maps")
    assert set(pinned.values()) == {1}
    assert blas_threads() == pinned


def test_server_start_pins_and_server_stats_report_it():
    _unpin()

    async def run():
        server = SensingServer()
        await server.start()
        try:
            client = AsyncServeClient("127.0.0.1", server.port)
            await client.connect()
            stats = await client.server_stats()
            await client.aclose()
        finally:
            await server.shutdown()
        return stats

    stats = asyncio.run(run())
    reported = stats["scheduler"]["blas_threads"]
    assert set(reported) == _pool_names("/proc/self/maps")
    assert set(reported.values()) == {1}
    assert blas_threads() == reported


_DIGESTS = """
import hashlib, json
import numpy as np
from repro.core.tracking import TrackingConfig, compute_spectrogram
from repro.dsp.backend import active_backend
from repro.dsp.blas import _loaded_pools, blas_threads, pin_blas_threads

def digests():
    rng = np.random.default_rng(11)
    n = np.arange(20000)
    trace = (
        np.exp(2j * np.pi * (0.01 * n + 2e-7 * n**2))
        + 0.5 * np.exp(-2j * np.pi * 0.02 * n)
        + 0.1 * (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size))
    )
    config = TrackingConfig()
    windows = np.stack(
        [trace[s:s + config.window_size] for s in range(0, 200 * config.hop, config.hop)]
    )
    backend = active_backend()
    arrays = [
        compute_spectrogram(trace, config).power,
        np.stack([backend.music_batch(w[None], config).power for w in windows]),
        backend.music_batch(windows, config).power,
    ]
    return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays]

default = blas_threads()
before = digests()
pinned = pin_blas_threads()
print(json.dumps({"default": default, "pinned": pinned, "before": before, "after": digests()}))
"""


def test_pinned_kernels_are_bit_identical_to_default_threads():
    # A fresh process, so the first pass runs at the library's default
    # thread count (no thread variables inherited from the caller).
    env = {
        name: value
        for name, value in os.environ.items()
        if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "REPRO_DSP_BACKEND")
    }
    result = subprocess.run(
        [sys.executable, "-c", _DIGESTS],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["default"], "no OpenBLAS pool in the subprocess"
    # On more than one CPU the first pass really ran multi-threaded.
    assert max(report["default"].values()) > 1 or len(os.sched_getaffinity(0)) == 1
    assert set(report["pinned"].values()) == {1}
    assert report["before"] == report["after"]
