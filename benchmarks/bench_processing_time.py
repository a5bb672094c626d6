"""§7.1 — processing time for a 25-second trace, kernels vs legacy loop.

"Processing traces of 25-second length took on average 1.0564 s per
trace, with a standard deviation of 0.2561 s" (Matlab R2012a, Intel i7).
This bench times the batched ``repro.dsp`` pipeline on a trace of the
same length, times the frozen per-window reference loop on the same
trace, asserts the two agree to <= 1e-12 with identical estimator
decisions, and writes ``BENCH_processing_time.json`` for the CI
perf-smoke step.

It also records the per-window cost of ``estimate_windows_batch`` on
windows of the same trace, stacked one at a time (a one-window serving
tick) and 64 at a time (a full batch), stamped with the CPU count, the
DSP backend and the BLAS pool thread counts.  That row is reported, not
gated.

It then re-times the same trace on every available non-default DSP
backend (``--backend NAME`` restricts the sweep) and merges a
per-backend entry — throughput, speedup over the float64 kernels,
guard/count agreement, and the measured Eq. 5.3 denominator error —
under the ``"backends"`` key of the same JSON, where
``check_perf.py`` gates the float32 fast path.
"""

import os
import time

import numpy as np

from common import SEED, emit, write_bench_json
from repro.core.tracking import (
    TrackingConfig,
    compute_spectrogram,
    estimate_windows_batch,
)
from repro.dsp import (
    DEFAULT_BACKEND,
    active_backend_name,
    backend_infos,
    get_backend,
    use_backend,
)
from repro.dsp.blas import blas_threads
from repro.dsp.windows import sliding_windows
from repro.dsp.reference import spectrogram_reference
from repro.environment.walls import stata_conference_room_small
from repro.simulator.experiment import make_subject_pool, tracking_trial


def bench_processing_time(benchmark, bench_backend):
    rng = np.random.default_rng(SEED + 30)
    pool = make_subject_pool(rng)
    trial = tracking_trial(stata_conference_room_small(), 2, 25.0, rng, pool)
    samples = trial.series.samples
    config = TrackingConfig()

    # Warm the steering cache so both timed paths pay no build cost.
    spectrogram = compute_spectrogram(samples, config)
    num_windows = spectrogram.num_windows

    def best_of(runs, func):
        best = np.inf
        for _ in range(runs):
            start = time.perf_counter()
            result = func()
            best = min(best, time.perf_counter() - start)
        return best, result

    batched_s, spectrogram = best_of(3, lambda: compute_spectrogram(samples, config))
    reference_s, (ref_power, ref_counts, ref_estimators) = best_of(
        3, lambda: spectrogram_reference(samples, config)
    )

    # The speedup is only meaningful if the outputs are the same math.
    np.testing.assert_allclose(spectrogram.power, ref_power, rtol=1e-12, atol=1e-12)
    assert np.array_equal(spectrogram.source_counts, ref_counts)
    assert np.array_equal(spectrogram.estimators, ref_estimators)

    windows_per_s = num_windows / batched_s
    reference_windows_per_s = num_windows / reference_s
    speedup = reference_s / batched_s
    columns_per_s = windows_per_s  # one spectrogram column per window

    # -- per-window cost of the batched pass at the two serving shapes --
    # Contiguous copies, as the scheduler stacks them; every window of
    # the stack is timed in both shapes, best of five passes.
    _, windows = sliding_windows(samples, config.window_size, config.hop)
    stack = np.ascontiguousarray(windows[:64])
    batch_of_one_s, _ = best_of(
        5, lambda: [estimate_windows_batch(w[np.newaxis], config) for w in stack]
    )
    batch_of_64_s, _ = best_of(5, lambda: estimate_windows_batch(stack, config))
    per_window_us = {
        "batch_1": batch_of_one_s / len(stack) * 1e6,
        "batch_64": batch_of_64_s / len(stack) * 1e6,
    }

    lines = [
        "Smoothed-MUSIC processing of a 25 s trace "
        f"({len(samples)} channel samples -> {num_windows} windows):",
        "  paper (Matlab, i7):       1.056 s +/- 0.256 s",
        f"  reference loop (numpy):   {reference_s:.3f} s "
        f"({reference_windows_per_s:.0f} windows/s)",
        f"  batched kernels (numpy):  {batched_s:.3f} s "
        f"({windows_per_s:.0f} windows/s)",
        f"  speedup:                  {speedup:.1f}x",
        f"  estimate_windows_batch:   {per_window_us['batch_1']:.0f} us/window "
        f"at a batch of 1, {per_window_us['batch_64']:.0f} us/window at 64",
        "",
        "Outputs agree to <= 1e-12 with identical estimator decisions.",
    ]
    # -- the backend sweep: same trace, every available fast path -------
    if bench_backend is not None:
        sweep = [bench_backend]
    else:
        sweep = [
            info.name
            for info in backend_infos()
            if info.available and info.name != DEFAULT_BACKEND
        ]
    backends = {}
    for name in sweep:
        backend = get_backend(name)
        with use_backend(name):
            # Warm this backend's steering/transform memo off the clock.
            compute_spectrogram(samples, config)
            backend_s, fast = best_of(
                3, lambda: compute_spectrogram(samples, config)
            )

        # Guard parity end to end: estimator and count decisions must
        # be backend-invariant before any speedup means anything.
        assert np.array_equal(fast.estimators, spectrogram.estimators), (
            f"backend {name} changed estimator decisions"
        )
        count_agreement = float(
            np.mean(fast.source_counts == spectrogram.source_counts)
        )
        assert count_agreement == 1.0, (
            f"backend {name} changed source counts"
        )
        music = spectrogram.estimators == "music"
        with np.errstate(divide="ignore"):
            den = 1.0 / np.square(fast.power[music])
            den_ref = 1.0 / np.square(spectrogram.power[music])
        max_den_err = float(np.max(np.abs(den - den_ref))) if music.any() else 0.0
        max_den_err_per_m = max_den_err / config.subarray_size
        if backend.den_budget_per_m is not None:
            assert max_den_err_per_m <= backend.den_budget_per_m, (
                f"backend {name}: denominator error {max_den_err_per_m:.3g}/m "
                f"over its {backend.den_budget_per_m:.3g}/m budget"
            )
        backends[name] = {
            "batched_s": backend_s,
            "windows_per_s": num_windows / backend_s,
            "speedup_vs_float64": batched_s / backend_s,
            "speedup_vs_reference": reference_s / backend_s,
            "count_agreement": count_agreement,
            "max_den_err_per_m": max_den_err_per_m,
        }
        lines.append(
            f"  backend {name}:  {backend_s:.3f} s "
            f"({num_windows / backend_s:.0f} windows/s, "
            f"{batched_s / backend_s:.2f}x vs float64, "
            f"den err {max_den_err_per_m:.2e}/m)"
        )

    emit("processing_time_25s", "\n".join(lines))
    write_bench_json(
        "processing_time",
        {
            "trace_duration_s": 25.0,
            "num_samples": len(samples),
            "num_windows": num_windows,
            "batched_s": batched_s,
            "reference_s": reference_s,
            "windows_per_s": windows_per_s,
            "columns_per_s": columns_per_s,
            "reference_windows_per_s": reference_windows_per_s,
            "speedup_vs_reference": speedup,
            "estimate_windows_batch_us_per_window": per_window_us,
            "cpu_count": os.cpu_count() or 1,
            "dsp_backend": active_backend_name(),
            "blas_threads": blas_threads(),
            "backends": backends,
        },
    )

    # Within an order of magnitude of the paper on any modern machine,
    # and the batch layer must beat the per-window loop decisively.
    assert batched_s < 10.0
    assert speedup >= 3.0, (
        f"batched kernels only {speedup:.2f}x over the reference loop; "
        "expected >= 3x"
    )

    benchmark(compute_spectrogram, samples, config)
