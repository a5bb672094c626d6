"""CI perf smoke: compare BENCH_*.json results to committed baselines.

Run after the benchmark scripts:

    python benchmarks/check_perf.py

Gates, all deliberately generous — this is a smoke test against
order-of-magnitude regressions (e.g. the batched path silently falling
back to a per-window loop), not a microbenchmark:

* ``bench_processing_time.py`` (required): ``windows_per_s`` must
  reach ``min_fraction_of_baseline`` of the committed baseline
  throughput (CI runners vary widely in speed), and
  ``speedup_vs_reference`` must stay above
  ``min_speedup_vs_reference`` — machine-independent, since both paths
  run on the same hardware.  The ``backends`` section must contain a
  ``numpy-float32`` entry clearing the ``float32_*`` floors (speedup
  over the float64 kernels and over the reference loop) and its
  denominator-error budget.
* ``bench_serve_load.py`` (optional — gated only when
  ``BENCH_serve_load.json`` exists): ``columns_per_s`` against the
  serve baseline's fraction floor, and ``speedup_vs_serial`` — the
  cross-session micro-batching win over the identical server with
  ``max_batch_windows=1`` — above ``min_speedup_vs_serial``.
* ``bench_fleet.py`` (optional — gated only when ``BENCH_fleet.json``
  exists): zero diverged columns always; the 2-worker-over-1-worker
  scaling floor applies only when the bench recorded
  ``multi_core: true`` — on a single-core runner both workers
  time-share one CPU and the ratio is noise, so the scaling check is
  skipped with a note.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent
OUTPUT = BENCH_DIR / "output"
BASELINES = BENCH_DIR / "baselines"


def _check_processing_time(failures: list[str]) -> None:
    result_path = OUTPUT / "BENCH_processing_time.json"
    if not result_path.exists():
        failures.append(f"missing {result_path}; run bench_processing_time.py first")
        return
    result = json.loads(result_path.read_text())
    baseline = json.loads((BASELINES / "processing_time_baseline.json").read_text())

    floor = baseline["windows_per_s"] * baseline["min_fraction_of_baseline"]
    min_speedup = baseline["min_speedup_vs_reference"]
    windows_per_s = result["windows_per_s"]
    speedup = result["speedup_vs_reference"]

    print(
        f"dsp throughput: {windows_per_s:.0f} windows/s "
        f"(baseline {baseline['windows_per_s']:.0f}, floor {floor:.0f})"
    )
    print(f"dsp speedup vs reference loop: {speedup:.2f}x (floor {min_speedup:.1f}x)")

    if windows_per_s < floor:
        failures.append(
            f"throughput {windows_per_s:.0f} windows/s below floor {floor:.0f}"
        )
    if speedup < min_speedup:
        failures.append(f"speedup {speedup:.2f}x below floor {min_speedup:.1f}x")

    _check_backends(result, baseline, failures)


def _check_backends(result: dict, baseline: dict, failures: list[str]) -> None:
    """Gate the DSP backend sweep merged into BENCH_processing_time.json.

    The ``numpy-float32`` fast path is required — it ships with the
    repo and must earn its keep on every machine: a floor on its
    speedup over the float64 kernels and over the frozen reference
    loop (both same-hardware ratios), and a ceiling on its measured
    denominator error.
    """
    backends = result.get("backends", {})
    f32 = backends.get("numpy-float32")
    if f32 is None:
        failures.append(
            "no numpy-float32 entry under 'backends' in "
            "BENCH_processing_time.json; the backend sweep did not run"
        )
        return
    min_vs_f64 = baseline["float32_min_speedup_vs_float64"]
    min_vs_ref = baseline["float32_min_speedup_vs_reference"]
    max_err = baseline["float32_max_den_err_per_m"]
    print(
        f"dsp float32 fast path: {f32['windows_per_s']:.0f} windows/s "
        f"({f32['speedup_vs_float64']:.2f}x vs float64, floor {min_vs_f64:.1f}x; "
        f"{f32['speedup_vs_reference']:.2f}x vs reference, floor {min_vs_ref:.1f}x; "
        f"den err {f32['max_den_err_per_m']:.2e}/m, ceiling {max_err:.0e}/m)"
    )
    if f32["speedup_vs_float64"] < min_vs_f64:
        failures.append(
            f"float32 speedup vs float64 {f32['speedup_vs_float64']:.2f}x "
            f"below floor {min_vs_f64:.1f}x"
        )
    if f32["speedup_vs_reference"] < min_vs_ref:
        failures.append(
            f"float32 speedup vs reference {f32['speedup_vs_reference']:.2f}x "
            f"below floor {min_vs_ref:.1f}x"
        )
    if f32["max_den_err_per_m"] > max_err:
        failures.append(
            f"float32 denominator error {f32['max_den_err_per_m']:.3g}/m "
            f"over the {max_err:.0e}/m budget"
        )
    if f32["count_agreement"] != 1.0:
        failures.append(
            f"float32 count agreement {f32['count_agreement']:.4f} != 1.0"
        )


def _check_serve_load(failures: list[str]) -> None:
    result_path = OUTPUT / "BENCH_serve_load.json"
    if not result_path.exists():
        print("serve gate skipped: no BENCH_serve_load.json")
        return
    result = json.loads(result_path.read_text())
    baseline = json.loads((BASELINES / "serve_load_baseline.json").read_text())

    floor = baseline["columns_per_s"] * baseline["min_fraction_of_baseline"]
    min_speedup = baseline["min_speedup_vs_serial"]
    columns_per_s = result["columns_per_s"]
    speedup = result["speedup_vs_serial"]

    print(
        f"serve throughput: {columns_per_s:.0f} columns/s "
        f"(baseline {baseline['columns_per_s']:.0f}, floor {floor:.0f})"
    )
    print(f"serve speedup vs serial dispatch: {speedup:.2f}x (floor {min_speedup:.1f}x)")

    if columns_per_s < floor:
        failures.append(
            f"serve throughput {columns_per_s:.0f} columns/s below floor {floor:.0f}"
        )
    if speedup < min_speedup:
        failures.append(
            f"serve speedup {speedup:.2f}x below floor {min_speedup:.1f}x"
        )
    if result.get("diverged_columns", 0):
        failures.append(
            f"serve load diverged on {result['diverged_columns']} columns"
        )
    if result.get("incomplete_sessions", 0):
        failures.append(
            f"serve load left {result['incomplete_sessions']} sessions incomplete"
        )

    if "chaos_recovery_p50_ms" in result:
        print(
            f"serve chaos recovery: p50 {result['chaos_recovery_p50_ms']:.1f} ms, "
            f"p99 {result['chaos_recovery_p99_ms']:.1f} ms over "
            f"{result.get('chaos_reconnects', 0)} reconnects"
        )
        if result.get("chaos_diverged_columns", 0):
            failures.append(
                f"chaos run diverged on {result['chaos_diverged_columns']} columns"
            )

    if "dashboard_overhead_pct" in result:
        max_overhead = baseline.get("max_dashboard_overhead_pct", 5.0)
        overhead = result["dashboard_overhead_pct"]
        print(
            f"serve dashboard overhead: {overhead:.2f}% "
            f"(gate < {max_overhead:.0f}%, ws columns "
            f"{result.get('dashboard_ws_columns', 0)}, metrics scrapes "
            f"{result.get('dashboard_metrics_scrapes', 0)})"
        )
        if overhead >= max_overhead:
            failures.append(
                f"dashboard overhead {overhead:.2f}% breaches the "
                f"{max_overhead:.0f}% gate"
            )
        if not result.get("dashboard_ws_columns", 0):
            failures.append("dashboard bench: the live consumer received no columns")


def _check_fleet(failures: list[str]) -> None:
    result_path = OUTPUT / "BENCH_fleet.json"
    if not result_path.exists():
        print("fleet gate skipped: no BENCH_fleet.json")
        return
    result = json.loads(result_path.read_text())
    baseline = json.loads((BASELINES / "fleet_baseline.json").read_text())

    floor = (
        baseline["columns_per_s_1_worker"] * baseline["min_fraction_of_baseline"]
    )
    one_worker = result["columns_per_s_1_worker"]
    scaling = result["scaling_2_workers"]
    min_scaling = baseline["min_scaling_2_workers"]

    print(
        f"fleet throughput: {one_worker:.0f} columns/s at 1 worker "
        f"(baseline {baseline['columns_per_s_1_worker']:.0f}, floor {floor:.0f})"
    )
    if one_worker < floor:
        failures.append(
            f"fleet throughput {one_worker:.0f} columns/s below floor {floor:.0f}"
        )

    if result.get("multi_core"):
        print(
            f"fleet 2-worker scaling: {scaling:.2f}x (floor {min_scaling:.1f}x)"
        )
        if scaling < min_scaling:
            failures.append(
                f"fleet 2-worker scaling {scaling:.2f}x below floor "
                f"{min_scaling:.1f}x"
            )
    else:
        print(
            f"fleet scaling gate skipped: single-core runner "
            f"({result.get('cpu_count', 1)} cpu, measured {scaling:.2f}x)"
        )

    if result.get("diverged_columns", 0):
        failures.append(
            f"fleet load diverged on {result['diverged_columns']} columns"
        )
    if result.get("incomplete_sessions", 0):
        failures.append(
            f"fleet load left {result['incomplete_sessions']} sessions incomplete"
        )
    if not result.get("all_outcomes_defined", True):
        failures.append("a fleet load session ended in an undefined state")


def main() -> int:
    """Exit 0 when every present benchmark clears its baseline gates."""
    failures: list[str] = []
    _check_processing_time(failures)
    _check_serve_load(failures)
    _check_fleet(failures)
    for failure in failures:
        print(f"PERF REGRESSION: {failure}")
    if not failures:
        print("perf smoke OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
