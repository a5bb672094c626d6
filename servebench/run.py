"""The served-column benchmark: launch the service, load it, check every column.

Usage (from the repository root)::

    python3 servebench/run.py --workload live --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then through ``traced_launch.py`` and prints the
per-layer metrics, the tracing overhead among them.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every run is also appended to
``servebench/history/ledger.ndjson``.  See ``servebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from layers import percentile

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "servebench"
OUT_DIR = BENCH_DIR / "out"
LEDGER = BENCH_DIR / "history" / "ledger.ndjson"

#: Launches per run.  Each gets ``--seconds / LAUNCHES`` of timed load,
#: and every end-to-end metric is the median over the launches: one
#: process that starts in a slow state (thread placement, a noisy
#: neighbour) moves the median less than it moves a pooled figure.
LAUNCHES = 5

#: A run whose generator sent its p99 push later than this after its
#: due time measured the generator, not the service: it is flagged
#: invalid on stdout and in the ledger.
LATENESS_LIMIT_MS = 20.0

#: End-to-end metrics (BENCHMARK.json ``end_to_end``) and their units.
#: ``latency_p50_ms`` and ``latency_p99_ms`` are printed and kept in the
#: ledger but not bounded: on a shared 2-CPU host they move by 25 % to
#: several-fold whenever the hypervisor steals CPU (see README.md).
#: ``deadline_miss_fraction`` and ``failed_fraction`` read 0 on a
#: healthy run, so no bound can be a share of them.
END_TO_END = {
    "setup_s": "s",
    "columns_per_s": "1/s",
    "cpu_ms_per_column": "ms",
    "main_thread_cpu_ms_per_column": "ms",
    "server_rss_mb": "MB",
}


@dataclass
class Launch:
    """One launch of the service: its set-up time and its loaded phase."""

    setup_s: float
    requests: list
    marks: object
    roles: dict[str, int]
    spans_dir: Path | None


def provenance(backend: str) -> dict:
    """Where and on what a result was measured."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "dsp_backend": backend,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {
            name: os.environ[name]
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if name in os.environ
        },
    }


def blas_threads() -> int | str:
    """The thread count numpy's bundled OpenBLAS would use here."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                return int(getter())
    return "unknown"


def connections_for(workload) -> int:
    """At most one connection per CPU, and never more than sessions."""
    return min(len(os.sched_getaffinity(0)), workload.sessions)


def service_env() -> dict[str, str]:
    """The user's environment, with this checkout's sources importable.

    BLAS threading is deliberately left as the environment has it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("REPRO_DSP_BACKEND", None)
    return env


def run_launches(workload, traces, seconds_each: float, run_dir: Path, traced: bool) -> list[Launch]:
    """Launch the service LAUNCHES times; each time open the sessions and load it."""
    from loadgen import LoadGenerator
    from service import host_cpu_ticks, launch

    env = service_env()
    launches = []
    for index in range(LAUNCHES):
        name = f"{'traced' if traced else 'plain'}-{index}"
        spans_dir = run_dir / f"spans-{name}" if traced else None
        if traced:
            argv = [str(BENCH_DIR / "traced_launch.py"), str(spans_dir), *workload.service]
        else:
            argv = ["-m", "repro", *workload.service]
        service = launch(ROOT, argv, run_dir / f"service-{name}.log", env)
        try:
            generator = LoadGenerator(service.port, workload, traces, connections_for(workload))
            try:
                generator.open_sessions()
                setup_s = time.monotonic() - service.launched_at

                def sample():
                    return {"proc": service.sample(), "cpu": time.process_time(), "host": host_cpu_ticks()}

                marks = generator.run(seconds_each, sample)
            finally:
                generator.close()
        except BaseException:
            service.kill()
            raise
        service.stop()
        launches.append(Launch(setup_s, generator.requests, marks, dict(service.pids), spans_dir))
    return launches


def analyse(workload, traces, launches: list[Launch]) -> dict:
    """End-to-end numbers, extras, and the correctness verdict of a set of launches."""
    from workloads import HOP_PERIOD_S, check_reply

    divergences = []
    attempted = failed = missed = columns = 0
    request_bytes = reply_bytes = 0
    latencies: list[float] = []
    lateness: list[float] = []
    per_launch: dict[str, list[float]] = {name: [] for name in (*END_TO_END, "latency_p50_ms")}
    wall = gen_cpu = 0.0
    steal = ticks = 0
    cpu_s: dict[str, float] = {}
    main_cpu_s: dict[str, float] = {}
    switches = threads = 0
    delta: dict[str, int] = {}
    backend = "unknown"
    for launched in launches:
        marks = launched.marks
        pushes = [r for r in launched.requests if r.kind == "push"]
        for request in pushes:
            if request.reply is None:
                problem = f"push {request.push} of session {request.session_id} got no reply"
            else:
                problem = check_reply(json.loads(request.reply), traces[request.slot], request.push, request.session_id)
            if problem is not None:
                divergences.append(problem)
        timed = [r for r in pushes if marks.t0 <= r.due < marks.t1]
        attempted += len(timed)
        launch_latencies = []
        launch_columns = 0
        for request in timed:
            if request.reply is None or not request.reply.startswith(b'{"type":"spectrogram_columns"'):
                failed += 1
                missed += 1
                continue
            latency = request.replied - request.due
            launch_latencies.append(latency * 1e3)
            lateness.append((request.sent - request.due) * 1e3)
            if latency > workload.period_s:
                missed += 1
            first, end = traces[request.slot].push_columns[request.push]
            launch_columns += end - first
            request_bytes += request.request_bytes
            reply_bytes += len(request.reply) + 1
        latencies += launch_latencies
        columns += launch_columns
        answered = [r for r in timed if r.reply is not None]
        busy = max(r.replied for r in answered) - min(r.sent for r in timed) if answered else 0.0
        before, after = marks.at_t0["proc"], marks.at_t1["proc"]
        launch_cpu = launch_main_cpu = 0.0
        for role in after:
            used = after[role].cpu_s - before[role].cpu_s
            cpu_s[role] = cpu_s.get(role, 0.0) + used
            launch_cpu += used
            used = after[role].main_cpu_s - before[role].main_cpu_s
            main_cpu_s[role] = main_cpu_s.get(role, 0.0) + used
            launch_main_cpu += used
        per_launch["setup_s"].append(launched.setup_s)
        per_launch["columns_per_s"].append(launch_columns / busy if busy > 0 else 0.0)
        per_launch["latency_p50_ms"].append(percentile(launch_latencies, 50))
        per_launch["cpu_ms_per_column"].append(launch_cpu * 1e3 / launch_columns if launch_columns else 0.0)
        per_launch["main_thread_cpu_ms_per_column"].append(
            launch_main_cpu * 1e3 / launch_columns if launch_columns else 0.0
        )
        per_launch["server_rss_mb"].append(sum(sample.hwm_kb for sample in after.values()) / 1024)
        switches += after["worker"].ctx_switches - before["worker"].ctx_switches
        threads = max(threads, after["worker"].threads)
        wall += marks.at_t1["clock"] - marks.at_t0["clock"]
        gen_cpu += marks.at_t1["cpu"] - marks.at_t0["cpu"]
        steal += marks.at_t1["host"][0] - marks.at_t0["host"][0]
        ticks += marks.at_t1["host"][1] - marks.at_t0["host"][1]
        stats = [json.loads(r.reply) if r.reply else {} for r in marks.stats]
        if len(stats) != 2 or any(s.get("type") != "server_stats_reply" for s in stats):
            raise RuntimeError(f"server_stats probes failed: {stats}")
        backend = stats[1].get("dsp_backend", backend)
        for part in ("server", "scheduler"):
            for key, value in stats[1][part].items():
                if isinstance(value, int) and not isinstance(value, bool):
                    delta[f"{part}.{key}"] = delta.get(f"{part}.{key}", 0) + value - stats[0][part].get(key, 0)

    def per_column(value: float) -> float:
        return value / columns if columns else 0.0

    medians = {name: statistics.median(values) for name, values in per_launch.items()}
    e2e = {name: medians[name] for name in END_TO_END}
    return {
        "attempted": attempted,
        "failed": failed,
        "divergences": divergences,
        "backend": backend,
        "cpu_s": cpu_s,
        "main_cpu_s": main_cpu_s,
        "e2e": e2e,
        "extra": {
            "latency_p50_ms": medians["latency_p50_ms"],
            "latency_p99_ms": percentile(latencies, 99),
            "latency_samples": len(latencies),
            "deadline_miss_fraction": missed / attempted if attempted else 0.0,
            "failed_fraction": failed / attempted if attempted else 0.0,
            "sessions_per_core": HOP_PERIOD_S * 1e3 / e2e["cpu_ms_per_column"] if e2e["cpu_ms_per_column"] else 0.0,
            "per_launch": per_launch,
            "generator_cpu_util": gen_cpu / wall,
            "host_steal_share": steal / ticks if ticks else 0.0,
            "connections": connections_for(workload),
            "server_errors": delta.get("server.errors", 0),
            "server_read_timeouts": delta.get("server.read_timeouts", 0),
            "server_write_timeouts": delta.get("server.write_timeouts", 0),
        },
        "process": {
            "process.server_cpu_util": cpu_s["worker"] / wall,
            "process.server_threads": float(threads),
            "process.frontend_cpu_ms_per_column": per_column(cpu_s.get("frontend", 0.0) * 1e3),
            "process.worker_cpu_ms_per_column": per_column(cpu_s["worker"] * 1e3),
            "process.helper_threads_cpu_ms_per_column": per_column(
                (sum(cpu_s.values()) - sum(main_cpu_s.values())) * 1e3
            ),
            "process.worker_ctx_switches_per_column": per_column(switches),
            "protocol.request_bytes_per_column": per_column(request_bytes),
            "protocol.reply_bytes_per_column": per_column(reply_bytes),
            "scheduler.windows_per_tick": delta.get("scheduler.windows", 0) / delta["scheduler.ticks"] if delta.get("scheduler.ticks") else 0.0,
            "scheduler.shed_windows": float(delta.get("scheduler.shed_windows", 0)),
            "scheduler.watchdog_activations": float(delta.get("scheduler.watchdog_activations", 0)),
            "loadgen.lateness_p99_ms": percentile(lateness, 99),
        },
    }


def print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:40s} {value:14.4f} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from layers import layer_metrics, load_spans
    from workloads import WORKLOADS, make_traces

    if args.workload not in WORKLOADS:
        print(f"servebench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("servebench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    seconds_each = args.seconds / LAUNCHES
    traces = make_traces(workload, args.seed, seconds_each)
    plain = analyse(workload, traces, run_launches(workload, traces, seconds_each, run_dir, traced=False))
    report = plain
    per_layer = {}
    if args.trace:
        launches = run_launches(workload, traces, seconds_each, run_dir, traced=True)
        traced = analyse(workload, traces, launches)
        layers, table = layer_metrics(
            [
                (load_spans(launched.spans_dir), launched.roles, launched.marks.t0, launched.marks.t1)
                for launched in launches
            ],
            traced["cpu_s"],
        )
        per_layer = {**plain["process"], **layers}
        per_layer["trace.overhead_cpu_per_column"] = (
            traced["e2e"]["cpu_ms_per_column"] / plain["e2e"]["cpu_ms_per_column"] - 1.0
        )
        per_layer["trace.overhead_main_thread_cpu_per_column"] = (
            traced["e2e"]["main_thread_cpu_ms_per_column"] / plain["e2e"]["main_thread_cpu_ms_per_column"] - 1.0
        )
        per_layer["trace.overhead_latency_p50"] = (
            traced["extra"]["latency_p50_ms"] / plain["extra"]["latency_p50_ms"] - 1.0
        )
        report = {
            **plain,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "divergences": plain["divergences"] + traced["divergences"],
        }
        print(f"per-layer table, workload {workload.name} (traced run; share = self CPU / all server CPU)")
        for line in table:
            print("  " + line)
        helpers = 1.0 - sum(traced["main_cpu_s"].values()) / sum(traced["cpu_s"].values())
        print(f"  of the unattributed CPU, BLAS helper threads (not the main threads): {helpers:.1%} of all server CPU")
        print(f"  tracing overhead: cpu_ms_per_column {per_layer['trace.overhead_cpu_per_column']:+.1%}, "
              f"main_thread_cpu_ms_per_column {per_layer['trace.overhead_main_thread_cpu_per_column']:+.1%}, "
              f"latency_p50_ms {per_layer['trace.overhead_latency_p50']:+.1%} (traced vs untraced)")

    correct = not report["divergences"]
    lateness = plain["process"]["loadgen.lateness_p99_ms"]
    valid = lateness <= LATENESS_LIMIT_MS
    stamp = provenance(plain["backend"])
    print(f"workload {workload.name}: seed {args.seed}, {args.seconds:g} s timed, "
          f"{plain['extra']['connections']} connections, {workload.sessions} sessions")
    print(f"provenance: {json.dumps(stamp)}")
    print_table("end-to-end (untraced)", [(name, plain["e2e"][name], unit) for name, unit in END_TO_END.items()])
    print_table(
        "also measured (untraced; not bounded)",
        [
            ("latency_p50_ms (median of launches)", plain["extra"]["latency_p50_ms"], "ms"),
            ("latency_p99_ms (all launches pooled)", plain["extra"]["latency_p99_ms"], "ms"),
            ("latency samples", plain["extra"]["latency_samples"], "pushes"),
            ("deadline_miss_fraction (later than the push period)", plain["extra"]["deadline_miss_fraction"], "fraction"),
            ("failed_fraction", plain["extra"]["failed_fraction"], "fraction"),
            ("sessions_per_core (= 80 / cpu_ms_per_column)", plain["extra"]["sessions_per_core"], "sessions"),
            ("process.server_cpu_util", plain["process"]["process.server_cpu_util"], "CPU s/s"),
            ("process.helper_threads_cpu_ms_per_column", plain["process"]["process.helper_threads_cpu_ms_per_column"], "ms"),
            ("loadgen.lateness_p99_ms", lateness, "ms"),
            ("generator CPU", plain["extra"]["generator_cpu_util"], "CPU s/s"),
            ("generator connections", plain["extra"]["connections"], "connections"),
            ("host CPU stolen by the hypervisor", plain["extra"]["host_steal_share"], "fraction"),
        ],
    )
    print("per launch (each end-to-end metric is the median of these):")
    for name, values in plain["extra"]["per_launch"].items():
        print(f"  {name:40s} " + " ".join(f"{value:.4g}" for value in values))
    for problem in report["divergences"][:10]:
        print(f"DIVERGENT: {problem}")
    if not valid:
        print(f"INVALID: the generator ran late (p99 {lateness:.1f} ms > {LATENESS_LIMIT_MS:g} ms); "
              "this run measured the generator, not the service")

    metrics = per_layer if args.trace else plain["e2e"]
    units = per_layer_units() if args.trace else END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match their declaration")
    LEDGER.parent.mkdir(parents=True, exist_ok=True)
    with LEDGER.open("a") as ledger:
        ledger.write(json.dumps({
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **stamp,
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "correct": correct,
            "valid": valid,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "end_to_end": plain["e2e"],
            "extra": plain["extra"],
            "process": plain["process"],
            "per_layer": per_layer,
        }) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric (BENCHMARK.json ``per_layer``) and its unit."""
    from layers import ROLES, SPAN_LAYERS

    units = {
        "process.server_cpu_util": "CPU_s/s",
        "process.server_threads": "count",
        "process.frontend_cpu_ms_per_column": "ms",
        "process.worker_cpu_ms_per_column": "ms",
        "process.helper_threads_cpu_ms_per_column": "ms",
        "process.worker_ctx_switches_per_column": "count",
        "protocol.request_bytes_per_column": "B",
        "protocol.reply_bytes_per_column": "B",
        "scheduler.windows_per_tick": "count",
        "scheduler.shed_windows": "count",
        "scheduler.watchdog_activations": "count",
        "loadgen.lateness_p99_ms": "ms",
    }
    for layer in SPAN_LAYERS:
        units.update({f"{layer}.p50": "us", f"{layer}.p99": "us", f"{layer}.calls": "count", f"{layer}.share": "fraction"})
    units.update({
        "scheduler.queue_wait_us.p50": "us",
        "scheduler.queue_wait_us.p99": "us",
        "scheduler.queue_wait_us.calls": "count",
        "dsp.fallback_fraction": "fraction",
        "dsp.steering_hit_ratio": "fraction",
        "trace.overhead_cpu_per_column": "fraction",
        "trace.overhead_main_thread_cpu_per_column": "fraction",
        "trace.overhead_latency_p50": "fraction",
    })
    units.update({f"unattributed_share.{role}": "fraction" for role in ROLES})
    return units


if __name__ == "__main__":
    raise SystemExit(main())
