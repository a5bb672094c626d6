"""Fleet frontend — columns/s scaling across worker processes.

The number this bench exists for: **columns/s through the routing
frontend at 2 workers vs 1 worker**, same seeded load, same hardware.
Each worker is a full serving stack in its own forked process, so on a
multi-core machine the 2-worker fleet should approach 2x the 1-worker
throughput — the whole point of sharding past the GIL.  On a
single-core runner the two workers time-share one CPU and the ratio is
meaningless; the scaling gate in ``check_perf.py`` therefore only
applies when the recorded ``multi_core`` flag is true.

Correctness rides along: every session's served columns are verified
against offline compute inside ``run_load``, so a routing or
relay bug fails the bench rather than inflating its throughput.
"""

import asyncio
import os

from common import SEED, emit, format_table, trial_count, write_bench_json
from repro.fleet import FleetConfig, FleetServer
from repro.serve import ServeConfig, run_load

SESSIONS = 16
BLOCK_SIZE = 200
SESSION_CONFIG = {"window_size": 64, "hop": 16, "subarray_size": 16}
WORKER_COUNTS = (1, 2)
MIN_SCALING_MULTI_CORE = 1.7


def _run_fleet_case(workers: int, pushes: int):
    """One fleet + seeded resilient load run, fully in-process."""

    async def run():
        fleet = FleetServer(
            FleetConfig(workers=workers, serve=ServeConfig())
        )
        port = await fleet.start()
        try:
            return await run_load(
                "127.0.0.1",
                port,
                resilient=True,
                sessions=SESSIONS,
                pushes=pushes,
                block_size=BLOCK_SIZE,
                seed=SEED + 54,
                config=SESSION_CONFIG,
            )
        finally:
            await fleet.shutdown()

    return asyncio.run(run())


def bench_fleet_scaling():
    pushes = trial_count(6, 16)
    multi_core = (os.cpu_count() or 1) > 1
    reports = {w: _run_fleet_case(w, pushes) for w in WORKER_COUNTS}

    scaling = reports[2].columns_per_s / max(reports[1].columns_per_s, 1e-9)

    rows = [
        [
            f"{w} worker{'s' if w > 1 else ''}",
            reports[w].columns,
            f"{reports[w].columns_per_s:.0f}",
            reports[w].diverged_columns,
            sum(o.reconnects for o in reports[w].outcomes),
        ]
        for w in WORKER_COUNTS
    ]
    table = format_table(
        ["fleet", "columns", "cols/s", "diverged", "reconnects"], rows
    )
    gate_note = (
        f"(gate: >= {MIN_SCALING_MULTI_CORE:.1f}x)"
        if multi_core
        else f"(gate skipped: single-core runner, {os.cpu_count()} cpu)"
    )
    lines = [
        f"{SESSIONS} resilient sessions, {pushes} pushes of "
        f"{BLOCK_SIZE} samples each, per worker count:",
        table,
        "",
        f"2-worker scaling: {scaling:.2f}x {gate_note}",
        "every served column verified against offline compute",
    ]
    emit("fleet", "\n".join(lines))

    write_bench_json(
        "fleet",
        {
            "sessions": SESSIONS,
            "pushes": pushes,
            "block_size": BLOCK_SIZE,
            "subarray_size": SESSION_CONFIG["subarray_size"],
            "multi_core": multi_core,
            "cpu_count": os.cpu_count() or 1,
            "columns_per_s_1_worker": reports[1].columns_per_s,
            "columns_per_s_2_workers": reports[2].columns_per_s,
            "scaling_2_workers": scaling,
            "diverged_columns": sum(
                r.diverged_columns for r in reports.values()
            ),
            "incomplete_sessions": sum(
                r.incomplete_sessions for r in reports.values()
            ),
            "all_outcomes_defined": all(
                r.all_defined for r in reports.values()
            ),
        },
    )

    for w in WORKER_COUNTS:
        assert reports[w].columns > 0, f"{w}-worker fleet served no columns"
        assert reports[w].diverged_columns == 0, (
            f"{w}-worker fleet diverged from the offline reference"
        )
        assert reports[w].incomplete_sessions == 0, (
            f"{w}-worker fleet left sessions incomplete"
        )
        assert reports[w].all_defined, (
            f"a {w}-worker session ended in an undefined state"
        )
    if multi_core:
        assert scaling >= MIN_SCALING_MULTI_CORE, (
            f"2-worker scaling {scaling:.2f}x is below the "
            f"{MIN_SCALING_MULTI_CORE:.1f}x gate on a multi-core machine"
        )
    else:
        print(
            "fleet scaling gate skipped: single-core runner "
            "(workers time-share one CPU)"
        )


if __name__ == "__main__":
    bench_fleet_scaling()
