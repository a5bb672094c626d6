"""Seeded, verifying load generator for the sensing service.

Spins N concurrent sessions — each its own connection, so the server's
micro-batching (or a fleet frontend's routing) has real cross-session
concurrency to exploit.  One driver, two client kinds:

* **plain** — an :class:`AsyncServeClient` per session streams seeded
  complex noise until ``seconds`` runs out.  This is the throughput
  load; a shed push is counted and skipped.
* **resilient** — a :class:`ResilientServeClient` per session pushes a
  fixed number of blocks of a pre-generated trace, reconnecting and
  resuming through drains, worker crashes and, when a chaos seed is
  given, the seeded transport chaos it applies to itself.  A fixed
  push count (not a clock) keeps chaos runs deterministic.

Either way each session keeps the blocks the server accepted, and once
the clock stops every served column is checked bit-for-bit against the
offline ``compute_spectrogram`` of those samples, outside the timed
window.  So every report carries its divergence count, and
:attr:`LoadReport.passed` is the one gate: zero diverged columns and
every session ``complete`` — a defined end with all its expected
columns.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.chaos import ChaosSchedule, ChaosScheduleConfig, ClientChaos
from repro.core.tracking import TrackingConfig, compute_spectrogram
from repro.errors import ReproError, ServeOverloadError
from repro.runtime.tracker import SpectrogramColumn
from repro.serve.client import AsyncServeClient
from repro.serve.resilient import BackoffPolicy, ResilientServeClient
from repro.serve.session import config_from_wire

#: Default seed; matches benchmarks/common.py (Wi-Vi's SIGCOMM 2013
#: camera-ready date) without importing from outside the package.
DEFAULT_SEED = 20130812

#: Resilient sessions' reconnect budget: enough attempts to ride out a
#: fleet worker restart, not only a dropped connection.
_RESILIENT_BACKOFF = BackoffPolicy(max_attempts=12)


@dataclass
class SessionOutcome:
    """How one load session ended, and what it served."""

    session: int
    #: ``complete``, ``error:<TaxonomyClass>`` (a typed end, including
    #: ``error:IncompleteStream`` for a short column stream), or
    #: ``undefined:<Exception>`` when the driver itself failed.
    outcome: str
    columns: int = 0
    expected_columns: int = 0
    diverged_columns: int = 0
    requests: int = 0
    detections: int = 0
    shed_requests: int = 0
    reconnects: int = 0
    resumes: int = 0
    duplicate_acks: int = 0
    fleet_migrations: int = 0
    chaos_events_applied: int = 0

    @property
    def defined(self) -> bool:
        """Terminal state the failure model allows: done, or typed."""
        return self.outcome == "complete" or self.outcome.startswith("error:")


def _percentile_ms(samples_s: list[float], q: float) -> float:
    if not samples_s:
        return 0.0
    return float(np.percentile(np.asarray(samples_s), q * 100)) * 1e3


@dataclass
class LoadReport:
    """Aggregate outcome of one load run."""

    sessions: int = 0
    resilient: bool = False
    chaos_seed: int | None = None
    #: Wall time of the sessions themselves (verification excluded).
    seconds: float = 0.0
    outcomes: list[SessionOutcome] = field(default_factory=list)
    #: Plain-client request round trips.
    latencies_s: list[float] = field(default_factory=list)
    #: Resilient-client reconnect-to-first-column latencies.
    recovery_latencies_s: list[float] = field(default_factory=list)
    chaos_log: list[str] = field(default_factory=list)
    server_stats: dict[str, Any] = field(default_factory=dict)

    def _total(self, name: str) -> int:
        return sum(getattr(outcome, name) for outcome in self.outcomes)

    @property
    def columns(self) -> int:
        return self._total("columns")

    @property
    def columns_per_s(self) -> float:
        return self.columns / self.seconds if self.seconds > 0 else 0.0

    @property
    def requests(self) -> int:
        return self._total("requests")

    @property
    def shed_requests(self) -> int:
        return self._total("shed_requests")

    @property
    def diverged_columns(self) -> int:
        return self._total("diverged_columns")

    @property
    def total_chaos_events(self) -> int:
        return self._total("chaos_events_applied")

    @property
    def incomplete_sessions(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.outcome != "complete")

    @property
    def all_defined(self) -> bool:
        return all(outcome.defined for outcome in self.outcomes)

    @property
    def passed(self) -> bool:
        """Zero divergence, and every session complete.

        ``complete`` is only kept by a session that served every column
        its accepted samples produce, so this also rules out undefined
        ends and short streams.
        """
        return self.diverged_columns == 0 and self.incomplete_sessions == 0

    def latency_percentile(self, q: float) -> float:
        """Request latency percentile in milliseconds."""
        return _percentile_ms(self.latencies_s, q)

    def recovery_percentile(self, q: float) -> float:
        """Reconnect-to-first-column latency percentile, milliseconds."""
        return _percentile_ms(self.recovery_latencies_s, q)

    def chaos_log_lines(self) -> list[str]:
        """The deterministic chaos record: plans + client-side logs.

        Bit-for-bit identical across runs of the same seeds — the
        property the CI soak diffs.  Server-side STALL_TICK and
        REPLY_LATENCY application is timing-dependent (tick counts vary
        with load), so it is deliberately excluded; see DESIGN.md §11.
        """
        return list(self.chaos_log)

    def summary(self) -> dict[str, Any]:
        scheduler = self.server_stats.get("scheduler", {})
        return {
            "sessions": self.sessions,
            "client": "resilient" if self.resilient else "plain",
            "chaos_seed": self.chaos_seed,
            "seconds": round(self.seconds, 3),
            "requests": self.requests,
            "columns": self.columns,
            "columns_per_s": round(self.columns_per_s, 2),
            "detections": self._total("detections"),
            "shed_requests": self.shed_requests,
            "diverged_columns": self.diverged_columns,
            "incomplete_sessions": self.incomplete_sessions,
            "all_outcomes_defined": self.all_defined,
            "latency_p50_ms": round(self.latency_percentile(0.5), 3),
            "latency_p99_ms": round(self.latency_percentile(0.99), 3),
            "chaos_events_applied": self.total_chaos_events,
            "reconnects": self._total("reconnects"),
            "resumes": self._total("resumes"),
            "duplicate_acks": self._total("duplicate_acks"),
            "fleet_migrations": self._total("fleet_migrations"),
            "recovery_p50_ms": round(self.recovery_percentile(0.5), 3),
            "recovery_p99_ms": round(self.recovery_percentile(0.99), 3),
            "batch_occupancy_mean": scheduler.get("mean_batch_windows"),
            "batch_occupancy_p99": scheduler.get("batch_p99"),
            "shards": [
                {
                    "shard": shard.get("shard"),
                    "state": shard.get("state"),
                    "columns_served": shard.get("columns_served"),
                }
                for shard in self.server_stats.get("shards", [])
            ],
        }


def _session_trace(seed: int, pushes: int, block_size: int) -> np.ndarray:
    """A resilient session's full seeded trace, generated up front.

    Pre-generating (rather than drawing inside the push loop) is what
    makes re-sent pushes bit-identical to the first send.
    """
    rng = np.random.default_rng(seed)
    n = np.arange(pushes * block_size)
    return (
        np.exp(1j * 0.12 * n)
        + 0.4 * np.exp(-1j * 0.05 * n)
        + 0.25 * (rng.standard_normal(len(n)) + 1j * rng.standard_normal(len(n)))
        + 0.6
    )


def _noise_blocks(seed: int, block_size: int, seconds: float) -> Iterator[np.ndarray]:
    """Seeded complex-noise blocks until ``seconds`` after the first."""
    rng = np.random.default_rng(seed)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + seconds
    while loop.time() < deadline:
        yield rng.standard_normal(block_size) + 1j * rng.standard_normal(block_size)


async def _drive_session(
    index: int,
    host: str,
    port: int,
    *,
    resilient: bool,
    seconds: float,
    pushes: int,
    block_size: int,
    seed: int,
    config: dict[str, Any] | None,
    chaos: ClientChaos | None,
    report: LoadReport,
) -> tuple[SessionOutcome, list[np.ndarray], list[SpectrogramColumn]]:
    """One session's lifetime; a protocol failure is an outcome, not a raise.

    Returns the outcome (verified later), the blocks the server
    accepted, and the columns it served.
    """
    outcome = SessionOutcome(session=index, outcome="complete")
    client: AsyncServeClient | ResilientServeClient
    if resilient:
        client = ResilientServeClient(
            host,
            port,
            session_config=config,
            chaos=chaos,
            backoff=_RESILIENT_BACKOFF,
            seed=seed,
            routing_key=f"fleet-load-{index}",
        )
        blocks: Iterator[np.ndarray] = iter(
            _session_trace(seed, pushes, block_size).reshape(pushes, block_size)
        )
    else:
        client = AsyncServeClient(host, port)
        blocks = _noise_blocks(seed, block_size, seconds)
    accepted: list[np.ndarray] = []
    served: list[SpectrogramColumn] = []
    try:
        if isinstance(client, ResilientServeClient):
            await client.start()
        else:
            await client.connect()
            await client.open_session(config=config)
        for block in blocks:
            # Counted before the reply: a push whose reply is lost may
            # still have been applied, and its columns must verify.
            accepted.append(block)
            try:
                reply = await client.push(block)
            except ServeOverloadError:
                if isinstance(client, ResilientServeClient):
                    raise  # it already retried up to its shed limit
                accepted.pop()
                outcome.shed_requests += 1
                await asyncio.sleep(0.01)
                continue
            served.extend(reply.columns)
        await client.close_session()
    except ReproError as exc:
        outcome.outcome = f"error:{type(exc).__name__}"
    except (ConnectionError, OSError, asyncio.IncompleteReadError):
        outcome.outcome = "error:ConnectionError"
    finally:
        await client.aclose()
    if isinstance(client, ResilientServeClient):
        served = client.served_columns()  # deduplicated across re-sends
        stats = client.stats
        outcome.requests = stats.pushes
        outcome.detections = len(client.detections)
        outcome.reconnects = stats.reconnects
        outcome.resumes = stats.resumes
        outcome.duplicate_acks = stats.duplicate_acks
        outcome.fleet_migrations = stats.fleet_migrations
        outcome.chaos_events_applied = stats.chaos_events_applied
        report.recovery_latencies_s.extend(stats.recovery_latencies_s)
    else:
        outcome.requests = client.stats.requests
        outcome.detections = client.stats.detections
        report.latencies_s.extend(client.stats.latencies_s)
    return outcome, accepted, served


def _verify(
    outcome: SessionOutcome,
    accepted: list[np.ndarray],
    served: list[SpectrogramColumn],
    tracking: TrackingConfig,
) -> None:
    """Check every served column against offline compute, bit for bit."""
    samples = np.concatenate(accepted) if accepted else np.empty(0, dtype=complex)
    expected = (
        compute_spectrogram(samples, tracking).power
        if len(samples) >= tracking.window_size
        else np.empty((0, len(tracking.theta_grid_deg)))
    )
    outcome.columns = len(served)
    outcome.expected_columns = len(expected)
    outcome.diverged_columns = sum(
        1
        for column in served
        if column.index >= len(expected)
        or not np.array_equal(column.power, expected[column.index])
    )
    if outcome.outcome == "complete" and len(served) != len(expected):
        outcome.outcome = "error:IncompleteStream"


async def _server_stats(host: str, port: int) -> dict[str, Any]:
    """One last connection for the server's own view of the run."""
    probe = AsyncServeClient(host, port)
    try:
        await probe.connect()
        return await probe.server_stats()
    except (ConnectionError, OSError, ReproError):
        return {}
    finally:
        await probe.aclose()


async def run_load(
    host: str,
    port: int,
    sessions: int = 8,
    *,
    seconds: float = 5.0,
    resilient: bool = False,
    pushes: int = 24,
    block_size: int = 400,
    seed: int = DEFAULT_SEED,
    chaos_seed: int | None = None,
    chaos_config: ChaosScheduleConfig | None = None,
    config: dict[str, Any] | None = None,
) -> LoadReport:
    """Drive ``sessions`` concurrent clients, then verify every column.

    Plain clients stream for ``seconds``; ``resilient=True`` clients
    push ``pushes`` blocks each.  A ``chaos_seed`` runs resilient
    clients under seeded chaos (``resilient`` is implied): session
    ``i`` gets the schedule ``chaos_seed + i`` over its push count.
    Session ``i`` streams seed ``seed + i``, so runs are reproducible
    while sessions stay decorrelated; resilient sessions carry a
    stable ``routing_key``, which a fleet frontend hashes on and a
    direct server ignores.
    """
    resilient = resilient or chaos_seed is not None
    report = LoadReport(sessions=sessions, resilient=resilient, chaos_seed=chaos_seed)
    plans = [
        ClientChaos(
            ChaosSchedule.generate(
                chaos_config or ChaosScheduleConfig(), pushes, chaos_seed + i
            ),
            seed=chaos_seed + i,
        )
        if chaos_seed is not None
        else None
        for i in range(sessions)
    ]
    loop = asyncio.get_running_loop()
    start = loop.time()
    results = await asyncio.gather(
        *[
            _drive_session(
                i,
                host,
                port,
                resilient=resilient,
                seconds=seconds,
                pushes=pushes,
                block_size=block_size,
                seed=seed + i,
                config=config,
                chaos=plans[i],
                report=report,
            )
            for i in range(sessions)
        ],
        return_exceptions=True,
    )
    report.seconds = loop.time() - start
    tracking = config_from_wire(dict(config) if config else None)
    for i, result in enumerate(results):
        if isinstance(result, BaseException):
            # A driver bug, not a protocol outcome: record it as an
            # *undefined* terminal state so the gate fails loudly.
            report.outcomes.append(
                SessionOutcome(session=i, outcome=f"undefined:{type(result).__name__}")
            )
            continue
        outcome, accepted, served = result
        _verify(outcome, accepted, served, tracking)
        report.outcomes.append(outcome)
    for i, plan in enumerate(plans):
        if plan is None:
            continue
        for line in plan.schedule.describe():
            report.chaos_log.append(f"s{i} plan {line}")
        for entry in plan.log:
            report.chaos_log.append(f"s{i} applied {entry.describe()}")
    report.server_stats = await _server_stats(host, port)
    return report
