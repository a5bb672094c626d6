"""The benchmark's workloads, their seeded traces, and the correctness gate.

Every session streams its own seeded trace.  The traces and their
offline spectrograms are made before the service starts, so the
program under test sees only the generated samples, and every served
column can be checked against ``compute_spectrogram`` afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.core.tracking import TrackingConfig, compute_spectrogram
from repro.encoding import encode_samples, unpack_floats

#: The paper's stream: one column per 25-sample hop at 312.5 Hz, so a
#: session pushing one hop every 80 ms is a radio in real time.
HOP_PERIOD_S = 0.08


@dataclass(frozen=True)
class Workload:
    """One traffic mix, always an open loop.

    Every session pushes one block every ``period_s`` on its own phase,
    whether or not its earlier pushes were answered, so a slow service
    builds a queue instead of receiving less load.

    Attributes:
        service: CLI arguments after ``python -m repro``.
        sessions: concurrent sessions, spread over the connections.
        block: samples per push.
        period_s: seconds between one session's pushes; also the
            deadline of each push.
        resumable: sessions open ``resumable: true`` and every push
            carries a ``seq`` (replies then carry checkpoints).
    """

    name: str
    service: tuple[str, ...]
    sessions: int
    block: int
    period_s: float
    resumable: bool


WORKLOADS = {
    # The paper's real-time stream at its smallest useful push: per-request
    # layers dominate and the scheduler batches about one window per tick.
    "live": Workload(
        name="live",
        service=("serve", "--port", "0"),
        sessions=8,
        block=25,
        period_s=HOP_PERIOD_S,
        resumable=False,
    ),
    # Capture replay in full scheduler batches (1600 samples = 64 windows):
    # DSP kernels dominate and per-request layers nearly vanish.
    "replay": Workload(
        name="replay",
        service=("serve", "--port", "0"),
        sessions=2,
        block=1600,
        period_s=0.25,
        resumable=False,
    ),
    # The live schedule through the fleet frontend with resumable
    # sessions: adds the relay hop and a checkpoint on every reply.
    "fleet_resilient": Workload(
        name="fleet_resilient",
        service=("fleet", "--workers", "1", "--port", "0"),
        sessions=8,
        block=25,
        period_s=HOP_PERIOD_S,
        resumable=True,
    ),
}

#: Load applied before each timed phase starts.
WARMUP_S = 1.0

#: Seconds of schedule kept running after the timed phase, so the last
#: timed pushes meet the same load as the rest.
TAIL_S = 0.5


def synthetic_trace(rng: np.random.Generator, num_samples: int) -> np.ndarray:
    """A nulled-channel trace: one or two walkers, a DC residual and noise.

    Each walker is a moving reflector whose Doppler (phase slope) drifts
    slowly, as a person changing speed and direction does, so MUSIC sees
    real sources that move across the angle grid.
    """
    n = np.arange(num_samples)
    trace = np.zeros(num_samples, dtype=complex)
    for _ in range(int(rng.integers(1, 3))):
        base = rng.uniform(-0.6, 0.6)
        swing = rng.uniform(0.05, 0.4)
        period = rng.uniform(400.0, 2400.0)
        slope = base + swing * np.sin(2 * np.pi * n / period + rng.uniform(0, 2 * np.pi))
        trace += rng.uniform(0.3, 1.0) * np.exp(1j * (np.cumsum(slope) + rng.uniform(0, 2 * np.pi)))
    trace += rng.uniform(0.05, 0.3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    sigma = rng.uniform(0.05, 0.3)
    trace += sigma * (rng.standard_normal(num_samples) + 1j * rng.standard_normal(num_samples))
    return trace


@dataclass
class SessionTrace:
    """One session's input, as wire payloads, and its offline result."""

    #: Per push: the ``samples`` field of the wire frame, JSON-encoded once.
    push_payloads: list[bytes]
    #: Per push: index of the first column it completes, and the end.
    push_columns: list[tuple[int, int]]
    power: np.ndarray
    times_s: np.ndarray
    source_counts: np.ndarray
    estimators: np.ndarray


def make_traces(workload: Workload, seed: int, seconds: float) -> list[SessionTrace]:
    """Every session's trace, wire payloads and offline spectrogram.

    A trace covers every push one launch schedules: warm-up, ``seconds``
    of timed phase, and the tail.
    """
    config = TrackingConfig()
    num_pushes = int(np.ceil((WARMUP_S + seconds + TAIL_S) / workload.period_s)) + 1
    traces = []
    for index in range(workload.sessions):
        rng = np.random.default_rng([seed, index])
        samples = synthetic_trace(rng, num_pushes * workload.block)
        offline = compute_spectrogram(samples, config)
        payloads = []
        columns = []
        done = 0
        for push in range(num_pushes):
            block = samples[push * workload.block : (push + 1) * workload.block]
            payloads.append(json.dumps(encode_samples(block)).encode())
            seen = (push + 1) * workload.block
            ready = (seen - config.window_size) // config.hop + 1 if seen >= config.window_size else 0
            columns.append((done, ready))
            done = ready
        traces.append(
            SessionTrace(
                push_payloads=payloads,
                push_columns=columns,
                power=offline.power,
                times_s=offline.times_s,
                source_counts=offline.source_counts,
                estimators=offline.estimators,
            )
        )
    return traces


def check_reply(reply: dict, trace: SessionTrace, push: int, session_id: str) -> str | None:
    """Compare one push reply with the offline spectrogram.

    Returns ``None`` when every column the push should complete came
    back ``np.array_equal`` to the offline one, else what diverged.
    """
    if reply.get("type") != "spectrogram_columns":
        return f"reply type {reply.get('type')!r}: {reply.get('message', '')}"
    if reply.get("session") != session_id:
        return f"reply for session {reply.get('session')!r}, expected {session_id!r}"
    first, end = trace.push_columns[push]
    columns = reply.get("columns", [])
    if len(columns) != end - first:
        return f"push {push} returned {len(columns)} columns, expected {end - first}"
    for offset, column in enumerate(columns):
        index = first + offset
        if column.get("index") != index:
            return f"push {push} column index {column.get('index')}, expected {index}"
        if not np.array_equal(unpack_floats(column["power"]), trace.power[index]):
            return f"push {push} column {index}: power differs from offline"
        if (
            column.get("time_s") != float(trace.times_s[index])
            or column.get("num_sources") != int(trace.source_counts[index])
            or column.get("estimator") != str(trace.estimators[index])
        ):
            return f"push {push} column {index}: metadata differs from offline"
    return None
