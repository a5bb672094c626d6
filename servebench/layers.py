"""Per-layer numbers from the traced run's spans.

Each span's self time is its duration minus what its child spans
cover.  A layer's ``share`` is its spans' self CPU divided by the CPU
every server process used in the timed phase, as read from /proc; the
CPU no span covers is that process's ``unattributed_share`` (event
loop, sockets, BLAS helper threads).  Layer shares plus the
unattributed shares therefore sum to one.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Span name -> layer metric, per process role.
LAYER_OF = {
    "worker": {
        "decode_frame": "protocol.decode_us",
        "decode_samples": "protocol.decode_us",
        "column_to_wire": "protocol.encode_us",
        "encode_frame": "protocol.encode_us",
        "ingest": "session.ingest_us",
        "resolve": "session.resolve_us",
        "checkpoint": "session.checkpoint_us",
        "submit": "scheduler.submit_us",
        "estimate_windows_batch": "dsp.estimate_us_per_window",
        "music_batch": "dsp.music_us_per_window",
        "smoothed_covariance_batch": "dsp.covariance_us_per_window",
        "eigh_descending_batch": "dsp.eigh_us_per_window",
        "music_pseudospectra_batch": "dsp.pseudospectra_us_per_window",
    },
    "frontend": {
        "decode_frame": "fleet.relay_us",
        "encode_frame": "fleet.relay_us",
    },
}

#: Layers timed per push request (their spans summed by push id).
PER_PUSH = {"protocol.decode_us", "protocol.encode_us", "fleet.relay_us"}

#: Every span layer, in the order the table prints them.
SPAN_LAYERS = [
    "protocol.decode_us",
    "session.ingest_us",
    "scheduler.submit_us",
    "dsp.estimate_us_per_window",
    "dsp.music_us_per_window",
    "dsp.covariance_us_per_window",
    "dsp.eigh_us_per_window",
    "dsp.pseudospectra_us_per_window",
    "session.resolve_us",
    "session.checkpoint_us",
    "protocol.encode_us",
    "fleet.relay_us",
]

ROLES = ("worker", "frontend")

# Span record fields (see traced_launch.py).
NAME, PARENT, PUSH, W0, W1, C0, C1, WINDOWS, FALLBACK = range(9)


def load_spans(spans_dir: Path) -> dict[int, dict]:
    """pid -> that process's span file."""
    return {
        int(path.stem.split("-")[1]): json.loads(path.read_text())
        for path in sorted(spans_dir.glob("spans-*.json"))
    }


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(
    launches: list[tuple[dict[int, dict], dict[str, int], float, float]],
    cpu_s: dict[str, float],
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over the spans that start in each launch's timed phase.

    Each launch is ``(spans by pid, role -> pid, t0, t1)``; ``cpu_s``
    maps role to the CPU seconds /proc measured for it over the timed
    phases of all launches.  Returns the metrics and the table lines
    that show them.
    """
    total_cpu_ns = sum(cpu_s.values()) * 1e9
    self_cpu: dict[str, float] = defaultdict(float)
    samples: dict[str, list[float]] = defaultdict(list)
    covered: dict[str, float] = defaultdict(float)
    metrics: dict[str, float] = {}
    windows = fallback = 0
    waits: list[float] = []
    steering = [0, 0]
    for spans_by_pid, roles, t0, t1 in launches:
        lo, hi = int(t0 * 1e9), int(t1 * 1e9)
        for role, pid in roles.items():
            data = spans_by_pid[pid]
            steering[0] += data["steering_hits"]
            steering[1] += data["steering_misses"]
            spans = data["spans"]
            child_cpu = [0] * len(spans)
            for span in spans:
                if span[PARENT] >= 0:
                    child_cpu[span[PARENT]] += span[C1] - span[C0]
            per_push: dict[tuple[str, str], float] = defaultdict(float)
            submits = []
            estimates = []
            for index, span in enumerate(spans):
                name = span[NAME]
                if name == "submit":
                    submits.append(span[W0])
                elif name == "estimate_windows_batch":
                    estimates.append((span[W0], span[WINDOWS]))
                if not lo <= span[W0] < hi:
                    continue
                layer = LAYER_OF[role][name]
                own = span[C1] - span[C0] - child_cpu[index]
                self_cpu[layer] += own
                covered[role] += own
                wall_us = (span[W1] - span[W0]) / 1e3
                if layer in PER_PUSH:
                    if span[PUSH]:
                        per_push[(layer, span[PUSH])] += wall_us
                else:
                    samples[layer].append(wall_us / span[WINDOWS])
                if name == "estimate_windows_batch":
                    windows += span[WINDOWS]
                    fallback += span[FALLBACK]
            for (layer, _), wall_us in per_push.items():
                samples[layer].append(wall_us)
            # One group key and FIFO admission: the k-th window submitted
            # is the k-th window a batch estimates.
            starts = np.repeat([start for start, _ in estimates], [n for _, n in estimates])
            for submitted, started in zip(submits, starts):
                if lo <= submitted < hi:
                    waits.append((started - submitted) / 1e3)
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.p50"] = percentile(samples[layer], 50)
        metrics[f"{layer}.p99"] = percentile(samples[layer], 99)
        metrics[f"{layer}.calls"] = float(len(samples[layer]))
        metrics[f"{layer}.share"] = self_cpu[layer] / total_cpu_ns if total_cpu_ns else 0.0
    metrics["scheduler.queue_wait_us.p50"] = percentile(waits, 50)
    metrics["scheduler.queue_wait_us.p99"] = percentile(waits, 99)
    metrics["scheduler.queue_wait_us.calls"] = float(len(waits))
    metrics["dsp.fallback_fraction"] = fallback / windows if windows else 0.0
    metrics["dsp.steering_hit_ratio"] = steering[0] / sum(steering) if sum(steering) else 0.0
    for role in ROLES:
        if role in cpu_s and total_cpu_ns:
            metrics[f"unattributed_share.{role}"] = (cpu_s[role] * 1e9 - covered[role]) / total_cpu_ns
        else:
            metrics[f"unattributed_share.{role}"] = 0.0

    lines = [
        f"{'layer':34s} {'p50_us':>10s} {'p99_us':>10s} {'calls':>8s} {'share':>7s}",
    ]
    for layer in SPAN_LAYERS:
        lines.append(
            f"{layer:34s} {metrics[layer + '.p50']:10.1f} {metrics[layer + '.p99']:10.1f}"
            f" {int(metrics[layer + '.calls']):8d} {metrics[layer + '.share']:7.1%}"
        )
    lines.append(
        f"{'scheduler.queue_wait_us':34s} {metrics['scheduler.queue_wait_us.p50']:10.1f}"
        f" {metrics['scheduler.queue_wait_us.p99']:10.1f}"
        f" {int(metrics['scheduler.queue_wait_us.calls']):8d} {'':>7s}"
    )
    for role in ROLES:
        lines.append(f"{'unattributed_share.' + role:34s} {'':>10s} {'':>10s} {'':>8s} {metrics['unattributed_share.' + role]:7.1%}")
    accounted = sum(metrics[f"{layer}.share"] for layer in SPAN_LAYERS) + sum(
        metrics[f"unattributed_share.{role}"] for role in ROLES
    )
    lines.append(f"{'accounted (layers + unattributed)':34s} {'':>10s} {'':>10s} {'':>8s} {accounted:7.1%}")
    return metrics, lines
