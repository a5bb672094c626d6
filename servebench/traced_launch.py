"""Run the ``repro`` CLI with a span around each layer's public functions.

Usage: ``python servebench/traced_launch.py SPANS_DIR serve --port 0``
(any ``repro`` command line after the directory).

The spans are timed from outside the program: before ``repro.cli.main``
runs, this launcher replaces the public functions of each layer with
wrappers that record one span per call.  Forked fleet workers inherit
the wrappers and start with an empty span list.  Spans stay in memory;
each process writes its own ``spans-<pid>.json`` once
``SensingServer.shutdown`` returns (workers and a direct server) and
again when the CLI returns (the fleet frontend).

A span is ``[name, parent, push, wall_start_ns, wall_end_ns,
cpu_start_ns, cpu_end_ns, windows, fallback_windows]``: wall times are
``CLOCK_MONOTONIC``, comparable across processes; CPU times are the
calling thread's, so helper threads (BLAS) stay outside every span.
``parent`` is the index of the enclosing span in the same process and
task, ``push`` names the push request the span served
(``<session>#<n>``, empty outside a push).
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import sys
import time
from pathlib import Path

_spans: list[list] = []
_current = contextvars.ContextVar("servebench_span", default=-1)
_push = contextvars.ContextVar("servebench_push", default="")
_push_counts: dict[str, int] = {}
_spans_dir = Path(".")


def _reset_in_child() -> None:
    _spans.clear()
    _push_counts.clear()


def _traced(name: str, fn, windows_arg: int | None = None):
    wall = time.monotonic_ns
    cpu = time.thread_time_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = [name, _current.get(), _push.get(), 0, 0, 0, 0, 1, 0]
        if windows_arg is not None:
            record[7] = len(args[windows_arg])
        token = _current.set(len(_spans))
        _spans.append(record)
        w0 = wall()
        c0 = cpu()
        try:
            return fn(*args, **kwargs)
        finally:
            record[6] = cpu()
            record[4] = wall()
            record[3] = w0
            record[5] = c0
            _current.reset(token)

    return wrapper


def _traced_decode_frame(fn):
    """``decode_frame`` also starts a push: it names the request's spans."""
    traced = _traced("decode_frame", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(_spans)
        frame = traced(*args, **kwargs)
        kind = frame.get("type")
        if kind == "push_blocks":
            session = str(frame.get("session"))
            count = _push_counts.get(session, 0) + 1
            _push_counts[session] = count
            push = f"{session}#{count}"
            _push.set(push)
            _spans[index][2] = push
        elif kind != "spectrogram_columns":
            # A relay decodes the worker's reply to the push it forwarded;
            # any other frame starts a request that is not a push.
            _push.set("")
        return frame

    return wrapper


def _traced_estimate(fn):
    """``estimate_windows_batch`` also counts beamforming fallbacks."""
    traced = _traced("estimate_windows_batch", fn, windows_arg=0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(_spans)
        power, counts, estimators = traced(*args, **kwargs)
        _spans[index][8] = int((estimators != "music").sum())
        return power, counts, estimators

    return wrapper


def dump() -> None:
    """Write this process's spans (idempotent: rewrites the same file)."""
    from repro.dsp import steering

    info = steering.cache_info()
    payload = {
        "pid": os.getpid(),
        "steering_hits": info.hits,
        "steering_misses": info.misses,
        "spans": _spans,
    }
    path = _spans_dir / f"spans-{os.getpid()}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)


def install() -> None:
    """Wrap every layer's public functions in place."""
    from repro.dsp.backend import active_backend
    from repro.serve import protocol, scheduler
    from repro.serve.scheduler import MicroBatchScheduler
    from repro.serve.server import SensingServer
    from repro.serve.session import ServeSession

    protocol.decode_frame = _traced_decode_frame(protocol.decode_frame)
    protocol.encode_frame = _traced("encode_frame", protocol.encode_frame)
    protocol.decode_samples = _traced("decode_samples", protocol.decode_samples)
    protocol.column_to_wire = _traced("column_to_wire", protocol.column_to_wire)
    ServeSession.ingest = _traced("ingest", ServeSession.ingest)
    ServeSession.resolve = _traced("resolve", ServeSession.resolve)
    ServeSession.checkpoint = _traced("checkpoint", ServeSession.checkpoint)
    MicroBatchScheduler.submit = _traced("submit", MicroBatchScheduler.submit)
    # The scheduler imported it by value, so it is rebound where it is used.
    scheduler.estimate_windows_batch = _traced_estimate(scheduler.estimate_windows_batch)
    backend = active_backend()
    backend.music_batch = _traced("music_batch", backend.music_batch, windows_arg=0)
    backend.smoothed_covariance_batch = _traced(
        "smoothed_covariance_batch", backend.smoothed_covariance_batch, windows_arg=0
    )
    backend.eigh_descending_batch = _traced(
        "eigh_descending_batch", backend.eigh_descending_batch, windows_arg=0
    )
    backend.music_pseudospectra_batch = _traced(
        "music_pseudospectra_batch", backend.music_pseudospectra_batch, windows_arg=1
    )

    shutdown = SensingServer.shutdown

    @functools.wraps(shutdown)
    async def shutdown_then_dump(self):
        await shutdown(self)
        dump()

    SensingServer.shutdown = shutdown_then_dump
    os.register_at_fork(after_in_child=_reset_in_child)


def main() -> int:
    global _spans_dir
    _spans_dir = Path(sys.argv[1])
    _spans_dir.mkdir(parents=True, exist_ok=True)
    install()
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        dump()


if __name__ == "__main__":
    raise SystemExit(main())
