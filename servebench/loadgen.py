"""The load generator: one process, one thread, a few connections.

Sessions are multiplexed over at most ``nproc`` TCP connections.  The
service answers each connection's frames in order, so replies are
matched to requests first-in, first-out.  Replies are only
timestamped and kept during the run; decoding and checking them is
left to after the timed phase, so the generator spends its CPU on
keeping the schedule.

Every session pushes on its own fixed schedule whether or not earlier
pushes were answered (an open loop), and a push is timed from when it
was due, so a stall also counts against the pushes queued behind it.
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from workloads import TAIL_S, WARMUP_S, SessionTrace, Workload

#: How long the generator waits for outstanding replies after its last send.
REPLY_GRACE_S = 15.0


@dataclass
class Request:
    """One frame sent and, once it arrives, its reply."""

    kind: str
    slot: int = -1
    push: int = -1
    session_id: str = ""
    due: float = math.nan
    sent: float = math.nan
    replied: float = math.nan
    request_bytes: int = 0
    reply: bytes | None = None


class Connection:
    """One non-blocking client connection with FIFO reply matching."""

    def __init__(self, port: int, selector: selectors.BaseSelector):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.selector = selector
        self.outbox = bytearray()
        self.inbox = bytearray()
        self.scanned = 0
        self.pending: deque[Request] = deque()
        selector.register(self.sock, selectors.EVENT_READ, self)

    def send(self, request: Request, data: bytes, now: float) -> None:
        request.sent = now
        request.request_bytes = len(data)
        self.pending.append(request)
        self.outbox += data
        self.flush()

    def flush(self) -> None:
        if self.outbox:
            try:
                sent = self.sock.send(self.outbox)
            except BlockingIOError:
                sent = 0
            del self.outbox[:sent]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self.outbox else 0)
        if self.selector.get_key(self.sock).events != events:
            self.selector.modify(self.sock, events, self)

    def receive(self, now: float) -> None:
        """Read what arrived and hand each complete reply to its request."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("service closed a load connection")
        self.inbox += data
        while True:
            end = self.inbox.find(b"\n", self.scanned)
            if end < 0:
                self.scanned = len(self.inbox)
                return
            request = self.pending.popleft()
            request.reply = bytes(self.inbox[:end])
            request.replied = now
            del self.inbox[: end + 1]
            self.scanned = 0

    def close(self) -> None:
        self.selector.unregister(self.sock)
        self.sock.close()


@dataclass
class PhaseMarks:
    """When the timed phase began and ended, and what was read there."""

    t0: float = math.nan
    t1: float = math.nan
    at_t0: dict = field(default_factory=dict)
    at_t1: dict = field(default_factory=dict)
    stats: list[Request] = field(default_factory=list)


class LoadGenerator:
    """Drives one workload against a running service."""

    def __init__(self, port: int, workload: Workload, traces: list[SessionTrace], connections: int):
        self.workload = workload
        self.traces = traces
        self.selector = selectors.DefaultSelector()
        self.conns = [Connection(port, self.selector) for _ in range(connections)]
        self.session_ids = [""] * workload.sessions
        self.requests: list[Request] = []

    # -- plumbing ------------------------------------------------------

    def _conn(self, slot: int) -> Connection:
        return self.conns[slot % len(self.conns)]

    def _send(self, conn: Connection, request: Request, frame: bytes) -> None:
        self.requests.append(request)
        conn.send(request, frame, time.monotonic())

    def _push_frame(self, slot: int, push: int) -> bytes:
        seq = f',"seq":{push + 1}' if self.workload.resumable else ""
        return b'{"type":"push_blocks","session":"%s"%s,"samples":%s}\n' % (
            self.session_ids[slot].encode(),
            seq.encode(),
            self.traces[slot].push_payloads[push],
        )

    def _open_frame(self) -> bytes:
        frame: dict = {"type": "open_session"}
        if self.workload.resumable:
            frame["resumable"] = True
        return (json.dumps(frame) + "\n").encode()

    def _poll(self, timeout: float) -> None:
        for key, events in self.selector.select(max(timeout, 0.0)):
            conn: Connection = key.data
            if events & selectors.EVENT_WRITE:
                conn.flush()
            if events & selectors.EVENT_READ:
                conn.receive(time.monotonic())

    def _outstanding(self) -> int:
        return sum(len(conn.pending) for conn in self.conns)

    def _drain(self) -> None:
        deadline = time.monotonic() + REPLY_GRACE_S
        while self._outstanding() and time.monotonic() < deadline:
            self._poll(deadline - time.monotonic())

    def _stats_request(self, marks: PhaseMarks) -> None:
        request = Request(kind="stats")
        marks.stats.append(request)
        self._send(self.conns[0], request, b'{"type":"server_stats"}\n')

    # -- phases ----------------------------------------------------------

    def open_sessions(self) -> None:
        """Open every session (pipelined) and learn its id."""
        opens = []
        for slot in range(self.workload.sessions):
            request = Request(kind="open", slot=slot)
            opens.append(request)
            self._send(self._conn(slot), request, self._open_frame())
        self._drain()
        for request in opens:
            reply = json.loads(request.reply) if request.reply else {}
            if reply.get("type") != "session_opened":
                raise RuntimeError(f"open_session failed: {reply}")
            self.session_ids[request.slot] = reply["session"]
        self.requests.clear()

    def run(self, seconds: float, sample: Callable[[], dict]) -> PhaseMarks:
        """Push on the schedule: warm-up, the timed phase, then a short tail."""
        workload = self.workload
        period = workload.period_s
        marks = PhaseMarks()
        base = time.monotonic() + 0.05
        t0 = base + WARMUP_S
        t1 = t0 + seconds
        end = t1 + TAIL_S
        schedule = []
        for slot in range(workload.sessions):
            phase = slot * period / workload.sessions
            push = 0
            while base + phase + push * period < end:
                schedule.append((base + phase + push * period, slot, push))
                push += 1
        schedule.sort()
        marks_due = [(t0, marks.at_t0), (t1, marks.at_t1)]
        index = 0
        while index < len(schedule) or marks_due:
            now = time.monotonic()
            if marks_due and marks_due[0][0] <= now:
                _, into = marks_due.pop(0)
                into.update(sample())
                into["clock"] = now
                self._stats_request(marks)
                continue
            if index < len(schedule) and schedule[index][0] <= now:
                due, slot, push = schedule[index]
                index += 1
                request = Request(kind="push", slot=slot, push=push, due=due)
                request.session_id = self.session_ids[slot]
                self._send(self._conn(slot), request, self._push_frame(slot, push))
                continue
            next_due = min(
                schedule[index][0] if index < len(schedule) else math.inf,
                marks_due[0][0] if marks_due else math.inf,
            )
            self._poll(next_due - now)
        marks.t0, marks.t1 = t0, t1
        self._drain()
        return marks

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.selector.close()
