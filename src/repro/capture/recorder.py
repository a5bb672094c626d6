"""Recording taps: capture exactly what the tracker saw.

The recorder sits at the block boundary — *after* the source ring's
overflow policy, *before* the tracker — so a capture holds the
delivered sample stream, not the offered one.  That is the stream a
replay must reproduce: drops that happened upstream are not samples to
re-deliver, they are :class:`gap events <repro.runtime.pipeline.
GapEvent>` to re-enact (the tracker reset that
:meth:`~repro.runtime.pipeline.StreamingPipeline._check_gap` performs
live is re-performed from the recorded gap on replay).

Two taps share one :class:`CaptureRecorder`:

* :class:`RecordingBlockSource` wraps a
  :class:`~repro.runtime.ring.BlockSource` (and hence any upstream —
  an :class:`~repro.hardware.streaming.RxStreamer` or a plain chunk
  iterator).  Drop it into a :class:`~repro.runtime.pipeline.
  StreamingPipeline` as the source and the run is recorded untouched.
* The serve layer calls the recorder's verbs directly from
  :class:`~repro.serve.session.ServeSession` (``repro serve
  --record DIR``): chunks at ingest, columns at resolve, health events
  as they fire.

Gap attribution mirrors the pipeline's own bookkeeping: every drop a
``poll()`` incurs happens while pulling upstream chunks, *before* any
block of that poll is cut, so the whole drop delta is charged to the
first block the poll emits.  A poll that drops but emits nothing
carries the delta forward to the next emitted block — exactly when the
live pipeline would first observe it.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.capture.format import CaptureWriter
from repro.runtime.pipeline import DetectionEvent, HealthEvent
from repro.runtime.ring import BlockSource, SampleBlock, SampleRingBuffer
from repro.runtime.tracker import SpectrogramColumn
from repro.encoding import floats_to_bytes, pack_floats

import zlib

# Manifest event kinds written by the recorder (and consumed by the
# replayer / determinism gate).
EVENT_GAP = "gap"
EVENT_HEALTH = "health"
EVENT_COLUMN = "column"
EVENT_DETECTION = "detection"
EVENT_FAULT_SCHEDULE = "fault_schedule"


class CaptureRecorder:
    """Typed verbs over a :class:`~repro.capture.format.CaptureWriter`.

    One recorder per capture; every verb appends a chunk or manifest
    line immediately (streaming, bounded memory).  The recorder is a
    context manager with the writer's semantics: seal on clean exit,
    leave truncated on error.
    """

    def __init__(self, writer: CaptureWriter):
        self.writer = writer

    # ------------------------------------------------------------------
    # Sample stream
    # ------------------------------------------------------------------

    def record_block(self, samples: np.ndarray, start_index: int) -> None:
        """One delivered sample block, exactly as the tracker saw it."""
        self.writer.append_chunk(samples, start_index)

    def record_gap(self, block_index: int, dropped_samples: int) -> None:
        """Samples vanished upstream just before ``block_index``.

        Replay re-enacts this as a tracker reset before pushing the
        chunk whose ``start_index`` equals ``block_index``.
        """
        self.writer.append_event(
            EVENT_GAP,
            block_index=int(block_index),
            dropped_samples=int(dropped_samples),
        )

    # ------------------------------------------------------------------
    # Outcomes (the determinism gate's reference data)
    # ------------------------------------------------------------------

    def record_column(self, column: SpectrogramColumn) -> None:
        """One emitted spectrogram column, bit-exact.

        The power vector is stored packed with its own CRC32, so the
        replay comparison (``np.array_equal``) runs against exactly the
        floats the original run produced — and a corrupted manifest
        line is caught before it silently weakens the gate.
        """
        power = np.asarray(column.power, dtype=float)
        self.writer.append_event(
            EVENT_COLUMN,
            index=int(column.index),
            start_sample=int(column.start_sample),
            time_s=float(column.time_s),
            power=pack_floats(power),
            power_crc32=zlib.crc32(floats_to_bytes(power)),
            num_sources=int(column.num_sources),
            estimator=str(column.estimator),
        )

    def record_detection(self, detection: DetectionEvent) -> None:
        self.writer.append_event(
            EVENT_DETECTION,
            column_index=int(detection.column_index),
            time_s=float(detection.time_s),
            angle_deg=float(detection.angle_deg),
            strength_db=float(detection.strength_db),
        )

    def record_health(self, event: HealthEvent) -> None:
        self.writer.append_event(
            EVENT_HEALTH,
            block_index=int(event.block_index),
            state=event.state,
            reason=event.reason,
        )

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------

    def record_fault_schedule(self, schedule: Any) -> None:
        """The injected fault schedule (a ``FaultSchedule`` or dict)."""
        if hasattr(schedule, "events"):
            payload = {
                "seed": getattr(schedule, "seed", None),
                "duration_s": getattr(schedule, "duration_s", None),
                "events": [
                    {
                        "kind": event.kind,
                        "start_s": event.start_s,
                        "duration_s": event.duration_s,
                        "magnitude": event.magnitude,
                    }
                    for event in schedule.events
                ],
            }
        else:
            payload = dict(schedule)
        self.writer.append_event(EVENT_FAULT_SCHEDULE, schedule=payload)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def seal(self, **totals: Any) -> None:
        self.writer.seal(**totals)

    def abort(self) -> None:
        self.writer.abort()

    def __enter__(self) -> "CaptureRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.writer.__exit__(exc_type, exc, tb)


class RecordingBlockSource:
    """A :class:`~repro.runtime.ring.BlockSource` tap.

    Source-compatible (``poll``/``drain``/``ring``/``exhausted``/
    ``block_size``), so it drops into a
    :class:`~repro.runtime.pipeline.StreamingPipeline` unchanged.
    Every emitted block is recorded as a chunk; every upstream drop is
    recorded as a gap event charged to the first block emitted at or
    after the drop — the same attribution the pipeline's gap check
    makes live, so replay resets the tracker at the same stream
    positions the original run did.
    """

    def __init__(self, source: BlockSource, recorder: CaptureRecorder):
        self.source = source
        self.recorder = recorder
        self._dropped_recorded = source.ring.dropped_sample_count

    # Source-protocol surface ------------------------------------------

    @property
    def ring(self) -> SampleRingBuffer:
        return self.source.ring

    @property
    def block_size(self) -> int:
        return self.source.block_size

    @property
    def exhausted(self) -> bool:
        return self.source.exhausted

    @property
    def emitted_block_count(self) -> int:
        return self.source.emitted_block_count

    def poll(self) -> list[SampleBlock]:
        blocks = self.source.poll()
        if blocks:
            # All drops of this poll (and of any block-less polls
            # before it) happened while pulling, before the first block
            # was cut: charge them to that block, then record the
            # blocks themselves.
            dropped = self.source.ring.dropped_sample_count
            if dropped != self._dropped_recorded:
                self.recorder.record_gap(
                    block_index=blocks[0].start_index,
                    dropped_samples=dropped - self._dropped_recorded,
                )
                self._dropped_recorded = dropped
            for block in blocks:
                self.recorder.record_block(block.samples, block.start_index)
        return blocks

    def drain(self) -> Iterator[SampleBlock]:
        while True:
            blocks = self.poll()
            if not blocks:
                return
            yield from blocks
