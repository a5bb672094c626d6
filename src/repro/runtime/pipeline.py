"""The streaming stage graph: source -> condition -> track -> detect -> sink.

This is the online counterpart of ``WiViDevice.image``: instead of
"capture 25 s, then process", sample blocks flow through a short chain
of stages and spectrogram columns, detections, and health events come
out the other end with bounded latency.  Each stage charges its work to
:class:`repro.telemetry.metrics.RuntimeMetrics`, and the condition stage
drives the PR-1 health machine
(:class:`repro.core.monitoring.HealthStateMachine`) block by block, so
an injected fault becomes a visible HEALTHY -> DEGRADED transition
*while the stream runs* rather than a post-mortem.

Events are delivered two ways: :meth:`StreamingPipeline.process` is a
generator yielding them as they happen (the CLI's live display), and
:meth:`StreamingPipeline.run` drains the stream into a
:class:`StreamResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.monitoring import DeviceHealth, HealthStateMachine, RecoveryPolicy
from repro.core.tracking import MotionSpectrogram
from repro.telemetry.metrics import RuntimeMetrics, StageTimer
from repro.runtime.ring import BlockSource, SampleBlock
from repro.runtime.tracker import SpectrogramColumn, StreamingTracker
from repro.telemetry.context import get_telemetry

# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnEvent:
    """A spectrogram column completed."""

    column: SpectrogramColumn


@dataclass(frozen=True)
class DetectionEvent:
    """A moving target outshone the DC stripe in one column."""

    column_index: int
    time_s: float
    angle_deg: float
    strength_db: float


@dataclass(frozen=True)
class HealthEvent:
    """The health machine changed state mid-stream."""

    block_index: int
    state: DeviceHealth
    reason: str


@dataclass(frozen=True)
class GapEvent:
    """The source ring dropped samples: signal time vanished.

    The tracker is reset when a gap lands — phase continuity does not
    survive missing samples, so windows restart cleanly after the gap.
    """

    block_index: int
    dropped_samples: int


StreamEvent = ColumnEvent | DetectionEvent | HealthEvent | GapEvent


# ----------------------------------------------------------------------
# Condition stage
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BlockHealth:
    """Screening verdict for one sample block (cf. ``CaptureHealth``)."""

    nan_fraction: float
    zero_fraction: float
    saturation_fraction: float

    @property
    def damaged_fraction(self) -> float:
        return self.nan_fraction + self.zero_fraction


def screen_block(samples: np.ndarray) -> BlockHealth:
    """Block-level NaN / dead-air / rail-plateau screening.

    The streaming sibling of
    :func:`repro.core.monitoring.screen_series`, operating on a raw
    sample block: saturation is the fraction of samples whose I or Q
    rail sits within 0.1% of the block's maximum excursion — *beyond*
    the peak sample itself, which trivially sits on its own rail.
    (Blocks are far shorter than captures, so the O(1/n) floor that
    ``screen_series`` tolerates would trip the policy threshold on a
    clean 16-sample tail block.)
    """
    samples = np.asarray(samples)
    if len(samples) == 0:
        raise ValueError("cannot screen an empty block")
    finite = np.isfinite(samples)
    # Copy out the finite samples only when some are not.
    if finite.all():
        nan_fraction, clean = 0.0, samples
    else:
        nan_fraction, clean = float(np.mean(~finite)), samples[finite]
    # count / size is the float np.mean of the mask gives, without its
    # generic reduction wrapper: both are one correctly rounded division.
    zero_fraction = np.count_nonzero(clean == 0.0) / clean.size if clean.size else 0.0
    saturation_fraction = 0.0
    if clean.size:
        rails = np.maximum(np.abs(clean.real), np.abs(clean.imag))
        peak = float(rails.max())
        if peak > 0.0:
            at_rail = int(np.count_nonzero(rails >= 0.999 * peak))
            saturation_fraction = (at_rail - 1) / len(samples)
    return BlockHealth(
        nan_fraction=nan_fraction,
        zero_fraction=zero_fraction,
        saturation_fraction=saturation_fraction,
    )


class ConditionStage:
    """Screens each block and drives the health machine.

    A block whose damage or saturation exceeds the policy thresholds is
    a *bad* block: the machine degrades (with the PR-1 hysteresis), and
    the state transition surfaces as a :class:`HealthEvent`.  Repair is
    optional and off by default — the golden-equivalence contract wants
    the tracker to see exactly what the radio delivered, and the MUSIC
    degeneracy guard already handles corrupt windows frame by frame.
    """

    def __init__(
        self,
        policy: RecoveryPolicy | None = None,
        machine: HealthStateMachine | None = None,
        repair: bool = False,
    ):
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.machine = (
            machine if machine is not None else HealthStateMachine(self.policy)
        )
        self.repair = repair
        self.bad_block_count = 0
        self.repaired_sample_count = 0

    def _repair_block(self, samples: np.ndarray) -> tuple[np.ndarray, int]:
        """Rail-wise linear interpolation over non-finite samples."""
        bad = ~np.isfinite(samples)
        count = int(np.count_nonzero(bad))
        if count == 0:
            return samples, 0
        good = np.flatnonzero(~bad)
        if len(good) < 2:
            return np.where(bad, 0.0, samples), count
        bad_indices = np.flatnonzero(bad)
        samples = np.array(samples, dtype=complex)
        samples[bad_indices] = np.interp(
            bad_indices, good, samples[good].real
        ) + 1j * np.interp(bad_indices, good, samples[good].imag)
        return samples, count

    def process(self, block: SampleBlock) -> tuple[SampleBlock, list[HealthEvent]]:
        """Screen (and optionally repair) one block; report transitions."""
        health = screen_block(block.samples)
        transitions_before = len(self.machine.transitions)
        if (
            health.damaged_fraction > self.policy.max_repairable_fraction
            or health.saturation_fraction > self.policy.max_saturation_fraction
        ):
            self.bad_block_count += 1
            self.machine.record_bad(
                f"bad block (nan={health.nan_fraction:.3f}, "
                f"zero={health.zero_fraction:.3f}, "
                f"sat={health.saturation_fraction:.3f})"
            )
        elif health.damaged_fraction > 0:
            self.bad_block_count += 1
            self.machine.record_bad(
                f"damaged block (nan={health.nan_fraction:.3f}, "
                f"zero={health.zero_fraction:.3f})"
            )
        else:
            self.machine.record_good()
        if self.repair:
            repaired_samples, count = self._repair_block(block.samples)
            if count:
                self.repaired_sample_count += count
                block = SampleBlock(
                    samples=repaired_samples, start_index=block.start_index
                )
        events = [
            HealthEvent(
                block_index=block.start_index,
                state=transition.target,
                reason=transition.reason,
            )
            for transition in self.machine.transitions[transitions_before:]
        ]
        return block, events


# ----------------------------------------------------------------------
# Detect stage
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DetectorConfig:
    """Per-column motion detection over the normalized dB column.

    A detection fires when the strongest off-DC peak stands more than
    ``threshold_db`` above the DC stripe (cf.
    :func:`repro.core.detection.peak_to_dc_ratio_db`, per column).
    """

    dc_guard_deg: float = 10.0
    threshold_db: float = 0.0

    def __post_init__(self) -> None:
        if self.dc_guard_deg < 0:
            raise ValueError("DC guard must be non-negative")


class DetectStage:
    """Flags columns whose off-DC peak outshines the DC stripe."""

    def __init__(
        self,
        config: DetectorConfig | None = None,
        theta_grid_deg: np.ndarray | None = None,
    ):
        self.config = config if config is not None else DetectorConfig()
        self._off_dc: np.ndarray | None = None
        if theta_grid_deg is not None:
            self._bind_grid(np.asarray(theta_grid_deg))

    def _bind_grid(self, theta_grid_deg: np.ndarray) -> None:
        self.theta_grid_deg = theta_grid_deg
        self._off_dc = np.abs(theta_grid_deg) >= self.config.dc_guard_deg
        if not np.any(self._off_dc) or np.all(self._off_dc):
            raise ValueError("DC guard leaves an empty region")

    def process(
        self, column: SpectrogramColumn, theta_grid_deg: np.ndarray
    ) -> DetectionEvent | None:
        if self._off_dc is None:
            self._bind_grid(theta_grid_deg)
        db = 20.0 * np.log10(np.maximum(column.power, np.finfo(float).tiny))
        off = self._off_dc
        peak_off = float(db[off].max())
        peak_dc = float(db[~off].max())
        strength = peak_off - peak_dc
        if strength <= self.config.threshold_db:
            return None
        masked = np.where(off, db, -np.inf)
        angle = float(self.theta_grid_deg[int(np.argmax(masked))])
        return DetectionEvent(
            column_index=column.index,
            time_s=column.time_s,
            angle_deg=angle,
            strength_db=strength,
        )


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------


@dataclass
class StreamResult:
    """Everything a drained stream produced."""

    columns: list[SpectrogramColumn] = field(default_factory=list)
    detections: list[DetectionEvent] = field(default_factory=list)
    health_events: list[HealthEvent] = field(default_factory=list)
    gaps: list[GapEvent] = field(default_factory=list)
    metrics: RuntimeMetrics = field(default_factory=RuntimeMetrics)

    def spectrogram(self, tracker: StreamingTracker) -> MotionSpectrogram:
        """The offline-shaped image assembled from the emitted columns."""
        return StreamingTracker.assemble(self.columns, tracker.config)


class StreamingPipeline:
    """Wires source -> condition -> track -> detect -> sink.

    Args:
        source: the block source (over an ``RxStreamer`` or iterator).
        tracker: the incremental spectrogram stage.
        condition: block screening + health machine (optional; built
            with defaults when omitted).
        detector: per-column motion detection (None disables it).
        sink: callback invoked with every event, in stream order (the
            CLI's live printer; metrics charge its time to "sink").
    """

    def __init__(
        self,
        source: BlockSource,
        tracker: StreamingTracker,
        condition: ConditionStage | None = None,
        detector: DetectStage | None = None,
        sink=None,
    ):
        self.source = source
        self.tracker = tracker
        self.condition = condition if condition is not None else ConditionStage()
        self.detector = detector
        self.sink = sink
        self.metrics = RuntimeMetrics()
        # Share the tracker's own metrics object under its stage name.
        self.metrics.stages["track"] = tracker.metrics
        self._dropped_seen = 0

    @property
    def health(self) -> DeviceHealth:
        """The machine's current state (visible mid-stream)."""
        return self.condition.machine.state

    def _deliver(self, event: StreamEvent) -> StreamEvent:
        telemetry = get_telemetry()
        if telemetry.enabled:
            if isinstance(event, DetectionEvent):
                telemetry.metrics.counter("stream.detections").inc()
                telemetry.events.emit(
                    "stream.detection",
                    column_index=event.column_index,
                    time_s=event.time_s,
                    angle_deg=event.angle_deg,
                    strength_db=event.strength_db,
                )
            elif isinstance(event, GapEvent):
                telemetry.metrics.counter("stream.gap_samples").inc(
                    event.dropped_samples
                )
                telemetry.events.emit(
                    "stream.gap",
                    block_index=event.block_index,
                    dropped_samples=event.dropped_samples,
                )
        if self.sink is not None:
            with StageTimer(self.metrics.stage("sink"), items_in=1):
                self.sink(event)
        return event

    def _check_gap(self, block_index: int) -> GapEvent | None:
        dropped = self.source.ring.dropped_sample_count
        if dropped == self._dropped_seen:
            return None
        gap = GapEvent(
            block_index=block_index, dropped_samples=dropped - self._dropped_seen
        )
        self._dropped_seen = dropped
        self.tracker.reset()
        return gap

    def process(self):
        """Generator over stream events, in order, until source end.

        With an open ``RxStreamer`` upstream, the generator simply
        stops when the streamer runs dry; re-invoking it after more
        pushes continues the stream (state lives in the stages, not in
        the generator).
        """
        while True:
            with StageTimer(self.metrics.stage("source")) as source_timer:
                blocks = self.source.poll()
                source_timer.items_out = sum(len(b) for b in blocks)
            if not blocks:
                return
            for block in blocks:
                gap = self._check_gap(block.start_index)
                if gap is not None:
                    yield self._deliver(gap)
                with StageTimer(
                    self.metrics.stage("condition"), items_in=len(block)
                ) as timer:
                    block, health_events = self.condition.process(block)
                    timer.items_out = len(block)
                for event in health_events:
                    yield self._deliver(event)
                columns = self.tracker.push(block.samples)
                for column in columns:
                    yield self._deliver(ColumnEvent(column))
                    if self.detector is not None:
                        with StageTimer(
                            self.metrics.stage("detect"), items_in=1
                        ) as timer:
                            detection = self.detector.process(
                                column, self.tracker.config.theta_grid_deg
                            )
                            timer.items_out = 0 if detection is None else 1
                        if detection is not None:
                            yield self._deliver(detection)

    def run(self) -> StreamResult:
        """Drain the stream and collect everything it produced."""
        result = StreamResult(metrics=self.metrics)
        for event in self.process():
            if isinstance(event, ColumnEvent):
                result.columns.append(event.column)
            elif isinstance(event, DetectionEvent):
                result.detections.append(event)
            elif isinstance(event, HealthEvent):
                result.health_events.append(event)
            elif isinstance(event, GapEvent):
                result.gaps.append(event)
        return result
