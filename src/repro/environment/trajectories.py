"""Motion models for the humans (and robots) Wi-Vi tracks.

The paper's tracking experiments ask subjects to "enter a room, close
the door, and move at will" (§7.2) — modelled here by
:class:`RandomWaypointTrajectory`.  The gesture experiments use scripted
steps forward and backward (§6.1) — :class:`GestureTrajectory`.

Every trajectory maps time (seconds) to a plan-view
:class:`~repro.environment.geometry.Point` and exposes a velocity; the
ISAR processing only ever sees the phase history these motions induce.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.environment.geometry import Point, distance, interpolate, unit_vector
from repro.environment.walls import Room

#: Average time one gesture (two steps) took the paper's subjects:
#: 2.2 s with a 0.4 s standard deviation (§7.5).
GESTURE_DURATION_MEAN_S = 2.2
GESTURE_DURATION_STD_S = 0.4

#: "Typical step sizes were 2-3 feet" (§7.5), in metres.
STEP_LENGTH_RANGE_M = (0.61, 0.91)


class Trajectory(ABC):
    """A continuous plan-view motion."""

    @abstractmethod
    def position(self, time_s: float) -> Point:
        """Location at ``time_s``."""

    @abstractmethod
    def duration_s(self) -> float:
        """Total duration over which the trajectory is defined."""

    def velocity(self, time_s: float, epsilon_s: float = 1e-3) -> Point:
        """Velocity vector by central finite difference.

        Subclasses with closed-form velocities may override.
        """
        before = self.position(max(time_s - epsilon_s, 0.0))
        after = self.position(min(time_s + epsilon_s, self.duration_s()))
        dt = min(time_s + epsilon_s, self.duration_s()) - max(time_s - epsilon_s, 0.0)
        if dt <= 0:
            return Point(0.0, 0.0)
        return Point((after.x - before.x) / dt, (after.y - before.y) / dt)

    def speed(self, time_s: float) -> float:
        """Scalar speed at ``time_s``."""
        return self.velocity(time_s).norm()


@dataclass(frozen=True)
class StationaryTrajectory(Trajectory):
    """A subject who does not move (the 0-human / empty-room baseline
    uses no trajectory at all; this models someone standing still)."""

    location: Point
    total_duration_s: float = math.inf

    def position(self, time_s: float) -> Point:
        return self.location

    def duration_s(self) -> float:
        return self.total_duration_s

    def velocity(self, time_s: float, epsilon_s: float = 1e-3) -> Point:
        return Point(0.0, 0.0)


@dataclass(frozen=True)
class LinearTrajectory(Trajectory):
    """Constant-velocity motion from ``start``."""

    start: Point
    velocity_vector: Point
    total_duration_s: float

    def position(self, time_s: float) -> Point:
        clamped = min(max(time_s, 0.0), self.total_duration_s)
        return self.start + self.velocity_vector * clamped

    def duration_s(self) -> float:
        return self.total_duration_s

    def velocity(self, time_s: float, epsilon_s: float = 1e-3) -> Point:
        if 0.0 <= time_s <= self.total_duration_s:
            return self.velocity_vector
        return Point(0.0, 0.0)


class WaypointTrajectory(Trajectory):
    """Piecewise-linear motion through waypoints at a constant speed,
    with optional pauses at each waypoint."""

    def __init__(
        self,
        waypoints: Sequence[Point],
        speed_mps: float,
        pause_s: Sequence[float] | None = None,
    ):
        if len(waypoints) < 1:
            raise ValueError("need at least one waypoint")
        if speed_mps <= 0:
            raise ValueError("speed must be positive")
        self._waypoints = list(waypoints)
        self._speed = speed_mps
        pauses = list(pause_s) if pause_s is not None else [0.0] * len(waypoints)
        if len(pauses) != len(waypoints):
            raise ValueError("one pause per waypoint required")
        # Build a timeline of (start_time, end_time, from, to) segments,
        # alternating pauses and moves.
        self._segments: list[tuple[float, float, Point, Point]] = []
        clock = 0.0
        for index, waypoint in enumerate(self._waypoints):
            if pauses[index] > 0:
                self._segments.append((clock, clock + pauses[index], waypoint, waypoint))
                clock += pauses[index]
            if index + 1 < len(self._waypoints):
                nxt = self._waypoints[index + 1]
                travel = distance(waypoint, nxt) / self._speed
                if travel > 0:
                    self._segments.append((clock, clock + travel, waypoint, nxt))
                    clock += travel
        self._total = clock if clock > 0 else 0.0

    def position(self, time_s: float) -> Point:
        if not self._segments:
            return self._waypoints[0]
        clamped = min(max(time_s, 0.0), self._total)
        for start, end, origin, target in self._segments:
            if clamped <= end:
                if end == start:
                    return origin
                fraction = (clamped - start) / (end - start)
                return interpolate(origin, target, fraction)
        return self._segments[-1][3]

    def duration_s(self) -> float:
        return self._total


class RandomWaypointTrajectory(WaypointTrajectory):
    """"Move at will" inside a room (§7.2): random waypoints, a
    walking-range speed, and occasional pauses.

    Crowding is modelled by ``mobility_factor``: with more humans in a
    confined room "the freedom of movement decreases" (§7.4), so speed
    and leg length shrink — this is what compresses the spatial-variance
    gap between 2 and 3 humans in Fig. 7-3.
    """

    def __init__(
        self,
        room: Room,
        rng: np.random.Generator,
        duration_s: float,
        speed_mps: float | None = None,
        pause_probability: float = 0.12,
        mobility_factor: float = 1.0,
        margin_m: float = 0.4,
    ):
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if not 0 < mobility_factor <= 1:
            raise ValueError("mobility factor must be in (0, 1]")
        # Comfortable indoor walking pace (Bohannon 1997, the paper's
        # reference [11], adjusted down for a confined room).
        speed = speed_mps if speed_mps is not None else rng.uniform(0.95, 1.25)
        speed *= mobility_factor
        x_low, x_high = room.x_range
        y_low, y_high = room.y_range
        max_leg = max((x_high - x_low), (y_high - y_low)) * mobility_factor

        waypoints = [
            Point(
                rng.uniform(x_low + margin_m, x_high - margin_m),
                rng.uniform(y_low + margin_m, y_high - margin_m),
            )
        ]
        pauses = [float(rng.uniform(0.0, 1.0)) if rng.random() < pause_probability else 0.0]
        elapsed = pauses[0]
        while elapsed < duration_s:
            previous = waypoints[-1]
            # Draw a new waypoint no farther than the crowd-limited leg.
            for _ in range(32):
                candidate = Point(
                    rng.uniform(x_low + margin_m, x_high - margin_m),
                    rng.uniform(y_low + margin_m, y_high - margin_m),
                )
                if distance(previous, candidate) <= max_leg:
                    break
            waypoints.append(candidate)
            pause = float(rng.uniform(0.2, 1.2)) if rng.random() < pause_probability else 0.0
            pauses.append(pause)
            elapsed += distance(previous, candidate) / speed + pause
        super().__init__(waypoints, speed, pauses)


#: Fraction of a step spent accelerating (and again decelerating).
_STEP_ACCEL_FRACTION = 0.25


def _smooth_step_profile(phase: float) -> float:
    """Displacement fraction through a step, for phase in [0, 1].

    A trapezoidal speed profile: accelerate over the first quarter,
    cruise, decelerate over the last quarter.  Peak speed is only
    1/(1 - f) = 1.33x the average, so a comfortable step stays within
    the 1 m/s the tracker assumes — the bump of apparent angle versus
    time rises from zero, plateaus, and falls, rendering each step as
    the triangle of Fig. 6-1 without aliasing past +/-90 degrees.
    """
    p = min(max(phase, 0.0), 1.0)
    f = _STEP_ACCEL_FRACTION
    scale = 1.0 - f
    if p < f:
        return p * p / (2.0 * f * scale)
    if p <= 1.0 - f:
        return (p - f / 2.0) / scale
    return 1.0 - (1.0 - p) ** 2 / (2.0 * f * scale)


@dataclass(frozen=True)
class _Step:
    """One step of a gesture: signed displacement along the gesture axis."""

    start_s: float
    duration_s: float
    displacement_m: float  # positive = toward the device


@dataclass
class GestureTrajectory(Trajectory):
    """Scripted steps encoding bits (§6.1).

    A '0' bit is a step forward (toward the device) then a step
    backward; a '1' bit is a step backward then a step forward.  The
    gestures are composable: each bit returns the subject to the
    starting position.

    Attributes:
        base_position: where the subject stands.
        bits: the message, e.g. ``[0, 1]``.
        toward_device: unit vector of the "forward" direction.  A
            subject who does not know where the device is steps in its
            general direction, giving a slanted angle (Fig. 6-2c).
        step_length_m: step size; backward steps are naturally smaller
            ("taking a step backward is naturally harder", §7.5), so
            they are scaled by ``backward_shrink``.
        step_duration_s: duration of a single step (half a gesture).
        inter_bit_pause_s: rest between gestures.
    """

    base_position: Point
    bits: Sequence[int]
    toward_device: Point = field(default_factory=lambda: Point(-1.0, 0.0))
    step_length_m: float = 0.75
    step_duration_s: float = GESTURE_DURATION_MEAN_S / 2.0
    inter_bit_pause_s: float = 1.0
    lead_in_s: float = 1.0
    backward_shrink: float = 0.85

    def __post_init__(self) -> None:
        for bit in self.bits:
            if bit not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {bit!r}")
        if abs(self.toward_device.norm() - 1.0) > 1e-6:
            raise ValueError("toward_device must be a unit vector")
        if self.step_length_m <= 0 or self.step_duration_s <= 0:
            raise ValueError("step length and duration must be positive")
        self._steps: list[_Step] = []
        clock = self.lead_in_s
        forward = self.step_length_m
        backward = -self.step_length_m * self.backward_shrink
        for bit in self.bits:
            first, second = (forward, backward) if bit == 0 else (backward, forward)
            self._steps.append(_Step(clock, self.step_duration_s, first))
            clock += self.step_duration_s
            self._steps.append(_Step(clock, self.step_duration_s, second))
            clock += self.step_duration_s
            clock += self.inter_bit_pause_s
        self._total = clock + self.lead_in_s

    @property
    def steps(self) -> tuple[_Step, ...]:
        return tuple(self._steps)

    def bit_intervals(self) -> list[tuple[float, float]]:
        """(start, end) time of each encoded bit, for decoder alignment."""
        intervals = []
        for index in range(0, len(self._steps), 2):
            first = self._steps[index]
            second = self._steps[index + 1]
            intervals.append((first.start_s, second.start_s + second.duration_s))
        return intervals

    def displacement_along_axis(self, time_s: float) -> float:
        """Signed displacement from the base position toward the device."""
        total = 0.0
        for step in self._steps:
            if time_s <= step.start_s:
                break
            phase = (time_s - step.start_s) / step.duration_s
            total += step.displacement_m * _smooth_step_profile(phase)
        return total

    def position(self, time_s: float) -> Point:
        offset = self.displacement_along_axis(time_s)
        return self.base_position + self.toward_device * offset

    def duration_s(self) -> float:
        return self._total
