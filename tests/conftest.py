"""Shared fixtures for the Wi-Vi reproduction test suite."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.tracking import TrackingConfig
from repro.environment.geometry import Point
from repro.environment.human import BodyModel, Human
from repro.environment.scene import Scene
from repro.environment.trajectories import LinearTrajectory
from repro.environment.walls import stata_conference_room_small

#: Wall-clock limit on each phase (setup, call, teardown) of a test.
#: The slowest test takes a few seconds; a phase still running after
#: this is stuck, and fails with the traceback of where it waited
#: instead of stalling the rest of the run.
PHASE_TIME_LIMIT_S = 120.0

#: Once over the limit, the alarm repeats this often until the phase
#: unwinds (a first raise can land in a background asyncio task).
_REPEAT_S = 5.0


class PhaseTimeLimitExceeded(BaseException):
    """A test phase ran past :data:`PHASE_TIME_LIMIT_S`.

    A ``BaseException``, so neither the code under test's ``except
    Exception`` handlers nor hypothesis's shrinker take it for an
    ordinary failure and carry on.
    """


def _over_limit(signum, frame):
    raise PhaseTimeLimitExceeded(
        f"test phase still running after {PHASE_TIME_LIMIT_S:.0f} s"
    )


@contextmanager
def _phase_time_limit():
    if not hasattr(signal, "setitimer"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _over_limit)
    signal.setitimer(signal.ITIMER_REAL, PHASE_TIME_LIMIT_S, _REPEAT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    with _phase_time_limit():
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with _phase_time_limit():
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item, nextitem):
    with _phase_time_limit():
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_room():
    """The 7 x 4 m Stata conference room."""
    return stata_conference_room_small()


@pytest.fixture
def fast_tracking_config() -> TrackingConfig:
    """A lighter tracking configuration for quick tests."""
    return TrackingConfig(window_size=64, hop=16, subarray_size=24)


@pytest.fixture
def walking_scene(small_room) -> Scene:
    """A single torso-only human walking toward the device, off-axis."""
    trajectory = LinearTrajectory(
        start=Point(6.0, 0.8),
        velocity_vector=Point(-1.0, 0.0),
        total_duration_s=4.0,
    )
    human = Human(trajectory=trajectory, body=BodyModel(limb_count=0))
    return Scene(room=small_room, humans=[human])
