"""Pytest options shared by the benchmark harness.

Lives in ``benchmarks/`` so it is picked up as an initial conftest
whenever the harness is invoked directly (``pytest benchmarks/...``);
the tier-1 suite under ``tests/`` never loads it and never sees the
option.
"""

from __future__ import annotations

import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--corpus",
        default=None,
        metavar="DIR",
        help=(
            "Bench the streaming engine against a recorded capture "
            "instead of a synthetic trace: a capture store directory "
            "(newest sealed capture wins), a single capture directory, "
            "or a frozen .capture.ndjson.gz bundle. Defaults to the "
            "REPRO_CORPUS environment variable when unset."
        ),
    )


    parser.addoption(
        "--backend",
        default=None,
        metavar="NAME",
        help=(
            "Restrict the DSP-backend comparison section of "
            "bench_processing_time to one registered backend (default: "
            "every registered non-default backend). Defaults to the "
            "REPRO_BENCH_BACKEND environment variable when unset."
        ),
    )


@pytest.fixture
def corpus_spec(pytestconfig) -> str | None:
    """The ``--corpus`` path, or ``REPRO_CORPUS``, or ``None``."""
    return pytestconfig.getoption("--corpus") or os.environ.get("REPRO_CORPUS") or None


@pytest.fixture
def bench_backend(pytestconfig) -> str | None:
    """The ``--backend`` name, or ``REPRO_BENCH_BACKEND``, or ``None``."""
    return (
        pytestconfig.getoption("--backend")
        or os.environ.get("REPRO_BENCH_BACKEND")
        or None
    )
