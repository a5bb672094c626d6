"""Tests for the zero-copy sliding-window views."""

import numpy as np
import pytest

from repro.dsp.windows import sliding_windows, subarray_view, window_starts


def test_window_starts_match_offline_walk():
    starts = window_starts(200, 100, 25)
    assert np.array_equal(starts, [0, 25, 50, 75, 100])


def test_window_starts_single_window():
    assert np.array_equal(window_starts(100, 100, 25), [0])


def test_window_starts_validation():
    with pytest.raises(ValueError, match="window size"):
        window_starts(200, 0, 25)
    with pytest.raises(ValueError, match="hop"):
        window_starts(200, 100, 0)
    with pytest.raises(ValueError, match="shorter"):
        window_starts(50, 100, 25)


def test_sliding_windows_alias_the_series(rng):
    series = rng.normal(size=130) + 1j * rng.normal(size=130)
    starts, windows = sliding_windows(series, 64, 16)
    assert windows.shape == (len(starts), 64)
    for k, start in enumerate(starts):
        assert np.array_equal(windows[k], series[start : start + 64])
    # A view, not a copy — and read-only, so aliasing is safe.
    assert np.shares_memory(windows, series)
    assert not windows.flags.writeable


def test_sliding_windows_rejects_matrices():
    with pytest.raises(ValueError, match="one-dimensional"):
        sliding_windows(np.ones((4, 100)), 10, 5)


def test_subarray_view_partitions_each_window(rng):
    windows = rng.normal(size=(3, 10)) + 1j * rng.normal(size=(3, 10))
    subs = subarray_view(windows, 4)
    assert subs.shape == (3, 7, 4)
    for n in range(3):
        for s in range(7):
            assert np.array_equal(subs[n, s], windows[n, s : s + 4])
    assert np.shares_memory(subs, windows)


def test_subarray_view_is_the_sliding_window_view(rng):
    # Same shape, strides and read-only flag as numpy's own view, on a
    # contiguous stack and on a strided one (windows of a series).
    series = rng.normal(size=200) + 1j * rng.normal(size=200)
    for windows in (series[:120].reshape(3, 40), sliding_windows(series, 40, 25)[1]):
        subs = subarray_view(windows, 12)
        expected = np.lib.stride_tricks.sliding_window_view(windows, 12, axis=1)
        assert subs.shape == expected.shape
        assert subs.strides == expected.strides
        assert not subs.flags.writeable
        assert np.array_equal(subs, expected)


def test_subarray_view_validation():
    with pytest.raises(ValueError, match="two-dimensional"):
        subarray_view(np.ones(10), 4)
    with pytest.raises(ValueError, match="subarray size"):
        subarray_view(np.ones((2, 10)), 1)
    with pytest.raises(ValueError, match="subarray size"):
        subarray_view(np.ones((2, 10)), 11)
