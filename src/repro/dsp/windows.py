"""Sliding-window extraction without copies.

The tracking pipeline walks a channel series in overlapping
emulated-array windows (w = 100 samples, hop 25, §7.1), and spatial
smoothing walks each window in overlapping subarrays of size w' < w
(§5.2).  Materializing those with fancy indexing costs one copy per
window; a strided view exposes the whole stack at once so the batched
covariance and beamforming kernels can consume every window in one
shot.

Views returned here are read-only (they alias the caller's data);
kernels that need contiguous input copy explicitly.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view


def window_starts(num_samples: int, window_size: int, hop: int) -> np.ndarray:
    """Start index of every complete window, hop-spaced.

    Matches the offline pipeline's walk: the last window is the last
    one that fits entirely inside the series.
    """
    if window_size < 1:
        raise ValueError("window size must be positive")
    if hop < 1:
        raise ValueError("hop must be positive")
    if num_samples < window_size:
        raise ValueError("series shorter than one window")
    return np.arange(0, num_samples - window_size + 1, hop)


def sliding_windows(
    series: np.ndarray, window_size: int, hop: int
) -> tuple[np.ndarray, np.ndarray]:
    """All complete windows of a series as one strided view.

    Returns ``(starts, windows)`` where ``windows`` has shape
    (num_windows, window_size) and ``windows[k]`` aliases
    ``series[starts[k] : starts[k] + window_size]`` — no data is
    copied.  The view is read-only.
    """
    series = np.asarray(series)
    if series.ndim != 1:
        raise ValueError("series must be one-dimensional")
    starts = window_starts(len(series), window_size, hop)
    windows = sliding_window_view(series, window_size)[::hop]
    return starts, windows


def subarray_view(windows: np.ndarray, subarray_size: int) -> np.ndarray:
    """Overlapping smoothing subarrays of a stack of windows.

    For ``windows`` of shape (num_windows, w) returns a read-only view
    of shape (num_windows, num_subarrays, subarray_size) with
    ``num_subarrays = w - subarray_size + 1`` — the §5.2 partition of
    each emulated array, for every window at once.
    """
    windows = np.asarray(windows)
    if windows.ndim != 2:
        raise ValueError("windows must be two-dimensional (a stack of windows)")
    w = windows.shape[1]
    if not 1 < subarray_size <= w:
        raise ValueError("subarray size must be in (1, window size]")
    # The read-only view sliding_window_view(windows, subarray_size,
    # axis=1) returns, minus its per-call argument normalization.
    stride = windows.strides[1]
    return as_strided(
        windows,
        shape=(windows.shape[0], w - subarray_size + 1, subarray_size),
        strides=(windows.strides[0], stride, stride),
        writeable=False,
    )
