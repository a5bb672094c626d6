"""Property-based equivalence: batched kernels vs the frozen oracle.

Hypothesis drives random window stacks — including NaN bursts,
saturated plateaus, dead windows, and rank-degenerate (constant-tone)
content — through the full batched frame path and the legacy
per-window reference, asserting <= 1e-12 agreement and identical
guard/estimator decisions on every window.  The batched pass gathers
and scatters rows only when a window is non-finite or guard-rejected,
so mixed stacks also pin every row to its batch-of-one result, bit for
bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tracking import (
    TrackingConfig,
    compute_spectrogram,
    estimate_windows_batch,
)
from repro.dsp.covariance import smoothed_covariance_batch
from repro.dsp.eig import (
    REASON_OK,
    classify_covariance_batch,
    eigh_descending_batch,
    estimate_source_counts_batch,
    lower_half_median,
)
from repro.dsp.reference import (
    check_conditioning_reference,
    estimate_source_count_reference,
    smoothed_correlation_matrix_reference,
    spectrogram_reference,
)
from repro.errors import DegenerateCovarianceError

WINDOW = 32
SUBARRAY = 12
CONFIG = TrackingConfig(window_size=WINDOW, hop=8, subarray_size=SUBARRAY)


@st.composite
def window_stacks(draw):
    """A (n, WINDOW) stack mixing healthy and degenerate windows."""
    num_windows = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    windows = rng.normal(size=(num_windows, WINDOW)) + 1j * rng.normal(
        size=(num_windows, WINDOW)
    )
    for n in range(num_windows):
        kind = draw(
            st.sampled_from(
                ["clean", "nan-burst", "inf-spike", "dead", "saturated", "tone"]
            )
        )
        if kind == "nan-burst":
            start = draw(st.integers(0, WINDOW - 4))
            windows[n, start : start + 4] = np.nan
        elif kind == "inf-spike":
            windows[n, draw(st.integers(0, WINDOW - 1))] = np.inf
        elif kind == "dead":
            windows[n] = 0.0
        elif kind == "saturated":
            windows[n] = 3.0 + 4.0j
        elif kind == "tone":
            # A single complex exponential: rank-1 smoothed covariance,
            # typically tripping the condition-number guard.
            windows[n] = np.exp(1j * 0.3 * np.arange(WINDOW))
    return windows


@settings(max_examples=40, deadline=None)
@given(window_stacks())
def test_covariance_matches_oracle(windows):
    finite = np.all(np.isfinite(windows), axis=1)
    batch = smoothed_covariance_batch(windows[finite], SUBARRAY)
    for k, window in enumerate(windows[finite]):
        reference = smoothed_correlation_matrix_reference(window, SUBARRAY)
        scale = max(np.max(np.abs(reference)), 1.0)
        np.testing.assert_allclose(
            batch[k], reference, rtol=1e-12, atol=1e-12 * scale
        )


@settings(max_examples=40, deadline=None)
@given(window_stacks())
def test_guard_and_count_decisions_match_oracle(windows):
    finite = np.all(np.isfinite(windows), axis=1)
    covariance = smoothed_covariance_batch(windows[finite], SUBARRAY)
    values, _ = eigh_descending_batch(covariance)
    reasons = classify_covariance_batch(values, CONFIG.condition_limit)
    counts = estimate_source_counts_batch(values, CONFIG.max_sources)
    for k in range(values.shape[0]):
        try:
            check_conditioning_reference(values[k], CONFIG.condition_limit)
            oracle = REASON_OK
        except DegenerateCovarianceError as error:
            oracle = error.reason
        assert reasons[k] == oracle
        assert counts[k] == estimate_source_count_reference(
            values[k], CONFIG.max_sources
        )


@settings(max_examples=25, deadline=None)
@given(window_stacks())
def test_full_pipeline_matches_oracle(windows):
    # Concatenate the stack into one series walked hop-by-hop so the
    # batch sees overlapping windows, not just the crafted ones.
    series = windows.reshape(-1)
    spectrogram = compute_spectrogram(series, CONFIG)
    power, counts, estimators = spectrogram_reference(series, CONFIG)
    np.testing.assert_allclose(spectrogram.power, power, rtol=1e-12, atol=1e-12)
    assert np.array_equal(spectrogram.source_counts, counts)
    assert np.array_equal(spectrogram.estimators, estimators)


@settings(max_examples=40, deadline=None)
@given(window_stacks())
def test_batch_rows_equal_batch_of_one(windows):
    # Clean stacks skip the gather/scatter; any non-finite, dead,
    # saturated or guard-rejected window takes it.  Both must give
    # every window the bits it gets alone.
    power, counts, estimators = estimate_windows_batch(windows, CONFIG)
    for k, window in enumerate(windows):
        alone_power, alone_counts, alone_estimators = estimate_windows_batch(
            window[np.newaxis], CONFIG
        )
        assert np.array_equal(power[k], alone_power[0])
        assert counts[k] == alone_counts[0]
        assert estimators[k] == alone_estimators[0]


_SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0, 1e308]


@st.composite
def eigenvalue_rows(draw):
    """A (rows, m) float stack, exactly as many values drawn as it holds."""
    rows, m = draw(st.integers(1, 5)), draw(st.integers(2, 17))
    values = draw(
        st.lists(
            st.floats(allow_nan=True) | st.sampled_from(_SPECIALS),
            min_size=rows * m,
            max_size=rows * m,
        )
    )
    return np.array(values).reshape(rows, m)


@settings(max_examples=200, deadline=None)
@given(eigenvalue_rows())
def test_lower_half_median_is_numpy_median_bit_for_bit(eigenvalues):
    # Even and odd m (so odd and even halves), NaN/Inf/signed-zero rows.
    m = eigenvalues.shape[1]
    with np.errstate(invalid="ignore", over="ignore"):
        expected = np.median(eigenvalues[:, m // 2 :], axis=1)
        measured = lower_half_median(eigenvalues)
    assert measured.dtype == expected.dtype
    assert np.array_equal(measured.view(np.uint64), expected.view(np.uint64))
