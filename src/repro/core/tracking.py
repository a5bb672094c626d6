"""The tracking pipeline: channel series -> A'[theta, n] spectrogram.

This reproduces the processing behind Figs. 5-2, 5-3, and 7-2: group
the nulled channel measurements into overlapping emulated-array windows
of w = 100 samples spanning 0.32 s (§7.1), run smoothed MUSIC on each
window, and stack the spectra over time.

The DC line at theta = 0 — "the average energy from static elements"
left by minuscule nulling errors (§5.1) — appears naturally because a
constant residual has a flat phase history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import (
    CHANNEL_SAMPLE_PERIOD_S,
    DEFAULT_HUMAN_SPEED_MPS,
    ISAR_ARRAY_SIZE,
    WAVELENGTH_M,
)
from repro.core.beamforming import (
    default_theta_grid,
    element_spacing_m,
    inverse_aoa_spectrum,
)
from repro.dsp.backend import DspBackend, active_backend
from repro.dsp.eig import REASON_OK
from repro.dsp.windows import sliding_windows
from repro.telemetry.context import get_telemetry

#: Estimator labels recorded per spectrogram frame.
ESTIMATOR_MUSIC = "music"
ESTIMATOR_BEAMFORMING = "beamforming"


@dataclass(frozen=True)
class TrackingConfig:
    """Parameters of the spectrogram pipeline.

    Defaults follow §7.1: w = 100 elements per 0.32 s window, an
    assumed speed of 1 m/s, angles [-90, 90] at 1 degree.
    """

    window_size: int = ISAR_ARRAY_SIZE
    hop: int = 25
    assumed_speed_mps: float = DEFAULT_HUMAN_SPEED_MPS
    sample_period_s: float = CHANNEL_SAMPLE_PERIOD_S
    subarray_size: int = 32
    max_sources: int = 5
    theta_step_deg: float = 1.0
    wavelength_m: float = WAVELENGTH_M
    #: MUSIC degeneracy guard: windows whose smoothed covariance has an
    #: eigenvalue spread beyond this fall back to plain Eq. 5.1
    #: beamforming (recorded in ``MotionSpectrogram.estimators``).
    condition_limit: float = 1e12

    def __post_init__(self) -> None:
        if self.window_size < 4:
            raise ValueError("window too small to beamform")
        if not 1 < self.subarray_size < self.window_size:
            raise ValueError("subarray size must be in (1, window size)")
        if self.hop < 1:
            raise ValueError("hop must be positive")
        if self.condition_limit <= 1:
            raise ValueError("condition limit must exceed 1")

    @property
    def spacing_m(self) -> float:
        return element_spacing_m(self.assumed_speed_mps, self.sample_period_s)

    @property
    def theta_grid_deg(self) -> np.ndarray:
        return default_theta_grid(self.theta_step_deg)


@dataclass
class MotionSpectrogram:
    """A'[theta, n] over a trace.

    Attributes:
        times_s: centre time of each window.
        theta_grid_deg: angle axis.
        power: linear pseudospectrum magnitudes, shape
            (num_windows, num_angles).
        source_counts: signal-subspace size per window.
        window_overlap: how many consecutive rows share samples
            (window_size / hop); consumers that whiten noise across
            rows (the gesture decoder) need this.
        estimators: which estimator produced each frame —
            ``"music"`` or ``"beamforming"`` (the degeneracy
            fallback).  Empty for spectrograms built before the guard
            existed or by consumers that do not record it.
    """

    times_s: np.ndarray
    theta_grid_deg: np.ndarray
    power: np.ndarray
    source_counts: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    window_overlap: int = 4
    estimators: np.ndarray = field(default_factory=lambda: np.array([], dtype=object))

    @property
    def num_windows(self) -> int:
        return self.power.shape[0]

    @property
    def fallback_fraction(self) -> float:
        """Fraction of frames produced by the beamforming fallback."""
        if len(self.estimators) == 0:
            return 0.0
        return float(np.mean(self.estimators == ESTIMATOR_BEAMFORMING))

    def normalized_db(self, floor_db: float = 0.0) -> np.ndarray:
        """Per-window dB image with the minimum pinned to ``floor_db``.

        This is the image the spatial-variance metric integrates and
        the benches render.
        """
        magnitudes = np.maximum(self.power, np.finfo(float).tiny)
        db = 20.0 * np.log10(magnitudes)
        db -= db.min(axis=1, keepdims=True)
        return db + floor_db

    def dominant_angles_deg(self, exclude_dc_deg: float = 0.0) -> np.ndarray:
        """Strongest angle per window, optionally masking the DC stripe.

        ``exclude_dc_deg`` masks angles with |theta| below the value,
        so the moving target dominates rather than the DC line.
        """
        mask = np.abs(self.theta_grid_deg) >= exclude_dc_deg
        if not np.any(mask):
            raise ValueError("DC exclusion masks every angle")
        masked = np.where(mask, self.power, -np.inf)
        return self.theta_grid_deg[np.argmax(masked, axis=1)]


def compute_beamformed_spectrogram(
    channel_series: np.ndarray,
    config: TrackingConfig | None = None,
    start_time_s: float = 0.0,
    remove_window_mean: bool = True,
) -> MotionSpectrogram:
    """Plain Eq. 5.1 beamforming over sliding windows.

    Unlike the MUSIC pseudospectrum, |A[theta, n]| is *physical*: it
    scales with the received reflection amplitude.  The gesture decoder
    uses this spectrogram so that its matched-filter SNR falls off with
    distance the way the paper measures (Figs. 7-4, 7-5); the paper
    notes the two representations produce the same figures, MUSIC just
    being less noisy (§5.2 fn. 6).

    The per-window mean (the DC residual) is removed by default so that
    weak gestures are not masked by DC x signal cross terms.
    """
    from repro.core.beamforming import beamformed_spectrogram

    config = config if config is not None else TrackingConfig()
    series = np.asarray(channel_series, dtype=complex)
    if series.ndim != 1:
        raise ValueError("channel series must be one-dimensional")
    if len(series) < config.window_size:
        raise ValueError("series shorter than one window")
    starts, magnitudes = beamformed_spectrogram(
        series,
        config.window_size,
        config.hop,
        config.theta_grid_deg,
        config.spacing_m,
        config.wavelength_m,
        remove_window_mean=remove_window_mean,
    )
    times = start_time_s + (starts + config.window_size / 2.0) * config.sample_period_s
    return MotionSpectrogram(
        times_s=times,
        theta_grid_deg=config.theta_grid_deg,
        power=magnitudes,
        source_counts=np.zeros(len(starts), dtype=int),
        window_overlap=max(config.window_size // config.hop, 1),
        estimators=np.full(len(starts), ESTIMATOR_BEAMFORMING, dtype=object),
    )


def compute_diversity_spectrogram(
    channel_series_list: list[np.ndarray],
    config: TrackingConfig | None = None,
    start_time_s: float = 0.0,
    use_music: bool = True,
) -> MotionSpectrogram:
    """Combine per-subcarrier captures in the power domain.

    §7.1: "The channel measurements across the different subcarriers
    are combined to improve the SNR."  This is the *non-coherent*
    variant: each stream is processed to its own A'[theta, n] and the
    squared magnitudes are averaged, which steadies the image against
    independent per-stream noise.  (For the stronger coherent noise
    averaging, combine the channel series first with
    :meth:`repro.simulator.timeseries.ChannelSeriesSimulator.combine_diversity_series`;
    in a 5 MHz band the subcarriers fade together, so neither variant
    provides fading diversity — see the ablation bench.)

    Every per-stream pass shares the process-wide steering cache
    (:mod:`repro.dsp.steering`), so the table is built once for the
    whole subcarrier set rather than once per stream.
    """
    if not channel_series_list:
        raise ValueError("need at least one subcarrier stream")
    compute = compute_spectrogram if use_music else compute_beamformed_spectrogram
    first = compute(channel_series_list[0], config, start_time_s)
    combined_power = first.power.astype(float) ** 2
    for series in channel_series_list[1:]:
        spectrogram = compute(series, config, start_time_s)
        if spectrogram.power.shape != combined_power.shape:
            raise ValueError("subcarrier streams must share a time base")
        combined_power += spectrogram.power**2
    return MotionSpectrogram(
        times_s=first.times_s,
        theta_grid_deg=first.theta_grid_deg,
        power=np.sqrt(combined_power / len(channel_series_list)),
        source_counts=first.source_counts,
        window_overlap=first.window_overlap,
        estimators=first.estimators,
    )


def _beamformed_fallback_rows(
    windows: np.ndarray,
    config: TrackingConfig,
    backend: DspBackend | None = None,
) -> np.ndarray:
    """Plain Eq. 5.1 spectra for a stack of windows MUSIC rejected.

    Non-finite samples (a NaN burst the screen let through) are zeroed
    first: beamforming degrades gracefully with missing elements,
    whereas a single NaN would poison the whole row.  The steering
    table comes from the shared :mod:`repro.dsp.steering` cache (in
    the backend's dtype), so fallback-heavy fault-injection runs stop
    rebuilding it per window.
    """
    backend = backend if backend is not None else active_backend()
    return backend.beamform_fallback_batch(windows, config)


@dataclass(frozen=True)
class SpectrogramFrame:
    """One window's worth of the A'[theta, n] image.

    The unit both the offline :func:`compute_spectrogram` loop and the
    streaming tracker (:mod:`repro.runtime.tracker`) emit — sharing
    :func:`compute_spectrogram_frame` is what makes their outputs
    bit-identical on the same windows.
    """

    power: np.ndarray
    num_sources: int
    estimator: str


def compute_spectrogram_frame(
    window: np.ndarray,
    config: TrackingConfig,
    backend: DspBackend | None = None,
) -> SpectrogramFrame:
    """Estimate a single emulated-array window under the degeneracy guard.

    Runs smoothed MUSIC; a window whose covariance the guard rejects —
    saturated, dead, or corrupted — falls back to plain Eq. 5.1
    beamforming, with the chosen estimator recorded in the frame.

    A batch of one through :func:`estimate_windows_batch` on the same
    backend, so streaming columns stay bit-identical to
    :func:`compute_spectrogram` rows over the same windows — per
    backend, by the batch-stability contract.
    """
    window = np.asarray(window, dtype=complex)
    if window.ndim != 1:
        raise ValueError("window must be one-dimensional")
    power, counts, estimators = estimate_windows_batch(
        window[np.newaxis, :], config, backend=backend
    )
    return SpectrogramFrame(
        power=power[0],
        num_sources=int(counts[0]),
        estimator=str(estimators[0]),
    )


def compute_beamformed_frame(
    window: np.ndarray, config: TrackingConfig, remove_window_mean: bool = True
) -> SpectrogramFrame:
    """Plain Eq. 5.1 estimate of a single window.

    The per-window counterpart of :func:`compute_beamformed_spectrogram`
    (identical arithmetic; the streaming tracker uses it for the
    gesture-grade physical-magnitude spectrogram).
    """
    window = np.asarray(window, dtype=complex)
    if remove_window_mean:
        window = window - window.mean()
    return SpectrogramFrame(
        power=inverse_aoa_spectrum(
            window, config.theta_grid_deg, config.spacing_m, config.wavelength_m
        ),
        num_sources=0,
        estimator=ESTIMATOR_BEAMFORMING,
    )


def estimate_windows_batch(
    windows: np.ndarray,
    config: TrackingConfig,
    backend: DspBackend | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Estimate a whole stack of windows through the batched kernels.

    The vectorized form of :func:`compute_spectrogram_frame`: the
    active :class:`~repro.dsp.backend.DspBackend` (or an explicit
    ``backend``) runs its fused smoothed-MUSIC pass over every window
    that can attempt MUSIC; the degeneracy guard runs as a vectorized
    screen, and the rejected windows are mask-and-patched with batched
    Eq. 5.1 beamforming.  Because every backend computes each window
    independently of its batch, the rows here are bit-identical to
    per-window :func:`compute_spectrogram_frame` calls on the same
    backend — the streaming tracker's golden-equivalence contract, and
    what lets the serving scheduler (:mod:`repro.serve.scheduler`)
    stack windows from *different* client sessions into one pass.

    On the default ``numpy-float64`` backend the kernel sequence (and
    its telemetry) is the exact pre-backend code path, bit for bit.

    Returns ``(power, source_counts, estimators)``.
    """
    backend = backend if backend is not None else active_backend()
    windows = np.asarray(windows, dtype=complex)
    num_windows, window_size = windows.shape
    telemetry = get_telemetry()

    # Windows with non-finite samples can never attempt MUSIC (the
    # covariance would poison the stacked eigh); they go straight to
    # the fallback, mirroring the per-window non-finite raise.  Rows
    # are gathered and scattered only when some window is non-finite:
    # a finite stack (every one-window serving tick) takes MUSIC's
    # arrays as they are.  Rows MUSIC rejected hold undefined power
    # and a zero count until the fallback patches them below.
    finite = np.isfinite(windows).all(axis=1)
    music_rows = np.flatnonzero(finite)
    if num_windows and music_rows.size == num_windows:
        result = backend.music_batch(windows, config)
        power, counts, reasons = result.power, result.source_counts, result.reasons
    else:
        power = np.empty((num_windows, len(config.theta_grid_deg)))
        counts = np.zeros(num_windows, dtype=int)
        reasons = np.full(num_windows, "non-finite", dtype=object)
        if music_rows.size:
            result = backend.music_batch(windows[music_rows], config)
            power[music_rows] = result.power
            counts[music_rows] = result.source_counts
            reasons[music_rows] = result.reasons
    if music_rows.size and telemetry.enabled:
        windows_counter = telemetry.metrics.counter("music.windows")
        for row_values in result.eigenvalues:
            windows_counter.inc()
            telemetry.events.emit(
                "music.eigenvalues",
                eigenvalues=row_values,
                window_size=window_size,
                subarray_size=config.subarray_size,
            )

    estimators = np.full(num_windows, ESTIMATOR_MUSIC, dtype=object)
    fallback_rows = np.flatnonzero(reasons != REASON_OK)
    if fallback_rows.size:
        estimators[fallback_rows] = ESTIMATOR_BEAMFORMING
        if telemetry.enabled:
            fallback_counter = telemetry.metrics.counter("music.fallbacks")
            for row in fallback_rows:
                fallback_counter.inc()
                telemetry.events.emit("music.fallback", reason=reasons[row])
        power[fallback_rows] = _beamformed_fallback_rows(
            windows[fallback_rows], config, backend=backend
        )
    return power, counts, estimators


def compute_spectrogram(
    channel_series: np.ndarray,
    config: TrackingConfig | None = None,
    start_time_s: float = 0.0,
) -> MotionSpectrogram:
    """Run the full pipeline on a nulled channel time series.

    Each window runs smoothed MUSIC under the degeneracy guard
    (``config.condition_limit``); a window whose covariance the guard
    rejects — saturated, dead, or corrupted — is estimated with plain
    beamforming instead, and the frame's entry in
    ``MotionSpectrogram.estimators`` records which path produced it.

    The whole trace is processed through the batched kernel layer
    (:mod:`repro.dsp`) — strided windows, one stacked covariance and
    eigendecomposition, shared steering tables — producing rows
    bit-identical to the per-window :func:`compute_spectrogram_frame`
    the streaming tracker calls.
    """
    config = config if config is not None else TrackingConfig()
    series = np.asarray(channel_series, dtype=complex)
    if series.ndim != 1:
        raise ValueError("channel series must be one-dimensional")
    if len(series) < config.window_size:
        raise ValueError(
            f"series of {len(series)} samples is shorter than one "
            f"window ({config.window_size})"
        )
    starts, windows = sliding_windows(series, config.window_size, config.hop)
    with get_telemetry().span(
        "tracking.spectrogram", windows=len(starts), samples=len(series)
    ):
        power, counts, estimators = estimate_windows_batch(windows, config)
    times = start_time_s + (starts + config.window_size / 2.0) * config.sample_period_s
    return MotionSpectrogram(
        times_s=times,
        theta_grid_deg=config.theta_grid_deg,
        power=power,
        source_counts=counts,
        window_overlap=max(config.window_size // config.hop, 1),
        estimators=estimators,
    )
