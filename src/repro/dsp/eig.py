"""Stacked eigendecomposition and vectorized covariance screening.

``np.linalg.eigh`` batches natively over a (num_windows, w', w') stack
— one gufunc call replaces num_windows Python-level decompositions.
The conditioning guard and the source-count estimate that the legacy
pipeline ran per window are mirrored here as row-wise vectorized
passes; their decisions must match the sequential versions in
:mod:`repro.core.music` *exactly*, which is why those public functions
now delegate to these kernels rather than keeping parallel arithmetic.
"""

from __future__ import annotations

import numpy as np

#: Reason value for windows that pass the conditioning screen.
REASON_OK = ""

_TINY = np.finfo(float).tiny


def eigh_descending_batch(
    covariance: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a stack of Hermitian matrices, descending order.

    Returns ``(eigenvalues, eigenvectors)`` with shapes (n, m) and
    (n, m, m); ``eigenvalues[k]`` is sorted descending and
    ``eigenvectors[k][:, j]`` is the eigenvector of ``eigenvalues[k][j]``
    — the ordering MUSIC's signal/noise split expects.
    """
    covariance = np.asarray(covariance)
    if covariance.ndim != 3:
        raise ValueError("covariance must be a (n, m, m) stack")
    values, vectors = np.linalg.eigh(covariance)
    # eigh returns ascending order; flip to descending.
    return np.ascontiguousarray(values[:, ::-1]), vectors[:, :, ::-1]


def classify_covariance_batch(
    eigenvalues: np.ndarray, condition_limit: float
) -> np.ndarray:
    """Vectorized degeneracy screen over a stack of eigenvalue rows.

    Mirrors :func:`repro.core.music.check_covariance_conditioning`
    (which delegates here): per row, flag

    * ``"non-finite"`` — NaN/Inf eigenvalues;
    * ``"dead"`` — trace ~ 0, nothing to decompose;
    * ``"ill-conditioned"`` — eigenvalue spread beyond
      ``condition_limit`` (compared multiplicatively, since the ratio
      itself can overflow).

    ``eigenvalues`` must be (n, m) rows sorted descending.  Returns an
    object array of reason strings, :data:`REASON_OK` for healthy rows;
    precedence matches the sequential guard (non-finite, then dead,
    then ill-conditioned).
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.ndim != 2:
        raise ValueError("eigenvalues must be a (n, m) stack of rows")
    reasons = np.full(eigenvalues.shape[0], REASON_OK, dtype=object)
    with np.errstate(invalid="ignore"):
        smallest = np.maximum(eigenvalues[:, -1], _TINY)
        ill = eigenvalues[:, 0] > condition_limit * smallest
        dead = eigenvalues.sum(axis=1) <= _TINY
    finite = np.isfinite(eigenvalues).all(axis=1)
    for flagged, reason in (
        (ill, "ill-conditioned"),
        (dead, "dead"),
        (~finite, "non-finite"),
    ):
        if flagged.any():
            reasons[flagged] = reason
    return reasons


def estimate_source_counts_batch(
    eigenvalues: np.ndarray, max_sources: int = 4, dominance_db: float = 6.0
) -> np.ndarray:
    """Signal-subspace sizes for a stack of eigenvalue rows.

    Vectorized mirror of
    :func:`repro.core.music.estimate_source_count` (which delegates
    here): per row, the noise level is the median of the smaller half
    of the spectrum, and eigenvalues standing ``dominance_db`` above it
    are counted as sources, clamped to ``[1, min(max_sources, m - 1)]``.

    ``eigenvalues`` must be (n, m) rows sorted descending with m >= 2.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.ndim != 2:
        raise ValueError("eigenvalues must be a (n, m) stack of rows")
    m = eigenvalues.shape[1]
    if m < 2:
        raise ValueError("need at least two eigenvalues")
    if max_sources < 1:
        raise ValueError("max_sources must be positive")
    noise_level = np.maximum(lower_half_median(eigenvalues), _TINY)
    threshold = noise_level * 10.0 ** (dominance_db / 10.0)
    counts = (eigenvalues > threshold[:, np.newaxis]).sum(axis=1)
    return np.minimum(np.maximum(counts, 1), min(max_sources, m - 1)).astype(int)


def lower_half_median(eigenvalues: np.ndarray) -> np.ndarray:
    """Per-row median of the smaller half, ``eigenvalues[:, m // 2:]``.

    Bit-identical to ``np.median(eigenvalues[:, m // 2:], axis=1)``, NaN
    rows and odd half lengths included: the same ``np.partition``
    pivots (the middle one or two, plus the last element, where the
    partition leaves any NaN), the same ``np.mean`` of the middle
    values, and the same NaN copy-back.  It skips ``np.median``'s
    generic axis handling, which costs more than the arithmetic on a
    one-window stack.
    """
    eigenvalues = np.asarray(eigenvalues)
    half = eigenvalues[:, eigenvalues.shape[1] // 2 :]
    size = half.shape[1]
    kth = [size // 2 - 1, size // 2] if size % 2 == 0 else [size // 2]
    part = np.partition(half, [*kth, -1], axis=1)
    median = np.mean(part[:, kth[0] : kth[-1] + 1], axis=1)
    last = part[:, -1]
    np.copyto(median, last, where=np.isnan(last))
    return median
