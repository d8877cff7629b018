"""Pearson correlation helpers (used by FairRF and dataset diagnostics)."""

from __future__ import annotations

import numpy as np

__all__ = [
    "StreamingCorrelation",
    "correlation_with_vector",
]


class StreamingCorrelation:
    """Welford-style running moments of a prediction stream vs fixed columns.

    Accumulates, batch by batch, the pooled second moments of a scalar
    prediction stream ``p`` and its co-moments with ``J`` feature columns,
    using Chan's parallel update (the batched generalisation of Welford's
    algorithm) so the result is numerically stable regardless of how the
    epoch is partitioned.

    Why FairRF needs it: the naive sampled estimator — the mean of
    per-batch squared correlations — is biased upward at small batches
    (``E[corr²_batch] > corr²_full`` because squaring a noisy estimate
    inflates it), which makes the closed-form feature-weight update chase
    noise and widens the sampled-vs-full ΔSP gap.  Pooling the moments over
    the whole epoch removes the per-batch squaring: for a fixed prediction
    vector the pooled estimate equals the full-data correlation exactly,
    and a single covering batch reproduces the per-batch value bit-for-bit
    (same centred sums, same ``1e-12`` guard).
    """

    def __init__(self, num_columns: int) -> None:
        if num_columns < 1:
            raise ValueError(f"num_columns must be >= 1, got {num_columns}")
        self.count = 0
        self.mean_p = 0.0
        self.m2_p = 0.0
        self.mean_x = np.zeros(num_columns)
        self.m2_x = np.zeros(num_columns)
        self.cross = np.zeros(num_columns)

    @property
    def num_columns(self) -> int:
        return self.mean_x.shape[0]

    def update(self, predictions: np.ndarray, columns: np.ndarray) -> None:
        """Merge one batch: ``predictions`` is ``(B,)``, ``columns`` ``(B, J)``."""
        predictions = np.asarray(predictions, dtype=np.float64).reshape(-1)
        columns = np.asarray(columns, dtype=np.float64)
        if columns.ndim != 2 or columns.shape != (predictions.size, self.num_columns):
            raise ValueError(
                f"columns must be ({predictions.size}, {self.num_columns}), "
                f"got {columns.shape}"
            )
        count_b = predictions.size
        if count_b == 0:
            return
        mean_p_b = predictions.mean()
        mean_x_b = columns.mean(axis=0)
        centered_p = predictions - mean_p_b
        centered_x = columns - mean_x_b
        m2_p_b = float((centered_p**2).sum())
        m2_x_b = (centered_x**2).sum(axis=0)
        cross_b = (centered_x * centered_p[:, None]).sum(axis=0)

        total = self.count + count_b
        # With count == 0 the correction terms vanish and the batch moments
        # are adopted verbatim, so no special case is needed.
        weight = self.count * count_b / total
        delta_p = mean_p_b - self.mean_p
        delta_x = mean_x_b - self.mean_x
        self.m2_p += m2_p_b + delta_p**2 * weight
        self.m2_x += m2_x_b + delta_x**2 * weight
        self.cross += cross_b + delta_p * delta_x * weight
        self.mean_p += delta_p * count_b / total
        self.mean_x += delta_x * count_b / total
        self.count = total

    def squared_correlations(self) -> np.ndarray:
        """Pooled squared Pearson correlation per column (0 for constants).

        Mirrors FairRF's differentiable per-batch formula — the ``1e-12``
        variance guard on the prediction side included — so a single
        covering batch yields the identical value.
        """
        out = np.zeros(self.num_columns)
        if self.count == 0:
            return out
        varying = self.m2_x > 0
        corr = self.cross[varying] / (
            np.sqrt(self.m2_p + 1e-12) * np.sqrt(self.m2_x[varying])
        )
        out[varying] = corr**2
        return out


def correlation_with_vector(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Pearson r of every column of ``matrix`` with ``vector``.

    Constant columns get correlation 0.  Used to rank candidate proxy
    features (RemoveR) and to audit how much each feature leaks the
    sensitive attribute.
    """
    matrix = np.asarray(matrix)
    vector = np.asarray(vector, dtype=np.float64).reshape(-1)
    if matrix.shape[0] != vector.shape[0]:
        raise ValueError(
            f"row mismatch: matrix has {matrix.shape[0]}, vector {vector.shape[0]}"
        )
    v_centered = vector - vector.mean()
    v_norm = np.sqrt((v_centered**2).sum())
    if matrix.dtype == np.float64:
        return _column_correlations(matrix, v_centered, v_norm)
    # Non-float64 matrices (float32 graphs, mmap-backed features) are
    # accumulated in float64 one column block at a time, so the peak extra
    # memory is one (N, 256) block rather than a full upcast copy.
    out = np.empty(matrix.shape[1])
    for start in range(0, matrix.shape[1], 256):
        block = matrix[:, start : start + 256].astype(np.float64)
        out[start : start + 256] = _column_correlations(block, v_centered, v_norm)
    return out


def _column_correlations(
    matrix: np.ndarray, v_centered: np.ndarray, v_norm: float
) -> np.ndarray:
    """Clipped per-column Pearson r against an already-centred vector."""
    centered = matrix - matrix.mean(axis=0, keepdims=True)
    column_norms = np.sqrt((centered**2).sum(axis=0))
    denom = column_norms * v_norm
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = (centered * v_centered[:, None]).sum(axis=0) / denom
    corr[~np.isfinite(corr)] = 0.0
    return np.clip(corr, -1.0, 1.0)
