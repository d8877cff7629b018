"""Intersectional (multi-attribute) group fairness auditing.

Single-attribute ΔSP/ΔEO can certify a model fair for each attribute
marginally while a *joint* subgroup (e.g. s=1 ∧ community=3) is treated much
worse — the classic intersectionality failure.  This module audits the full
product of sensitive attributes: one cell per combination of observed
attribute values, each with its own positive rate and true-positive rate,
and joint gaps defined as max − min over the *finite* cell rates.

Degenerate cells follow the :func:`~repro.fairness.audit.audit_prediction_windows`
convention: an empty joint cell (or one with no ground-truth positives, for
ΔEO) reports NaN rates instead of raising, and NaN cells are excluded from
the gap maximum.  With a single binary attribute and both groups populated,
``delta_sp``/``delta_eo`` reduce bit-for-bit to the pairwise
:func:`~repro.fairness.metrics.demographic_parity_difference` /
:func:`~repro.fairness.metrics.equal_opportunity_difference`
(``max − min`` of two floats is IEEE-identical to ``|a − b|``), so the
intersectional audit is a strict generalisation, not a parallel metric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "JointCell",
    "IntersectionalAudit",
    "audit_intersectional",
]


@dataclass(frozen=True)
class JointCell:
    """One cell of the attribute product.

    Attributes
    ----------
    values:
        The attribute-value combination, aligned with the audit's
        ``attribute_names``.
    size:
        Number of audited nodes in the cell (0 for empty cells).
    num_positives:
        Ground-truth positives in the cell.
    positive_rate:
        ``P(ŷ=1 | cell)``; NaN when the cell is empty.
    true_positive_rate:
        ``P(ŷ=1 | y=1, cell)``; NaN when the cell has no positives.
    """

    values: tuple[int, ...]
    size: int
    num_positives: int
    positive_rate: float
    true_positive_rate: float


@dataclass
class IntersectionalAudit:
    """Joint-group fairness report over the product of sensitive attributes.

    ``delta_sp`` / ``delta_eo`` are max − min over the finite cell rates —
    the worst pairwise subgroup gap — and NaN when fewer than two cells have
    a finite rate (the gap is undefined, mirroring the NaN-gap convention of
    windowed audits).  Both are invariant to the order the attributes were
    supplied in: reordering permutes the cells but not the rate multiset.
    """

    attribute_names: tuple[str, ...]
    cells: list[JointCell]
    delta_sp: float
    delta_eo: float

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def render(self) -> str:
        """Human-readable per-cell table with the joint-gap headline."""
        header = " × ".join(self.attribute_names)
        keys = [",".join(str(v) for v in cell.values) for cell in self.cells]
        width = max(4, max(len(key) for key in keys))
        lines = [f"Intersectional audit over {header} ({self.num_cells} cells)"]
        lines.append(f"  {'cell':<{width + 2}}  nodes   P(ŷ=1)   TPR")
        for cell, key in zip(self.cells, keys):
            rate = f"{cell.positive_rate:.3f}" if np.isfinite(cell.positive_rate) else "  nan"
            tpr = (
                f"{cell.true_positive_rate:.3f}"
                if np.isfinite(cell.true_positive_rate)
                else "  nan"
            )
            lines.append(f"  ({key:<{width}}) {cell.size:>6d}   {rate}   {tpr}")
        sp = f"{self.delta_sp:.3f}" if np.isfinite(self.delta_sp) else "nan"
        eo = f"{self.delta_eo:.3f}" if np.isfinite(self.delta_eo) else "nan"
        lines.append(f"  joint ΔSP (max−min over cells): {sp}; joint ΔEO: {eo}")
        return "\n".join(lines)


def _finite_gap(rates: np.ndarray) -> float:
    """max − min over finite entries; NaN when fewer than two are finite."""
    finite = rates[np.isfinite(rates)]
    if finite.size < 2:
        return float("nan")
    return float(finite.max() - finite.min())


def audit_intersectional(
    logits: np.ndarray,
    labels: np.ndarray,
    attributes: dict[str, np.ndarray],
) -> IntersectionalAudit:
    """Audit joint-subgroup fairness over the product of ``attributes``.

    Parameters
    ----------
    logits:
        ``(N,)`` real-valued scores; predictions are ``logits > 0``.  Any
        float dtype is accepted — only the elementwise comparison touches
        the array, so float32 inputs are never upcast.
    labels:
        ``(N,)`` binary ground truth, for the per-cell true-positive rates.
    attributes:
        Mapping of attribute name → ``(N,)`` integer array.  Attributes may
        take any number of discrete values (the SBM community id is a valid
        attribute); cells enumerate the cartesian product of each
        attribute's *observed* values, so combinations absent from the data
        still appear — as empty NaN cells.
    """
    if not attributes:
        raise ValueError("need at least one sensitive attribute")
    logits = np.asarray(logits).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    names = tuple(attributes)
    columns = [np.asarray(attributes[name]).reshape(-1) for name in names]
    for name, column in zip(names, columns):
        if column.size != logits.size:
            raise ValueError(
                f"attribute {name!r} has {column.size} entries, expected "
                f"{logits.size}"
            )
    if labels.size != logits.size:
        raise ValueError(
            f"labels ({labels.size}) and logits ({logits.size}) must be aligned"
        )
    predictions = (logits > 0).astype(np.int64)
    positives = labels == 1

    value_sets = [np.unique(column) for column in columns]
    cells: list[JointCell] = []
    for combo in itertools.product(*value_sets):
        mask = np.ones(logits.size, dtype=bool)
        for column, value in zip(columns, combo):
            mask &= column == value
        size = int(mask.sum())
        pos = mask & positives
        num_positives = int(pos.sum())
        rate = float(predictions[mask].mean()) if size else float("nan")
        tpr = float(predictions[pos].mean()) if num_positives else float("nan")
        cells.append(
            JointCell(
                values=tuple(int(v) for v in combo),
                size=size,
                num_positives=num_positives,
                positive_rate=rate,
                true_positive_rate=tpr,
            )
        )
    rates = np.array([cell.positive_rate for cell in cells])
    tprs = np.array([cell.true_positive_rate for cell in cells])
    return IntersectionalAudit(
        attribute_names=names,
        cells=cells,
        delta_sp=_finite_gap(rates),
        delta_eo=_finite_gap(tprs),
    )
