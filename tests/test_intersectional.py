"""Intersectional (joint-subgroup) audit: edge cases the issue pins down.

The load-bearing properties: a single binary attribute must reduce to the
existing pairwise metrics bit-for-bit, empty joint cells must degrade to
NaN gaps instead of raising (mirroring ``audit_prediction_windows``), and
the gaps must not depend on the order the attributes are passed in.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fairness import (
    audit_intersectional,
    demographic_parity_difference,
    equal_opportunity_difference,
)


def _toy(seed: int = 0, n: int = 200):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=n)
    labels = rng.integers(2, size=n)
    s = rng.integers(2, size=n)
    g = rng.integers(3, size=n)
    return logits, labels, s, g


class TestSingleAttributeReduction:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_delta_sp_bitwise_equal(self, seed):
        logits, labels, s, _ = _toy(seed)
        audit = audit_intersectional(logits, labels, {"s": s})
        predictions = (logits > 0).astype(np.int64)
        assert audit.delta_sp == demographic_parity_difference(predictions, s)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_delta_eo_bitwise_equal(self, seed):
        logits, labels, s, _ = _toy(seed)
        audit = audit_intersectional(logits, labels, {"s": s})
        predictions = (logits > 0).astype(np.int64)
        assert audit.delta_eo == equal_opportunity_difference(
            predictions, labels, s
        )

    def test_cell_structure(self):
        logits, labels, s, _ = _toy()
        audit = audit_intersectional(logits, labels, {"s": s})
        assert audit.attribute_names == ("s",)
        assert audit.num_cells == 2
        assert sum(cell.size for cell in audit.cells) == logits.size


class TestEmptyCells:
    def test_empty_joint_cell_reports_nan_not_raise(self):
        # s and g perfectly aligned → the (0,1) and (1,0) cells are empty.
        logits, labels, s, _ = _toy()
        audit = audit_intersectional(logits, labels, {"s": s, "g": s})
        assert audit.num_cells == 4
        empty = [cell for cell in audit.cells if cell.size == 0]
        assert len(empty) == 2
        assert all(np.isnan(cell.positive_rate) for cell in empty)
        # Two populated cells remain, so the gaps are still finite.
        assert np.isfinite(audit.delta_sp)

    def test_single_populated_cell_gives_nan_gap(self):
        logits, labels, s, _ = _toy()
        ones = np.ones_like(s)
        audit = audit_intersectional(logits, labels, {"a": ones})
        assert audit.num_cells == 1
        assert np.isnan(audit.delta_sp)
        assert np.isnan(audit.delta_eo)

    def test_cell_without_positives_has_nan_tpr(self):
        logits = np.array([1.0, -1.0, 1.0, -1.0])
        labels = np.array([1, 1, 0, 0])
        s = np.array([0, 0, 1, 1])  # group 1 has no positive labels
        audit = audit_intersectional(logits, labels, {"s": s})
        by_value = {cell.values: cell for cell in audit.cells}
        assert np.isnan(by_value[(1,)].true_positive_rate)
        assert by_value[(0,)].true_positive_rate == 0.5
        # Only one finite TPR → ΔEO degrades to NaN.
        assert np.isnan(audit.delta_eo)


class TestOrderInvariance:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_gaps_independent_of_attribute_order(self, seed):
        logits, labels, s, g = _toy(seed)
        forward = audit_intersectional(logits, labels, {"s": s, "g": g})
        backward = audit_intersectional(logits, labels, {"g": g, "s": s})
        assert forward.delta_sp == backward.delta_sp
        assert forward.delta_eo == backward.delta_eo
        assert forward.num_cells == backward.num_cells == 6
        # Cells correspond under value-tuple reversal.
        fwd = {cell.values: cell.size for cell in forward.cells}
        bwd = {cell.values[::-1]: cell.size for cell in backward.cells}
        assert fwd == bwd


class TestInputHandling:
    def test_float32_logits_accepted(self):
        logits, labels, s, g = _toy()
        a64 = audit_intersectional(logits, labels, {"s": s, "g": g})
        a32 = audit_intersectional(
            logits.astype(np.float32), labels, {"s": s, "g": g}
        )
        # Thresholding at 0 is dtype-insensitive for these magnitudes.
        assert a32.delta_sp == a64.delta_sp
        assert a32.delta_eo == a64.delta_eo

    def test_misaligned_attribute_rejected(self):
        logits, labels, s, _ = _toy()
        with pytest.raises(ValueError, match="expected"):
            audit_intersectional(logits, labels, {"s": s[:-1]})

    def test_no_attributes_rejected(self):
        logits, labels, _, _ = _toy()
        with pytest.raises(ValueError, match="at least one"):
            audit_intersectional(logits, labels, {})

    def test_render_mentions_every_cell(self):
        logits, labels, s, g = _toy()
        audit = audit_intersectional(logits, labels, {"s": s, "g": g})
        text = audit.render()
        assert "s" in text and "g" in text
        assert str(audit.num_cells) in text
