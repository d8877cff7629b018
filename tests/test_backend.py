"""Array-seam tests: numpy is the one backend, and its primitives."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor.backend import NumpyBackend, get_backend


class TestRegistry:
    def test_numpy_is_the_default(self):
        assert isinstance(get_backend(), NumpyBackend)
        assert get_backend().name == "numpy"
        assert get_backend().xp is np


class TestNumpyPrimitives:
    def test_asarray_is_identity_for_matching_dtype(self):
        b = get_backend()
        x = np.ones(4)
        assert b.asarray(x) is x
        assert b.asarray(x, dtype=np.dtype("float64")) is x

    def test_asarray_casts_on_mismatch(self):
        b = get_backend()
        x = np.ones(4, dtype=np.float32)
        out = b.asarray(x, dtype=np.dtype("float64"))
        assert out.dtype == np.float64
        assert x.dtype == np.float32  # source untouched

    def test_copy_is_deep(self):
        b = get_backend()
        x = np.ones(3)
        y = b.copy(x)
        y[0] = 7.0
        assert x[0] == 1.0

    def test_index_add_accumulates_duplicates(self):
        b = get_backend()
        target = np.zeros(3)
        b.index_add(target, np.array([0, 0, 2]), np.array([1.0, 2.0, 5.0]))
        np.testing.assert_array_equal(target, [3.0, 0.0, 5.0])

    @pytest.mark.parametrize("rows", [16, 8192])  # add.at and CSR branches
    def test_scatter_rows_matches_add_at(self, rows):
        b = get_backend()
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 10, size=rows)
        grad = rng.standard_normal((rows, 4))
        out = b.scatter_rows(idx, grad, (10, 4))
        expected = np.zeros((10, 4))
        np.add.at(expected, idx, grad)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_spmm_handle_round_trip(self):
        b = get_backend()
        rng = np.random.default_rng(1)
        matrix = sp.random(6, 5, density=0.5, random_state=2, format="coo")
        dense = rng.standard_normal((5, 3))
        handle = b.prepare_spmm(matrix, np.dtype("float64"))
        np.testing.assert_allclose(
            b.spmm_apply(handle, dense), matrix.toarray() @ dense
        )
        grad = rng.standard_normal((6, 3))
        np.testing.assert_allclose(
            b.spmm_adjoint(handle, grad), matrix.toarray().T @ grad
        )

    def test_prepare_spmm_casts_to_operand_dtype(self):
        b = get_backend()
        matrix = sp.eye(4, format="csr")  # float64 constant
        handle = b.prepare_spmm(matrix, np.dtype("float32"))
        assert handle.dtype == np.float32
