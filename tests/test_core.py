import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkalign.core import (
    Dataset,
    NtkKind,
    NtkMatrix,
    ShiftOperator,
    stack,
    unstack,
)


def random_symmetric(rng, n, unit_fro=True):
    a = rng.standard_normal((n, n))
    s = (a + a.T) / 2.0
    if unit_fro:
        s = s / np.linalg.norm(s)
    return s


class TestStacking:
    def test_entry_convention(self):
        x = np.arange(12, dtype=float).reshape(3, 4)
        v = stack(x)
        for i in range(4):
            for a in range(3):
                assert v[i * 3 + a] == x[a, i]

    @given(
        n=st.integers(min_value=1, max_value=7),
        m=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, n, m, seed):
        x = np.random.default_rng(seed).standard_normal((n, m))
        assert np.array_equal(unstack(stack(x), n, m), x)

    def test_stack_rejects_vector(self):
        with pytest.raises(ValueError):
            stack(np.ones(5))

    def test_unstack_rejects_bad_length(self):
        with pytest.raises(ValueError):
            unstack(np.ones(7), 2, 3)


class TestDataset:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.ones((3, 3)))

    def test_nonfinite_rejected(self):
        x = np.ones((2, 2))
        y = x.copy()
        y[0, 0] = np.nan
        with pytest.raises(ValueError):
            Dataset(x, y)

    def test_normalized_max_column_norm_is_one(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.standard_normal((4, 6)), rng.standard_normal((4, 6)))
        nds = ds.normalized()
        assert nds.max_column_norm == pytest.approx(1.0, abs=1e-14)
        assert nds.is_normalized()

    def test_normalize_zero_dataset(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.zeros((2, 2))).normalized()

    def test_arrays_immutable(self):
        ds = Dataset(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            ds.x[0, 0] = 2.0


class TestShiftOperator:
    def test_asymmetry_rejected(self):
        m = np.array([[0.0, 1.0], [1.0 + 1e-8, 0.0]])
        with pytest.raises(ValueError):
            ShiftOperator(m)

    def test_asymmetry_within_tolerance_accepted(self):
        m = np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]])
        ShiftOperator(m)

    def test_frobenius_unit_enforced(self):
        with pytest.raises(ValueError):
            ShiftOperator(np.eye(3), frobenius_unit=True)
        ShiftOperator(np.eye(3) / np.sqrt(3.0), frobenius_unit=True)

    def test_normalized(self):
        s = ShiftOperator(2.0 * np.eye(4)).normalized()
        assert s.frobenius_unit
        assert np.linalg.norm(s.matrix) == pytest.approx(1.0, abs=1e-15)

    def test_powers_applied(self):
        rng = np.random.default_rng(0)
        s = ShiftOperator(random_symmetric(rng, 4))
        x = rng.standard_normal((4, 3))
        pows = s.powers_applied(x, 4)
        assert pows.shape == (4, 4, 3)
        np.testing.assert_allclose(pows[3], s.matrix @ s.matrix @ s.matrix @ x, atol=1e-12)


class TestNtkMatrix:
    def test_valid_psd(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 3))
        ntk = NtkMatrix(a @ a.T, NtkKind.FILTER_ANALYTIC)
        assert ntk.size == 5
        assert ntk.rank_estimate() == 3
        assert ntk.eigenvalues[0] >= -1e-8 * ntk.operator_norm

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            NtkMatrix(m, NtkKind.EMPIRICAL)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            NtkMatrix(np.diag([1.0, -0.5]), NtkKind.EMPIRICAL)

    def test_tiny_negative_eig_accepted(self):
        m = np.diag([1.0, -5e-9])
        NtkMatrix(m, NtkKind.GNN_MONTE_CARLO, info={"draws": 16})

    def test_quadratic_form(self):
        ntk = NtkMatrix(np.diag([2.0, 3.0]), NtkKind.FILTER_ANALYTIC)
        assert ntk.quadratic_form(np.array([1.0, 1.0])) == pytest.approx(5.0)


class TestFactoredNtkMatrix:
    """The dense kernel NtkMatrix(F F') is the oracle for the factored one."""

    def test_spectrum_and_forms_match_dense_kernel(self, kernel_factor):
        f = kernel_factor
        factored = NtkMatrix(f, NtkKind.EMPIRICAL, factored=True)
        dense = NtkMatrix(f @ f.T, NtkKind.EMPIRICAL)
        scale = dense.operator_norm
        assert factored.size == dense.size == f.shape[0]
        np.testing.assert_allclose(
            factored.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=1e-10 * scale
        )
        assert factored.operator_norm == pytest.approx(scale, rel=1e-10)
        assert factored.rank_estimate() == dense.rank_estimate()
        assert factored.frobenius_norm == pytest.approx(dense.frobenius_norm, rel=1e-10)
        v = np.random.default_rng(3).standard_normal(f.shape[0])
        assert factored.quadratic_form(v) == pytest.approx(dense.quadratic_form(v), rel=1e-10)
        assert np.array_equal(factored.matrix, f @ f.T)

    def test_eigenpairs_span_the_factor(self, kernel_factor):
        f = kernel_factor
        evals, vecs = NtkMatrix(f, NtkKind.EMPIRICAL, factored=True).eigenpairs
        assert evals.shape == (min(f.shape),)
        assert np.all(np.diff(evals) >= 0.0)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(evals.size), atol=1e-12)
        theta = f @ f.T
        np.testing.assert_allclose(
            theta @ vecs, vecs * evals, atol=1e-12 * max(np.abs(theta).max(), 1.0)
        )

    def test_dense_eigenpairs_are_cached(self):
        ntk = NtkMatrix(np.diag([2.0, 3.0]), NtkKind.FILTER_ANALYTIC)
        assert ntk.eigenpairs is ntk.eigenpairs
        np.testing.assert_array_equal(ntk.eigenpairs[0], [2.0, 3.0])

    @pytest.mark.parametrize(
        "factor",
        [np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[np.inf], [1.0]]), np.ones(3),
         np.ones((2, 2, 2))],
        ids=["nan", "inf", "1-d", "3-d"],
    )
    def test_factored_rejects_non_finite_and_non_matrix(self, factor):
        with pytest.raises(ValueError):
            NtkMatrix(factor, NtkKind.EMPIRICAL, factored=True)
