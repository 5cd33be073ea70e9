import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivenjc.entanglement import (
    SPIN_FLIP,
    InvalidDensityMatrix,
    wootters_concurrence,
)

from _reference import linear_entropy_general


def bell():
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return np.outer(v, v).astype(complex)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim=2):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_spin_flip_structure():
    assert not np.iscomplexobj(SPIN_FLIP)
    expected = np.array([[0, 0, 0, -1],
                         [0, 0, 1, 0],
                         [0, 1, 0, 0],
                         [-1, 0, 0, 0]], dtype=float)
    np.testing.assert_allclose(SPIN_FLIP, expected, atol=1e-15)
    np.testing.assert_allclose(SPIN_FLIP @ SPIN_FLIP, np.eye(4), atol=1e-15)


class TestWootters:
    def test_bell_state(self):
        assert wootters_concurrence(bell()) == pytest.approx(1.0, abs=1e-10)

    def test_product_states(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_state(rng, 2)
            b = random_state(rng, 2)
            rho = np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
            assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("p", [0.2, 1 / 3, 0.8, 1.0])
    def test_werner_states(self, p):
        rho = p * bell() + (1 - p) * np.eye(4) / 4
        expected = max(0.0, (3 * p - 1) / 2)
        assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-10)

    def test_pure_state_formula(self):
        # C = 2|ad - bc| for amplitudes (a, b, c, d)
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = random_state(rng, 4)
            rho = np.outer(v, v.conj())
            expected = 2 * abs(v[0] * v[3] - v[1] * v[2])
            assert wootters_concurrence(rho) == pytest.approx(expected,
                                                              abs=1e-12)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            v = random_state(rng, 4)
            rho = np.outer(v, v.conj())
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert wootters_concurrence(rotated) == pytest.approx(
                wootters_concurrence(rho), abs=1e-10)

    def test_separable_mixtures(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rho = np.zeros((4, 4), dtype=complex)
            w = rng.dirichlet(np.ones(4))
            for k in range(4):
                a = random_state(rng, 2)
                b = random_state(rng, 2)
                rho += w[k] * np.kron(np.outer(a, a.conj()),
                                      np.outer(b, b.conj()))
            assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-8)

    def test_trace_violation_rejected(self):
        with pytest.raises(InvalidDensityMatrix):
            wootters_concurrence(2.0 * bell())

    def test_negative_eigenvalue_rejected(self):
        rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvalidDensityMatrix):
            wootters_concurrence(rho)

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidDensityMatrix):
            wootters_concurrence(np.eye(3) / 3)


class TestLinearEntropy:
    def test_pure_state(self):
        rng = np.random.default_rng(5)
        v = random_state(rng, 6)
        assert linear_entropy_general(np.outer(v, v.conj())) == pytest.approx(
            0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert linear_entropy_general(np.eye(4) / 4) == pytest.approx(0.75)

    def test_invalid_rejected(self):
        with pytest.raises(InvalidDensityMatrix):
            linear_entropy_general(np.eye(4))

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (2, 4, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(InvalidDensityMatrix, match="expected square"):
            linear_entropy_general(np.ones(shape) / 4)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**31 - 1))
    def test_range(self, dim, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        s = linear_entropy_general(rho)
        assert 0.0 <= s <= 1.0 - 1.0 / dim + 1e-12


class TestStacks:
    """A stack (..., d, d) of density matrices, matrix by matrix."""

    def random_stack(self, rng, shape, dim=4):
        m = rng.normal(size=shape + (dim, dim)) \
            + 1j * rng.normal(size=shape + (dim, dim))
        rho = m @ np.swapaxes(m, -1, -2).conj()
        return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None].real

    def test_matches_single_matrices(self):
        rng = np.random.default_rng(41)
        rho = self.random_stack(rng, (3, 5))
        # rank-1 and Bell states, where concurrence is largest
        rho[0, 0] = bell()
        v = random_state(rng, 4)
        rho[1, 2] = np.outer(v, v.conj())
        conc = wootters_concurrence(rho)
        entr = linear_entropy_general(rho)
        assert conc.shape == entr.shape == (3, 5)
        for idx in np.ndindex(3, 5):
            assert abs(conc[idx] - wootters_concurrence(rho[idx])) < 1e-14
            assert abs(entr[idx] - linear_entropy_general(rho[idx])) < 1e-14

    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf,
                                       complex(np.nan, 0.0), complex(0.0, np.inf)])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_non_finite_entries_rejected(self, entry, value, mirrored):
        # a NaN fails no `x > tol` comparison; it must still be rejected,
        # not reach the eigensolver or the SVD (LinAlgError)
        rho = self.random_stack(np.random.default_rng(47), (3,))
        rho[1][entry] = value
        if mirrored:
            rho[1][entry[::-1]] = np.conj(value)
        # inf - inf in the Hermiticity gate is NaN, which fails it
        with np.errstate(invalid="ignore"):
            for matrices in (rho, rho[1]):
                with pytest.raises(InvalidDensityMatrix):
                    wootters_concurrence(matrices)
                with pytest.raises(InvalidDensityMatrix):
                    linear_entropy_general(matrices)

    @pytest.mark.parametrize("fault", ["trace", "hermitian", "negative"])
    def test_one_invalid_matrix_rejects_the_stack(self, fault):
        rng = np.random.default_rng(43)
        rho = self.random_stack(rng, (6,))
        if fault == "trace":
            rho[4] *= 1.01
        elif fault == "hermitian":
            rho[4, 0, 1] += 1e-3
        else:
            rho[4] = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(InvalidDensityMatrix):
            wootters_concurrence(rho)
        with pytest.raises(InvalidDensityMatrix):
            linear_entropy_general(rho)
