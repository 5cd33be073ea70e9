import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from drivenjc import analytic as an
from drivenjc import liouville as lv
from drivenjc.cli import main
from drivenjc.entanglement import wootters_concurrence
from drivenjc.model import NMAX_LIMIT, ModelParams, derive_params

from _reference import (linear_entropy_general, make_rhs, oracle_series_full,
                        project_two_qubit, two_qubit_density)


class TestCoherentVector:
    def test_rejects_bad_nmax(self):
        for nmax in (0, lv.NMAX_LIMIT + 1):
            with pytest.raises(ValueError, match="500"):
                lv.coherent_vector(0.5, nmax)

    def test_nmax_limit(self):
        assert lv.coherent_vector(1.0, lv.NMAX_LIMIT).shape == (501,)

    def test_vacuum(self):
        v = lv.coherent_vector(0.0, 6)
        expected = np.zeros(7)
        expected[0] = 1.0
        np.testing.assert_allclose(v, expected)

    def test_unit_amplitude_norm_loss(self):
        v = lv.coherent_vector(1.0, 20)
        assert 1.0 - np.sum(np.abs(v) ** 2) < 1e-15

    def test_matches_direct_formula(self):
        alpha = 0.7 - 0.4j
        v = lv.coherent_vector(alpha, 15)
        for n in range(16):
            expected = (cmath.exp(-abs(alpha) ** 2 / 2) * alpha**n
                        / math.sqrt(math.factorial(n)))
            assert v[n] == pytest.approx(expected, abs=1e-15)

    def test_truncation_error(self):
        with pytest.raises(ValueError, match=r"loses 9\.450e-01 norm at nmax=4"):
            lv.coherent_vector(3.0, 4)

    def test_array_of_amplitudes(self):
        nmax = 15
        alphas = np.array([[0.0, 0.7 - 0.4j], [1.2j, -0.3]])
        vecs = lv.coherent_vector(alphas, nmax)
        assert vecs.shape == (2, 2, 16)
        for idx in np.ndindex(2, 2):
            np.testing.assert_allclose(vecs[idx],
                                       lv.coherent_vector(alphas[idx], nmax),
                                       rtol=0, atol=1e-16)
        # one amplitude beyond the truncation fails the whole array
        with pytest.raises(ValueError, match=r"alpha=\(3\+0j\) loses"):
            lv.coherent_vector([0.5, 3.0, 0.1], 4)


#: atom indices a, b of the field blocks rho[a, b], broadcast over (2, 2, N, N)
BLOCKS = np.indices((2, 2, 1, 1), sparse=True)[:2]


def to_blocks(rho):
    """Field blocks rho[a, b] of a joint matrix indexed atom * N + n."""
    N = rho.shape[0] // 2
    return rho.reshape(2, N, 2, N).transpose(0, 2, 1, 3)


def to_joint(blocks):
    N = blocks.shape[-1]
    return blocks.transpose(0, 2, 1, 3).reshape(2 * N, 2 * N)


def lindblad_rhs(Omega, rho, kappa):
    """The Lindblad right-hand side of `generator`, on all four blocks."""
    spec = lv.generator(Omega, kappa, *BLOCKS)
    return make_rhs(spec, rho.shape[-1])(0.0, rho)


def level_shift_rhs(v):
    """-i(v_a(n) - v_b(m)) for a (2, N) table of level shifts v_a(n)."""
    return -1j * (v[:, None, :, None] - v[None, :, None, :])


class TestInteractionV:
    """The dispersive level shifts v_a(n) as written by `generator`."""

    def test_zero_shift(self):
        # without the dispersive shift every block only decays
        spec = lv.generator(0.0, 0.37, *BLOCKS)
        assert spec.c_m == 0.74
        assert np.all(spec.c_r == -0.37) and np.all(spec.c_l == -0.37)
        assert np.all(spec.c_s == 0.0)

    def test_small_space_diagonal(self):
        # Omega = 1, N = 2: v_0 = Omega(n+1) = (1, 2), v_1 = -Omega n = (0, -1)
        got = lindblad_rhs(1.0, np.ones((2, 2, 2, 2), dtype=complex), 0.0)
        v = np.array([[1.0, 2.0], [0.0, -1.0]])
        np.testing.assert_allclose(got, level_shift_rhs(v))

    def test_matches_dispersive_level_shifts(self):
        # shifts of H_e relative to the free part are Omega*(n+1) on the
        # upper branch and -Omega*n on the lower one
        Om = -1e-3
        n = np.arange(7.0)
        got = lindblad_rhs(Om, np.ones((2, 2, 7, 7), dtype=complex), 0.0)
        v = np.array([Om * (n + 1), -Om * n])
        np.testing.assert_allclose(got, level_shift_rhs(v), atol=1e-18)

    def test_single_block_matches_broadcast(self):
        # verify_disentangling and lindblad_rhs pass block index arrays; one
        # block built on its own must act the same
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 2, 7, 7)) + 1j * rng.normal(size=(2, 2, 7, 7))
        Om, k = 0.3, 0.2
        joint = lindblad_rhs(Om, x, k)
        for a in range(2):
            for b in range(2):
                one = make_rhs(lv.generator(Om, k, a, b), 7)(0.0, x[a, b])
                np.testing.assert_allclose(one, joint[a, b], rtol=0, atol=1e-15)


class TestLindbladRHS:
    def test_zero(self):
        rho = to_blocks(np.eye(14, dtype=complex) / 14)
        np.testing.assert_array_equal(
            lindblad_rhs(0.0, rho, 0.0),
            np.zeros((2, 2, 7, 7)))

    def test_fock_state_decay_rate(self):
        N = 7
        rho = np.zeros((2, 2, N, N), dtype=complex)
        rho[0, 0, 1, 1] = 1.0  # atom 0, field |1><1|
        k = 0.37
        out = to_joint(lindblad_rhs(0.0, rho, k))
        nfull = np.kron(np.eye(2), np.diag(np.arange(float(N))))
        dn_dt = np.trace(out @ nfull).real
        assert dn_dt == pytest.approx(-2 * k, rel=1e-12)

    def test_traceless_hermitian(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(14, 14)) + 1j * rng.normal(size=(14, 14))
        rho = m + m.conj().T
        Om = rng.normal()
        out = to_joint(lindblad_rhs(Om, to_blocks(rho), 1e-3))
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_matches_dense_master_equation(self):
        N, k = 7, 0.37
        rng = np.random.default_rng(11)
        m = rng.normal(size=(2 * N, 2 * N)) + 1j * rng.normal(size=(2 * N, 2 * N))
        rho = m + m.conj().T
        Om = rng.normal()
        n = np.arange(float(N))
        H = np.diag(np.concatenate([Om * (n + 1.0), -Om * n]))
        a = np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1.0, N)), 1))
        nh = a.conj().T @ a
        dense = (-1j * (H @ rho - rho @ H)
                 + k * (2.0 * a @ rho @ a.conj().T - nh @ rho - rho @ nh))
        got = to_joint(lindblad_rhs(Om, to_blocks(rho), k))
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-13)


def initial_state(alpha, nmax, c0=1 / math.sqrt(2), c1=1 / math.sqrt(2)):
    return lv.initial_blocks(c0, c1, lv.coherent_vector(alpha, nmax))


def states_at(Omega, rho0, kappa, t_start, dt, count):
    """Field blocks at t_start + i dt for i < count (at least one), rebuilt
    from the half-states of `integrate`."""
    halves = list(lv.integrate(Omega, kappa, rho0, t_start, dt, count))
    return np.array([lv._hermitian_blocks(half) for half in halves])


def state_at(Omega, rho0, kappa, t):
    """Field blocks at time t, propagated from rho0 at t = 0."""
    return states_at(Omega, rho0, kappa, t, 0.0, 1)[0]


class TestHermitianBlocks:
    def test_stacked_halves_match_each_half(self):
        # leading axes complete each half-state on its own, bit for bit
        rng = np.random.default_rng(41)
        halves = rng.normal(size=(4, 3, 5, 5)) + 1j * rng.normal(size=(4, 3, 5, 5))
        got = lv._hermitian_blocks(halves)
        assert got.shape == (4, 2, 2, 5, 5)
        for g, half in zip(got, halves):
            np.testing.assert_array_equal(g, lv._hermitian_blocks(half))

    def test_projected_halves_give_the_two_qubit_state(self):
        # Q[i, c, f, g] = <basis_f| H_c |basis_g>: its blocks, read as the
        # (f a, g b) matrix, are P + P^dagger with Q_0, Q_1, Q_2 in the
        # (0, 0), (1, 1), (0, 1) blocks of P
        rng = np.random.default_rng(43)
        Q = rng.normal(size=(6, 3, 2, 2)) + 1j * rng.normal(size=(6, 3, 2, 2))
        P = np.zeros((6, 2, 2, 2, 2), dtype=complex)
        P[:, (0, 1, 0), (0, 1, 1)] = Q
        P = P.transpose(0, 3, 1, 4, 2).reshape(-1, 4, 4)
        want = P + P.conj().swapaxes(-1, -2)
        got = lv._hermitian_blocks(Q).transpose(0, 3, 1, 4, 2).reshape(-1, 4, 4)
        np.testing.assert_array_equal(got, want)


class TestIntegrate:
    def test_diagonal_hamiltonian_preserves_populations(self):
        nmax = 14
        st0 = initial_state(1.0, nmax)
        st = state_at(-1e-3, st0, 0.0, 200.0)
        np.testing.assert_allclose(np.diag(to_joint(st)).real,
                                   np.diag(to_joint(st0)).real, atol=1e-9)

    def test_pure_decay_keeps_field_coherent(self):
        nmax = 14
        k, t, alpha = 2e-3, 150.0, 1.0
        st = state_at(0.0, initial_state(alpha, nmax), k, t)
        nfull = np.kron(np.eye(2), np.diag(np.arange(nmax + 1.0)))
        nbar = np.trace(to_joint(st) @ nfull).real
        assert nbar == pytest.approx(alpha**2 * math.exp(-2 * k * t), abs=1e-8)
        vt = lv.coherent_vector(alpha * math.exp(-k * t), nmax)
        rho00 = st[0, 0]
        np.testing.assert_allclose(rho00, 0.5 * np.outer(vt, vt.conj()),
                                   atol=1e-8)

    def test_trace_and_hermiticity_preserved(self):
        nmax = 14
        rho = to_joint(state_at(-1e-3, initial_state(1.0, nmax), 1e-3, 300.0))
        assert abs(np.trace(rho) - 1.0) < 1e-8
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-8

    @pytest.mark.parametrize("empty_top", [0, 2])   # top Fock levels empty
    @pytest.mark.parametrize("t_start, dt, count", [
        (0.0, 1.7, 5),              # one step length
        (0.3, 1.7, 5),              # two step lengths
        (1.7, 0.0, 3),              # repeated samples
    ])
    def test_matches_dense_propagator(self, t_start, dt, count, empty_top):
        N = 7
        rng = np.random.default_rng(29)
        m = rng.normal(size=(2 * N, 2 * N)) + 1j * rng.normal(size=(2 * N, 2 * N))
        rho0 = to_blocks(m + m.conj().T)
        rho0[..., N - empty_top:, :] = 0.0
        rho0[..., N - empty_top:] = 0.0
        Om, k = rng.normal(), rng.uniform(0.05, 0.5)
        got = states_at(Om, rho0, k, t_start, dt, count)
        for a in range(2):
            for b in range(2):
                G = lv.dense_generator(lv.generator(Om, k, a, b), N - 1)
                for i in range(count):
                    t = t_start + i * dt
                    want = (expm(G * t) @ rho0[a, b].ravel()).reshape(N, N)
                    np.testing.assert_allclose(got[i, a, b], want,
                                               rtol=0, atol=1e-13)

    @pytest.mark.parametrize("empty_top", [0, 2])
    def test_states_are_hermitian(self, empty_top):
        # every rebuilt state is its own conjugate mirror, bit for bit, and
        # each half-state is zero below the diagonal of rho_00 and rho_11
        N = 7
        rng = np.random.default_rng(31)
        m = rng.normal(size=(2 * N, 2 * N)) + 1j * rng.normal(size=(2 * N, 2 * N))
        rho0 = to_blocks(m + m.conj().T)
        rho0[..., N - empty_top:, :] = 0.0
        rho0[..., N - empty_top:] = 0.0
        halves = list(lv.integrate(rng.normal(), rng.uniform(0.05, 0.5),
                                   rho0, 0.3, 1.7, 4))
        for half in halves:
            assert half.shape == (3, N, N)
            assert not np.any(np.tril(half[:2], -1))
            rho = lv._hermitian_blocks(half)
            assert np.array_equal(rho, rho.conj().transpose(1, 0, 3, 2))
        # each sample is a fresh array, so a list keeps distinct samples
        for i, half in enumerate(halves):
            for other in halves[i + 1:]:
                assert not np.shares_memory(half, other)
                assert not np.array_equal(half, other)

    @pytest.mark.parametrize("state", ["random", "product"])
    def test_half_state_carries_half_the_populations(self, state):
        # rho = H + H^dagger: each half-state carries half the populations
        # of rho_00 and rho_11 on its diagonals, a zero step gives rho0 back,
        # and integrate leaves the caller's rho0 as it was
        if state == "random":
            rng = np.random.default_rng(37)
            m = rng.normal(size=(14, 14)) + 1j * rng.normal(size=(14, 14))
            rho0 = to_blocks(m + m.conj().T)   # N = 7
        else:
            rho0 = initial_state(1.3 - 0.4j, 20, 0.6, 0.8)
        kept = rho0.copy()
        half, = lv.integrate(0.7, 0.1, rho0, 0.0, 0.0, 1)
        gap = np.max(np.abs(lv._hermitian_blocks(half) - rho0))
        assert gap <= 1e-15 * np.max(np.abs(rho0))
        for half in lv.integrate(0.7, 0.1, rho0, 0.3, 1.7, 4):
            rho = lv._hermitian_blocks(half)
            for a in range(2):
                pops = np.diagonal(rho[a, a]).real
                np.testing.assert_array_equal(np.diagonal(half[a]).real,
                                              0.5 * pops)
        np.testing.assert_array_equal(rho0, kept)

    def test_wide_diagonals_match_closed_form(self):
        # at nmax 120 the diagonals reach |n - m| = 120, where the weights
        # sqrt(C(j + |k|, j)) that relate each diagonal to the main one span
        # 17 orders of magnitude; the blocks must stay the two coherent
        # branches 0.5 |alpha_pm><alpha_pm| and 0.5 f |alpha_+><alpha_-|
        nmax = 120
        alpha, Om, k = 6.0, 0.3, 0.05
        times = np.linspace(0.0, 12.0, 4)
        got = states_at(Om, initial_state(alpha, nmax), k, 0.0, times[1], 4)
        for t, rho in zip(times, got):
            a_plus, a_minus, log_f = an.branches(alpha, k, Om, t)
            f = np.exp(log_f)
            v = lv.coherent_vector(np.array([a_plus, a_minus]), nmax)
            weight = np.array([[1.0, f], [np.conj(f), 1.0]])
            want = 0.5 * weight[:, :, None, None] * np.einsum(
                "an,bm->abnm", v, v.conj())
            np.testing.assert_allclose(rho, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("t_start, dt, count, lengths", [
        (0.0, 1.7, 5, 1),
        (0.3, 1.7, 5, 2),
        (1.7, 1.7, 5, 1),
        (1.7, 0.0, 3, 1),
        (0.3, 1.7, 1, 1),           # dt unused
        (0.0, 0.0, 4, 0),
    ])
    def test_one_propagator_set_per_step_length(self, t_start, dt, count,
                                                lengths, monkeypatch):
        # one N x N propagator per class and step length, counted as the
        # matrices of each stacked expm argument
        matrices = []

        def counted(A):
            matrices.append(math.prod(A.shape[:-2]))
            return expm(A)

        monkeypatch.setattr(lv, "expm", counted)
        rho0 = to_blocks(np.eye(14, dtype=complex) / 14)
        rho0[0, 1] = rho0[1, 0] = 0.1
        states_at(0.3, rho0, 0.2, t_start, dt, count)
        assert sum(matrices) == 2 * lengths

    @pytest.mark.parametrize("t_start, dt", [(-1.0, 0.5), (0.0, -0.5)])
    def test_rejects_negative_step(self, t_start, dt):
        rho0 = to_blocks(np.eye(4, dtype=complex) / 4)
        with pytest.raises(ValueError, match=">= 0"):
            states_at(0.0, rho0, 0.1, t_start, dt, 3)

    def test_rejects_support_above_nmax_limit(self):
        # integrate propagates every level of rho0, and the shared log n!
        # table reaches the largest accepted truncation, level NMAX_LIMIT:
        # one level more is refused, however few of them are filled
        rho0 = np.zeros((2, 2, NMAX_LIMIT + 1, NMAX_LIMIT + 1), dtype=complex)
        rho0[0, 0, 0, 0] = 1.0
        assert states_at(0.0, rho0, 0.1, 1.0, 0.0, 1)[0, 0, 0, 0, 0] == 1.0
        for N in (NMAX_LIMIT + 2, 1100):
            rho0 = np.zeros((2, 2, N, N), dtype=complex)
            rho0[0, 0, 0, 0] = 1.0
            with pytest.raises(ValueError,
                               match=f"level {N - 1} > NMAX_LIMIT = {NMAX_LIMIT}"):
                states_at(0.0, rho0, 0.1, 1.0, 0.0, 1)


def assert_matches_scipy(A):
    want = expm(A)
    got = lv.expm(A)
    assert got.shape == want.shape
    tol = 1e-13 * max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= tol


def oracle_generators(Omega, kappa, h, nmax):
    """The (2, L, L) stack B_0 h that `integrate` exponentiates for one step
    of length h from the coherent field |1> (one B_0 per block class)."""
    stacks, original = [], lv.expm

    def capture(A):
        stacks.append(A)
        return original(A)

    rho0 = initial_state(1.0, nmax)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lv, "expm", capture)
        states_at(Omega, rho0, kappa, 0.0, h, 2)
    (B,) = stacks
    return B


class TestExpm:
    # either side of the bounds theta_3 .. theta_9 of Higham's lower Pade
    # degrees and theta_13, and the squaring range
    @pytest.mark.parametrize("norm", [
        *(theta * side for theta in (
            1.495585217958292e-2, 0.2539398330063230, 0.9504178996162932,
            2.097847961257068, 5.371920351148152) for side in (0.99, 1.01)),
        50.0, 1e3])
    @pytest.mark.parametrize("n", [2, 9])
    def test_random_stacks(self, norm, n):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        A *= norm / np.max(np.sum(np.abs(A), axis=-2))
        assert_matches_scipy(A)

    @pytest.mark.parametrize("kappa_h", [1e-4, 5e-4, 1e-2, 1.0, 16.6, 1e3])
    @pytest.mark.parametrize("nmax", [20, 37])
    def test_oracle_bidiagonal_generators(self, kappa_h, nmax):
        # upper bidiagonal B_0 h of both classes; without the exact diagonal
        # and superdiagonal of each square, kappa h >= 16.6 misses 1e-13
        kappa = 1e-3
        B = oracle_generators(5e-3, kappa, kappa_h / kappa, nmax)
        assert B.shape[0] == 2
        assert not np.any(np.tril(B, -1)) and not np.any(np.triu(B, 2))
        assert_matches_scipy(B)
        # class 0 (a = b) is real at any kappa, Omega and h: integrate
        # applies its propagator as a real product
        rng = np.random.default_rng(nmax)
        for _ in range(3):
            kappa, Omega = 10.0 ** rng.uniform(-4, 0, size=2)
            h = kappa_h / kappa * rng.uniform(0.5, 2.0)
            B = oracle_generators(rng.choice([-1, 1]) * Omega, kappa, h, nmax)
            assert not np.any(B[0].imag)

    @pytest.mark.parametrize("A", [
        np.zeros((4, 4)), np.array([[2.5 - 1j]]), np.array([[-300.0]])])
    def test_small_cases(self, A):
        assert_matches_scipy(A)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1, 1), (2, 21, 21),
                                       (4, 49, 49)])
    def test_zero_is_exactly_identity(self, shape):
        # the vacuum's generator is zero; solve(V - U, V + U) with
        # b_0 = 6.5e16 would round its propagator below 1
        E = lv.expm(np.zeros(shape))
        assert np.array_equal(E, np.broadcast_to(np.eye(shape[-1]), shape))

    def test_dense_generator(self):
        spec = lv.generator(0.3, 0.5, *BLOCKS)
        assert_matches_scipy(lv.dense_generator(spec, 6) * 500.0)


class TestBlock:
    def test_product_state(self):
        nmax = 8
        field = lv.coherent_vector(0.5, nmax)
        rho_f = np.outer(field, field.conj())
        st = lv.initial_blocks(1.0, 0.0, field)
        np.testing.assert_allclose(st[0, 0], rho_f, atol=1e-15)
        for (i, j) in [(0, 1), (1, 0), (1, 1)]:
            np.testing.assert_allclose(st[i, j], 0, atol=1e-15)

    def test_initial_balanced_state_blocks(self):
        nmax = 12
        st = initial_state(1.0, nmax)
        v = lv.coherent_vector(1.0, nmax)
        half_dyad = 0.5 * np.outer(v, v.conj())
        for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            np.testing.assert_allclose(st[i, j], half_dyad, atol=1e-14)


def m_coefficient(spec, t):
    """Coefficient of M in apply_factorized, read off its action on |1><1|.

    The M-series maps |1><1| to |1><1| + m |0><0| and the R, L scalings
    leave |0><0| alone, so the (0, 0) entry is exp(c_s t) m.
    """
    x = np.zeros((7, 7), dtype=complex)
    x[1, 1] = 1.0
    return (lv.apply_factorized(spec, x, np.eye(7), t)[0, 0]
            / cmath.exp(spec.c_s * t))


class TestSuperoperators:
    def test_m_coefficient_decay_block(self):
        k, Om, t = 1e-3, -1e-3, 250.0
        spec = lv.generator(Om, k, 0, 0)
        assert m_coefficient(spec, t) == pytest.approx(
            1.0 - math.exp(-2 * k * t), rel=1e-12)

    def test_m_coefficient_lossless(self):
        spec = lv.generator(1e-3, 0.0, 0, 0)
        assert m_coefficient(spec, 123.0) == 0.0

    def test_m_coefficient_coherence_block(self):
        k, Om, t = 1e-3, 1e-3, 100.0
        spec = lv.generator(Om, k, 0, 1)
        z = k + 1j * Om
        expected = k * (1.0 - cmath.exp(-2 * z * t)) / z
        assert m_coefficient(spec, t) == pytest.approx(expected, rel=1e-12)

    def test_apply_factorized_identity_at_t0(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        spec = lv.generator(1e-3, 1e-3, 0, 1)
        out = lv.apply_factorized(spec, x, np.eye(7), 0.0)
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_dyad_decay_block(self):
        Om, k, t, alpha = -1e-3, 1e-3, 100.0, 1.0
        nmax = 20
        v0 = lv.coherent_vector(alpha, nmax)
        half = v0[:, None] / math.sqrt(2.0)
        out = lv.apply_factorized(lv.generator(Om, k, 0, 0), half, half, t)
        ap = alpha * cmath.exp(-(k + 1j * Om) * t)
        vp = lv.coherent_vector(ap, nmax)
        np.testing.assert_allclose(out, 0.5 * np.outer(vp, vp.conj()),
                                   atol=1e-10)

    def test_dyad_coherence_block(self):
        Om, k, t, alpha = -1e-3, 1e-3, 100.0, 1.0
        nmax = 20
        p = ModelParams(omega=2.0, omega0=1.9, omega_c=0.0, g=0.01, lam=0.0,
                        kappa=k, alpha=alpha)
        d = derive_params(p)
        assert d.Omega_eff == pytest.approx(Om, rel=1e-12)
        s = an.evolve(p, d, t)
        v0 = lv.coherent_vector(alpha, nmax)
        half = v0[:, None] / math.sqrt(2.0)
        out = lv.apply_factorized(lv.generator(Om, k, 0, 1), half, half, t)
        vp = lv.coherent_vector(s.alpha_plus, nmax)
        vm = lv.coherent_vector(s.alpha_minus, nmax)
        np.testing.assert_allclose(
            out, 0.5 * np.exp(s.log_f) * np.outer(vp, vm.conj()), atol=1e-10)

    def test_series_exact_on_boundary_support(self):
        # M^N = 0, so the series is exact even with the top levels occupied
        rng = np.random.default_rng(13)
        x = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        x = x + x.conj().T
        spec = lv.generator(-1e-3, 1e-2, 0, 0)  # m = 1 - e^{-2kt}, about 1
        dense = (expm(lv.dense_generator(spec, 6) * 500.0)
                 @ x.ravel()).reshape(7, 7)
        out = lv.apply_factorized(spec, x, np.eye(7), 500.0)
        assert np.max(np.abs(out - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("a, b", [(0, 0), (0, 1)])
    def test_dyad_matches_dense_route(self, a, b):
        spec = lv.generator(-1e-3, 1e-3, a, b)
        nmax = 31
        # |3.5> cut at nmax 31 (it loses 1.9e-6 norm there)
        v0 = lv.coherent_vector(3.5, 60)[:nmax + 1]
        dyad = 0.5 * np.outer(v0, v0.conj())
        dense = (expm(lv.dense_generator(spec, nmax) * 500.0)
                 @ dyad.ravel()).reshape(dyad.shape)
        half = v0[:, None] / math.sqrt(2.0)
        out = lv.apply_factorized(spec, half, half, 500.0)
        np.testing.assert_allclose(out, dense, rtol=0, atol=1e-13)

    def test_rank_two_factors_match_full_operand(self):
        # U W^dagger of rank 2 against the same operator as (X, I)
        rng = np.random.default_rng(21)
        draw = rng.normal(size=(2, 2, 12, 2))
        u, w = draw[0] + 1j * draw[1]
        spec = lv.generator(-1e-3, 1e-2, 0, 1)
        full = lv.apply_factorized(spec, u @ w.conj().T, np.eye(12), 100.0)
        out = lv.apply_factorized(spec, u, w, 100.0)
        assert np.max(np.abs(out - full)) < 1e-14

    def test_dense_generator_left_multiplication(self):
        spec = lv.SuperopSpec(c_m=0.0, c_r=0.7, c_l=0.0)
        g = lv.dense_generator(spec, 6)
        nh = np.diag(np.arange(7.0))
        np.testing.assert_allclose(g, 0.7 * np.kron(nh, np.eye(7)), atol=1e-15)

    def test_dense_commutators(self):
        r = lv.dense_generator(lv.SuperopSpec(0.0, 1.0, 0.0), 6)
        l = lv.dense_generator(lv.SuperopSpec(0.0, 0.0, 1.0), 6)
        m = lv.dense_generator(lv.SuperopSpec(1.0, 0.0, 0.0), 6)
        np.testing.assert_allclose(r @ m - m @ r, -m, rtol=0, atol=1e-13)
        np.testing.assert_allclose(l @ m - m @ l, -m, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(r @ l - l @ r, np.zeros_like(r))

    def test_dense_matches_direct_action(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        spec = lv.generator(2e-3, 1e-3, 0, 1)
        g = lv.dense_generator(spec, 6)
        a = np.diag(np.sqrt(np.arange(1.0, 7)), 1)
        nh = np.diag(np.arange(7.0))
        direct = (spec.c_m * (a @ x @ a.conj().T) + spec.c_r * (nh @ x)
                  + spec.c_l * (x @ nh) + spec.c_s * x)
        np.testing.assert_allclose((g @ x.ravel()).reshape(7, 7), direct,
                                   atol=1e-15)


class TestVerifyDisentangling:
    def test_identity_map_when_idle(self):
        pairwise, dyad = lv.verify_disentangling(0.0, 0.0, 50.0, 1.0)
        assert pairwise < 1e-10
        assert dyad < 1e-10

    def test_default_parameters(self):
        pairwise, dyad = lv.verify_disentangling(1e-3, 1e-3, 100.0, 1.0)
        assert pairwise < 1e-8
        assert dyad < 1e-10

    @pytest.mark.parametrize("Omega", [9.763, -10.0])
    def test_large_dispersive_shift(self, Omega):
        # Omega t of about 5e3 rad at t = 500; Omega = 9.763 is the dispersive
        # shift of verify --omega -500 --g 70, and -10 that of --omega 1.90001
        pairwise, dyad = lv.verify_disentangling(Omega, 1e-3, 500.0, 1.0)
        assert pairwise < 1e-11
        assert dyad < 1e-10

    @pytest.mark.parametrize("t", [10.0, 100.0, 500.0])
    def test_large_amplitude_dyad(self, t):
        # |alpha| = 18.49: the dyad stage runs at default_nmax(alpha) = 500,
        # the largest accepted truncation
        _, dyad = lv.verify_disentangling(-1e-3, 1e-3, t, 18.49)
        assert dyad < 1e-10

    def test_route_c_is_one_integrate_step(self, monkeypatch):
        # route (c) is one exact step of integrate per test state
        steps = []
        integrate = lv.integrate

        def counted(Omega, kappa, rho0, t_start, dt, count):
            steps.append((rho0.shape, t_start, count))
            return integrate(Omega, kappa, rho0, t_start, dt, count)

        monkeypatch.setattr(lv, "integrate", counted)
        lv.verify_disentangling(1e-3, 1e-3, 100.0, 1.0)
        assert steps == [((2, 2, 7, 7), 100.0, 1)] * lv.VERIFY_MATRICES

    def test_overflow_raises(self):
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite"):
            lv.verify_disentangling(1e-3, 1e308, 10.0, 1.0)


class TestTruncationConvergence:
    def test_observables_stable_under_refinement(self):
        p = ModelParams(omega=2.0, omega0=1.9, omega_c=0.0, g=0.01, lam=0.0,
                        kappa=1e-3, alpha=1.0)
        d = derive_params(p)
        results = []
        for nmax in (20, 25):
            st = state_at(d.Omega_eff, initial_state(1.0, nmax), p.kappa, 100.0)
            nfull = np.kron(np.eye(2), np.diag(np.arange(nmax + 1.0)))
            results.append(np.trace(to_joint(st) @ nfull).real)
        assert abs(results[0] - results[1]) < 1e-8


#: kinds of seeded point on which the half-state readout is pinned
READOUT_CASES = ["vacuum", "empty_top", "two_lengths", "repeated"]


def readout_point(case, nmax, driven):
    """(ModelParams, (t_start, t_end, steps)) of one seeded readout case,
    drawn like the benchmark's oracle calls (|alpha| about 1 at nmax 20,
    2.5 at nmax 37, drive 0.15-0.25 or none)."""
    rng = np.random.default_rng([READOUT_CASES.index(case), nmax, driven])
    drive = rng.uniform(0.15, 0.25) if driven else 0.0
    size = rng.uniform(0.9, 1.1) if nmax == 20 else rng.uniform(2.4, 2.6)
    size = {"vacuum": 0.0, "empty_top": {20: 1e-20, 37: 1e-15}[nmax]}.get(
        case, size)
    phi, theta = rng.uniform(0.0, 2.0 * math.pi, size=2)
    p = ModelParams(omega=2.0, omega0=1.9, omega_c=drive, g=0.01, lam=drive,
                    kappa=10.0 ** rng.uniform(-3.3, -2.7),
                    alpha=size * cmath.exp(1j * phi), c0=math.cos(theta),
                    c1=math.sin(theta) * cmath.exp(1j * phi))
    grid = {"two_lengths": (30.0, 90.0, 9), "repeated": (40.0, 40.0, 4)}
    return p, grid.get(case, (0.0, 60.0, 13))


class TestOracleSeries:
    def test_matches_scalar_projection(self):
        # the batched basis, projection and Wootters against
        # a per-sample einsum projection and the scalar concurrence
        p = ModelParams(omega=2.0, omega0=1.9, omega_c=0.2, g=0.01, lam=0.2,
                        kappa=2e-3, alpha=1.3 - 0.4j, c0=0.6, c1=0.8)
        d = derive_params(p)
        nmax = 24
        grid = 0.0, 200.0, 9
        times = np.linspace(*grid)
        conc, entr, nbar, terr = lv.oracle_series(p, d, *grid, nmax)
        states = states_at(d.Omega_eff, initial_state(p.alpha, nmax, p.c0, p.c1),
                           p.kappa, 0.0, 25.0, 9)
        s = an.evolve(p, d, times)
        n = np.arange(nmax + 1.0)
        for i, st in enumerate(states):
            rho4 = project_two_qubit(st, s.alpha_plus[i], s.alpha_minus[i], nmax)
            assert abs(conc[i] - wootters_concurrence(rho4)) < 1e-14
            assert abs(entr[i] - linear_entropy_general(rho4)) < 1e-14
            pops = np.einsum("aann->n", st).real
            assert abs(nbar[i] - pops @ n) < 1e-14
            assert abs(terr[i] - abs(pops.sum() - 1.0)) < 1e-14

    def test_only_concurrence_reads_the_closed_form(self, monkeypatch):
        # the closed-form amplitudes set the concurrence's projection basis;
        # linear entropy, photon number and trace come from the blocks alone
        p = ModelParams(omega=2.0, omega0=1.9, omega_c=0.2, g=0.01, lam=0.2,
                        kappa=2e-3, alpha=1.3 - 0.4j, c0=0.6, c1=0.8)
        d = derive_params(p)
        grid = 0.0, 200.0, 9
        exact = lv.oracle_series(p, d, *grid, 24)
        evolve = an.evolve
        monkeypatch.setattr(an, "evolve", lambda p, d, t: evolve(
            p, dataclasses.replace(d, Omega_eff=d.Omega_eff * (1 + 1e-3)), t))
        skewed = lv.oracle_series(p, d, *grid, 24)
        assert np.any(skewed[0] != exact[0])
        for got, want in zip(skewed[1:], exact[1:]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("driven", [False, True])
    @pytest.mark.parametrize("nmax", [20, 37])
    @pytest.mark.parametrize("case", READOUT_CASES)
    def test_matches_full_state_readout(self, case, nmax, driven):
        # the half-state readout against the full-state loop it replaced,
        # on seeded points: |alpha| = 0 (support L = 1), an |alpha| whose
        # amplitudes underflow to zero above level L - 1 < nmax, t_start > 0
        # (two step lengths) and dt = 0 (repeated samples)
        p, grid = readout_point(case, nmax, driven)
        support = np.flatnonzero(lv.coherent_vector(p.alpha, nmax))[-1] + 1
        assert support == {"vacuum": 1, "empty_top": {20: 16, 37: 21}[nmax]
                           }.get(case, nmax + 1)
        got = lv.oracle_series(p, derive_params(p), *grid, nmax)
        want = oracle_series_full(p, derive_params(p), *grid, nmax)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("drive", [0.0, 0.2])
    def test_empty_top_levels_are_trimmed(self, drive):
        # |alpha| = 1e-3: the coherent amplitudes underflow to exact zeros
        # above level 86, so nmax 120 runs on the same 87 levels as nmax 86
        # and gives the same bits
        p = ModelParams(omega=2.0, omega0=1.9, omega_c=drive, g=0.01,
                        lam=drive, kappa=1e-3, alpha=1e-3)
        assert np.flatnonzero(lv.coherent_vector(p.alpha, 120))[-1] == 86
        d, grid = derive_params(p), (3.0, 300.0, 5)
        for got, want in zip(lv.oracle_series(p, d, *grid, 120),
                             lv.oracle_series(p, d, *grid, 86)):
            np.testing.assert_array_equal(got, want)

    def test_no_samples(self):
        p = ModelParams(omega=2.0, omega0=1.9, omega_c=0.0, g=0.01, lam=0.0,
                        kappa=1e-3, alpha=1.0)
        out = lv.oracle_series(p, derive_params(p), 0.0, 300.0, 0, 20)
        assert [x.shape for x in out] == [(0,)] * 4

    @pytest.mark.parametrize("c0, c1", [("0", "1"), ("1", "0")])
    def test_verify_passes_in_one_dressed_state(self, c0, c1, capsys):
        # an atom in one dressed state: rho_01 and one population block are
        # zero, and the completed two-qubit state is a product
        assert main(["verify", "--c0-re", c0, "--c1-re", c1]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "FAIL" not in out

    def test_concurrence_under_strong_decay(self):
        # strong decay, kappa t up to 15: the concurrence holds verify's gate
        p = ModelParams(omega=2.0, omega0=1.9, omega_c=0.5, g=0.01, lam=0.5,
                        kappa=0.05, alpha=2.5)
        d = derive_params(p)
        grid = 0.0, 300.0, 16
        conc, _, _, _ = lv.oracle_series(p, d, *grid, lv.default_nmax(p.alpha))
        closed = an.concurrence_analytic(an.evolve(p, d, np.linspace(*grid)))
        assert np.max(np.abs(conc - closed)) < 1e-8


def test_project_two_qubit_matches_embedding():
    p = ModelParams(omega=2.0, omega0=1.9, omega_c=0.0, g=0.01, lam=0.0,
                    kappa=1e-3, alpha=1.0)
    d = derive_params(p)
    nmax = 20
    st = state_at(d.Omega_eff, initial_state(1.0, nmax), p.kappa, 80.0)
    s = an.evolve(p, d, 80.0)
    got = project_two_qubit(st, s.alpha_plus, s.alpha_minus, nmax)
    np.testing.assert_allclose(got, two_qubit_density(s), atol=1e-7)
