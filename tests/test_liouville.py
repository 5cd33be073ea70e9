import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

from drivenjc import analytic as an
from drivenjc import liouville as lv
from drivenjc.integrator import StepSizeUnderflow, rk45
from drivenjc.model import ModelParams, derive_params


CFG6 = lv.FockConfig(nmax=6)


class TestFockConfig:
    def test_rejects_bad_nmax(self):
        with pytest.raises(ValueError):
            lv.FockConfig(nmax=0)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            lv.FockConfig(nmax=5, trunc_tol=0.0)

    def test_default_nmax(self):
        assert lv.default_nmax(0.0) == 20
        assert lv.default_nmax(1.0) == 20
        assert lv.default_nmax(3.0) == math.ceil(9 + 24 + 10)


class TestCoherentVector:
    def test_vacuum(self):
        v = lv.coherent_vector(0.0, CFG6)
        expected = np.zeros(7)
        expected[0] = 1.0
        np.testing.assert_allclose(v, expected)

    def test_unit_amplitude_norm_loss(self):
        v = lv.coherent_vector(1.0, lv.FockConfig(nmax=20))
        assert 1.0 - np.sum(np.abs(v) ** 2) < 1e-15

    def test_matches_direct_formula(self):
        alpha = 0.7 - 0.4j
        v = lv.coherent_vector(alpha, lv.FockConfig(nmax=15))
        for n in range(16):
            expected = (cmath.exp(-abs(alpha) ** 2 / 2) * alpha**n
                        / math.sqrt(math.factorial(n)))
            assert v[n] == pytest.approx(expected, abs=1e-15)

    def test_truncation_error(self):
        with pytest.raises(lv.TruncationError) as exc:
            lv.coherent_vector(3.0, lv.FockConfig(nmax=4, trunc_tol=1e-3))
        assert exc.value.norm_loss > 1e-3


class TestInteractionV:
    def test_zero_shift(self):
        np.testing.assert_array_equal(
            lv.build_interaction_V(0.0, CFG6), np.zeros((14, 14)))

    def test_small_space_diagonal(self):
        v = lv.build_interaction_V(1.0, lv.FockConfig(nmax=1))
        np.testing.assert_allclose(np.diag(v).real, [1.0, 2.0, 0.0, -1.0])
        np.testing.assert_allclose(v, np.diag(np.diag(v)))

    def test_matches_dispersive_level_shifts(self):
        # shifts of H_e relative to the free part are Omega*(n+1) on the
        # upper branch and -Omega*n on the lower one
        Om = -1e-3
        v = lv.build_interaction_V(Om, CFG6)
        diag = np.diag(v).real
        n = np.arange(7.0)
        np.testing.assert_allclose(diag[:7], Om * (n + 1), atol=1e-18)
        np.testing.assert_allclose(diag[7:], -Om * n, atol=1e-18)


class TestH2:
    def test_free_hamiltonian(self):
        h = lv.build_H2(2.0, 1.9, 0.0, CFG6)
        np.testing.assert_allclose(h, np.diag(np.diag(h)))

    def test_hermitian_and_conserves_excitation(self):
        h = lv.build_H2(2.0, 1.946, 9.87e-3, CFG6)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
        ex = lv.excitation_number(CFG6)
        assert np.max(np.abs(h @ ex - ex @ h)) < 1e-14

    def test_single_excitation_eigenvalues(self):
        omega, omega_p, g_p = 2.0, 1.9, 0.01
        cfg = lv.FockConfig(nmax=1)
        h = lv.build_H2(omega, omega_p, g_p, cfg)
        # |0,n=0> and |1,n=1> span the single-excitation block
        delta2 = omega_p - omega
        block = np.array([[omega_p / 2, g_p],
                          [g_p, omega - omega_p / 2]])
        expected = np.sort(np.linalg.eigvalsh(block))
        idx = [0, 3]  # basis order: atom0 n0, atom0 n1, atom1 n0, atom1 n1
        sub = h[np.ix_(idx, idx)]
        got = np.sort(np.linalg.eigvalsh(sub))
        np.testing.assert_allclose(got, expected, atol=1e-14)
        # and by hand: mid +- sqrt(delta2^2 + 4 g'^2)/2
        mid = omega / 2
        split = math.sqrt(delta2**2 + 4 * g_p**2) / 2
        np.testing.assert_allclose(got, [mid - split, mid + split], atol=1e-14)


def lindblad_rhs(H, rho, kappa):
    """The right-hand side `integrate` hands to rk45, applied to one matrix."""
    return lv._make_rhs(H, kappa)(0.0, rho.ravel()).reshape(rho.shape)


class TestLindbladRHS:
    def test_zero(self):
        rho = np.eye(14, dtype=complex) / 14
        np.testing.assert_array_equal(
            lindblad_rhs(np.zeros((14, 14)), rho, 0.0),
            np.zeros((14, 14)))

    def test_fock_state_decay_rate(self):
        N = 7
        rho = np.zeros((2 * N, 2 * N), dtype=complex)
        rho[1, 1] = 1.0  # atom 0, field |1><1|
        k = 0.37
        out = lindblad_rhs(np.zeros((2 * N, 2 * N)), rho, k)
        nfull = np.kron(np.eye(2), lv.number_op(N))
        dn_dt = np.trace(out @ nfull).real
        assert dn_dt == pytest.approx(-2 * k, rel=1e-12)

    def test_traceless_hermitian(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(14, 14)) + 1j * rng.normal(size=(14, 14))
        rho = m + m.conj().T
        h = lv.build_H2(2.0, 1.9, 0.01, CFG6)
        out = lindblad_rhs(h, rho, 1e-3)
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def initial_state(alpha, cfg, c0=1 / math.sqrt(2), c1=1 / math.sqrt(2)):
    atom = np.array([[abs(c0) ** 2, c0 * np.conj(c1)],
                     [np.conj(c0) * c1, abs(c1) ** 2]], dtype=complex)
    return lv.joint_initial_state(atom, lv.coherent_vector(alpha, cfg))


class TestIntegrate:
    def test_diagonal_hamiltonian_preserves_populations(self):
        cfg = lv.FockConfig(nmax=14)
        v = lv.build_interaction_V(-1e-3, cfg)
        st0 = initial_state(1.0, cfg)
        st = lv.integrate(v, st0, 0.0, 200.0, tol=1e-10)
        np.testing.assert_allclose(np.diag(st.rho).real,
                                   np.diag(st0.rho).real, atol=1e-9)

    def test_pure_decay_keeps_field_coherent(self):
        cfg = lv.FockConfig(nmax=14)
        k, t, alpha = 2e-3, 150.0, 1.0
        st = lv.integrate(np.zeros((30, 30)), initial_state(alpha, cfg), k, t,
                          tol=1e-10)
        nfull = np.kron(np.eye(2), lv.number_op(cfg.dim))
        nbar = np.trace(st.rho @ nfull).real
        assert nbar == pytest.approx(alpha**2 * math.exp(-2 * k * t), abs=1e-8)
        vt = lv.coherent_vector(alpha * math.exp(-k * t), cfg)
        rho00 = lv.block(st.rho, 0, 0)
        np.testing.assert_allclose(rho00, 0.5 * np.outer(vt, vt.conj()),
                                   atol=1e-8)

    def test_trace_and_hermiticity_preserved(self):
        cfg = lv.FockConfig(nmax=14)
        v = lv.build_interaction_V(-1e-3, cfg)
        st = lv.integrate(v, initial_state(1.0, cfg), 1e-3, 300.0, tol=1e-10)
        assert abs(np.trace(st.rho) - 1.0) < 1e-8
        assert np.max(np.abs(st.rho - st.rho.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(st.rho).min() > -1e-8

    def test_step_size_underflow(self):
        def bad_rhs(t, y):
            return np.full_like(y, np.nan)

        with pytest.raises(StepSizeUnderflow):
            rk45(bad_rhs, np.ones(3, dtype=complex), 0.0, 1.0, 1e-8)


class TestBlock:
    def test_product_state(self):
        cfg = lv.FockConfig(nmax=4, trunc_tol=1e-4)
        field = lv.coherent_vector(0.5, cfg)
        rho_f = np.outer(field, field.conj())
        st = lv.joint_initial_state(np.diag([1.0, 0.0]), field)
        np.testing.assert_allclose(lv.block(st.rho, 0, 0), rho_f, atol=1e-15)
        for (i, j) in [(0, 1), (1, 0), (1, 1)]:
            np.testing.assert_allclose(lv.block(st.rho, i, j), 0, atol=1e-15)

    def test_initial_balanced_state_blocks(self):
        cfg = lv.FockConfig(nmax=12)
        st = initial_state(1.0, cfg)
        v = lv.coherent_vector(1.0, cfg)
        half_dyad = 0.5 * np.outer(v, v.conj())
        for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            np.testing.assert_allclose(lv.block(st.rho, i, j), half_dyad,
                                       atol=1e-14)

    def test_hermiticity_relation(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        rho = m + m.conj().T
        np.testing.assert_allclose(lv.block(rho, 1, 0),
                                   lv.block(rho, 0, 1).conj().T, atol=1e-12)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            lv.block(np.eye(4), 0, 2)


class TestSuperoperators:
    def test_m_coefficient_decay_block(self):
        k, Om, t = 1e-3, -1e-3, 250.0
        spec = lv.generator_00(Om, k)
        assert lv.m_coefficient(spec, t) == pytest.approx(
            math.exp(2 * k * t) - 1.0, rel=1e-12)

    def test_m_coefficient_lossless(self):
        spec = lv.generator_00(1e-3, 0.0)
        assert lv.m_coefficient(spec, 123.0) == 0.0

    def test_m_coefficient_coherence_block(self):
        k, Om, t = 1e-3, 1e-3, 100.0
        spec = lv.generator_01(Om, k)
        z = k + 1j * Om
        expected = k * (cmath.exp(2 * z * t) - 1.0) / z
        assert lv.m_coefficient(spec, t) == pytest.approx(expected, rel=1e-12)

    def test_apply_factorized_identity_at_t0(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        spec = lv.generator_01(1e-3, 1e-3)
        np.testing.assert_allclose(lv.apply_factorized(spec, x, 0.0), x,
                                   atol=1e-15)

    def test_dyad_decay_block(self):
        Om, k, t, alpha = -1e-3, 1e-3, 100.0, 1.0
        cfg = lv.FockConfig(nmax=20)
        v0 = lv.coherent_vector(alpha, cfg)
        out = lv.apply_factorized(lv.generator_00(Om, k),
                                  0.5 * np.outer(v0, v0.conj()), t)
        ap = alpha * cmath.exp(-(k + 1j * Om) * t)
        vp = lv.coherent_vector(ap, cfg)
        np.testing.assert_allclose(out, 0.5 * np.outer(vp, vp.conj()),
                                   atol=1e-10)

    def test_dyad_coherence_block(self):
        Om, k, t, alpha = -1e-3, 1e-3, 100.0, 1.0
        cfg = lv.FockConfig(nmax=20)
        p = ModelParams(omega=2.0, omega0=1.9, omega_c=0.0, g=0.01, lam=0.0,
                        kappa=k, alpha=alpha)
        d = derive_params(p)
        assert d.Omega_eff == pytest.approx(Om, rel=1e-12)
        s = an.evolve(p, d, t)
        v0 = lv.coherent_vector(alpha, cfg)
        out = lv.apply_factorized(lv.generator_01(Om, k),
                                  0.5 * np.outer(v0, v0.conj()), t)
        vp = lv.coherent_vector(s.alpha_plus, cfg)
        vm = lv.coherent_vector(s.alpha_minus, cfg)
        np.testing.assert_allclose(out, 0.5 * s.f * np.outer(vp, vm.conj()),
                                   atol=1e-10)

    def test_series_not_converged_on_boundary_support(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        x = x + x.conj().T
        spec = lv.generator_00(-1e-3, 1e-2)  # m = e^{2kt}-1 large
        with pytest.raises(lv.SeriesNotConverged):
            lv.apply_factorized(spec, x, 500.0)

    def test_dense_generator_left_multiplication(self):
        spec = lv.SuperopSpec(c_m=0.0, c_r=0.7, c_l=0.0)
        g = lv.dense_generator(spec, CFG6)
        nh = lv.number_op(7)
        np.testing.assert_allclose(g, 0.7 * np.kron(nh, np.eye(7)), atol=1e-15)

    def test_dense_commutators(self):
        r = lv.dense_generator(lv.SuperopSpec(0.0, 1.0, 0.0), CFG6)
        l = lv.dense_generator(lv.SuperopSpec(0.0, 0.0, 1.0), CFG6)
        m = lv.dense_generator(lv.SuperopSpec(1.0, 0.0, 0.0), CFG6)
        np.testing.assert_allclose(r @ m - m @ r, -m, rtol=0, atol=1e-13)
        np.testing.assert_allclose(l @ m - m @ l, -m, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(r @ l - l @ r, np.zeros_like(r))

    def test_dense_matches_direct_action(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        spec = lv.generator_01(2e-3, 1e-3)
        g = lv.dense_generator(spec, CFG6)
        a = lv.annihilation(7)
        nh = lv.number_op(7)
        direct = (spec.c_m * (a @ x @ a.conj().T) + spec.c_r * (nh @ x)
                  + spec.c_l * (x @ nh) + spec.c_s * x)
        np.testing.assert_allclose((g @ x.ravel()).reshape(7, 7), direct,
                                   atol=1e-15)

    def test_dimension_guard(self):
        with pytest.raises(lv.DimensionGuard):
            lv.dense_generator(lv.SuperopSpec(1.0, 0.0, 0.0),
                               lv.FockConfig(nmax=70))


class TestVerifyDisentangling:
    def test_identity_map_when_idle(self):
        rep = lv.verify_disentangling(0.0, 0.0, 50.0, CFG6)
        assert rep.passed
        assert max(rep.max_pairwise_dev.values()) < 1e-10

    def test_default_parameters(self):
        rep = lv.verify_disentangling(1e-3, 1e-3, 100.0, CFG6)
        assert rep.passed
        assert max(rep.max_pairwise_dev.values()) < 1e-8
        assert max(rep.dyad_max_abs_err.values()) < 1e-10

    def test_guard(self):
        with pytest.raises(lv.DimensionGuard):
            lv.verify_disentangling(1e-3, 1e-3, 1.0, lv.FockConfig(nmax=40))


class TestTruncationConvergence:
    def test_observables_stable_under_refinement(self):
        p = ModelParams(omega=2.0, omega0=1.9, omega_c=0.0, g=0.01, lam=0.0,
                        kappa=1e-3, alpha=1.0)
        d = derive_params(p)
        results = []
        for nmax, tol in [(20, 1e-8), (25, 5e-9)]:
            cfg = lv.FockConfig(nmax=nmax, trunc_tol=tol)
            v = lv.build_interaction_V(d.Omega_eff, cfg)
            st = lv.integrate(v, initial_state(1.0, cfg), p.kappa, 100.0,
                              tol=1e-11)
            nfull = np.kron(np.eye(2), lv.number_op(cfg.dim))
            results.append(np.trace(st.rho @ nfull).real)
        assert abs(results[0] - results[1]) < 1e-8


def test_project_two_qubit_matches_embedding():
    p = ModelParams(omega=2.0, omega0=1.9, omega_c=0.0, g=0.01, lam=0.0,
                    kappa=1e-3, alpha=1.0)
    d = derive_params(p)
    cfg = lv.FockConfig(nmax=20)
    v = lv.build_interaction_V(d.Omega_eff, cfg)
    st = lv.integrate(v, initial_state(1.0, cfg), p.kappa, 80.0, tol=1e-10)
    s = an.evolve(p, d, 80.0)
    got = lv.project_two_qubit(st.rho, s.alpha_plus, s.alpha_minus, cfg)
    np.testing.assert_allclose(got, an.two_qubit_density(s), atol=1e-7)
