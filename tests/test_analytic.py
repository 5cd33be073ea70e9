import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivenjc import analytic as an
from drivenjc import entanglement as ent
from drivenjc import liouville as lv
from drivenjc.model import ModelParams, derive_params

from _reference import two_qubit_density

SQ2 = 1 / math.sqrt(2)


def params(**kw):
    base = dict(omega=2.0, omega0=1.9, omega_c=0.0, g=0.01, lam=0.0,
                kappa=1e-3, alpha=1.0)
    base.update(kw)
    return ModelParams(**base)


class TestCoherentOverlap:
    def test_normalized(self):
        assert an.coherent_overlap(0.7 - 0.2j, 0.7 - 0.2j) == pytest.approx(1.0)

    def test_vacuum_overlap(self):
        g = 1.3 + 0.4j
        assert an.coherent_overlap(0.0, g) == pytest.approx(
            math.exp(-abs(g) ** 2 / 2))

    def test_unit_vs_i(self):
        got = an.coherent_overlap(1.0, 1.0j)
        assert got == pytest.approx(cmath.exp(-1 + 1j), rel=1e-12)
        assert got.real == pytest.approx(0.198766, abs=1e-6)
        assert got.imag == pytest.approx(0.309560, abs=1e-6)

    def test_against_truncated_fock_dot_product(self):
        for b, g in [(1.0, 1.0j), (0.5 - 0.3j, -0.8), (1.2, 1.2)]:
            vb = lv.coherent_vector(b, 40)
            vg = lv.coherent_vector(g, 40)
            assert an.coherent_overlap(b, g) == pytest.approx(
                complex(np.vdot(vb, vg)), abs=1e-12)


class TestEvolve:
    def test_initial_time(self):
        p = params()
        s = an.evolve(p, derive_params(p), 0.0)
        assert s.alpha_plus == pytest.approx(1.0)
        assert s.alpha_minus == pytest.approx(1.0)
        assert s.f == pytest.approx(1.0)
        assert s.tau == pytest.approx(1.0)

    def test_lossless_quarter_period(self):
        p = params(kappa=0.0)
        d = derive_params(p)
        t = math.pi / (2 * abs(d.Omega_eff))
        s = an.evolve(p, d, t)
        assert abs(s.f) == pytest.approx(1.0, abs=1e-12)
        assert abs(s.tau) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_figure2_dotted_point(self):
        # frozen from the closed form; acceptance criterion 4 holds its
        # concurrence and linear entropy, on a grid through t = 100, to the
        # exact Lindblad oracle within 1e-8 and 1e-12
        p = params()
        s = an.evolve(p, derive_params(p), 100.0)
        assert abs(s.f) == pytest.approx(0.9988544314795599, abs=1e-9)
        assert abs(s.tau) == pytest.approx(0.9838123456709540, abs=1e-9)

    def test_amplitude_decay_invariant(self):
        p = params(alpha=0.8 + 0.5j)
        d = derive_params(p)
        for t in (0.0, 13.0, 200.0):
            s = an.evolve(p, d, t)
            expected = abs(p.alpha) * math.exp(-p.kappa * t)
            assert abs(s.alpha_plus) == pytest.approx(expected, rel=1e-12)
            assert abs(s.alpha_minus) == pytest.approx(expected, rel=1e-12)

    def test_negative_time_rejected(self):
        p = params()
        with pytest.raises(ValueError):
            an.evolve(p, derive_params(p), -1.0)


class TestTwoQubitDensity:
    def test_initial_product_state(self):
        p = params()
        rho = two_qubit_density(an.evolve(p, derive_params(p), 0.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = 0.5  # (|0>+|1>)(<0|+<1|)/2 on the up-field block
        np.testing.assert_allclose(rho, expected, atol=1e-14)

    def test_lossless_pure_entangled(self):
        p = params(kappa=0.0)
        d = derive_params(p)
        t = math.pi / (2 * abs(d.Omega_eff))
        rho = two_qubit_density(an.evolve(p, d, t))
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
        assert ent.wootters_concurrence(rho) == pytest.approx(
            math.sqrt(1 - math.exp(-4)), abs=1e-10)

    def test_unentangled_branch(self):
        p = params(c0=1.0, c1=0.0)
        rho = two_qubit_density(an.evolve(p, derive_params(p), 55.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-14)
        assert ent.wootters_concurrence(rho) == 0.0

    def test_density_invariants(self):
        p = params(alpha=1.1 - 0.4j, c0=0.6, c1=0.8j)
        d = derive_params(p)
        for t in (0.0, 40.0, 170.0):
            rho = two_qubit_density(an.evolve(p, d, t))
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-10


class TestObservables:
    def test_concurrence_zero_at_start(self):
        # at a complex alpha, abs(alpha)**2 and conj(alpha) * alpha round
        # apart, which must not leave 1 - |tau|^2 above TAU_DEGENERACY
        for alpha in (1.0, 1 + 2j, 2 + 1j, 0.5 + 2.18j):
            p = params(alpha=alpha)
            assert an.concurrence_analytic(
                an.evolve(p, derive_params(p), 0.0)) == 0.0, alpha

    def test_concurrence_unentangled_branch(self):
        p = params(c0=0.0, c1=1.0)
        assert an.concurrence_analytic(
            an.evolve(p, derive_params(p), 120.0)) == 0.0

    def test_entropy_pure(self):
        p = params(kappa=0.0)
        d = derive_params(p)
        for t in (0.0, 33.0, 500.0):
            assert an.linear_entropy_analytic(an.evolve(p, d, t)) == pytest.approx(
                0.0, abs=1e-14)

    def test_entropy_at_vanishing_coherence(self):
        s = an.AnalyticSnapshot(alpha_plus=0.1, alpha_minus=0.1, f=0.0,
                                tau=0.9, c0=SQ2, c1=SQ2)
        assert an.linear_entropy_analytic(s) == pytest.approx(0.5, abs=1e-14)

    def test_photon_number(self):
        p = params()
        assert an.photon_number(p, 0.0) == pytest.approx(1.0)
        assert an.photon_number(p, 100.0) == pytest.approx(
            math.exp(-0.2), rel=1e-12)
        assert an.photon_number(p, 100.0) == pytest.approx(0.818731, abs=1e-6)
        p0 = params(kappa=0.0, alpha=1.5)
        assert an.photon_number(p0, 1e4) == pytest.approx(2.25, rel=1e-12)


@st.composite
def snapshot_params(draw):
    lam = draw(st.floats(0.0, 0.8))
    omega_c = draw(st.floats(0.0, 0.8))
    kappa = draw(st.floats(0.0, 5e-3))
    alpha = complex(draw(st.floats(-1.3, 1.3)), draw(st.floats(-1.3, 1.3)))
    t = draw(st.floats(0.0, 400.0))
    phase = draw(st.floats(0.0, 2 * math.pi))
    c0 = draw(st.floats(0.05, 0.95))
    p = ModelParams(omega=2.0, omega0=1.9, omega_c=omega_c, g=0.01, lam=lam,
                    kappa=kappa, alpha=alpha,
                    c0=math.sqrt(c0), c1=math.sqrt(1 - c0) * cmath.exp(1j * phase))
    return p, t


@settings(max_examples=60, deadline=None)
@given(snapshot_params())
def test_f_and_tau_bounded(pt):
    p, t = pt
    try:
        d = derive_params(p)
    except Exception:
        return
    s = an.evolve(p, d, t)
    assert abs(s.f) <= 1.0 + 1e-12
    assert abs(s.tau) <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(snapshot_params())
def test_closed_forms_match_embedding(pt):
    p, t = pt
    try:
        d = derive_params(p)
    except Exception:
        return
    s = an.evolve(p, d, t)
    if abs(s.tau) >= 1 - 1e-6:
        return
    rho = two_qubit_density(s)
    assert ent.wootters_concurrence(rho) == pytest.approx(
        an.concurrence_analytic(s), abs=1e-10)
    assert 1.0 - np.trace(rho @ rho).real == pytest.approx(
        an.linear_entropy_analytic(s), abs=1e-10)
    assert an.linear_entropy_analytic(s) <= 0.5 + 1e-12
