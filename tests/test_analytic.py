import cmath
import math

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from drivenjc import analytic as an
from drivenjc import entanglement as ent
from drivenjc import liouville as lv
from drivenjc import model
from drivenjc.model import ModelParams, derive_params

from _reference import (branches_one_exponential, coherent_overlap,
                        entropy_and_abs_f_mp, two_qubit_density)

SQ2 = 1 / math.sqrt(2)


def tau(s):
    """The branch overlap <alpha_plus|alpha_minus> of a snapshot."""
    return coherent_overlap(s.alpha_plus, s.alpha_minus)


def params(**kw):
    base = dict(omega=2.0, omega0=1.9, omega_c=0.0, g=0.01, lam=0.0,
                kappa=1e-3, alpha=1.0)
    base.update(kw)
    return ModelParams(**base)


class TestCoherentOverlap:
    def test_normalized(self):
        assert coherent_overlap(0.7 - 0.2j, 0.7 - 0.2j) == pytest.approx(1.0)

    def test_vacuum_overlap(self):
        g = 1.3 + 0.4j
        assert coherent_overlap(0.0, g) == pytest.approx(
            math.exp(-abs(g) ** 2 / 2))

    def test_unit_vs_i(self):
        got = coherent_overlap(1.0, 1.0j)
        assert got == pytest.approx(cmath.exp(-1 + 1j), rel=1e-12)
        assert got.real == pytest.approx(0.198766, abs=1e-6)
        assert got.imag == pytest.approx(0.309560, abs=1e-6)

    def test_against_truncated_fock_dot_product(self):
        for b, g in [(1.0, 1.0j), (0.5 - 0.3j, -0.8), (1.2, 1.2)]:
            vb = lv.coherent_vector(b, 40)
            vg = lv.coherent_vector(g, 40)
            assert coherent_overlap(b, g) == pytest.approx(
                complex(np.vdot(vb, vg)), abs=1e-12)


class TestEvolve:
    def test_initial_time(self):
        p = params()
        s = an.evolve(p, derive_params(p), 0.0)
        assert s.alpha_plus == pytest.approx(1.0)
        assert s.alpha_minus == pytest.approx(1.0)
        assert np.exp(s.log_f) == pytest.approx(1.0)
        assert tau(s) == pytest.approx(1.0)

    def test_lossless_quarter_period(self):
        p = params(kappa=0.0)
        d = derive_params(p)
        t = math.pi / (2 * abs(d.Omega_eff))
        s = an.evolve(p, d, t)
        assert abs(np.exp(s.log_f)) == pytest.approx(1.0, abs=1e-12)
        assert abs(tau(s)) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_figure2_dotted_point(self):
        # frozen from the closed form; acceptance criterion 4 holds its
        # concurrence and linear entropy, on a grid through t = 100, to the
        # exact Lindblad oracle within 1e-8 and 1e-12
        p = params()
        s = an.evolve(p, derive_params(p), 100.0)
        assert abs(np.exp(s.log_f)) == pytest.approx(0.9988544314795599,
                                                     abs=1e-9)
        assert abs(tau(s)) == pytest.approx(0.9838123456709540, abs=1e-9)

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


class TestBranches:
    """`branches` takes each exponential on the axes of its own inputs and
    writes ln f with phi; against the one-exponential form of the paper this
    moves last digits only.  Measured on grids like these (20 seeds,
    |alpha| <= 18.49, |Omega| t <= VERIFY_PHASE_LIMIT):
    |d alpha_pm| <= 3.9e-16 |alpha| and |d exp(ln f)| <= 5.9e-16
    max(1, |alpha|^2).  The bounds below, kept from the form before ln f,
    are about twice and three times those."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_one_exponential_form(self, seed):
        rng = np.random.default_rng(seed)
        radius = np.concatenate([[0.0, 18.49], rng.uniform(0.0, 18.49, 6)])
        alpha = radius * np.exp(2j * np.pi * rng.random(8))
        kappa = np.concatenate([[0.0], 10.0 ** rng.uniform(-6.0, 1.0, 7)])
        # Omega of both signs
        Omega = rng.choice([-1.0, 1.0], 10) * 10.0 ** rng.uniform(-5, 2, 10)
        t = np.concatenate([[0.0], 10.0 ** rng.uniform(-3.0, 3.0, 9)])
        # |Omega| t up to the largest phase verify resolves, and at it
        t = np.minimum(t, model.VERIFY_PHASE_LIMIT / np.abs(Omega[:, None]))
        t[:, -1] = model.VERIFY_PHASE_LIMIT / np.abs(Omega)
        args = (alpha[:, None, None, None], kappa[:, None, None],
                Omega[:, None], t)
        a_plus, a_minus, log_f = an.branches(*args)
        got = a_plus, a_minus, np.exp(log_f)
        want = branches_one_exponential(*args)
        n0 = np.abs(args[0]) ** 2
        for new, old in zip(got[:2], want[:2]):
            assert np.all(np.abs(new - old) <= 8e-16 * np.sqrt(n0))
        assert np.all(np.abs(got[2] - want[2]) <= 2e-15 * np.maximum(1.0, n0))
        # kappa = 0: ln f is exactly -i Omega t, f the pure phase
        # exp(-i Omega t), and alpha_pm those of the one-exponential form
        assert np.array_equal(got[2][:, 0], np.broadcast_to(
            np.exp(-1j * Omega[:, None] * t), got[2][:, 0].shape))
        for new, old in zip(got, want):
            assert np.array_equal(new[:, 0], old[:, 0])


def _vanishes(expr) -> bool:
    """Whether sympy reduces `expr` to exactly 0: a common denominator, then
    the exponentials multiplied out and combined."""
    expr = sp.expand(sp.cancel(expr))
    return sp.expand(sp.powsimp(expr, combine="exp")) == 0


class TestSymbolicProof:
    """The closed form solves the oracle's own master equation identically.

    The two-branch ansatz rho_ab = c_a conj(c_b) F_ab |v_a><v_b|, with
    v_0 = alpha_+, v_1 = alpha_-, F_00 = F_11 = 1 and F_01 = conj(F_10) = f,
    goes into the block generator c_m M + c_r R + c_l L + c_s of
    `liouville.generator`.  On the ansatz M X = v_a conj(v_b) X,
    R X = v_a adag X and L X = conj(v_b) X a, and
    d|v>/dt = (dv/dt adag - 1/2 d|v|^2/dt)|v>, so each block's master
    equation is three scalar identities: dv_a/dt = c_r v_a,
    d conj(v_b)/dt = c_l conj(v_b) and
    d ln F/dt - 1/2 d(|v_a|^2 + |v_b|^2)/dt = c_s + c_m v_a conj(v_b).
    The coefficients come from `liouville.generator` itself, so the proven
    equation is the one the oracle propagates; alpha_pm and ln f are those
    of `analytic.branches`' docstring, and one test ties them to its values.
    """

    t, kappa, Omega, x, y = sp.symbols("t kappa Omega x y", real=True)

    @staticmethod
    def phi(z):
        return (sp.exp(z) - 1) / z

    def branches(self, kappa_slip=1):
        """(alpha_+, alpha_-, ln f) in sympy, alpha = x + i y; kappa_slip
        scales kappa inside ln f only, a slip the proof must reject."""
        t, kappa, Omega = self.t, self.kappa, self.Omega
        alpha = self.x + sp.I * self.y
        a, b = -2 * kappa_slip * kappa * t, -2 * sp.I * Omega * t
        log_f = b / 2 - (self.x**2 + self.y**2) * a * (
            self.phi(a + b) - self.phi(a))
        return (alpha * sp.exp(-(kappa + sp.I * Omega) * t),
                alpha * sp.exp(-(kappa - sp.I * Omega) * t), log_f)

    def residuals(self, a, b, branches):
        """The three scalar residuals of block (a, b)."""
        v, log_f = branches[:2], branches[2]
        log_F = {(0, 1): log_f, (1, 0): sp.conjugate(log_f)}.get((a, b), 0)
        spec = lv.generator(self.Omega, self.kappa, a, b)
        c_m, c_r, c_l, c_s = (sp.nsimplify(c) for c in (
            spec.c_m, spec.c_r, spec.c_l, spec.c_s))
        va, vb = v[a], sp.conjugate(v[b])
        d = lambda expr: sp.diff(expr, self.t)   # noqa: E731
        return [d(va) - c_r * va, d(vb) - c_l * vb,
                d(log_F) - d(va * sp.conjugate(va) + vb * sp.conjugate(vb)) / 2
                - c_s - c_m * va * vb]

    @pytest.mark.parametrize("block", [(0, 1), (0, 0), (1, 1), (1, 0)])
    def test_residuals_vanish(self, block):
        assert all(map(_vanishes, self.residuals(*block, self.branches())))

    def test_a_slip_leaves_a_residual(self):
        # kappa doubled in ln f only: the amplitudes still solve their
        # equations, the coherence equation no longer
        residuals = self.residuals(0, 1, self.branches(kappa_slip=2))
        assert [_vanishes(r) for r in residuals] == [True, True, False]

    def test_rewrite_of_the_bracket(self):
        # b/(a + b) [(e^a - phi(a)) + e^a b phi_2(b)] = phi(a + b) - phi(a),
        # the form `branches` evaluates
        a, b = sp.symbols("a b")
        phi2 = (sp.exp(b) - 1 - b) / b**2
        lhs = b / (a + b) * ((sp.exp(a) - self.phi(a)) + sp.exp(a) * b * phi2)
        assert _vanishes(lhs - (self.phi(a + b) - self.phi(a)))

    def test_proven_form_is_the_evaluated_one(self):
        # the sympy expressions at 30 digits against `analytic.branches`
        symbols = (self.x, self.y, self.kappa, self.Omega, self.t)
        exact = sp.lambdify(symbols, self.branches(), "mpmath")
        rng = np.random.default_rng(5)
        for _ in range(20):
            alpha = 4.0 * rng.random() * cmath.exp(2j * math.pi * rng.random())
            kappa = 10.0 ** rng.uniform(-4, 0)
            Omega = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 0)
            t = 10.0 ** rng.uniform(-2, 2.5)
            with mpmath.workdps(30):
                want = [complex(w) for w in exact(
                    alpha.real, alpha.imag, kappa, Omega, t)]
            got = an.branches(alpha, kappa, Omega, t)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * max(1.0, abs(w))


def reference_errors(seed: int, n: int) -> tuple[float, float]:
    """Worst errors of the closed-form linear entropy and |f| against
    `entropy_and_abs_f_mp` on n seeded points of (kappa, Omega, t, |alpha|),
    each as a share of its bound, so that a result <= 1 passes.

    The points take kappa = 0 and |alpha| = 18.49 (the largest |alpha| an
    oracle accepts) one time in ten, and t from 1e-4, where
    1 - |f|^2 ~ |alpha|^2 kappa (Omega t)^2 t is of order 1e-20.  The
    bounds: at kappa = 0 the entropy exactly 0 and f exactly exp(-i Omega t);
    else the entropy within 16 eps / min(1, 2 |Omega| t) relative, the
    cancellation left in the phase term, and |f| within 8 eps
    max(1, |alpha|^2) relative.  The worst of 60000 points (seeds 11-13)
    read 4.4 eps / min(1, 2 |Omega| t) and 3.2 eps max(1, |alpha|^2).
    """
    rng = np.random.default_rng(seed)
    kappa = np.where(rng.random(n) < 0.1, 0.0, 10.0 ** rng.uniform(-6, 1, n))
    Omega = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5, 1, n)
    t = 10.0 ** rng.uniform(-4, 2.5, n)
    radius = np.where(rng.random(n) < 0.1, 18.49, rng.uniform(0.0, 18.49, n))
    alpha = radius * np.exp(2j * np.pi * rng.random(n))
    a_plus, a_minus, log_f = an.branches(alpha, kappa, Omega, t)
    s = an.AnalyticSnapshot(alpha_plus=a_plus, alpha_minus=a_minus,
                            log_f=log_f, c0=SQ2, c1=SQ2)
    entropy, abs_f = an.linear_entropy_analytic(s), np.exp(np.real(log_f))
    want = np.array([entropy_and_abs_f_mp(*x, SQ2, SQ2)
                     for x in zip(alpha, kappa, Omega, t)]).T
    eps = np.finfo(float).eps
    lossless = kappa == 0
    if not (np.all(entropy[lossless] == 0.0) and np.array_equal(
            np.exp(log_f[lossless]), np.exp(-1j * Omega * t)[lossless])):
        return math.inf, math.inf
    lossy = ~lossless
    entropy_bound = 16 * eps / np.minimum(1.0, 2.0 * np.abs(Omega * t))
    f_bound = 8 * eps * np.maximum(1.0, radius ** 2)
    return (float(np.max(np.abs(entropy[lossy] / want[0][lossy] - 1.0)
                         / entropy_bound[lossy])),
            float(np.max(np.abs(abs_f / want[1] - 1.0) / f_bound)))


class TestHighPrecision:
    """The closed-form linear entropy and |f| against the paper's form of
    ln f at 50 digits (`entropy_and_abs_f_mp`)."""

    @pytest.mark.parametrize("kw", [{}, dict(kappa=0.05, alpha=2.0)],
                             ids=["defaults", "lossy"])
    def test_from_t_001_to_300(self, kw):
        # relative errors at t = 0.01, 0.1 and 1 read 1.1e-11, 2.3e-13 and
        # 2.2e-13 at the defaults, 1.1e-12, 7.2e-15 and 1.3e-15 at
        # kappa = 0.05, |alpha| = 2 (7.8e-4, 6.6e-5 and 5.0e-8 at the
        # defaults with 1 - |f|^2 taken by subtraction)
        p = params(**kw)
        d = derive_params(p)
        t = np.geomspace(0.01, 300.0, 81)
        s = an.evolve(p, d, t)
        want = np.array([entropy_and_abs_f_mp(p.alpha, p.kappa, d.Omega_eff, x,
                                              p.c0, p.c1) for x in t]).T
        bound = np.select([t < 0.1, t < 1.0], [1e-6, 1e-7], 1e-9)
        assert np.all(np.abs(an.linear_entropy_analytic(s) / want[0] - 1.0)
                      <= bound)
        assert np.all(np.abs(np.exp(np.real(s.log_f)) / want[1] - 1.0)
                      <= 4 * np.finfo(float).eps * max(1.0, abs(p.alpha) ** 2))

    def test_lossless_is_a_pure_phase(self):
        p = params(kappa=0.0, alpha=18.49)
        d = derive_params(p)
        t = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 40)])
        s = an.evolve(p, d, t)
        assert np.array_equal(np.exp(s.log_f), np.exp(-1j * d.Omega_eff * t))
        assert np.all(an.linear_entropy_analytic(s) == 0.0)

    def test_no_decay_and_no_shift_is_finite(self):
        p = params(kappa=0.0, g=0.0)
        d = derive_params(p)
        assert d.Omega_eff == 0.0
        s = an.evolve(p, d, np.array([0.0, 1.0, 1e6]))
        assert np.all(s.log_f == 0.0)
        assert np.all(an.concurrence_analytic(s) == 0.0)
        assert np.all(an.linear_entropy_analytic(s) == 0.0)

    @pytest.mark.parametrize("seed", range(2))
    def test_seeded_points(self, seed):
        # CI runs 20000 points of seed 11
        assert max(reference_errors(seed, 400)) <= 1.0


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
        s = an.AnalyticSnapshot(alpha_plus=0.1, alpha_minus=0.1,
                                log_f=-math.inf, c0=SQ2, c1=SQ2)
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
    assert abs(np.exp(s.log_f)) <= 1.0 + 1e-12
    assert abs(tau(s)) <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(snapshot_params())
def test_closed_forms_match_embedding(pt):
    p, t = pt
    try:
        d = derive_params(p)
    except Exception:
        return
    s = an.evolve(p, d, t)
    if abs(tau(s)) >= 1 - 1e-6:
        return
    rho = two_qubit_density(s)
    assert ent.wootters_concurrence(rho) == pytest.approx(
        an.concurrence_analytic(s), abs=1e-10)
    assert 1.0 - np.trace(rho @ rho).real == pytest.approx(
        an.linear_entropy_analytic(s), abs=1e-10)
    assert an.linear_entropy_analytic(s) <= 0.5 + 1e-12
