import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from drivenjc.model import (
    DISPERSIVE_THRESHOLD,
    NMAX_LIMIT,
    VERIFY_PHASE_LIMIT,
    Bound,
    DegenerateDispersive,
    ModelParams,
    default_nmax,
    derive_params,
    dispersive_ratio,
    domain,
)


def params(**kw):
    base = dict(omega=2.0, omega0=1.9, omega_c=0.0, g=0.01, lam=0.0,
                kappa=0.0, alpha=1.0)
    base.update(kw)
    return ModelParams(**base)


class TestDeriveParams:
    def test_undriven_figure_parameters(self):
        d = derive_params(params())
        assert d.delta1 == pytest.approx(1.9, abs=1e-14)
        assert d.theta == 0.0
        assert d.Omega1 == pytest.approx(1.9, abs=1e-14)
        assert d.g_prime == pytest.approx(0.01, abs=1e-14)
        assert d.omega_prime == pytest.approx(1.9, abs=1e-14)
        assert d.delta2 == pytest.approx(-0.1, abs=1e-13)
        assert d.Omega_eff == pytest.approx(-1.0e-3, rel=1e-12)

    def test_driven_figure_parameters(self):
        d = derive_params(params(omega_c=0.2, lam=0.2))
        # independent evaluation of the defining formulas
        delta1 = 1.9 - 0.2
        Omega1 = math.sqrt(delta1**2 + 4 * 0.2**2)
        theta = math.atan2(0.4, delta1)
        g_prime = 0.01 * math.cos(theta / 2) ** 2
        omega_prime = Omega1 + 0.2
        delta2 = omega_prime - 2.0
        assert Omega1 == pytest.approx(math.sqrt(3.05))
        assert d.delta1 == pytest.approx(delta1)
        assert d.Omega1 == pytest.approx(Omega1)
        assert d.theta == pytest.approx(theta, rel=1e-12)
        assert d.theta == pytest.approx(0.231091, abs=1e-6)
        assert d.g_prime == pytest.approx(9.8671e-3, rel=1e-4)
        assert d.omega_prime == pytest.approx(1.946425, abs=1e-6)
        assert d.delta2 == pytest.approx(-5.3575e-2, rel=1e-4)
        assert d.Omega_eff == pytest.approx(g_prime**2 / delta2, rel=1e-12)
        assert d.Omega_eff == pytest.approx(-1.8171e-3, rel=1e-4)

    def test_undriven_limit_reduces_to_bare_detuning(self):
        d = derive_params(params(omega0=1.7, g=0.03))
        assert d.theta == 0.0
        assert d.g_prime == 0.03
        assert d.omega_prime == 1.7

    def test_resonant_drive_gives_pi_over_2(self):
        d = derive_params(params(omega0=0.5, omega_c=0.5, lam=0.3))
        assert d.theta == pytest.approx(math.pi / 2)

    def test_degenerate_dispersive(self):
        with pytest.raises(DegenerateDispersive):
            derive_params(params(omega=1.9))

    def test_invariants(self):
        d = derive_params(params(omega_c=0.2, lam=0.4))
        assert d.Omega1 >= abs(d.delta1)
        assert d.Omega1 >= 2 * 0.4
        assert 0.0 <= d.theta < math.pi
        assert 0.0 <= d.g_prime <= 0.01

    def test_dressed_frame_matches_diagonalization(self):
        """The dressed frame against numpy.linalg.eigh of the rotating-frame
        atom-plus-drive Hamiltonian 1/2 delta1 sigma_z + lam sigma_x, basis
        (e, g): the eigenvalue splitting is Omega1, and the element of
        sigma_minus = |g><e| from the upper to the lower dressed state, the
        coupling the frame keeps, has magnitude g_prime / g.  Magnitudes, so
        that eigenvector phases do not matter.  The seeded grid covers
        lam, omega_c in [0, 1] and adds theta near pi/2 (delta1 ~ 0) and
        delta1 < 0; g_prime / g <= 1 is compared absolutely, since eigh
        gives a vanishing element (theta -> pi) to absolute precision."""
        rng = np.random.default_rng(9)
        lam = np.concatenate([rng.uniform(0, 1, 400), rng.uniform(0, 1, 100),
                              [0.0, 0.0, 1e-9, 0.3]])
        omega_c = np.concatenate([rng.uniform(0, 1, 400),
                                  1.9 + rng.uniform(-1e-6, 1e-6, 50),
                                  rng.uniform(1.9, 3.0, 50),
                                  [1.0, 2.5, 1.9, 1.9]])
        d = derive_params(params(omega_c=omega_c, lam=lam))
        assert np.min(np.abs(d.theta - np.pi / 2)) < 1e-6
        assert np.count_nonzero(d.delta1 < 0) > 40
        H = np.zeros((lam.size, 2, 2))
        H[:, 0, 0], H[:, 1, 1] = 0.5 * d.delta1, -0.5 * d.delta1
        H[:, 0, 1] = H[:, 1, 0] = lam
        energies, states = np.linalg.eigh(H)
        lower, upper = states[..., 0], states[..., 1]
        kept = np.abs(upper[:, 0] * lower[:, 1])   # <lower| g><e |upper>
        split = energies[:, 1] - energies[:, 0]
        assert np.max(np.abs(split - d.Omega1) / d.Omega1) < 1e-14
        assert np.max(np.abs(kept - d.g_prime / 0.01)) < 1e-14


class TestModelParamsValidation:
    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            params(g=-1.0)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            params(kappa=-0.1)

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(ValueError, match=r"got 2\.0$"):
            params(c0=1.0, c1=1.0)

    @pytest.mark.parametrize("name, value", [
        ("omega", math.nan), ("kappa", math.inf),
        ("alpha", complex(1.0, math.nan)), ("lam", np.array([0.1, math.nan]))])
    def test_non_finite_value_rejected(self, name, value):
        # the library's own check; the CLI rejects these earlier, as it
        # reads each option
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            params(**{name: value})


class TestDispersiveRatio:
    def test_vacuum(self):
        d = derive_params(params())
        assert dispersive_ratio(d, 0) == pytest.approx(0.1, rel=1e-12)

    def test_zero_coupling(self):
        d = derive_params(params(g=0.0))
        assert dispersive_ratio(d, 5) == 0.0

    def test_one_photon(self):
        d = derive_params(params())
        assert dispersive_ratio(d, 1) == pytest.approx(math.sqrt(2) * 0.1,
                                                       rel=1e-12)

    def test_negative_photon_number_rejected(self):
        d = derive_params(params())
        with pytest.raises(ValueError):
            dispersive_ratio(d, -1)

    def test_degenerate_cells_are_nan(self):
        # delta2 = omega_prime - omega is exactly 0 at lambda = 0; that cell
        # is NaN, as in Omega_eff, and the others match the scalar ratio
        def point(lam):
            return params(omega=1.9, omega0=1.9, omega_c=0.0, lam=lam)

        lams = [0.0, 0.1, 0.2]
        d = derive_params(point(np.array(lams)))
        ratio = dispersive_ratio(d, 1)
        assert np.isnan(ratio[0]) and np.isnan(d.Omega_eff[0])
        for lam, r in zip(lams[1:], ratio[1:]):
            assert r == dispersive_ratio(derive_params(point(lam)), 1)


class TestDefaultNmax:
    def test_default_nmax(self):
        assert default_nmax(0.0) == 20
        assert default_nmax(1.0) == 20
        assert default_nmax(3.0) == math.ceil(9 + 24 + 10)

    def test_overflowing_bound_rejected(self):
        # |alpha|^2 overflows to inf: invalid input, not a numerical failure
        with pytest.raises(ValueError, match="1e\\+200"):
            default_nmax(1e200)


class TestDomain:
    def test_default_point_is_inside(self):
        p = params(kappa=1e-3)
        d = derive_params(p)
        records = domain(p, d, 300.0)
        assert records["truncation"] == Bound(20, NMAX_LIMIT,
                                              records["truncation"].message)
        assert records["phase"].value == pytest.approx(0.3, rel=1e-12)
        assert records["phase"].bound == VERIFY_PHASE_LIMIT
        assert records["ratio"].value == dispersive_ratio(d, 1)
        assert records["ratio"].bound == DISPERSIVE_THRESHOLD
        assert not any(r.exceeded for r in records.values())
        # no horizon, no phase
        assert domain(p, d)["phase"].value == 0.0

    def test_truncation_names_its_bound(self):
        # |alpha| = 18.5 implies nmax 501
        p = params(alpha=18.5)
        record = domain(p, derive_params(p))["truncation"]
        assert record.exceeded and record.value == 501
        assert record.message == ("|alpha| = 18.5: verify's dyad runs at "
                                  "default_nmax(alpha) = 501 > NMAX_LIMIT = 500")

    @pytest.mark.parametrize("kappa, horizon, phase", [
        (0.0, 1e10, 1e7), (0.0, 1e9, 1e6),
        # decay caps the phase at |Omega_eff| / kappa
        (1e-10, 1e14, 1e7), (1e-9, 1e14, 1e6)])
    def test_phase(self, kappa, horizon, phase):
        p = params(kappa=kappa)
        record = domain(p, derive_params(p), horizon)["phase"]
        assert record.value == pytest.approx(phase, rel=1e-12)
        assert record.exceeded == (phase > VERIFY_PHASE_LIMIT)
        assert f"{phase:.3g} rad exceeds 3e+06" in record.message

    def test_ratio_above_threshold(self):
        # acceptance criterion 6(b)'s drive: ratio 0.260 at n = 1
        p = params(omega_c=0.2, lam=0.2)
        record = domain(p, derive_params(p))["ratio"]
        assert record.exceeded
        assert record.value == pytest.approx(0.260, abs=1e-3)
        assert record.message.startswith("dispersive ratio 0.26 exceeds "
                                         "threshold 0.2")

    def test_nan_exceeds(self):
        assert Bound(math.nan, 1.0, "").exceeded
        assert not Bound(1.0, 1.0, "").exceeded

    def test_overflowing_truncation_leaves_no_domain(self):
        p = params(alpha=1e200)
        with pytest.raises(ValueError, match="overflows"):
            domain(p, derive_params(p))


@given(st.floats(0.1, 100.0))
def test_scale_consistency(s):
    p = params(omega_c=0.2, lam=0.3, kappa=1e-3)
    d = derive_params(p)
    ps = ModelParams(omega=s * p.omega, omega0=s * p.omega0,
                     omega_c=s * p.omega_c, g=s * p.g, lam=s * p.lam,
                     kappa=s * p.kappa, alpha=p.alpha)
    ds = derive_params(ps)
    assert ds.theta == pytest.approx(d.theta, rel=1e-12)
    for name in ("delta1", "Omega1", "g_prime", "omega_prime", "delta2",
                 "Omega_eff"):
        assert getattr(ds, name) == pytest.approx(s * getattr(d, name),
                                                  rel=1e-9, abs=1e-12)


@given(st.floats(1e-12, 1e-3))
def test_small_drive_continuity(lam):
    d = derive_params(params(lam=lam))
    d0 = derive_params(params())
    assert d.theta == pytest.approx(0.0, abs=1e-2)
    assert d.g_prime == pytest.approx(d0.g_prime, rel=1e-4)
    assert d.Omega_eff == pytest.approx(d0.Omega_eff, rel=1e-3)
