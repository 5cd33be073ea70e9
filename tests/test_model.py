import math

import pytest
from hypothesis import given, strategies as st

from drivenjc.model import (
    DegenerateDispersive,
    ModelParams,
    default_nmax,
    derive_params,
    dispersive_ratio,
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


class TestModelParamsValidation:
    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            params(g=-1.0)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            params(kappa=-0.1)

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            params(c0=1.0, c1=1.0)


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


class TestDefaultNmax:
    def test_default_nmax(self):
        assert default_nmax(0.0) == 20
        assert default_nmax(1.0) == 20
        assert default_nmax(3.0) == math.ceil(9 + 24 + 10)

    def test_overflowing_bound_rejected(self):
        # |alpha|^2 overflows to inf: invalid input, not a numerical failure
        with pytest.raises(ValueError, match="1e\\+200"):
            default_nmax(1e200)


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
