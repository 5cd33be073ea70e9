"""Mutation catalogue: plausible slips of the closed forms that `verify` must
reject.

Each slip is patched into `analytic` and `verify` must exit 1 with a FAIL
line of the named stage.  `branches` returns ln f, so its slips of f are
written on ln f.  Concurrence, linear entropy and photon number depend only
on |f| and |tau|, so the phase slips of `branches` (f conjugated, -f,
alpha_pm swapped, a common phase) show only in stage 1's coherent dyad; at
kappa = 0 the kappa slips vanish by construction, so their inputs have
kappa > 0.
"""

import numpy as np
import pytest

from drivenjc import analytic
from drivenjc.cli import main

_branches = analytic.branches


def _omega_skew(alpha, kappa, Omega, t):
    return _branches(alpha, kappa, Omega * (1.0 + 1e-6), t)


def _kappa_doubled_in_amplitudes(alpha, kappa, Omega, t):
    a_plus, a_minus, _ = _branches(alpha, 2.0 * kappa, Omega, t)
    return a_plus, a_minus, _branches(alpha, kappa, Omega, t)[2]


def _damping_dropped(alpha, kappa, Omega, t):
    a_plus, a_minus, _ = _branches(alpha, kappa, Omega, t)
    log_f = (-1j * Omega * t
             + np.abs(alpha) ** 2 * (np.exp(-2.0 * kappa * t) - 1.0))
    return a_plus, a_minus, log_f


def _phi_of_decay_dropped(alpha, kappa, Omega, t):
    # ln f without its -phi(-2 kappa t) term
    a_plus, a_minus, _ = _branches(alpha, kappa, Omega, t)
    a, b = -2.0 * kappa * t, -2j * Omega * t
    log_f = 0.5 * b - np.abs(alpha) ** 2 * a * analytic.phi(a + b)
    return a_plus, a_minus, log_f


def _f_conjugated(alpha, kappa, Omega, t):
    a_plus, a_minus, log_f = _branches(alpha, kappa, Omega, t)
    return a_plus, a_minus, np.conj(log_f)


def _branches_swapped(alpha, kappa, Omega, t):
    a_plus, a_minus, log_f = _branches(alpha, kappa, Omega, t)
    return a_minus, a_plus, log_f


def _f_negated(alpha, kappa, Omega, t):
    a_plus, a_minus, log_f = _branches(alpha, kappa, Omega, t)
    return a_plus, a_minus, log_f + 1j * np.pi


def _common_phase(alpha, kappa, Omega, t):
    a_plus, a_minus, log_f = _branches(alpha, kappa, Omega, t)
    phase = np.exp(-1e-6j * np.asarray(t))
    return a_plus * phase, a_minus * phase, log_f


def _concurrence_without_f(s):
    return np.clip(2.0 * np.abs(s.c0 * s.c1)
                   * np.sqrt(-np.expm1(-np.abs(s.alpha_plus - s.alpha_minus) ** 2)),
                   0.0, 1.0)


def _entropy_with_abs_f(s):
    return (2.0 * np.abs(s.c0) ** 2 * np.abs(s.c1) ** 2
            * (1.0 - np.exp(np.real(s.log_f))))


def _photons_half_decay(p, t):
    return np.abs(p.alpha) ** 2 * np.exp(-p.kappa * np.asarray(t))


#: named verify inputs: the defaults, no decay, and strong decay at |alpha| = 2
INPUTS = {
    "defaults": ["--t-end", "120"],
    "lossless": ["--kappa", "0", "--t-end", "120"],
    "lossy": ["--kappa", "0.05", "--alpha-re", "2", "--t-end", "120"],
}

#: (patched name, slip, input, the stage whose line must fail)
CATALOGUE = [
    *[("branches", slip, given, "disentangling")
      for slip in (_omega_skew, _f_conjugated, _branches_swapped, _f_negated,
                   _common_phase)
      for given in ("defaults", "lossless")],
    *[("branches", slip, given, "disentangling")
      for slip in (_kappa_doubled_in_amplitudes, _damping_dropped,
                   _phi_of_decay_dropped)
      for given in ("defaults", "lossy")],
    ("concurrence_analytic", _concurrence_without_f, "defaults",
     "oracle concurrence"),
    ("linear_entropy_analytic", _entropy_with_abs_f, "defaults",
     "oracle linear_entropy"),
    ("photon_number", _photons_half_decay, "defaults", "oracle photon_number"),
]


@pytest.mark.parametrize(
    "name, slip, given, stage", CATALOGUE,
    ids=[f"{slip.__name__[1:]}-{given}" for _, slip, given, _ in CATALOGUE])
def test_verify_rejects_slip(name, slip, given, stage, capsys, monkeypatch):
    monkeypatch.setattr(analytic, name, slip)
    assert main(["verify", *INPUTS[given]]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith(f"FAIL {stage}") for line in lines)


def test_projected_state_fails_the_concurrence_line(capsys, monkeypatch):
    # with kappa doubled in alpha_pm the oracle's blocks keep their trace,
    # but their projection onto the slipped branches is no density matrix
    monkeypatch.setattr(analytic, "branches", _kappa_doubled_in_amplitudes)
    assert main(["verify", *INPUTS["defaults"]]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith(
        "FAIL oracle concurrence: the state projected onto the closed-form "
        "branches is not a density matrix (trace deviates from 1 by ")
    assert sum(line.startswith("FAIL") for line in lines) == 4


def test_unpatched_inputs_pass(capsys):
    # the catalogue's inputs pass as they stand, so each FAIL is the slip's
    for given, argv in INPUTS.items():
        assert main(["verify", *argv]) == 0, given
        assert capsys.readouterr().out.count("PASS") == 7
