"""Closed-form time evolution of the atom-field state and its observables.

In the dispersive interaction picture the field branch attached to each
dressed atomic state is a decaying coherent state |alpha_pm(t)> with
alpha_pm = alpha exp(-(kappa +- i Omega) t); the atomic coherence block
carries the complex decoherence factor f(t).  Mapping the two field
branches onto an orthonormal pair {|up>, |down>} embeds the state into a
4x4 two-qubit density matrix from which concurrence and linear entropy
follow in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DerivedParams, ModelParams

#: below this value of 1 - |tau|^2 the two field branches are treated as
#: a single ray and the embedding is rank-deficient.
TAU_DEGENERACY = 1e-15


@dataclass(frozen=True)
class AnalyticSnapshot:
    """Exact state descriptors, shaped like the broadcast of t and the inputs."""

    t: float
    alpha_plus: complex     # field amplitude attached to dressed |0>
    alpha_minus: complex    # field amplitude attached to dressed |1>
    f: complex              # coherence (decoherence) factor
    tau: complex            # overlap <alpha_plus | alpha_minus>
    c0: complex
    c1: complex


def _check_times(t) -> None:
    if np.any(np.less(t, 0)):
        raise ValueError(f"time must be >= 0, got {np.min(t)}")


def coherent_overlap(beta: complex, gamma: complex) -> complex:
    """Inner product <beta|gamma> of two coherent states."""
    return np.exp(
        -0.5 * np.abs(beta) ** 2 - 0.5 * np.abs(gamma) ** 2 + np.conj(beta) * gamma
    )


def branches(alpha: complex, kappa: float, Omega: float, t: float):
    """(alpha_plus, alpha_minus, f) at times t >= 0.

    alpha_pm = alpha exp(-(kappa +- i Omega) t) are the field amplitudes of
    the dressed |0> and |1> branches, f the coherence factor.  For kappa = 0
    the second factor of f(t) is exactly 1 (the kappa/(kappa + i Omega)
    prefactor vanishes), so f reduces to a pure phase.
    """
    _check_times(t)
    a_plus = alpha * np.exp(-(kappa + 1j * Omega) * t)
    a_minus = alpha * np.exp(-(kappa - 1j * Omega) * t)
    n0 = np.abs(alpha) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        damping = np.where(kappa == 0.0, 0.0, kappa * n0 / (kappa + 1j * Omega)
                           * (1.0 - np.exp(-2.0 * (kappa + 1j * Omega) * t)))
    f = np.exp(-1j * Omega * t + n0 * (np.exp(-2.0 * kappa * t) - 1.0))
    return a_plus, a_minus, f * np.exp(damping)


def evolve(p: ModelParams, d: DerivedParams, t: float) -> AnalyticSnapshot:
    """Closed-form state descriptors at times t >= 0."""
    a_plus, a_minus, f = branches(p.alpha, p.kappa, d.Omega_eff, t)
    return AnalyticSnapshot(
        t=t, alpha_plus=a_plus, alpha_minus=a_minus, f=f,
        tau=coherent_overlap(a_plus, a_minus), c0=p.c0, c1=p.c1,
    )


def two_qubit_density(s: AnalyticSnapshot) -> np.ndarray:
    """4x4 density matrix over {|up>,|down>} x {|0>,|1>}.

    Index convention: row = 2*field + atom, field in {up=0, down=1}.
    The dressed |1> branch occupies tau|up> + sqrt(1-|tau|^2)|down>; when
    |tau| = 1 the two branches coincide and the |down> components are set
    to zero (rank-deficient embedding).
    """
    w2 = 1.0 - abs(s.tau) ** 2
    w = np.sqrt(w2) if w2 > TAU_DEGENERACY else 0.0
    u = np.array([1.0, 0.0], dtype=complex)        # field vector of |up>
    v = np.array([s.tau, w], dtype=complex)        # field vector of branch 1
    rho = np.zeros((4, 4), dtype=complex)
    coh = s.c0 * np.conj(s.c1) * s.f
    for F in range(2):
        for G in range(2):
            rho[2 * F + 0, 2 * G + 0] += abs(s.c0) ** 2 * u[F] * np.conj(u[G])
            rho[2 * F + 1, 2 * G + 1] += abs(s.c1) ** 2 * v[F] * np.conj(v[G])
            rho[2 * F + 0, 2 * G + 1] += coh * u[F] * np.conj(v[G])
            rho[2 * F + 1, 2 * G + 0] += np.conj(coh) * v[F] * np.conj(u[G])
    return rho


def concurrence_analytic(s: AnalyticSnapshot) -> float:
    """Closed-form concurrence 2|c0 c1| |f| sqrt(1 - |tau|^2)."""
    w2 = 1.0 - np.abs(s.tau) ** 2
    with np.errstate(invalid="ignore"):
        c = 2.0 * np.abs(s.c0) * np.abs(s.c1) * np.abs(s.f) * np.sqrt(w2)
    return np.where(w2 < TAU_DEGENERACY, 0.0, np.clip(c, 0.0, 1.0))[()]


def linear_entropy_analytic(s: AnalyticSnapshot) -> float:
    """Closed-form linear entropy 2|c0|^2 |c1|^2 (1 - |f|^2)."""
    return np.maximum(
        2.0 * np.abs(s.c0) ** 2 * np.abs(s.c1) ** 2 * (1.0 - np.abs(s.f) ** 2), 0.0)


def photon_number(p: ModelParams, t: float) -> float:
    """Mean cavity photon number |alpha|^2 exp(-2 kappa t)."""
    _check_times(t)
    return np.abs(p.alpha) ** 2 * np.exp(-2.0 * p.kappa * t)
