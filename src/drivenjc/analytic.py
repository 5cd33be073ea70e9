"""Closed-form time evolution of the atom-field state and its observables.

In the dispersive interaction picture the field branch attached to each
dressed atomic state is a decaying coherent state |alpha_pm(t)> with
alpha_pm = alpha exp(-(kappa +- i Omega) t); the atomic coherence block
carries the complex decoherence factor f(t).  Concurrence and linear
entropy follow from f(t) and the branch overlap tau(t) in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DerivedParams, ModelParams

#: below this value of 1 - |tau|^2 the two field branches are treated as
#: a single ray, and the concurrence is 0.
TAU_DEGENERACY = 1e-15


@dataclass(frozen=True)
class AnalyticSnapshot:
    """Exact state descriptors, shaped like the broadcast of t and the inputs."""

    alpha_plus: complex     # field amplitude attached to dressed |0>
    alpha_minus: complex    # field amplitude attached to dressed |1>
    f: complex              # coherence (decoherence) factor
    c0: complex
    c1: complex

    @property
    def tau(self) -> complex:
        """Overlap <alpha_plus | alpha_minus>, formed where it is read."""
        return coherent_overlap(self.alpha_plus, self.alpha_minus)


def _check_times(t) -> None:
    if np.any(np.less(t, 0)):
        raise ValueError(f"time must be >= 0, got {np.min(t)}")


def coherent_overlap(beta: complex, gamma: complex) -> complex:
    """Inner product <beta|gamma> of two coherent states, 1 at beta = gamma."""
    return np.exp(-0.5 * np.abs(beta - gamma) ** 2
                  + 1j * np.imag(np.conj(beta) * gamma))


def branches(alpha: complex, kappa: float, Omega: float, t: float):
    """(alpha_plus, alpha_minus, f) at times t >= 0.

    alpha_pm = alpha exp(-(kappa +- i Omega) t) are the field amplitudes of
    the dressed |0> and |1> branches, f the coherence factor, one exp of
    the summed exponent (at large |alpha| its parts underflow and overflow
    apart while |f| <= 1).  For kappa = 0 the damping term is exactly 0
    (the kappa/(kappa + i Omega) prefactor vanishes): f is a pure phase.

    Each exponential takes only the axes of its own inputs: exp(-kappa t)
    those of (kappa, t) and exp(-i Omega t) those of (Omega, t).  Their
    product is exp(-(kappa + i Omega) t), and alpha_pm and
    exp(-2 (kappa + i Omega) t) follow from it, so f's is the one
    exponential over the whole broadcast shape.
    """
    _check_times(t)
    decay = np.exp(-kappa * t)
    rotation = decay * np.exp(-1j * Omega * t)
    n0 = np.abs(alpha) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        damping = np.where(kappa == 0.0, 0.0, kappa * n0 / (kappa + 1j * Omega)
                           * (1.0 - rotation ** 2))
    f = np.exp(-1j * Omega * t + n0 * (decay ** 2 - 1.0) + damping)
    a_plus, a_minus = alpha * rotation, alpha * np.conj(rotation)
    return a_plus, a_minus, f


def evolve(p: ModelParams, d: DerivedParams, t: float) -> AnalyticSnapshot:
    """Closed-form state descriptors at times t >= 0."""
    a_plus, a_minus, f = branches(p.alpha, p.kappa, d.Omega_eff, t)
    return AnalyticSnapshot(alpha_plus=a_plus, alpha_minus=a_minus, f=f,
                            c0=p.c0, c1=p.c1)


def concurrence_analytic(s: AnalyticSnapshot) -> float:
    """Closed-form concurrence 2|c0 c1| |f| sqrt(1 - |tau|^2), with
    1 - |tau|^2 = -expm1(-|alpha_plus - alpha_minus|^2): 0 at t = 0."""
    w2 = -np.expm1(-np.abs(s.alpha_plus - s.alpha_minus) ** 2)
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
