"""Closed-form time evolution of the atom-field state and its observables.

In the dispersive interaction picture the field branch attached to each
dressed atomic state is a decaying coherent state |alpha_pm(t)> with
alpha_pm = alpha exp(-(kappa +- i Omega) t); the atomic coherence block
carries the complex decoherence factor f(t).  Concurrence and linear
entropy depend only on |f| and |tau| = exp(-|alpha_+ - alpha_-|^2 / 2).
"""

from __future__ import annotations

import math
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
    log_f: complex          # ln f of the coherence (decoherence) factor f
    c0: complex
    c1: complex


def _check_times(t) -> None:
    if np.any(np.less(t, 0)):
        raise ValueError(f"time must be >= 0, got {np.min(t)}")


def phi(z, k: int = 1):
    """phi_k(z) = sum_j z^j / (j + k)! elementwise: (exp(z) - 1) / z at
    k = 1, (exp(z) - 1 - z) / z^2 at k = 2.  Below |z| = 1, where these
    cancel, the series to z^17 (remainder below 1e-16) by Horner's rule."""
    def value(z, large):
        if large:
            return np.expm1(z) / z if k == 1 else (np.expm1(z) - z) / z / z
        out = 1.0 / math.factorial(17 + k)
        for j in range(16, -1, -1):
            out = out * z + 1.0 / math.factorial(j + k)
        return out

    z = np.asarray(z)
    large = np.abs(z) >= 1.0
    if large.all() or not large.any():
        return np.asarray(value(z, large.all()))
    out = np.empty(z.shape, np.result_type(z, 1.0))
    out[large], out[~large] = value(z[large], True), value(z[~large], False)
    return out


def branches(alpha: complex, kappa: float, Omega: float, t: float):
    """(alpha_plus, alpha_minus, ln f) at times t >= 0: the field amplitudes
    alpha_pm = alpha exp(-(kappa +- i Omega) t) of the dressed |0> and |1>
    branches, and ln f = b/2 - |alpha|^2 a [phi(a + b) - phi(a)] of the
    coherence factor, a = -2 kappa t, b = -2 i Omega t (ln f = b/2 at
    kappa = 0).  By expm1(a + b) = expm1(a) e^b + expm1(b) the bracket is
    b/(a + b) times N = (e^a - phi(a)) + e^a b phi_2(b), whose terms take
    only the axes of (kappa, t) or of (Omega, t) and keep no leading 1 to
    cancel; below |a| = 1, e^a - phi(a) is summed as expm1(a) - a phi_2(a).
    """
    _check_times(t)
    rotation = np.exp(-kappa * t) * np.exp(-1j * Omega * t)
    # a is finite where kappa t overflows: e^a = 0 there, a / (a + b) reads a
    a, b = np.maximum(-2.0 * kappa * t, -1e308), -2j * Omega * t
    e_a, small = np.exp(a), np.abs(a) < 1.0
    N = (np.where(small, np.expm1(a) - a * phi(a, 2),
                  e_a - np.expm1(a) / np.where(small, 1.0, a))
         + e_a * (b * phi(b, 2)))
    # |a| <= |a + b|, and a tiny complex divisor could overflow; a NaN Omega
    # (a degenerate cell) passes through without a warning
    with np.errstate(invalid="ignore"):
        ratio = a / np.where(np.abs(a + b) < 1e-300, 1.0, a + b)
    log_f = 0.5 * b - np.abs(alpha) ** 2 * ratio * b * N
    return alpha * rotation, alpha * np.conj(rotation), log_f


def evolve(p: ModelParams, d: DerivedParams, t: float) -> AnalyticSnapshot:
    """Closed-form state descriptors at times t >= 0."""
    a_plus, a_minus, log_f = branches(p.alpha, p.kappa, d.Omega_eff, t)
    return AnalyticSnapshot(alpha_plus=a_plus, alpha_minus=a_minus,
                            log_f=log_f, c0=p.c0, c1=p.c1)


def concurrence_analytic(s: AnalyticSnapshot) -> float:
    """Closed-form concurrence 2|c0 c1| |f| sqrt(1 - |tau|^2), with
    1 - |tau|^2 = -expm1(-|alpha_plus - alpha_minus|^2): 0 at t = 0."""
    w2 = -np.expm1(-np.abs(s.alpha_plus - s.alpha_minus) ** 2)
    c = 2.0 * np.abs(s.c0) * np.abs(s.c1) * np.exp(s.log_f.real) * np.sqrt(w2)
    return np.where(w2 < TAU_DEGENERACY, 0.0, np.clip(c, 0.0, 1.0))[()]


def linear_entropy_analytic(s: AnalyticSnapshot) -> float:
    """Closed-form linear entropy 2|c0|^2 |c1|^2 (1 - |f|^2), with
    1 - |f|^2 = -expm1(2 Re ln f)."""
    return np.maximum(2.0 * np.abs(s.c0) ** 2 * np.abs(s.c1) ** 2
                      * -np.expm1(2.0 * s.log_f.real), 0.0)


def photon_number(p: ModelParams, t: float) -> float:
    """Mean cavity photon number |alpha|^2 exp(-2 kappa t)."""
    _check_times(t)
    return np.abs(p.alpha) ** 2 * np.exp(-2.0 * p.kappa * t)
