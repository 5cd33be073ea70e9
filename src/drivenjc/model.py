"""Physical parameters and frame/dressed-state derivations.

A two-level atom sits in a lossy cavity and is additionally driven by a
classical field.  Moving to the frame rotating at the drive frequency and
diagonalizing the drive term yields dressed atomic states coupled to the
cavity with a reduced coupling g'; in the dispersive regime the exchange
interaction collapses to a state-dependent cavity frequency shift Omega.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

EPS_DIV = 1e-12

#: Largest value of sqrt(n+1) g' / |Delta2| still treated as dispersive.
DISPERSIVE_THRESHOLD = 0.2

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class DegenerateDispersive(ValueError):
    """The dressed-cavity detuning vanishes; the dispersive shift diverges."""


@dataclass(frozen=True)
class ModelParams:
    """Inputs of the driven atom-cavity model (hbar = 1 units).

    c0, c1 are the initial atomic amplitudes in the dressed basis; they
    default to the balanced superposition used throughout the figures.
    Any field may be a numpy array; all fields broadcast together.
    """

    omega: float            # cavity frequency
    omega0: float           # atomic transition frequency
    omega_c: float          # classical drive frequency
    g: float                # atom-cavity coupling
    lam: float              # atom-drive coupling
    kappa: float            # cavity decay rate
    alpha: complex          # initial coherent amplitude of the field
    c0: complex = _INV_SQRT2
    c1: complex = _INV_SQRT2

    def __post_init__(self):
        # one pass over the fields; cmath tests a number without a ufunc call
        for name, value in vars(self).items():
            if not (cmath.isfinite(value) if isinstance(value, (int, float, complex))
                    else np.isfinite(value).all()):
                raise ValueError(f"{name} must be finite, got {value}")
        for name, what in (("g", "coupling"), ("kappa", "decay rate"),
                           ("lam", "drive coupling")):
            value = getattr(self, name)
            if np.less(value, 0).any():
                raise ValueError(f"{what} {name} must be >= 0, got {np.min(value)}")
        norm = np.abs(self.c0) ** 2 + np.abs(self.c1) ** 2
        if np.any(np.abs(norm - 1.0) > 1e-12):
            raise ValueError(f"|c0|^2 + |c1|^2 must be 1, got {norm!r}")


@dataclass(frozen=True)
class DerivedParams:
    """Frame-derived quantities of the model, shaped like the inputs."""

    delta1: float           # omega0 - omega_c
    Omega1: float           # dressed splitting sqrt(delta1^2 + 4 lam^2)
    theta: float            # dressed-state mixing angle
    g_prime: float          # reduced coupling g cos^2(theta/2)
    omega_prime: float      # Omega1 + omega_c
    delta2: float           # omega_prime - omega
    Omega_eff: float        # dispersive shift g_prime^2 / delta2; NaN if degenerate
    degenerate: bool        # |delta2| < EPS_DIV: the dispersive shift diverges


def derive_params(p: ModelParams) -> DerivedParams:
    """Compute all frame-derived parameters from the physical inputs.

    The mixing angle is computed as atan2(2 lam, delta1) so the resonant
    drive case delta1 = 0 gives theta = pi/2 instead of a singularity.

    A point is degenerate when |delta2| < EPS_DIV.  For a single point
    (every input a scalar) that raises DegenerateDispersive; when any input
    is an array, degenerate points get Omega_eff = NaN and are flagged in
    `degenerate`.
    """
    delta1 = p.omega0 - p.omega_c
    Omega1 = np.hypot(delta1, 2.0 * p.lam)
    theta = np.arctan2(2.0 * p.lam, delta1)
    g_prime = p.g * np.cos(theta / 2.0) ** 2
    omega_prime = Omega1 + p.omega_c
    delta2 = omega_prime - p.omega
    degenerate = np.abs(delta2) < EPS_DIV
    if all(np.ndim(v) == 0 for v in vars(p).values()) and degenerate:
        raise DegenerateDispersive(
            f"|delta2| = {abs(delta2):.3e} < {EPS_DIV:.3e}: "
            "dispersive shift g'^2/delta2 diverges"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        Omega_eff = np.where(degenerate, np.nan, g_prime**2 / delta2)[()]
    return DerivedParams(delta1, Omega1, theta, g_prime, omega_prime, delta2,
                         Omega_eff, degenerate)


#: Largest accepted Fock truncation; one oracle state at nmax = 500 is 16 MB.
NMAX_LIMIT = 500
#: largest phase |Omega_eff| min(t, 1/kappa) over verify's times that its
#: routes resolve in float64: a decade below 3.2e7 rad, where the concurrence
#: first misses its 1e-8 gate (kappa = 0, |alpha| = 18; 4.2e7 to 1e8 rad at
#: |alpha| = 0.5 to 4)
VERIFY_PHASE_LIMIT = 3e6


def short_int(n: int) -> str:
    """n, or its first digits and digit count past 12 characters."""
    s = str(n)
    return s if len(s) <= 12 else f"{s[:3]}... ({len(s.lstrip('-'))} digits)"


def check_nmax(nmax: int) -> int:
    """nmax, if it is an accepted Fock truncation 1..NMAX_LIMIT."""
    if not 1 <= nmax <= NMAX_LIMIT:
        raise ValueError(f"nmax must be in 1..{NMAX_LIMIT}, got "
                         f"{short_int(nmax)}")
    return nmax


def default_nmax(alpha: complex) -> int:
    """Truncation covering > 8 standard deviations of the Poisson photon law."""
    a = abs(alpha)
    bound = a * a + 8.0 * a + 10.0
    if not math.isfinite(bound):
        raise ValueError(f"|alpha| = {a:.6g}: the Fock truncation bound "
                         "|alpha|^2 + 8|alpha| + 10 overflows")
    return max(20, math.ceil(bound))


def dispersive_ratio(d: DerivedParams, n: int) -> float:
    """Perturbation-strength ratio sqrt(n+1) g' / |delta2| at photon number n.

    The dispersive treatment is trustworthy when this is small; compare
    against DISPERSIVE_THRESHOLD.  Degenerate cells of an array are NaN, as
    in `Omega_eff` (`derive_params` raises on a degenerate single point).
    """
    if np.any(np.less(n, 0)):
        raise ValueError(f"photon number must be >= 0, got {n}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(n + 1.0) * d.g_prime / np.abs(d.delta2)
    return np.where(d.degenerate, np.nan, ratio)[()]


@dataclass(frozen=True)
class Bound:
    """A domain record: a value, its upper bound and the message naming both."""

    value: float
    bound: float
    message: str

    @property
    def exceeded(self) -> bool:
        return not self.value <= self.bound     # so does a NaN value


def domain(p: ModelParams, d: DerivedParams, horizon: float = 0.0) -> dict:
    """One point's input domain as records: "truncation", default_nmax(alpha)
    against NMAX_LIMIT; "phase", |Omega_eff| min(horizon, 1/kappa), which an
    oracle follows over [0, horizon] (the field decays by t ~ 1/kappa),
    against VERIFY_PHASE_LIMIT; "ratio", the dispersive ratio at
    n = ceil(|alpha|^2) against DISPERSIVE_THRESHOLD.  An overflowing
    truncation bound raises ValueError."""
    nmax = default_nmax(p.alpha)
    phase = abs(d.Omega_eff) / max(1 / horizon if horizon else math.inf,
                                   p.kappa)
    ratio = dispersive_ratio(d, math.ceil(abs(p.alpha) ** 2))
    return dict(
        truncation=Bound(nmax, NMAX_LIMIT, f"|alpha| = {abs(p.alpha):.6g}: "
                         "verify's dyad runs at default_nmax(alpha) = "
                         f"{short_int(nmax)} > NMAX_LIMIT = {NMAX_LIMIT}"),
        phase=Bound(phase, VERIFY_PHASE_LIMIT, "oracle phase |Omega_eff| "
                    f"min(t, 1/kappa) = {phase:.3g} rad exceeds "
                    f"{VERIFY_PHASE_LIMIT:g}, the largest verify resolves; "
                    "the oracle concurrence may miss its 1e-8 gate"),
        ratio=Bound(ratio, DISPERSIVE_THRESHOLD, "dispersive ratio "
                    f"{ratio:.3g} exceeds threshold {DISPERSIVE_THRESHOLD}; "
                    "dispersive treatment questionable"))
