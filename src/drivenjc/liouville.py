"""Truncated-Fock-space numerical oracle for the dissipative dynamics.

Everything the closed-form path claims is re-derived here by independent
means: the master equation is integrated directly in a truncated Fock
space, and the disentangled superoperator exponentials are checked
against dense matrix exponentials of the vectorized generators.

The dressed atom never flips in the dispersive model, so the joint state
is held as its four field blocks rho[a, b] = <a| rho |b>, an array of
shape (2, 2, N, N), and each block evolves on its own.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from . import analytic, entanglement
from .integrator import rk45
from .model import DerivedParams, ModelParams

DENSE_GUARD = 64
#: Largest accepted Fock truncation; one oracle state at nmax = 500 is 16 MB.
NMAX_LIMIT = 500
SERIES_TOL = 1e-12
#: random Hermitian test operators per generator in verify_disentangling,
#: and the seed they are drawn from
VERIFY_MATRICES = 3
VERIFY_SEED = 1234


class TruncationError(ValueError):
    """Coherent-state preparation loses too much norm at this nmax."""

    def __init__(self, msg, norm_loss):
        super().__init__(msg)
        self.norm_loss = norm_loss


class DimensionGuard(ValueError):
    """Fock dimension too large for the dense superoperator route."""


class SeriesNotConverged(RuntimeError):
    """The M-exponential series hit the truncation boundary while still large."""


@dataclass(frozen=True)
class FockConfig:
    nmax: int                   # highest retained Fock level; dimension nmax+1
    trunc_tol: float = 1e-10    # admissible norm loss for coherent preparation

    def __post_init__(self):
        if self.nmax < 1:
            raise ValueError(f"nmax must be >= 1, got {self.nmax}")
        if self.nmax > NMAX_LIMIT:
            raise ValueError(f"nmax must be <= {NMAX_LIMIT}, got {self.nmax}")
        if self.trunc_tol <= 0:
            raise ValueError(f"trunc_tol must be > 0, got {self.trunc_tol}")

    @property
    def dim(self) -> int:
        return self.nmax + 1


@dataclass(frozen=True)
class SuperopSpec:
    """Generator c_m*M + c_r*R + c_l*L + c_s*Id on field operators.

    M X = a X adag, R X = adag a X, L X = X adag a.
    """

    c_m: complex
    c_r: complex
    c_l: complex
    c_s: complex = 0.0


def generator(Omega: float, kappa: float, a, b) -> SuperopSpec:
    """Generator of the field block rho_ab = <a| rho |b> of the dressed atom.

    d rho_ab/dt = -i(v_a(n) - v_b(m)) rho_ab - kappa(n + m) rho_ab
    + 2 kappa a rho_ab adag, with the dispersive level shifts
    v_0(n) = Omega(n + 1) and v_1(n) = -Omega n.  The atom indices a, b
    may be index arrays that broadcast.
    """
    s_a, s_b = 1 - 2 * a, 1 - 2 * b
    return SuperopSpec(c_m=2.0 * kappa,
                       c_r=-(kappa + 1j * Omega * s_a),
                       c_l=-(kappa - 1j * Omega * s_b),
                       c_s=-1j * Omega * (b - a))


def default_nmax(alpha: complex) -> int:
    """Truncation covering > 8 standard deviations of the Poisson photon law."""
    a = abs(alpha)
    return max(20, math.ceil(a * a + 8.0 * a + 10.0))


def annihilation(N: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, N)), 1)


def number_op(N: int) -> np.ndarray:
    return np.diag(np.arange(float(N)))


def coherent_vector(alpha: complex, cfg: FockConfig) -> np.ndarray:
    """Truncated Fock expansion of |alpha>; errors out on excess norm loss."""
    alpha = complex(alpha)
    n = np.arange(cfg.dim)
    if alpha == 0:
        vec = np.zeros(cfg.dim, dtype=complex)
        vec[0] = 1.0
        return vec
    # log-domain magnitudes to dodge overflow in alpha**n / sqrt(n!)
    log_mag = -0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1.0)
    phase = np.exp(1j * n * cmath.phase(alpha))
    vec = np.exp(log_mag) * phase
    norm_loss = 1.0 - float(np.sum(np.abs(vec) ** 2))
    if norm_loss >= cfg.trunc_tol:
        raise TruncationError(
            f"coherent state alpha={alpha} loses {norm_loss:.3e} norm at "
            f"nmax={cfg.nmax} (tol {cfg.trunc_tol:.3e})",
            norm_loss,
        )
    return vec


def _lower(X: np.ndarray) -> np.ndarray:
    """a X adag on the last two axes: X shifted up one Fock level in both
    indices, times sqrt(n+1) sqrt(m+1); the top row and column are zero."""
    root = np.sqrt(np.arange(1.0, X.shape[-1]))
    out = np.zeros_like(X)
    out[..., :-1, :-1] = X[..., 1:, 1:] * (root[:, None] * root)
    return out


def initial_blocks(c0: complex, c1: complex, field_vec: np.ndarray) -> np.ndarray:
    """Field blocks rho[a, b] = c_a conj(c_b) |v><v| of (c0|0> + c1|1>) x |v>."""
    c = np.array([c0, c1], dtype=complex)
    return np.multiply.outer(np.outer(c, c.conj()),
                             np.outer(field_vec, np.conj(field_vec)))


def _make_rhs(spec: SuperopSpec, N: int):
    """Right-hand side X -> spec X on the last two axes (Fock dimension N),
    the one Lindblad action every rk45 run of this module integrates."""
    n = np.arange(float(N))
    diag = spec.c_r * n[:, None] + spec.c_l * n + spec.c_s
    return lambda _t, X: diag * X + spec.c_m * _lower(X)


def integrate(Omega: float, kappa: float, rho0: np.ndarray, times,
              tol: float = 1e-10):
    """Yield the field blocks at each of `times`, starting from rho0 at t = 0.

    Omega is the dispersive shift, rho0 the (2, 2, N, N) block array;
    `times` must be non-decreasing and >= 0.  Each sample restarts rk45
    from the previous one with the same initial step.
    """
    times = np.asarray(times, dtype=float)
    if times.size and (np.any(np.diff(times) < 0) or times[0] < 0):
        raise ValueError("times must be non-decreasing and >= 0")
    N = rho0.shape[-1]
    a, b = np.indices((2, 2, 1, 1), sparse=True)[:2]
    rhs = _make_rhs(generator(Omega, kappa, a, b), N)
    # |Omega| N is the largest level shift, max |v_a(n)|
    h0 = 1.0 / (100.0 * (2.0 * kappa + abs(Omega) * N + 1e-30))
    rho, t0 = rho0, 0.0
    for t in times:
        if t > t0:
            rho = rk45(rhs, rho, t0, float(t), tol, h0=h0)
        t0 = t
        yield rho


def oracle_series(p: ModelParams, d: DerivedParams, times: np.ndarray,
                  nmax: int, tol: float = 1e-10):
    """Lindblad-integrated observables of the model at the given times.

    Integrates the master equation from the product of the atomic state
    (c0, c1) and the coherent field |alpha> in a Fock space truncated at
    nmax, and projects each sampled state onto the two-branch basis of the
    closed-form amplitudes alpha_pm(t).  `p` and `d` are a single point of
    ModelParams and DerivedParams.  Returns arrays of concurrence, linear
    entropy, photon number and trace error.
    """
    fock = FockConfig(nmax=nmax)
    times = np.asarray(times, dtype=float)
    rho0 = initial_blocks(p.c0, p.c1, coherent_vector(p.alpha, fock))
    states = integrate(d.Omega_eff, p.kappa, rho0, times, tol)
    snap = analytic.evolve(p, d, times)
    n = np.arange(float(fock.dim))
    conc, entr, nbar, trace_err = [], [], [], []
    for rho, a_plus, a_minus in zip(states, snap.alpha_plus, snap.alpha_minus):
        rho4 = project_two_qubit(rho, a_plus, a_minus, fock)
        conc.append(entanglement.wootters_concurrence(rho4))
        entr.append(entanglement.linear_entropy_general(rho4))
        pops = np.einsum("aann->an", rho).real
        nbar.append(float(np.sum(pops @ n)))
        trace_err.append(abs(float(np.sum(pops)) - 1.0))
    return np.array(conc), np.array(entr), np.array(nbar), np.array(trace_err)


def project_two_qubit(rho: np.ndarray, alpha_plus: complex, alpha_minus: complex,
                      cfg: FockConfig) -> np.ndarray:
    """Project the field blocks rho[a, b] onto the two-branch field basis.

    The basis is |up> = |alpha_plus> and the Gram-Schmidt complement of
    |alpha_minus>; output index convention matches the closed-form
    embedding (row = 2*field + atom).  When the two branches coincide the
    |down> row/column is identically zero.
    """
    up = coherent_vector(alpha_plus, cfg)
    vm = coherent_vector(alpha_minus, cfg)
    up = up / np.linalg.norm(up)
    tau = np.vdot(up, vm)
    resid = vm - tau * up
    rnorm = np.linalg.norm(resid)
    if rnorm**2 < 1e-15:
        down = np.zeros_like(up)
    else:
        down = resid / rnorm
    basis = np.array([up, down])
    return np.einsum("fn,abnm,gm->fagb", basis.conj(), rho, basis).reshape(4, 4)


def _phi(z: complex) -> complex:
    """(exp(z) - 1) / z, stable near z = 0."""
    if abs(z) < 1e-6:
        return 1.0 + z / 2.0 + z * z / 6.0 + z**3 / 24.0
    return (cmath.exp(z) - 1.0) / z


def apply_factorized(spec: SuperopSpec, X: np.ndarray, t: float) -> np.ndarray:
    """Apply exp(spec * t) to X via the ordered product of exponentials.

    exp(c_s t) exp(c_r t R) exp(c_l t L) exp(m M): the M factor is a
    convergent operator series, the R and L factors diagonal scalings.
    The shift algebra [R, M] = [L, M] = -M gives m = c_m t phi((c_r + c_l) t),
    which stays bounded under decay (1 - exp(-2 kappa t) for a population
    block).  With the M factor on the left its coefficient would grow as
    exp(2 kappa t), and its series would cancel against the
    exp(-kappa t n) scalings.
    """
    X = np.asarray(X, dtype=complex)
    N = X.shape[0]
    n = np.arange(float(N))
    s = spec.c_r + spec.c_l
    m = spec.c_m * t * _phi(s * t)
    acc = X.copy()
    term = X
    acc_norm = float(np.max(np.abs(acc)))
    converged = m == 0.0
    for j in range(1, N):
        term = (m / j) * _lower(term)
        acc += term
        acc_norm = max(acc_norm, float(np.max(np.abs(acc))))
        if float(np.max(np.abs(term))) <= SERIES_TOL * max(acc_norm, 1e-300):
            converged = True
            break
    if not converged:
        raise SeriesNotConverged(
            f"M-series term at truncation boundary still above "
            f"{SERIES_TOL:.0e} of the running norm (nmax={N - 1})"
        )
    left = np.exp(spec.c_r * t * n)
    right = np.exp(spec.c_l * t * n)
    return cmath.exp(spec.c_s * t) * ((left[:, None] * acc) * right[None, :])


def dense_generator(spec: SuperopSpec, cfg: FockConfig) -> np.ndarray:
    """N^2 x N^2 matrix acting on row-major-stacked field operators.

    With X flattened row by row, X -> A X B maps to (A kron B^T) vec(X),
    so R -> adag a kron I, L -> I kron adag a, M -> a kron a.
    """
    N = cfg.dim
    if N > DENSE_GUARD:
        raise DimensionGuard(f"dense superoperator guard: N={N} > {DENSE_GUARD}")
    a = annihilation(N)
    nh = number_op(N)
    I = np.eye(N)
    G = (spec.c_m * np.kron(a, a)
         + spec.c_r * np.kron(nh, I)
         + spec.c_l * np.kron(I, nh)).astype(complex)
    G += spec.c_s * np.eye(N * N)
    return G


@dataclass
class DisentanglingReport:
    """Outcome of the three-way superoperator consistency check."""

    max_pairwise_dev: dict = field(default_factory=dict)   # per generator name
    dyad_max_abs_err: dict = field(default_factory=dict)
    pairwise_tol: float = 1e-8
    dyad_tol: float = 1e-10

    @property
    def passed(self) -> bool:
        return (all(v < self.pairwise_tol for v in self.max_pairwise_dev.values())
                and all(v < self.dyad_tol for v in self.dyad_max_abs_err.values()))


def verify_disentangling(Omega: float, kappa: float, t: float, cfg: FockConfig,
                         alpha: complex = 1.0) -> DisentanglingReport:
    """Cross-check the factorized exponentials three independent ways.

    For each block generator: (a) dense matrix exponential of the
    vectorized generator, (b) the factorized product of exponentials,
    (c) direct adaptive integration of dX/dt = L X.  Also checks the
    closed-form action on the initial coherent dyad.
    """
    if cfg.dim > 32:
        raise DimensionGuard(f"verification guard: N={cfg.dim} > 32")
    rng = np.random.default_rng(VERIFY_SEED)
    report = DisentanglingReport()
    specs = {(a, b): generator(Omega, kappa, a, b)
             for a, b in ((0, 0), (1, 1), (0, 1), (1, 0))}
    N = cfg.dim
    for (a, b), spec in specs.items():
        G = dense_generator(spec, cfg)
        prop = expm(G * t)
        worst = 0.0
        # test matrices leave the top Fock levels empty so the M-series
        # terminates before the truncation boundary
        sup = max(1, N - 2)
        for _ in range(VERIFY_MATRICES):
            X = np.zeros((N, N), dtype=complex)
            X[:sup, :sup] = rng.normal(size=(sup, sup)) \
                + 1j * rng.normal(size=(sup, sup))
            X = X + X.conj().T
            X /= np.max(np.abs(X))
            ya = (prop @ X.ravel()).reshape(N, N)
            yb = apply_factorized(spec, X, t)
            yc = rk45(_make_rhs(spec, N), X, 0.0, t, 1e-12)
            scale = max(np.max(np.abs(ya)), np.max(np.abs(yb)),
                        np.max(np.abs(yc)), 1e-300)
            dev = max(np.max(np.abs(ya - yb)), np.max(np.abs(ya - yc)),
                      np.max(np.abs(yb - yc))) / scale
            worst = max(worst, dev)
        report.max_pairwise_dev[f"L{a}{b}"] = worst

    # Closed-form coherent-dyad targets.  The continuum closed form is only
    # reproducible when the coherent state fits in the truncated space, so
    # this stage enlarges nmax as needed; the three-way dense check above
    # runs at the requested cfg.  The dyads are compared entry by entry,
    # and amplitudes outlast probabilities in the Fock tail, so nmax is
    # sized for 2|alpha| up to NMAX_LIMIT, never below default_nmax(alpha).
    nmax = max(cfg.nmax, default_nmax(alpha),
               min(NMAX_LIMIT, default_nmax(2.0 * abs(alpha))))
    dyad_cfg = FockConfig(nmax=nmax, trunc_tol=1e-6)
    v0 = coherent_vector(alpha, dyad_cfg)
    dyad = 0.5 * np.outer(v0, v0.conj())
    a_plus, a_minus, f = analytic.branches(alpha, kappa, Omega, t)
    branch = (coherent_vector(a_plus, dyad_cfg), coherent_vector(a_minus, dyad_cfg))
    weight = ((1.0, f), (np.conj(f), 1.0))
    for (a, b), spec in specs.items():
        target = 0.5 * weight[a][b] * np.outer(branch[a], branch[b].conj())
        got = apply_factorized(spec, dyad, t)
        report.dyad_max_abs_err[f"L{a}{b}"] = float(np.max(np.abs(got - target)))
    return report
