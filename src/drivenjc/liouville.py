"""Truncated-Fock-space numerical oracle for the dissipative dynamics.

Everything the closed-form path claims is re-derived here by independent
means: the master equation is propagated exactly in a truncated Fock
space, by matrix exponentials of its invariant diagonals, and the
disentangled superoperator exponentials are checked against dense matrix
exponentials of the vectorized generators and against rk45.

The dressed atom never flips in the dispersive model, so the joint state
is held as its four field blocks rho[a, b] = <a| rho |b>, an array of
shape (2, 2, N, N), and each block evolves on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from . import analytic, entanglement
from .integrator import rk45
from .model import (NMAX_LIMIT, DerivedParams, ModelParams, check_nmax,
                    default_nmax)

#: Largest Fock dimension N of the dense (N^2 x N^2) superoperator route.
DENSE_GUARD = 32
TRUNC_TOL = 1e-10   # admissible norm loss of a coherent state at nmax
SERIES_TOL = 1e-12
#: random Hermitian test operators per generator in verify_disentangling,
#: and the seed they are drawn from
VERIFY_MATRICES = 3
VERIFY_SEED = 1234
#: Bounds of DisentanglingReport.passed on the pairwise and dyad errors.
PAIRWISE_TOL = 1e-8
DYAD_TOL = 1e-10
#: Bytes of propagators `integrate` holds at once: it carries as many
#: diagonals |n - m| through the samples in one pass as this admits (at
#: least one).  Kept small: at nmax 20-40 the propagators would otherwise
#: be the largest arrays of an oracle run.
PROPAGATOR_BYTES = 3 << 17
#: Diagonal layout of `integrate`: block (a, b) and whether k = m - n >= 0,
#: per class and column, for class 0 (rho_00 and rho_11 with k >= 0) and
#: class 1 (rho_01, both signs of k).  The rest of the Hermitian state is
#: their conjugate mirror.
_BLOCK_A = np.array([[0, 1], [0, 0]])[:, None, None, :]
_BLOCK_B = np.array([[0, 1], [1, 1]])[:, None, None, :]
_UPPER = np.array([[True, True], [True, False]])[:, None, None, :]


class TruncationError(ValueError):
    """Coherent-state preparation loses too much norm at this nmax."""

    def __init__(self, msg, norm_loss):
        super().__init__(msg)
        self.norm_loss = norm_loss


class DimensionGuard(ValueError):
    """Fock dimension too large for the dense superoperator route."""


@dataclass(frozen=True)
class FockConfig:
    nmax: int                   # highest retained Fock level; dimension nmax+1

    def __post_init__(self):
        check_nmax(self.nmax)

    @property
    def dim(self) -> int:
        return self.nmax + 1


@dataclass(frozen=True)
class SuperopSpec:
    """Generator c_m*M + c_r*R + c_l*L + c_s*Id on field operators.

    M X = a X adag, R X = adag a X, L X = X adag a.  The coefficients may
    be arrays; they broadcast against the axes before the last two.
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


def coherent_vector(alpha, cfg: FockConfig) -> np.ndarray:
    """Truncated Fock expansion of |alpha>, Fock index last; alpha may be an
    array.  Errors out when any alpha loses too much norm."""
    alpha = np.asarray(alpha, dtype=complex)
    n = np.arange(cfg.dim)
    r = np.abs(alpha)[..., None]
    # log-domain magnitudes to dodge overflow in alpha**n / sqrt(n!)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(cfg.dim)])
    log_mag = -0.5 * r**2 + n * np.log(np.where(r > 0, r, 1.0)) - 0.5 * log_fact
    vec = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha)[..., None])
    vec = np.where(r > 0, vec, n == 0)
    norm_loss = 1.0 - np.sum(np.abs(vec) ** 2, axis=-1)
    if np.any(norm_loss >= TRUNC_TOL):
        worst = np.unravel_index(np.argmax(norm_loss), norm_loss.shape)
        raise TruncationError(
            f"coherent state alpha={complex(alpha[worst])} loses "
            f"{norm_loss[worst]:.3e} norm at nmax={cfg.nmax} "
            f"(tol {TRUNC_TOL:.3e})",
            float(norm_loss[worst]),
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


def integrate(Omega: float, kappa: float, rho0: np.ndarray, t_start: float,
              dt: float, count: int):
    """Yield (i, part) pairs; the parts sum to the blocks at t_start + i dt.

    Omega is the dispersive shift, rho0 the (2, 2, N, N) block array at
    t = 0, which must be Hermitian (rho_ba = rho_ab^dagger); sample 0 steps
    from t = 0 by t_start >= 0, each later one by dt >= 0, and i < count.
    Every block generator keeps the offset k = m - n, so each diagonal of
    rho_ab evolves on its own, under d0 + B with d0 a scalar and B upper
    bidiagonal (diagonal (c_r + c_l) j, superdiagonal
    c_m sqrt((n + 1)(m + 1))).  B depends only on |k| and on whether a = b.
    The flow keeps rho Hermitian, so only the diagonals k >= 0 of rho_00
    and rho_11 and all of rho_01 are propagated, and each part is written
    with its conjugate mirror; a step takes one expm of the stacked B per
    step length.  The diagonals run through all samples in chunks of |k|
    whose propagators, for both step lengths, fit PROPAGATOR_BYTES, each
    chunk yielding one part per sample; with t_start = 0 one chunk holds
    them all up to N = 23.  Fock levels above the support of rho0 stay
    empty, since photon loss only lowers n, and are not propagated.
    """
    if t_start < 0 or dt < 0:
        raise ValueError(f"t_start and dt must be >= 0, got {t_start}, {dt}")
    steps = [t_start, *[dt] * (count - 1)][:count]
    moving = {h for h in steps[:2] if h > 0}
    N = rho0.shape[-1]
    support = np.flatnonzero(np.any(rho0 != 0, axis=(0, 1, 2)))
    n_eff = support[-1] + 1 if support.size else 1
    spec = generator(Omega, kappa, _BLOCK_A, _BLOCK_B)
    c_m, c_r, c_l, c_s = (np.broadcast_to(c, _BLOCK_A.shape)
                          for c in (spec.c_m, spec.c_r, spec.c_l, spec.c_s))
    # d0 per class and column: c_l |k| + c_s above the diagonal, c_r |k| + c_s
    # below it
    d0_slope = np.where(_UPPER, c_l, c_r)
    q0 = 0
    while q0 < n_eff:
        L = n_eff - q0
        # an (L, L) propagator per |k|, class and moving step
        width = PROPAGATOR_BYTES // max(32 * L * L * len(moving), 1)
        q = np.arange(q0, min(n_eff, q0 + max(width, 1)))
        q0 += len(q)
        j = np.arange(L)
        # B[class, |k|], its coefficients from the class's first column
        B = np.zeros((2, len(q), L, L), dtype=complex)
        B[..., j, j] = (c_r + c_l)[..., 0] * j
        B[..., j[:-1], j[1:]] = c_m[..., 0] * np.sqrt(
            (j[:-1] + 1.0) * (j[:-1] + q[:, None] + 1.0))
        props = {h: (expm(B * h), np.exp((d0_slope * q[:, None, None] + c_s) * h))
                 for h in moving}
        # diagonal layout z[class, |k|, j, column]
        jj = j[:, None]
        qq = q[:, None, None]
        n = np.where(_UPPER, jj, jj + qq)
        m = np.where(_UPPER, jj + qq, jj)
        valid = np.flatnonzero(np.broadcast_to(jj + qq < n_eff, n.shape))
        flat = (((2 * _BLOCK_A + _BLOCK_B) * N + n) * N + m).reshape(-1)[valid]
        mirror = (((2 * _BLOCK_B + _BLOCK_A) * N + m) * N + n).reshape(-1)[valid]
        z = np.zeros(n.shape, dtype=complex)
        z.reshape(-1)[valid] = rho0.reshape(-1)[flat]
        for i, h in enumerate(steps):
            if h > 0:
                prop, phase = props[h]
                np.multiply(phase, prop @ z, out=z)
            values = z.reshape(-1)[valid]
            part = np.zeros(rho0.size, dtype=complex)
            # the mirror first, so that values hold on the main diagonals
            part[mirror] = values.conj()
            part[flat] = values
            yield i, part.reshape(rho0.shape)


def _branch_basis(alpha_plus, alpha_minus, cfg: FockConfig) -> np.ndarray:
    """(..., 2, N) two-branch field basis: |alpha_plus> and the Gram-Schmidt
    complement of |alpha_minus>, zero where the two branches coincide."""
    up = coherent_vector(alpha_plus, cfg)
    vm = coherent_vector(alpha_minus, cfg)
    up = up / np.linalg.norm(up, axis=-1, keepdims=True)
    tau = np.sum(up.conj() * vm, axis=-1, keepdims=True)
    resid = vm - tau * up
    rnorm = np.linalg.norm(resid, axis=-1, keepdims=True)
    down = np.divide(resid, rnorm, out=np.zeros_like(resid),
                     where=rnorm**2 >= 1e-15)
    return np.stack([up, down], axis=-2)


def oracle_series(p: ModelParams, d: DerivedParams, t_start: float,
                  t_end: float, steps: int, nmax: int):
    """Lindblad-propagated observables at np.linspace(t_start, t_end, steps).

    Propagates the master equation exactly from the product of the atomic
    state (c0, c1) and the coherent field |alpha> in a Fock space truncated
    at nmax, for a single point `p`, `d`.  Returns arrays of concurrence,
    linear entropy, photon number and trace error.  Only the concurrence
    projects each sample onto the two-branch basis of the closed-form
    amplitudes alpha_pm(t); the linear entropy is 1 - sum_ab |rho_ab|_F^2.
    """
    fock = FockConfig(nmax=nmax)
    times, dt = np.linspace(t_start, t_end, steps, retstep=True)
    rho0 = initial_blocks(p.c0, p.c1, coherent_vector(p.alpha, fock))
    snap = analytic.evolve(p, d, times)
    basis = _branch_basis(snap.alpha_plus, snap.alpha_minus, fock)
    # proj[i, a, b, f, g] = <basis_f| rho_ab |basis_g> at times[i]
    proj = np.zeros((steps, 2, 2, 2, 2), dtype=complex)
    pops = np.zeros((steps, 2, fock.dim))
    purity = np.zeros(steps)
    for i, part in integrate(d.Omega_eff, p.kappa, rho0, t_start, dt, steps):
        proj[i] += basis[i].conj() @ part @ basis[i].T
        pops[i] += np.einsum("aann->an", part).real
        # the parts have disjoint supports, so their squared norms add up
        purity[i] += np.vdot(part, part).real
    rho4 = proj.transpose(0, 3, 1, 4, 2).reshape(-1, 4, 4)
    if not np.all(np.isfinite(rho4)):
        raise FloatingPointError("oracle state overflowed to non-finite values")
    nbar = np.sum(pops @ np.arange(float(fock.dim)), axis=-1)
    trace_err = np.abs(np.sum(pops, axis=(1, 2)) - 1.0)
    return (entanglement.wootters_concurrence(rho4),
            np.maximum(1.0 - purity, 0.0), nbar, trace_err)


def _phi(z):
    """(exp(z) - 1) / z elementwise, 1 at z = 0."""
    z = np.asarray(z, dtype=complex)
    z_safe = np.where(z == 0, 1.0, z)
    return np.where(z == 0, 1.0, np.expm1(z_safe) / z_safe)


def apply_factorized(spec: SuperopSpec, X: np.ndarray, t: float) -> np.ndarray:
    """Apply exp(spec * t) to X via the ordered product of exponentials.

    exp(c_s t) exp(c_r t R) exp(c_l t L) exp(m M): the M factor is an
    operator series, the R and L factors diagonal scalings.  M lowers both
    Fock indices, so M^N = 0 and the series is exact by j = N - 1; it stops
    earlier once a term, scaled as the R and L factors scale each entry,
    falls below SERIES_TOL of the scaled sum.
    The shift algebra [R, M] = [L, M] = -M gives m = c_m t phi((c_r + c_l) t),
    which stays bounded under decay (1 - exp(-2 kappa t) for a population
    block).  With the M factor on the left its coefficient would grow as
    exp(2 kappa t), and its series would cancel against the
    exp(-kappa t n) scalings.  X may be a stack (..., N, N).
    """
    X = np.asarray(X, dtype=complex)
    n = np.arange(float(X.shape[-1]))
    m = spec.c_m * t * _phi((spec.c_r + spec.c_l) * t)
    left = np.exp(spec.c_r * t * n[:, None])
    right = np.exp(spec.c_l * t * n)
    weight = np.abs(left * right)
    acc = X.copy()
    term = X
    for j in range(1, len(n)):
        term = (m / j) * _lower(term)
        acc = acc + term
        if np.all(np.max(np.abs(term) * weight, axis=(-2, -1))
                  <= SERIES_TOL * np.max(np.abs(acc) * weight, axis=(-2, -1))):
            break
    return np.exp(spec.c_s * t) * (left * acc * right)


def dense_generator(spec: SuperopSpec, cfg: FockConfig) -> np.ndarray:
    """N^2 x N^2 matrix acting on row-major-stacked field operators.

    With X flattened row by row, X -> A X B maps to (A kron B^T) vec(X),
    so R -> adag a kron I, L -> I kron adag a, M -> a kron a.
    """
    N = cfg.dim
    if N > DENSE_GUARD:
        raise DimensionGuard(f"dense superoperator guard: N={N} > {DENSE_GUARD}")
    a = np.diag(np.sqrt(np.arange(1.0, N)), 1)
    nh = np.diag(np.arange(float(N)))
    I = np.eye(N)
    G = (spec.c_m * np.kron(a, a) + spec.c_r * np.kron(nh, I)
         + spec.c_l * np.kron(I, nh) + spec.c_s * np.eye(N * N))
    return G.astype(complex)


@dataclass
class DisentanglingReport:
    """Outcome of the three-way superoperator consistency check."""

    max_pairwise_dev: dict = field(default_factory=dict)   # per generator name
    dyad_max_abs_err: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (all(v < PAIRWISE_TOL for v in self.max_pairwise_dev.values())
                and all(v < DYAD_TOL for v in self.dyad_max_abs_err.values()))


def verify_disentangling(Omega: float, kappa: float, t: float, cfg: FockConfig,
                         alpha: complex = 1.0) -> DisentanglingReport:
    """Cross-check the factorized exponentials three independent ways.

    Random Hermitian matrices go through (a) the dense matrix exponential of
    the vectorized generator, (b) the factorized product of exponentials and
    (c) direct adaptive integration of dX/dt = L X, each route once for all
    four block generators.  Also checks the closed-form action on the
    initial coherent dyad.
    """
    A, B = np.array([[0, 1, 0, 1], [0, 1, 1, 0]])   # blocks L00 L11 L01 L10
    spec = generator(Omega, kappa, A[:, None, None], B[:, None, None])
    prop = expm(dense_generator(spec, cfg) * t)
    # X[i, k]: test matrix i of block k
    N = cfg.dim
    draw = np.random.default_rng(VERIFY_SEED).normal(
        size=(2, VERIFY_MATRICES, len(A), N, N))
    X = draw[0] + 1j * draw[1]
    X = X + X.conj().swapaxes(-1, -2)
    X /= np.max(np.abs(X), axis=(-2, -1), keepdims=True)
    routes = np.stack([
        (prop @ X.reshape(*X.shape[:2], N * N, 1)).reshape(X.shape),
        apply_factorized(spec, X, t),
        rk45(_make_rhs(spec, N), X, 0.0, t, 1e-12),
    ])
    # every pair of routes: (a) - (c), (b) - (a) and (c) - (b)
    gap = np.max(np.abs(routes - np.roll(routes, 1, axis=0)), axis=(0, 3, 4))
    scale = np.maximum(np.max(np.abs(routes), axis=(0, 3, 4)), 1e-300)
    pairwise = np.max(gap / scale, axis=0)

    # Closed-form coherent-dyad targets.  The continuum closed form is only
    # reproducible when the coherent state fits in the truncated space, so
    # this stage enlarges nmax as needed; the three-way dense check above
    # runs at the requested cfg.  The dyads are compared entry by entry,
    # and amplitudes outlast probabilities in the Fock tail, so nmax is
    # sized for 2|alpha| up to NMAX_LIMIT, never below default_nmax(alpha).
    nmax = max(cfg.nmax, default_nmax(alpha),
               min(NMAX_LIMIT, default_nmax(2.0 * abs(alpha))))
    dyad_cfg = FockConfig(nmax=nmax)
    v0 = coherent_vector(alpha, dyad_cfg)
    dyad = 0.5 * np.outer(v0, v0.conj())
    a_plus, a_minus, f = analytic.branches(alpha, kappa, Omega, t)
    branch = coherent_vector(np.array([a_plus, a_minus]), dyad_cfg)
    weight = np.array([[1.0, f], [np.conj(f), 1.0]])
    target = 0.5 * np.einsum("k,kn,km->knm", weight[A, B], branch[A],
                             branch[B].conj())
    err = np.max(np.abs(apply_factorized(spec, dyad, t) - target), axis=(-2, -1))
    names = [f"L{a}{b}" for a, b in zip(A, B)]
    return DisentanglingReport(dict(zip(names, pairwise.tolist())),
                               dict(zip(names, err.tolist())))
