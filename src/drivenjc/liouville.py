"""Truncated-Fock-space numerical oracle for the dissipative dynamics.

Everything the closed-form path claims is re-derived here by independent
means: the master equation is integrated directly in a truncated Fock
space, and the disentangled superoperator exponentials are checked
against dense matrix exponentials of the vectorized generators.
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
SERIES_TOL = 1e-12


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
        if self.trunc_tol <= 0:
            raise ValueError(f"trunc_tol must be > 0, got {self.trunc_tol}")

    @property
    def dim(self) -> int:
        return self.nmax + 1


@dataclass
class JointState:
    """Density matrix over (dressed atom) x (truncated Fock space).

    Basis index = atom * N + n with atom in {0, 1} and n the Fock level.
    """

    rho: np.ndarray
    t: float


@dataclass(frozen=True)
class SuperopSpec:
    """Generator c_m*M + c_r*R + c_l*L + c_s*Id on field operators.

    M X = a X adag, R X = adag a X, L X = X adag a.
    """

    c_m: complex
    c_r: complex
    c_l: complex
    c_s: complex = 0.0


def generator_00(Omega: float, kappa: float) -> SuperopSpec:
    """Generator of the dressed |0><0| field block."""
    return SuperopSpec(c_m=2.0 * kappa,
                       c_r=-(kappa + 1j * Omega),
                       c_l=-(kappa - 1j * Omega))


def generator_11(Omega: float, kappa: float) -> SuperopSpec:
    """Generator of the dressed |1><1| field block."""
    return generator_00(-Omega, kappa)


def generator_01(Omega: float, kappa: float) -> SuperopSpec:
    """Generator of the dressed |0><1| coherence block."""
    return SuperopSpec(c_m=2.0 * kappa,
                       c_r=-(kappa + 1j * Omega),
                       c_l=-(kappa + 1j * Omega),
                       c_s=-1j * Omega)


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


def build_interaction_V(Omega_eff: float, cfg: FockConfig) -> np.ndarray:
    """Dispersive interaction-picture Hamiltonian, diagonal in the joint basis.

    Entries Omega*(n+1) on the dressed-|0> rows and -Omega*n on the
    dressed-|1> rows.
    """
    n = np.arange(float(cfg.dim))
    diag = np.concatenate([Omega_eff * (n + 1.0), -Omega_eff * n])
    return np.diag(diag).astype(complex)


def build_H2(omega: float, omega_prime: float, g_prime: float,
             cfg: FockConfig) -> np.ndarray:
    """Rotating-frame Jaynes-Cummings Hamiltonian on the joint space."""
    N = cfg.dim
    a = annihilation(N)
    nh = number_op(N)
    I2 = np.eye(2)
    sz = np.diag([1.0, -1.0])
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])   # |0><1| in dressed ordering
    H = (np.kron(I2, omega * nh)
         + np.kron(0.5 * omega_prime * sz, np.eye(N))
         + g_prime * (np.kron(sp, a) + np.kron(sp.T, a.conj().T)))
    return H.astype(complex)


def excitation_number(cfg: FockConfig) -> np.ndarray:
    """Conserved quantity adag a + |0><0| of the rotating-frame Hamiltonian."""
    N = cfg.dim
    return (np.kron(np.eye(2), number_op(N))
            + np.kron(np.diag([1.0, 0.0]), np.eye(N)))


def joint_initial_state(atom_rho: np.ndarray, field_vec: np.ndarray) -> JointState:
    """Product state (2x2 atom density) x (pure field vector)."""
    field_rho = np.outer(field_vec, field_vec.conj())
    return JointState(rho=np.kron(np.asarray(atom_rho, dtype=complex), field_rho),
                      t=0.0)


def _make_rhs(H: np.ndarray, kappa: float):
    dim = H.shape[0]
    N = dim // 2
    a = np.kron(np.eye(2), annihilation(N))
    adag = a.conj().T
    nh = adag @ a

    def f(t, y):
        rho = y.reshape(dim, dim)
        out = -1j * (H @ rho - rho @ H)
        if kappa != 0.0:
            out = out + kappa * (2.0 * a @ rho @ adag - nh @ rho - rho @ nh)
        return out.ravel()

    return f


def _initial_step(H: np.ndarray, kappa: float) -> float:
    rate = 2.0 * kappa + float(np.max(np.abs(H))) + 1e-30
    return 1.0 / (100.0 * rate)


def integrate(H: np.ndarray, rho0: JointState, kappa: float, t_end: float,
              tol: float = 1e-10) -> JointState:
    """Integrate the master equation from rho0.t to t_end."""
    if t_end < rho0.t:
        raise ValueError("t_end must be >= rho0.t")
    if t_end == rho0.t:
        return JointState(rho=rho0.rho.copy(), t=rho0.t)
    f = _make_rhs(H, kappa)
    y = rk45(f, rho0.rho.ravel(), rho0.t, t_end, tol,
             h0=_initial_step(H, kappa))
    return JointState(rho=y.reshape(rho0.rho.shape), t=t_end)


def integrate_sampled(H: np.ndarray, rho0: JointState, kappa: float,
                      times: np.ndarray, tol: float = 1e-10) -> list[JointState]:
    """States at each requested time (non-decreasing, >= rho0.t)."""
    times = np.asarray(times, dtype=float)
    if times.size and (np.any(np.diff(times) < 0) or times[0] < rho0.t):
        raise ValueError("times must be non-decreasing and start at >= rho0.t")
    out = []
    state = rho0
    for t in times:
        state = integrate(H, state, kappa, float(t), tol)
        out.append(state)
    return out


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
    V = build_interaction_V(d.Omega_eff, fock)
    atom = np.array([[abs(p.c0) ** 2, p.c0 * np.conj(p.c1)],
                     [np.conj(p.c0) * p.c1, abs(p.c1) ** 2]], dtype=complex)
    state = joint_initial_state(atom, coherent_vector(p.alpha, fock))
    states = integrate_sampled(V, state, p.kappa, times, tol=tol)
    snap = analytic.evolve(p, d, np.asarray(times, dtype=float))
    nfull = np.kron(np.eye(2), number_op(fock.dim))
    conc, entr, nbar, trace_err = [], [], [], []
    for st, a_plus, a_minus in zip(states, snap.alpha_plus, snap.alpha_minus):
        rho4 = project_two_qubit(st.rho, a_plus, a_minus, fock)
        conc.append(entanglement.wootters_concurrence(rho4))
        entr.append(entanglement.linear_entropy_general(rho4))
        nbar.append(float(np.trace(st.rho @ nfull).real))
        trace_err.append(abs(np.trace(st.rho).real - 1.0))
    return np.array(conc), np.array(entr), np.array(nbar), np.array(trace_err)


def block(rho: np.ndarray, i: int, j: int) -> np.ndarray:
    """Field block <i| rho |j> of a joint density matrix, i, j in {0, 1}."""
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError(f"atom indices must be 0 or 1, got ({i}, {j})")
    N = rho.shape[0] // 2
    return rho[i * N:(i + 1) * N, j * N:(j + 1) * N]


def project_two_qubit(rho: np.ndarray, alpha_plus: complex, alpha_minus: complex,
                      cfg: FockConfig) -> np.ndarray:
    """Project a joint density matrix onto the two-branch field basis.

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
    basis = [up, down]
    out = np.zeros((4, 4), dtype=complex)
    for F in range(2):
        for A in range(2):
            for G in range(2):
                for B in range(2):
                    blk = block(rho, A, B)
                    out[2 * F + A, 2 * G + B] = basis[F].conj() @ blk @ basis[G]
    return out


def _phi(z: complex) -> complex:
    """(exp(z) - 1) / z, stable near z = 0."""
    if abs(z) < 1e-6:
        return 1.0 + z / 2.0 + z * z / 6.0 + z**3 / 24.0
    return (cmath.exp(z) - 1.0) / z


def m_coefficient(spec: SuperopSpec, t: float) -> complex:
    """Coefficient of M in the disentangled exponential at time t.

    Solves m' + (c_r + c_l) m = c_m, m(0) = 0, which follows from the
    shift algebra [R, M] = [L, M] = -M.
    """
    s = spec.c_r + spec.c_l
    return spec.c_m * t * _phi(-s * t)


def apply_factorized(spec: SuperopSpec, X: np.ndarray, t: float) -> np.ndarray:
    """Apply exp(spec * t) to X via the ordered product of exponentials.

    exp(c_s t) exp(m M) exp(c_r t R) exp(c_l t L): the R and L factors are
    diagonal scalings, the M factor a convergent operator series.
    """
    X = np.asarray(X, dtype=complex)
    N = X.shape[0]
    n = np.arange(float(N))
    m = m_coefficient(spec, t)
    left = np.exp(spec.c_r * t * n)
    right = np.exp(spec.c_l * t * n)
    Y = (left[:, None] * X) * right[None, :]
    a = annihilation(N)
    adag = a.conj().T
    acc = Y.copy()
    term = Y
    acc_norm = float(np.max(np.abs(acc)))
    converged = m == 0.0
    for j in range(1, N):
        term = (m / j) * (a @ term @ adag)
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
    return cmath.exp(spec.c_s * t) * acc


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


def _apply_generator(spec: SuperopSpec, X: np.ndarray) -> np.ndarray:
    N = X.shape[0]
    a = annihilation(N)
    nh = number_op(N)
    return (spec.c_m * (a @ X @ a.conj().T)
            + spec.c_r * (nh @ X)
            + spec.c_l * (X @ nh)
            + spec.c_s * X)


def verify_disentangling(Omega: float, kappa: float, t: float, cfg: FockConfig,
                         alpha: complex = 1.0, n_matrices: int = 3,
                         seed: int = 1234) -> DisentanglingReport:
    """Cross-check the factorized exponentials three independent ways.

    For each block generator: (a) dense matrix exponential of the
    vectorized generator, (b) the factorized product of exponentials,
    (c) direct adaptive integration of dX/dt = L X.  Also checks the
    closed-form action on the initial coherent dyad.
    """
    if cfg.dim > 32:
        raise DimensionGuard(f"verification guard: N={cfg.dim} > 32")
    rng = np.random.default_rng(seed)
    report = DisentanglingReport()
    specs = {
        "L00": generator_00(Omega, kappa),
        "L11": generator_11(Omega, kappa),
        "L01": generator_01(Omega, kappa),
    }
    N = cfg.dim
    for name, spec in specs.items():
        G = dense_generator(spec, cfg)
        prop = expm(G * t)
        worst = 0.0
        # test matrices leave the top Fock levels empty so the M-series
        # terminates before the truncation boundary
        sup = max(1, N - 2)
        for _ in range(n_matrices):
            X = np.zeros((N, N), dtype=complex)
            X[:sup, :sup] = rng.normal(size=(sup, sup)) \
                + 1j * rng.normal(size=(sup, sup))
            X = X + X.conj().T
            X /= np.max(np.abs(X))
            ya = (prop @ X.ravel()).reshape(N, N)
            yb = apply_factorized(spec, X, t)
            yc = rk45(lambda _t, y: _apply_generator(spec, y.reshape(N, N)).ravel(),
                      X.ravel().astype(complex), 0.0, t, 1e-12).reshape(N, N)
            scale = max(np.max(np.abs(ya)), np.max(np.abs(yb)),
                        np.max(np.abs(yc)), 1e-300)
            dev = max(np.max(np.abs(ya - yb)), np.max(np.abs(ya - yc)),
                      np.max(np.abs(yb - yc))) / scale
            worst = max(worst, dev)
        report.max_pairwise_dev[name] = worst

    # Closed-form coherent-dyad targets.  The continuum closed form is only
    # reproducible when the coherent state fits in the truncated space, so
    # this stage enlarges nmax as needed; the three-way dense check above
    # runs at the requested cfg.
    dyad_cfg = FockConfig(nmax=max(cfg.nmax, default_nmax(alpha)), trunc_tol=1e-6)
    v0 = coherent_vector(alpha, dyad_cfg)
    dyad = 0.5 * np.outer(v0, v0.conj())
    a_plus, a_minus, f = analytic.branches(alpha, kappa, Omega, t)
    vp = coherent_vector(a_plus, dyad_cfg)
    vm = coherent_vector(a_minus, dyad_cfg)
    targets = {
        "L00": 0.5 * np.outer(vp, vp.conj()),
        "L11": 0.5 * np.outer(vm, vm.conj()),
        "L01": 0.5 * f * np.outer(vp, vm.conj()),
    }
    for name, spec in specs.items():
        got = apply_factorized(spec, dyad, t)
        report.dyad_max_abs_err[name] = float(np.max(np.abs(got - targets[name])))
    return report
