"""Scalar references the tests hold the library against."""

import mpmath
import numpy as np

from drivenjc import analytic, entanglement, liouville
from drivenjc.analytic import TAU_DEGENERACY, AnalyticSnapshot


def coherent_overlap(beta: complex, gamma: complex) -> complex:
    """Inner product <beta|gamma> of two coherent states, 1 at beta = gamma."""
    return np.exp(-0.5 * np.abs(beta - gamma) ** 2
                  + 1j * np.imag(np.conj(beta) * gamma))


def two_qubit_density(s: AnalyticSnapshot) -> np.ndarray:
    """4x4 density matrix over {|up>,|down>} x {|0>,|1>}.

    Index convention: row = 2*field + atom, field in {up=0, down=1}.
    The dressed |1> branch occupies tau|up> + sqrt(1-|tau|^2)|down>; when
    |tau| = 1 the two branches coincide and the |down> components are set
    to zero (rank-deficient embedding).
    """
    tau = coherent_overlap(s.alpha_plus, s.alpha_minus)
    w2 = 1.0 - abs(tau) ** 2
    w = np.sqrt(w2) if w2 > TAU_DEGENERACY else 0.0
    u = np.array([1.0, 0.0], dtype=complex)        # field vector of |up>
    v = np.array([tau, w], dtype=complex)          # field vector of branch 1
    rho = np.zeros((4, 4), dtype=complex)
    coh = s.c0 * np.conj(s.c1) * np.exp(s.log_f)
    for F in range(2):
        for G in range(2):
            rho[2 * F + 0, 2 * G + 0] += abs(s.c0) ** 2 * u[F] * np.conj(u[G])
            rho[2 * F + 1, 2 * G + 1] += abs(s.c1) ** 2 * v[F] * np.conj(v[G])
            rho[2 * F + 0, 2 * G + 1] += coh * u[F] * np.conj(v[G])
            rho[2 * F + 1, 2 * G + 0] += np.conj(coh) * v[F] * np.conj(u[G])
    return rho


def make_rhs(spec: liouville.SuperopSpec, N: int):
    """Right-hand side X -> spec X on the last two axes (Fock dimension N):
    the Lindblad action of a block generator, applied term by term."""
    n = np.arange(float(N))
    diag = spec.c_r * n[:, None] + spec.c_l * n + spec.c_s
    a = np.diag(np.sqrt(n[1:]), 1)
    return lambda _t, X: diag * X + spec.c_m * (a @ X @ a.T)


def project_two_qubit(rho, alpha_plus, alpha_minus, nmax) -> np.ndarray:
    """Field blocks rho[a, b] of one sample projected onto the two-branch
    basis, in the index convention of `two_qubit_density`.

    The basis is |alpha_plus>, normalised, and the Gram-Schmidt complement
    of |alpha_minus>, dropped (zero) where its squared norm is below
    TAU_DEGENERACY, as in `two_qubit_density`.
    """
    up = liouville.coherent_vector(alpha_plus, nmax)
    up = up / np.linalg.norm(up)
    vm = liouville.coherent_vector(alpha_minus, nmax)
    resid = vm - np.vdot(up, vm) * up
    rnorm = np.linalg.norm(resid)
    down = resid / rnorm if rnorm**2 >= TAU_DEGENERACY else 0.0 * resid
    basis = np.array([up, down])
    return np.einsum("fn,abnm,gm->fagb", basis.conj(), rho, basis).reshape(4, 4)


def oracle_series_full(p, d, t_start, t_end, steps, nmax):
    """`liouville.oracle_series` read from each sample's full (2, 2, N, N)
    state: the four blocks rebuilt from the half-state, projected onto the
    two-branch basis as one (4N x N)(N x 2) product per sample, the
    populations as their diagonals and the purity as sum |rho|^2."""
    N = nmax + 1
    times, dt = np.linspace(t_start, t_end, steps, retstep=True)
    rho0 = liouville.initial_blocks(p.c0, p.c1,
                                    liouville.coherent_vector(p.alpha, nmax))
    snap = analytic.evolve(p, d, times)
    basis = liouville._branch_basis(snap.alpha_plus, snap.alpha_minus, nmax)
    # proj[i, a, b, f, g] = <basis_f| rho_ab |basis_g> at times[i]
    proj = np.zeros((steps, 2, 2, 2, 2), dtype=complex)
    bra, ket = basis.conj(), basis.swapaxes(-1, -2).copy()
    pops = np.zeros((steps, 2, N))
    purity = np.zeros(steps)
    for i, half in enumerate(liouville.integrate(d.Omega_eff, p.kappa, rho0,
                                                 t_start, dt, steps)):
        rho = liouville._hermitian_blocks(half)
        proj[i] = bra[i] @ (rho.reshape(-1, N) @ ket[i]).reshape(2, 2, N, 2)
        pops[i] = np.einsum("aann->an", rho).real
        purity[i] = np.vdot(rho, rho).real
    rho4 = proj.transpose(0, 3, 1, 4, 2).reshape(-1, 4, 4)
    nbar = np.sum(pops @ np.arange(float(N)), axis=-1)
    trace_err = np.abs(np.sum(pops, axis=(1, 2)) - 1.0)
    return (entanglement.wootters_concurrence(rho4),
            np.maximum(1.0 - purity, 0.0), nbar, trace_err)


def linear_entropy_general(rho: np.ndarray):
    """Linear entropy S = 1 - Tr(rho^2) of a density matrix of any dimension,
    or an array of them for a stack (..., d, d)."""
    rho = np.asarray(rho, dtype=complex)
    entanglement._check_density(rho)
    purity = np.trace(rho @ rho, axis1=-2, axis2=-1).real
    s = np.maximum(1.0 - purity, 0.0)
    return float(s) if s.ndim == 0 else s


def entropy_and_abs_f_mp(alpha, kappa, Omega, t, c0, c1):
    """(linear entropy, |f|) at 50 digits from the paper's form of ln f,
    -i Omega t + |alpha|^2 (exp(-2 kappa t) - 1)
    + kappa |alpha|^2 / (kappa + i Omega) (1 - exp(-2 (kappa + i Omega) t)),
    each input taken exactly as the double it is."""
    with mpmath.workdps(50):
        kappa, Omega, t = (mpmath.mpf(float(x)) for x in (kappa, Omega, t))
        n0 = abs(mpmath.mpc(complex(alpha))) ** 2
        log_f = -1j * Omega * t + n0 * mpmath.expm1(-2 * kappa * t)
        if kappa:
            s = kappa + 1j * Omega
            log_f -= kappa * n0 / s * mpmath.expm1(-2 * s * t)
        c0, c1 = (abs(mpmath.mpc(complex(c))) ** 2 for c in (c0, c1))
        re = mpmath.re(log_f)
        weight = 2 * c0 * c1
        return float(-weight * mpmath.expm1(2 * re)), float(mpmath.exp(re))


def branches_one_exponential(alpha, kappa, Omega, t):
    """(alpha_plus, alpha_minus, f) with each exponential over the whole
    broadcast shape, and the damping term of f as the paper writes it,
    kappa |alpha|^2 / (kappa + i Omega) (1 - exp(-2 (kappa + i Omega) t)):
    the form `analytic.branches` rewrites."""
    a_plus = alpha * np.exp(-(kappa + 1j * Omega) * t)
    a_minus = alpha * np.exp(-(kappa - 1j * Omega) * t)
    n0 = np.abs(alpha) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        damping = np.where(kappa == 0.0, 0.0, kappa * n0 / (kappa + 1j * Omega)
                           * (1.0 - np.exp(-2.0 * (kappa + 1j * Omega) * t)))
    f = np.exp(-1j * Omega * t + n0 * (np.exp(-2.0 * kappa * t) - 1.0) + damping)
    return a_plus, a_minus, f
