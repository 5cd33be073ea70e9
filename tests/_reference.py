"""Scalar references the tests hold the library against."""

import numpy as np

from drivenjc import entanglement, liouville
from drivenjc.analytic import TAU_DEGENERACY, AnalyticSnapshot


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


def linear_entropy_general(rho: np.ndarray):
    """Linear entropy S = 1 - Tr(rho^2) of a density matrix of any dimension,
    or an array of them for a stack (..., d, d)."""
    rho = np.asarray(rho, dtype=complex)
    entanglement._check_density(rho)
    purity = np.trace(rho @ rho, axis1=-2, axis2=-1).real
    s = np.maximum(1.0 - purity, 0.0)
    return float(s) if s.ndim == 0 else s
