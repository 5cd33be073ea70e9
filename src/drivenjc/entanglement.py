"""Two-qubit entanglement and mixedness measures."""

from __future__ import annotations

import numpy as np

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])

#: sigma_y x sigma_y spin-flip matrix (real entries).
SPIN_FLIP = np.kron(_SY, _SY).real.astype(float)
#: Hermiticity, trace and eigenvalue tolerance of a density matrix.
DENSITY_TOL = 1e-6


class InvalidDensityMatrix(ValueError):
    """Input is not a density matrix within tolerance."""


def _check_density(rho: np.ndarray):
    """`np.linalg.eigh(rho)`, the (eigenvalues, eigenvectors) of every matrix
    on the last two axes; raise unless each is a density matrix."""
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise InvalidDensityMatrix(f"expected square matrices, got {rho.shape}")
    asymmetry = np.abs(rho - np.swapaxes(rho, -1, -2).conj())
    if np.max(asymmetry, initial=0.0) > DENSITY_TOL:
        raise InvalidDensityMatrix("matrix is not Hermitian")
    dev = np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0), initial=0.0)
    if dev > DENSITY_TOL:
        raise InvalidDensityMatrix(f"trace deviates from 1 by {dev:.3e}")
    evals, vecs = np.linalg.eigh(rho)
    lowest = evals.min(initial=0.0)
    if lowest < -DENSITY_TOL:
        raise InvalidDensityMatrix(f"negative eigenvalue {lowest:.3e}")
    return evals, vecs


def wootters_concurrence(rho: np.ndarray):
    """Concurrence C = max{0, l1 - l2 - l3 - l4} of a 4x4 density matrix.

    The l_i are the decreasing square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy).  Eigensolving that product (or its
    Hermitian similarity) squares the small l_i and halves their
    precision; instead the l_i are computed as the singular values of the
    complex-symmetric matrix X^T (sy x sy) X with rho = X X^H, which is
    algebraically identical and keeps near-zero l_i at full accuracy.
    A stack of matrices (..., 4, 4) gives an array of concurrences.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise InvalidDensityMatrix(f"expected 4x4 matrices, got {rho.shape}")
    evals, vecs = _check_density(rho)
    X = vecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]
    tau = np.swapaxes(X, -1, -2) @ SPIN_FLIP @ X
    lam = np.linalg.svd(tau, compute_uv=False)
    c = np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)
    return float(c) if c.ndim == 0 else c

