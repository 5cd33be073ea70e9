"""Truncated-Fock-space numerical oracle for the dissipative dynamics.

Everything the closed-form path claims is re-derived here by independent
means: the master equation is propagated exactly in a truncated Fock
space, by matrix exponentials of its invariant diagonals, and the
disentangled superoperator exponentials, applied to operators given as
factors U Wdag, are checked against dense matrix exponentials of the
vectorized generators and against that propagator.
Every exponential is this module's numpy `expm`, so nothing loads scipy.

The dressed atom never flips in the dispersive model, so the joint state
is held as its four field blocks rho[a, b] = <a| rho |b>, an array of
shape (2, 2, N, N), and each block evolves on its own.  The propagated
samples are half-states of shape (3, N, N), the independent entries of
rho_00, rho_11 and rho_01.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, entanglement
from .model import (NMAX_LIMIT, DerivedParams, ModelParams, check_nmax,
                    default_nmax)

# read by name only by benchmarks/tracing.py; deleted with it (ROADMAP item 1)
rk45 = None
TRUNC_TOL = 1e-10   # admissible norm loss of a coherent state at nmax
#: random Hermitian test operators per generator in verify_disentangling,
#: the seed they are drawn from, and the Fock truncation of its dense check
VERIFY_MATRICES = 3
VERIFY_SEED = 1234
VERIFY_NMAX = 6
#: Blocks (a, b) of the three parts of a half-state: rho_00, rho_11 and
#: rho_01.  The rest of the Hermitian state is the adjoint of these, and is
#: never formed in the sample loop.
_HALF = (0, 1, 0), (0, 1, 1)
#: log n! for n <= NMAX_LIMIT: the coherent amplitudes and the binomial
#: weights D of `integrate` up to the largest accepted truncation
_LOG_FACT = np.array([math.lgamma(n + 1.0) for n in range(NMAX_LIMIT + 1)])
#: theta_13, the largest 1-norm the degree-13 Pade approximant of `expm`
#: takes without scaling, and its coefficients b_0..b_13, from Higham,
#: SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3 and eq. (2.3).
_THETA_13 = 5.371920351148152
_PADE_13 = (64764752532480000., 32382376266240000., 7771770303897600.,
            1187353796428800., 129060195264000., 10559470521600.,
            670442572800., 33522128640., 1323241920., 40840800., 960960.,
            16380., 182., 1.)


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


def coherent_vector(alpha, nmax: int) -> np.ndarray:
    """Truncated Fock expansion of |alpha> on levels 0..nmax, Fock index
    last; alpha may be an array.  Errors out when nmax is outside
    1..NMAX_LIMIT or any alpha loses too much norm."""
    alpha = np.asarray(alpha, dtype=complex)
    n = np.arange(check_nmax(nmax) + 1)
    r = np.abs(alpha)[..., None]
    # log-domain magnitudes to dodge overflow in alpha**n / sqrt(n!)
    log_mag = (-0.5 * r**2 + n * np.log(np.where(r > 0, r, 1.0))
               - 0.5 * _LOG_FACT[:nmax + 1])
    vec = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha)[..., None])
    vec = np.where(r > 0, vec, n == 0)
    norm_loss = 1.0 - np.sum(np.abs(vec) ** 2, axis=-1)
    if np.any(norm_loss >= TRUNC_TOL):
        worst = np.unravel_index(np.argmax(norm_loss), norm_loss.shape)
        raise ValueError(
            f"coherent state alpha={complex(alpha[worst])} loses "
            f"{norm_loss[worst]:.3e} norm at nmax={nmax} "
            f"(tol {TRUNC_TOL:.3e})")
    return vec


def initial_blocks(c0: complex, c1: complex, field_vec: np.ndarray) -> np.ndarray:
    """Field blocks rho[a, b] = c_a conj(c_b) |v><v| of (c0|0> + c1|1>) x |v>."""
    c = np.array([c0, c1], dtype=complex)
    return np.multiply.outer(np.outer(c, c.conj()),
                             np.outer(field_vec, np.conj(field_vec)))


def expm(A: np.ndarray) -> np.ndarray:
    """Complex matrix exponential of each matrix of the stack A (..., n, n).

    Pade scaling and squaring (Higham 2005): the degree-13 approximant of
    A / 2^s, with the smallest s >= 0 that brings the largest 1-norm of the
    stack under theta_13, formed as I + 2 (V - U)^-1 U so that a zero stack
    gives exactly I.
    When it squares an upper triangular stack, each square has its
    diagonal and superdiagonal rewritten from their exact values: exp(a_jj)
    and a_j,j+1 times the divided difference of exp over a_jj, a_j+1,j+1
    (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009), Code
    Fragment 2.1).
    """
    A = np.asarray(A, dtype=complex)
    norm = np.max(np.sum(np.abs(A), axis=-2), initial=0.0)
    s = (math.ceil(math.log2(norm / _THETA_13))
         if _THETA_13 < norm < math.inf else 0)
    X = A * 2.0**-s
    b = _PADE_13
    # even powers I, X^2, X^4, X^6; X^6 then carries the coefficients b_8..
    # of the higher powers
    P = [np.eye(A.shape[-1]), X @ X]
    P.append(P[1] @ P[1])
    P.append(P[2] @ P[1])
    odd = (sum(c * Pk for c, Pk in zip(b[1::2], P))
           + P[3] @ sum(c * Pk for c, Pk in zip(b[9::2], P[1:])))
    even = (sum(c * Pk for c, Pk in zip(b[0::2], P))
            + P[3] @ sum(c * Pk for c, Pk in zip(b[8::2], P[1:])))
    U = X @ odd
    E = P[0] + 2.0 * np.linalg.solve(even - U, U)
    upper = s > 0 and not np.any(np.tril(A, -1))
    j = np.arange(A.shape[-1])
    for i in range(s, -1, -1):
        if i < s:
            E = E @ E
        if upper:
            d = A[..., j, j] * 2.0**-i
            lo, hi = d[..., :-1], d[..., 1:]
            # (exp(hi) - exp(lo)) / (hi - lo) from the larger exponent, so
            # that neither factor overflows where the difference is finite
            first = lo.real >= hi.real
            big, small = np.where(first, lo, hi), np.where(first, hi, lo)
            E[..., j[:-1], j[1:]] = (A[..., j[:-1], j[1:]] * 2.0**-i
                                     * np.exp(big) * analytic.phi(small - big))
            E[..., j, j] = np.exp(d)
    return E


def _half_tables(N: int):
    """(index, weights) of the (3, N, N) half-state in the diagonal layout
    of `integrate`: states are loaded and read, phases laid out, by index.

    index[c, n, m] is the flat position in y (2, N, 2 N) of entry (n, m) of
    rho_00 (c = 0) and rho_11 (c = 1) on and above their main diagonals and
    of all of rho_01 (c = 2), or 4 N^2, a trailing zero slot, for the
    entries below the diagonal of c < 2.  weights[c, n, 2 m + r] is
    D = 1 / sqrt(C(max(n, m), min(n, m))) on the real (r = 0) and imaginary
    (r = 1) parts of entry (n, m), stored for each c: a multiply by the
    broadcast (N, 2 N) table takes about a fifth longer.
    """
    c, n, m = np.arange(3)[:, None, None], np.arange(N)[:, None], np.arange(N)
    j, k = np.minimum(n, m), np.abs(n - m)
    # class 0 holds rho_00 and rho_11 in columns 0 and 1, class 1 holds
    # rho_01 above the diagonal in column 0 and below it in column 1
    column = np.where(c == 2, n > m, c)
    index = (np.where(c == 2, N, 0) + j) * (2 * N) + 2 * k + column
    index = np.where((n <= m) | (c == 2), index, 4 * N * N)
    D = np.exp(0.5 * (_LOG_FACT[j] + _LOG_FACT[k] - _LOG_FACT[j + k]))
    return index, np.repeat(np.broadcast_to(D, index.shape), 2, axis=-1)


def _hermitian_blocks(half: np.ndarray) -> np.ndarray:
    """The (..., 2, 2, n, n) Hermitian blocks H + H^dagger of (..., 3, n, n)
    half-states H, each read as the blocks [[H_0, H_2], [0, H_1]]: the
    field blocks of a half-state of `integrate`, or the two-qubit state of
    its projection onto a two-branch basis (`oracle_series`)."""
    lead = half.shape[:-3]
    blocks = np.zeros((*lead, 2, 2, *half.shape[-2:]), dtype=complex)
    blocks[..., _HALF[0], _HALF[1], :, :] = half
    return blocks + blocks.conj().swapaxes(-4, -3).swapaxes(-2, -1)


def integrate(Omega: float, kappa: float, rho0: np.ndarray, t_start: float,
              dt: float, count: int):
    """Yield the (3, N, N) half-states at t_start + i dt, for i < count.

    A half-state H holds rho_00 and rho_11 above their main diagonals, half
    their populations on them and zero below them, and all of rho_01, so
    that the four blocks are H + H^dagger (`_hermitian_blocks`).
    Omega is the dispersive shift, rho0 the (2, 2, N, N) block array at
    t = 0, which must be Hermitian (rho_ba = rho_ab^dagger); sample 0 steps
    from t = 0 by t_start >= 0, each later one by dt >= 0.
    Every block generator keeps the offset k = m - n, so each diagonal of
    rho_ab evolves on its own, under d0 + B_k: d0, per half-state entry, is
    c_l |k| + c_s for k >= 0 and c_r |k| + c_s below, and B_k is upper
    bidiagonal (diagonal (c_r + c_l) j, superdiagonal
    c_m sqrt((j + 1)(j + |k| + 1))).  B_k depends only on |k| and on whether
    a = b, and is D_k B_0 D_k^-1 on its levels, D_k = 1 / sqrt(C(j + |k|, j));
    B_0 is upper triangular, so the diagonals are carried divided by D, and
    a step of length h is one product with expm(B_0 h) per class, over all
    diagonals, times the phase exp(d0 h): one `expm` per block class and
    step length.  Class 0 (a = b) has real coefficients, so its expm(B_0 h)
    is real and steps the float view of its diagonals as a real product, at
    half the flops of class 1's complex one; both step in place.  The flow
    keeps rho Hermitian, so only the diagonals k >= 0 of rho_00 and rho_11
    and all of rho_01 are propagated, the main diagonals of rho_00 and
    rho_11 halved on a copy of rho0 and so halved at every step.  Each
    half-state is a fresh array: one take from the propagated diagonals and
    a trailing zero slot, times D (`_half_tables`, whose index also lays out
    the phases).  All N levels are propagated, also empty top ones, which
    photon loss keeps empty; a caller that knows them trims rho0 first, as
    `oracle_series` does.
    N - 1 may be NMAX_LIMIT at most, else ValueError.
    """
    if t_start < 0 or dt < 0:
        raise ValueError(f"t_start and dt must be >= 0, got {t_start}, {dt}")
    steps = [t_start, *[dt] * (count - 1)][:count]
    N = rho0.shape[-1]
    if N - 1 > NMAX_LIMIT:
        raise ValueError(f"rho0 has Fock level {N - 1} > NMAX_LIMIT = "
                         f"{NMAX_LIMIT}")
    spec = generator(Omega, kappa, *np.array(_HALF)[..., None, None])
    # B_0 per class, its coefficients from parts 0 and 2, rho_00 and rho_01
    c_m, c_rl = (np.broadcast_to(c, (3, 1, 1))[::2, 0]
                 for c in (spec.c_m, spec.c_r + spec.c_l))
    j = np.arange(N)
    B = np.zeros((2, N, N), dtype=complex)
    B[:, j, j] = c_rl * j
    B[:, j[:-1], j[1:]] = c_m * (j[:-1] + 1.0)
    k = j - j[:, None]
    d0 = np.where(k >= 0, spec.c_l, spec.c_r) * np.abs(k) + spec.c_s
    index, weights = _half_tables(N)
    props = {}
    for h in set(steps[:2]):
        if h > 0:
            prop = expm(B * h)
            # class 0 has the real coefficients c_r + c_l = -2 kappa and
            # c_m = 2 kappa, so its propagator is real; the phase, in y's
            # layout, is contiguous: about twice the speed of a broadcast view
            phase = np.zeros(4 * N * N + 1, dtype=complex)
            phase[index] = np.exp(d0 * h)
            props[h] = (prop[0].real.copy(), prop[1],
                        phase[:-1].reshape(2, N, 2 * N))
    # y is the buffer but its zero slot, which the entries below the
    # diagonals of rho_00 and rho_11 fill until it is cleared; rho_01's
    # diagonal is read from column 0 only, so column 1's copy stays zero
    buf = np.zeros(4 * N * N + 1, dtype=complex)
    y = buf[:-1].reshape(2, N, 2 * N)
    half = rho0[_HALF]
    half[:2, j, j] *= 0.5
    buf[index] = half / weights[..., ::2]
    buf[-1] = 0.0
    stepped = np.empty_like(y)
    y0, y1 = y[0].view(float), y[1]
    stepped0, stepped1 = stepped[0].view(float), stepped[1]
    for h in steps:
        if h > 0:
            prop0, prop1, phase = props[h]
            np.matmul(prop0, y0, out=stepped0)
            np.matmul(prop1, y1, out=stepped1)
            np.multiply(stepped, phase, out=y)
        half = buf.take(index)
        parts = half.view(float)
        parts *= weights
        yield half


def _branch_basis(alpha_plus, alpha_minus, nmax: int) -> np.ndarray:
    """(..., 2, N) two-branch field basis: |alpha_plus> and the Gram-Schmidt
    complement of |alpha_minus>, zero where the two branches coincide."""
    up, vm = coherent_vector(np.stack([alpha_plus, alpha_minus]), nmax)
    up = up / np.linalg.norm(up, axis=-1, keepdims=True)
    tau = np.sum(up.conj() * vm, axis=-1, keepdims=True)
    resid = vm - tau * up
    rnorm = np.linalg.norm(resid, axis=-1, keepdims=True)
    down = np.divide(resid, rnorm, out=np.zeros_like(resid),
                     where=rnorm**2 >= analytic.TAU_DEGENERACY)
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

    Each sample is read from its half-state H, rho = H + H^dagger
    (`integrate`): the loop keeps Q_c = <basis_f| H_c |basis_g>, the
    diagonal views of H_0 and H_1 (half the populations) and sum |H|^2;
    the two-qubit states are the Hermitian blocks of Q (`_hermitian_blocks`),
    and the purity 2 sum |H|^2 + sum pops^2 / 2.

    The state is propagated and read on the support of the coherent field,
    its levels 0..N - 1 up to the last nonzero amplitude: the levels above,
    where the amplitudes underflow to exact zeros (a small |alpha>, or an
    nmax far above the field), stay empty, since photon loss only lowers n.
    """
    times, dt = np.linspace(t_start, t_end, steps, retstep=True)
    field = coherent_vector(p.alpha, nmax)
    N = np.flatnonzero(field)[-1] + 1
    rho0 = initial_blocks(p.c0, p.c1, field[:N])
    snap = analytic.evolve(p, d, times)
    basis = _branch_basis(snap.alpha_plus, snap.alpha_minus, nmax)[..., :N]
    bra, ket = basis.conj(), basis.swapaxes(-1, -2).copy()
    # Q[i, c, f, g] = <basis_f| H_c |basis_g> at times[i], through cols
    Q = np.empty((steps, 3, 2, 2), dtype=complex)
    cols = np.empty((3, N, 2), dtype=complex)
    stacked = cols.reshape(3 * N, 2)
    pops = np.empty((steps, 2, N), dtype=complex)
    squares = np.empty(steps)
    for i, half in enumerate(integrate(d.Omega_eff, p.kappa, rho0, t_start,
                                       dt, steps)):
        np.dot(half.reshape(3 * N, N), ket[i], out=stacked)
        np.matmul(bra[i], cols, out=Q[i])
        pops[i] = half[:2].diagonal(0, 1, 2)
        squares[i] = np.vdot(half, half).real
    pops = 2.0 * pops.real
    # rho4[i] is the (f a, g b) matrix of <basis_f| rho_ab |basis_g>
    rho4 = _hermitian_blocks(Q).transpose(0, 3, 1, 4, 2).reshape(-1, 4, 4)
    if not np.all(np.isfinite(rho4)):
        raise FloatingPointError("oracle state overflowed to non-finite values")
    nbar = np.sum(pops @ np.arange(float(N)), axis=-1)
    trace_err = np.abs(np.sum(pops, axis=(1, 2)) - 1.0)
    purity = 2.0 * squares + 0.5 * np.sum(pops**2, axis=(1, 2))
    return (entanglement.wootters_concurrence(rho4),
            np.maximum(1.0 - purity, 0.0), nbar, trace_err)


def apply_factorized(spec: SuperopSpec, U: np.ndarray, W: np.ndarray,
                     t: float) -> np.ndarray:
    """Apply exp(spec * t) to X = U Wdag, U and W (..., N, k) stacks, as
    exp(c_s t) exp(c_r t R) exp(c_l t L) exp(m M).

    R and L scale each entry.  M^j X = (a^j U)(a^j W)dag and M^N = 0, so
    with s^2 = m, exp(m M) X is one product: the N factors s^j a^j U /
    sqrt(j!) side by side, times the adjoint of conj(s)^j a^j W / sqrt(j!).
    The shift algebra [R, M] = [L, M] = -M gives m = c_m t phi((c_r + c_l) t),
    which stays bounded under decay (1 - exp(-2 kappa t) for a population
    block).  With the M factor on the left its coefficient would grow as
    exp(2 kappa t), and its terms would cancel against the
    exp(-kappa t n) scalings.
    """
    N = U.shape[-2]
    n = np.arange(float(N))
    s = np.sqrt(spec.c_m * t * analytic.phi((spec.c_r + spec.c_l) * t))
    stacks = []
    for Y, r in ((U, s), (W, np.conj(s))):
        *shape, k = np.broadcast_shapes(np.shape(r), Y.shape)
        stacks.append(np.zeros((*shape, N * k), dtype=complex))
        # a^j Y is zero below row N - j, so only its top rows are stepped
        for j in range(N):
            stacks[-1][..., :N - j, j * k:(j + 1) * k] = Y
            Y = r * np.sqrt(n[1:N - j, None] / (j + 1)) * Y[..., 1:, :]
    X = stacks[0] @ np.swapaxes(stacks[1], -1, -2).conj()
    return (np.exp(spec.c_s * t) * np.exp(spec.c_r * t * n[:, None]) * X
            * np.exp(spec.c_l * t * n))


def dense_generator(spec: SuperopSpec, nmax: int) -> np.ndarray:
    """N^2 x N^2 matrix, N = nmax + 1, acting on row-major-stacked field
    operators.

    With X flattened row by row, X -> A X B maps to (A kron B^T) vec(X),
    so R -> adag a kron I, L -> I kron adag a, M -> a kron a.
    """
    N = nmax + 1
    a = np.diag(np.sqrt(np.arange(1.0, N)), 1)
    nh = np.diag(np.arange(float(N)))
    I = np.eye(N)
    G = (spec.c_m * np.kron(a, a) + spec.c_r * np.kron(nh, I)
         + spec.c_l * np.kron(I, nh) + spec.c_s * np.eye(N * N))
    return G.astype(complex)


def verify_disentangling(Omega: float, kappa: float, t: float,
                         alpha: complex) -> tuple[float, float]:
    """Cross-check the factorized exponentials three independent ways.

    VERIFY_MATRICES random Hermitian block states X at nmax VERIFY_NMAX go
    through (a) the dense matrix exponential of each block's vectorized
    generator, (b) the factorized product on the factors (X, I) and (c) one
    exact step of `integrate`, the oracle's propagator.  Also applies (b) to
    the coherent dyad |alpha><alpha|/2, given as the factors
    |alpha>/sqrt(2) twice, at nmax default_nmax(alpha).  Returns (pairwise,
    dyad): the largest deviation between two routes, relative to the
    largest entry, and the largest error of the dyad's projection onto the
    closed-form branches |alpha_pm(t)> against that of its closed-form
    image, each over all four blocks, for the caller to judge.  A non-finite
    route raises FloatingPointError.
    """
    A, B = np.array([[0, 1, 0, 1], [0, 1, 1, 0]])   # blocks L00 L11 L01 L10
    spec = generator(Omega, kappa, A[:, None, None], B[:, None, None])
    prop = expm(dense_generator(spec, VERIFY_NMAX) * t)
    N = VERIFY_NMAX + 1
    draw = np.random.default_rng(VERIFY_SEED).normal(
        size=(2, VERIFY_MATRICES, 2, 2, N, N))
    rho = draw[0] + 1j * draw[1]
    rho = rho + rho.conj().transpose(0, 2, 1, 4, 3)
    X = rho[:, A, B]   # X[i, k]: block k of test state i
    routes = np.stack([
        (prop @ X.reshape(*X.shape[:2], N * N, 1)).reshape(X.shape),
        apply_factorized(spec, X, np.eye(N), t),
        _hermitian_blocks(np.stack([next(integrate(Omega, kappa, r, t, 0.0, 1))
                                    for r in rho]))[:, A, B],
    ])
    if not np.all(np.isfinite(routes)):
        raise FloatingPointError("disentangling routes are non-finite")
    # every pair of routes: (a) - (c), (b) - (a) and (c) - (b)
    gap = np.max(np.abs(routes - np.roll(routes, 1, axis=0)), axis=(0, 3, 4))
    scale = np.maximum(np.max(np.abs(routes), axis=(0, 3, 4)), 1e-300)
    pairwise = np.max(gap / scale)

    # The coherent dyad at the oracle's own truncation, read in the frame of
    # the closed-form branches v = |alpha_pm>: the image of block ab is
    # 1/2 w_ab |v_a><v_b|, so its projection <v_f| . |v_g> is
    # 1/2 w_ab G_fa G_bg with G = <v_f|v_g>, w = 1, f, conj(f), 1.
    nmax = default_nmax(alpha)
    a_plus, a_minus, log_f = analytic.branches(alpha, kappa, Omega, t)
    V = coherent_vector(np.array([a_plus, a_minus]), nmax)
    G = V.conj() @ V.T
    weight = np.exp(np.array([[0.0, log_f], [np.conj(log_f), 0.0]]))[A, B]
    half = coherent_vector(alpha, nmax)[:, None] / math.sqrt(2.0)
    frame = V.conj() @ apply_factorized(spec, half, half, t) @ V.T
    target = 0.5 * np.einsum("k,fk,kg->kfg", weight, G[:, A], G[B])
    err = np.max(np.abs(frame - target))
    return float(pairwise), float(err)
