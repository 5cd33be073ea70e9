"""End-to-end acceptance checks with pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and asserts the same condition, so the suite
doubles as a human-readable report.
"""

import math
import time

import numpy as np
import pytest

from drivenjc import analytic, entanglement, liouville, model

from _reference import two_qubit_density


def report(name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{tail}")
    assert ok, f"{name}{tail}"


def make_params(omega_c=0.0, lam=0.0, kappa=1e-3, c0=None, c1=None):
    r = 1.0 / math.sqrt(2.0)
    return model.ModelParams(
        omega=2.0, omega0=1.9, omega_c=omega_c, g=1e-2, lam=lam,
        kappa=kappa, alpha=1.0,
        c0=r if c0 is None else c0, c1=r if c1 is None else c1)


def test_criterion_1_limit_cases():
    worst = 0.0
    for omega_c, lam, kappa in [(0.0, 0.0, 0.0), (0.0, 0.0, 1e-3),
                                (0.2, 0.2, 1e-3), (0.5, 0.5, 2e-3)]:
        p = make_params(omega_c=omega_c, lam=lam, kappa=kappa)
        d = model.derive_params(p)
        s0 = analytic.evolve(p, d, 0.0)
        worst = max(worst,
                    abs(analytic.concurrence_analytic(s0)),
                    abs(analytic.linear_entropy_analytic(s0)),
                    abs(analytic.photon_number(p, 0.0) - abs(p.alpha) ** 2))
    p = make_params(kappa=0.0)
    d = model.derive_params(p)
    for t in np.linspace(0.0, 500.0, 41):
        s = analytic.evolve(p, d, float(t))
        worst = max(worst, abs(analytic.linear_entropy_analytic(s)))
    report("criterion 1: t=0 limits and lossless purity", worst < 1e-12,
           f"max deviation {worst:.2e}")


def test_criterion_2_lossless_maximum():
    p = make_params(kappa=0.0)
    d = model.derive_params(p)
    t_star = math.pi / (2.0 * abs(d.Omega_eff))
    s = analytic.evolve(p, d, t_star)
    c = analytic.concurrence_analytic(s)
    expected = math.sqrt(1.0 - math.exp(-4.0))
    dev_closed = abs(c - expected)
    c_wootters = entanglement.wootters_concurrence(
        two_qubit_density(s))
    dev_wootters = abs(c - c_wootters)
    report("criterion 2: lossless concurrence maximum",
           dev_closed < 1e-9 and dev_wootters < 1e-10,
           f"|C-sqrt(1-e^-4)|={dev_closed:.2e}, "
           f"|C-Wootters|={dev_wootters:.2e}")


def test_criterion_3_photon_decay(tmp_path):
    grid = 0.0, 200.0, 21
    times = np.linspace(*grid)
    worst = 0.0
    columns = [times]
    for kappa in (1e-4, 1e-3):
        p = make_params(kappa=kappa)
        d = model.derive_params(p)
        _, _, nbar, _ = liouville.oracle_series(p, d, *grid, nmax=20)
        expected = analytic.photon_number(p, times)
        worst = max(worst, float(np.max(np.abs(nbar - expected))))
        columns.append(nbar)
    out = tmp_path / "photon_decay.csv"
    rows = np.column_stack(columns)
    header = "t,photon_number_k1e-04,photon_number_k1e-03"
    np.savetxt(out, rows, delimiter=",", header=header, comments="")
    report("criterion 3: photon decay vs oracle", worst < 1e-12,
           f"max deviation {worst:.2e}, CSV at {out}")


def test_criterion_4_closed_form_vs_oracle():
    cases = [(0.0, 0.0, 0.0), (0.0, 0.0, 1e-4), (0.0, 0.0, 1e-3),
             (0.2, 0.2, 1e-3)]
    grid = 0.0, 300.0, 13
    times = np.linspace(*grid)
    worst_c = worst_s = 0.0
    for omega_c, lam, kappa in cases:
        p = make_params(omega_c=omega_c, lam=lam, kappa=kappa)
        d = model.derive_params(p)
        conc_n, entr_n, _, _ = liouville.oracle_series(p, d, *grid, nmax=20)
        s = analytic.evolve(p, d, times)
        conc_a = analytic.concurrence_analytic(s)
        entr_a = analytic.linear_entropy_analytic(s)
        worst_c = max(worst_c, float(np.max(np.abs(conc_a - conc_n))))
        worst_s = max(worst_s, float(np.max(np.abs(entr_a - entr_n))))
    report("criterion 4: closed forms vs Lindblad oracle",
           worst_c < 1e-8 and worst_s < 1e-12,
           f"concurrence dev {worst_c:.2e}, entropy dev {worst_s:.2e}")


def test_criterion_5_disentangling_identity():
    worst_pair = worst_dyad = 0.0
    for t in (10.0, 100.0, 500.0):
        pairwise, dyad = liouville.verify_disentangling(1e-3, 1e-3, t, 1.0)
        worst_pair = max(worst_pair, pairwise)
        worst_dyad = max(worst_dyad, dyad)
    report("criterion 5: superoperator disentangling",
           worst_pair < 1e-8 and worst_dyad < 1e-10,
           f"pairwise {worst_pair:.2e}, dyad {worst_dyad:.2e}")


def test_criterion_6_monotonicity():
    # (a) concurrence at t = 1/g is non-increasing in the decay rate
    t_eval = 100.0
    c_of_k = []
    for kappa in (0.0, 1e-4, 1e-3):
        p = make_params(kappa=kappa)
        d = model.derive_params(p)
        c_of_k.append(analytic.concurrence_analytic(
            analytic.evolve(p, d, t_eval)))
    ok_a = all(a >= b for a, b in zip(c_of_k, c_of_k[1:]))

    # (b) driving raises the best concurrence over a three-period window
    times = np.linspace(0.0, 300.0, 601)

    def conc_max(omega_c, lam):
        p = make_params(omega_c=omega_c, lam=lam, kappa=1e-3)
        d = model.derive_params(p)
        return analytic.concurrence_analytic(analytic.evolve(p, d, times)).max()

    ok_b = conc_max(0.2, 0.2) > conc_max(0.0, 0.0)

    # (c) driving lowers the entropy wherever the undriven entropy peaks.
    # The undriven entropy grows monotonically on this window, so its only
    # sampled maximum is the window supremum; the check covers every local
    # maximum of the sampled curve as well.
    p0 = make_params(kappa=1e-3)
    d0 = model.derive_params(p0)
    p1 = make_params(omega_c=0.5, lam=0.5, kappa=1e-3)
    d1 = model.derive_params(p1)
    s0 = analytic.linear_entropy_analytic(analytic.evolve(p0, d0, times))
    s1 = analytic.linear_entropy_analytic(analytic.evolve(p1, d1, times))
    peaks = [i for i in range(1, len(times) - 1)
             if s0[i] >= s0[i - 1] and s0[i] >= s0[i + 1]]
    peaks.append(int(np.argmax(s0)))
    ok_c = all(s1[i] <= s0[i] + 1e-12 for i in peaks)

    report("criterion 6: qualitative monotonicity claims",
           ok_a and ok_b and ok_c,
           f"(a) C(k)={[f'{c:.4f}' for c in c_of_k]}, "
           f"(b) driven {conc_max(0.2, 0.2):.4f} > undriven "
           f"{conc_max(0.0, 0.0):.4f}, (c) {len(peaks)} peak(s) checked")


def test_criterion_7_wootters_units():
    bell = np.zeros((4, 4), dtype=complex)
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    bell = np.outer(v, v)
    worst = abs(entanglement.wootters_concurrence(bell) - 1.0)

    a = np.array([1.0, 0.0])
    b = np.array([0.6, 0.8])
    product = np.kron(np.outer(a, a), np.outer(b, b)).astype(complex)
    worst = max(worst, abs(entanglement.wootters_concurrence(product)))

    for prob in (0.2, 1 / 3, 0.8, 1.0):
        werner = prob * bell + (1 - prob) * np.eye(4) / 4
        expected = max(0.0, (3 * prob - 1) / 2)
        worst = max(worst,
                    abs(entanglement.wootters_concurrence(werner) - expected))
    report("criterion 7: concurrence unit cases", worst < 1e-10,
           f"max deviation {worst:.2e}")


def test_criterion_8_integrator_invariants():
    rng = np.random.default_rng(20240817)
    t0 = time.monotonic()
    worst_trace = worst_herm = 0.0
    min_eig = 0.0
    for _ in range(50):
        kappa = float(rng.uniform(0.0, 5e-3))
        Omega = float(rng.uniform(-5e-3, 5e-3))
        alpha = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        t_end = float(rng.uniform(10.0, 150.0))
        phi = rng.uniform(0.0, 2 * math.pi)
        c0, c1 = math.cos(phi), math.sin(phi)
        nmax = liouville.default_nmax(alpha)
        state = liouville.initial_blocks(
            c0, c1, liouville.coherent_vector(alpha, nmax))
        final, = liouville.integrate(Omega, kappa, state, t_end, 0.0, 1)
        # joint matrix over (atom, Fock level) assembled from the blocks
        rho = final.transpose(0, 2, 1, 3).reshape(2 * (nmax + 1), -1)
        worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
        worst_herm = max(worst_herm,
                         float(np.max(np.abs(rho - rho.conj().T))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(rho).min()))
    elapsed = time.monotonic() - t0
    report("criterion 8: randomized invariant preservation",
           worst_trace < 1e-8 and worst_herm < 1e-10
           and min_eig > -1e-8 and elapsed < 300.0,
           f"trace {worst_trace:.2e}, herm {worst_herm:.2e}, "
           f"min eig {min_eig:.2e}, {elapsed:.1f}s")
