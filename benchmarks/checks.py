"""Output checks of every benchmark call.

Closed-form values are re-evaluated here with vectorised numpy, from the
parameters the benchmark chose, and never with the program's own functions.
A check returns a list of problems; an empty list means the call passed.
"""

from __future__ import annotations

import os

import numpy as np

#: Closed-form values must agree to CLOSED_FORM_RTOL relative.  1 - |tau|^2
#: and 1 - |f|^2 cancel when the branches overlap, so any two faithful
#: evaluations also differ by the rounding of |tau|^2 and |f|^2, whose
#: exponents are of size 1 + |alpha|^2: ROUNDING times that, propagated
#: through the formula, is added to the tolerance.
CLOSED_FORM_RTOL = 1e-12
ROUNDING = 4e-15
#: delta2 = hypot(delta1, 2 lambda) + omega_c - omega cancels near the
#: resonance delta2 = 0, so the dispersive shift Omega = g'^2 / delta2 of a
#: faithful evaluation is off by up to OMEGA_ULPS rounding units of the terms
#: of delta2, relative to delta2.  Where Omega t sits near a multiple of pi
#: the observables amplify that a hundredfold, so how far the reference moves
#: when Omega moves by that much is added to the tolerance.
OMEGA_ULPS = 4
ORACLE_CONCURRENCE_TOL = 1e-6
ORACLE_TRACE_TOL = 1e-8
#: rows per CSV whose closed form is re-evaluated
SAMPLE_ROWS = 64
#: 1 - |tau|^2 below which the program reports zero concurrence
TAU_DEGENERACY = 1e-15

TIMESERIES_HEADER = ["t", "concurrence", "linear_entropy", "photon_number",
                     "abs_f", "abs_tau"]
ORACLE_HEADER = TIMESERIES_HEADER + ["concurrence_numeric", "trace_error"]


def closed_form(p: dict, t) -> tuple[dict, dict]:
    """Observables at times t, and the rounding slack of each.

    Returns ({name: value}, {name: absolute slack}) for concurrence, linear
    entropy, photon number, |f| and |tau|.  Any entry of `p` may be an
    array; everything broadcasts against t.  1 - |tau|^2 and 1 - |f|^2 are
    evaluated with expm1, so the reference itself does not cancel; the slack
    covers their rounding and that of Omega (see OMEGA_ULPS).
    """
    delta1 = p["omega0"] - p["omega_c"]
    theta = np.arctan2(2.0 * p["lam"], delta1)
    g_prime = p["g"] * np.cos(theta / 2.0) ** 2
    root = np.hypot(delta1, 2.0 * p["lam"])
    delta2 = root + p["omega_c"] - p["omega"]
    om = g_prime ** 2 / delta2
    om_rel = OMEGA_ULPS * np.finfo(float).eps * (
        1.0 + (root + np.abs(p["omega_c"]) + np.abs(p["omega"])) / np.abs(delta2))
    values, slack = _observables(p, om, t)
    low, _ = _observables(p, om * (1.0 - om_rel), t)
    high, _ = _observables(p, om * (1.0 + om_rel), t)
    slack = {name: slack[name] + np.maximum(np.abs(low[name] - value),
                                            np.abs(high[name] - value))
             for name, value in values.items()}
    return values, slack


def _observables(p: dict, om, t) -> tuple[dict, dict]:
    """closed_form at a given dispersive shift `om`, with the slack of the
    rounding of 1 - |tau|^2 and 1 - |f|^2 alone."""
    t = np.asarray(t, dtype=float)
    kappa = np.asarray(p["kappa"], dtype=float)
    alpha = p["alpha_re"] + 1j * p["alpha_im"]
    weight = 2.0 * np.abs(p["c0_re"] + 1j * p["c0_im"]) ** 2 \
        * np.abs(p["c1_re"] + 1j * p["c1_im"]) ** 2
    n0 = np.abs(alpha) ** 2
    a_plus = alpha * np.exp(-(kappa + 1j * om) * t)
    a_minus = alpha * np.exp(-(kappa - 1j * om) * t)
    with np.errstate(invalid="ignore", divide="ignore"):
        damping = np.where(
            kappa == 0.0, 0.0,
            kappa * n0 / (kappa + 1j * om)
            * (1.0 - np.exp(-2.0 * (kappa + 1j * om) * t)))
    log_f = -1j * om * t + n0 * (np.exp(-2.0 * kappa * t) - 1.0) + damping
    one_minus_f2 = -np.expm1(2.0 * log_f.real)         # 1 - |f|^2
    distance2 = np.abs(a_plus - a_minus) ** 2          # -log |tau|^2
    w2 = -np.expm1(-distance2)                          # 1 - |tau|^2
    abs_f = np.exp(log_f.real)
    conc = np.where(w2 < TAU_DEGENERACY, 0.0,
                    np.clip(np.sqrt(2.0 * weight) * abs_f * np.sqrt(w2), 0.0, 1.0))
    rounding = ROUNDING * (1.0 + n0)
    # how far concurrence moves when 1 - |tau|^2 moves by `rounding`
    conc_slack = np.sqrt(2.0 * weight) * abs_f * rounding / (
        np.sqrt(w2 + rounding) + np.sqrt(w2))
    values = {
        "concurrence": conc,
        "linear_entropy": np.maximum(weight * one_minus_f2, 0.0),
        "photon_number": n0 * np.exp(-2.0 * kappa * t),
        "abs_f": abs_f,
        "abs_tau": np.exp(-0.5 * distance2),
    }
    slack = {
        "concurrence": conc_slack,
        "linear_entropy": rounding * weight,
        "photon_number": 0.0,
        "abs_f": 0.0,
        "abs_tau": 0.0,
    }
    return values, slack


def parse_csv(text: str):
    """(header, float rows) of a drivenjc CSV: `#` lines, a header, data."""
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or lines[len(lines) - len(body):] != body:
        raise ValueError("metadata lines must precede one header row")
    header = body[0].split(",")
    rows = np.array([ln.split(",") for ln in body[1:]], dtype=float)
    return header, rows.reshape(len(body) - 1, len(header))


def _sample(rng, n: int) -> np.ndarray:
    return np.sort(rng.choice(n, size=min(n, SAMPLE_ROWS), replace=False))


def _compare(problems: list, label: str, got, cf: tuple, name: str) -> None:
    values, slack = cf
    ref = np.broadcast_to(values[name], np.shape(got))
    bad = np.abs(got - ref) > CLOSED_FORM_RTOL * np.abs(ref) + slack[name]
    if np.any(bad):
        i = int(np.argmax(bad))
        problems.append(f"{label}: {np.count_nonzero(bad)} sampled values off "
                        f"the closed form, e.g. {got.flat[i]!r} vs {ref.flat[i]!r}")


def _table(problems: list, text: str, header: list, n_rows: int):
    try:
        got_header, rows = parse_csv(text)
    except ValueError as exc:
        problems.append(f"malformed CSV: {exc}")
        return None
    if got_header != header:
        problems.append(f"header {got_header} != {header}")
        return None
    if rows.shape[0] != n_rows:
        problems.append(f"{rows.shape[0]} rows, expected {n_rows}")
    if not np.all(np.isfinite(rows)):
        problems.append("non-finite cell")
        return None
    return rows


def check_timeseries(call, text: str, rng) -> tuple[list, int]:
    p = call.params
    oracle = call.extra.get("oracle", False)
    problems: list = []
    rows = _table(problems, text, ORACLE_HEADER if oracle else TIMESERIES_HEADER,
                  p["steps"])
    if rows is None:
        return problems, 0
    t = rows[:, 0]
    if not np.allclose(t, np.linspace(p["t_start"], p["t_end"], p["steps"]),
                       rtol=0.0, atol=1e-12 * max(1.0, p["t_end"])):
        problems.append("time column is not the requested grid")
    idx = _sample(rng, len(t))
    cf = closed_form(p, t[idx])
    for j, name in enumerate(TIMESERIES_HEADER[1:], 1):
        _compare(problems, name, rows[idx, j], cf, name)
    if oracle:
        dev = np.max(np.abs(rows[:, 6] - rows[:, 1]))
        if dev > ORACLE_CONCURRENCE_TOL:
            problems.append(f"concurrence_numeric off by {dev:.3e}")
        terr = np.max(rows[:, 7])
        if terr >= ORACLE_TRACE_TOL:
            problems.append(f"trace_error {terr:.3e}")
    return problems, len(rows)


def check_sweep2d(call, text: str, rng) -> tuple[list, int]:
    (n1, lo1, hi1), (n2, lo2, hi2) = call.extra["axes"]
    g1, g2 = call.extra["grid"]
    problems: list = []
    rows = _table(problems, text, [n1, n2, "concurrence"], g1 * g2)
    if rows is None:
        return problems, 0
    v1, v2 = np.meshgrid(np.linspace(lo1, hi1, g1), np.linspace(lo2, hi2, g2),
                         indexing="ij")
    if not (np.array_equal(rows[:, 0], v1.ravel())
            and np.array_equal(rows[:, 1], v2.ravel())):
        problems.append("sweep grid differs from the requested axes")
        return problems, len(rows)
    idx = _sample(rng, len(rows))
    p = dict(call.params)
    p[n1], p[n2] = rows[idx, 0], rows[idx, 1]
    cf = closed_form(p, call.extra["t_eval"])
    _compare(problems, "concurrence", rows[idx, 2], cf, "concurrence")
    return problems, len(rows)


def _drive(x: float, kappa: float) -> dict:
    return {"omega_c": x, "lam": x, "kappa": kappa}


#: The figures as the paper defines them: file, time range, then per data
#: column the observable and the parameters that differ from FIG_BASE.
FIG_BASE = dict(omega=2.0, omega0=1.9, g=1e-2, alpha_re=1.0, alpha_im=0.0)
FIGURES = {
    "fig2": [("fig2_upper.csv", (0.0, 300.0), [
                ("concurrence_k0", "concurrence", _drive(0.0, 0.0)),
                ("concurrence_k1e-04", "concurrence", _drive(0.0, 1e-4)),
                ("concurrence_k1e-03", "concurrence", _drive(0.0, 1e-3))]),
             ("fig2_lower.csv", (0.0, 300.0), [
                ("concurrence_undriven", "concurrence", _drive(0.0, 1e-3)),
                ("concurrence_driven", "concurrence", _drive(0.2, 1e-3))])],
    "fig3": [("fig3.csv", (0.0, 200.0), [
                ("photon_number_k1e-04", "photon_number", dict(kappa=1e-4)),
                ("photon_number_k1e-03", "photon_number", dict(kappa=1e-3))])],
    "fig4": [("fig4.csv", (0.0, 300.0), [
                ("linear_entropy_undriven", "linear_entropy", _drive(0.0, 1e-3)),
                ("linear_entropy_driven", "linear_entropy", _drive(0.5, 1e-3))])],
}
FIG_STEPS = 600
FIG1_GRID = (101, 101)


def check_fig(call, text: str, rng) -> tuple[list, int]:
    outdir = call.extra["outdir"]
    problems: list = []
    n_rows = 0
    if call.kind == "fig1":
        with open(os.path.join(outdir, "fig1.csv")) as fh:
            rows = _table(problems, fh.read(), ["lambda", "kappa", "concurrence"],
                          FIG1_GRID[0] * FIG1_GRID[1])
        if rows is None:
            return problems, 0
        idx = _sample(rng, len(rows))
        p = dict(call.params, **FIG_BASE, omega_c=0.0,
                 lam=rows[idx, 0], kappa=rows[idx, 1])
        cf = closed_form(p, 1.0 / FIG_BASE["g"])
        _compare(problems, "fig1 concurrence", rows[idx, 2], cf, "concurrence")
        return problems, len(rows)
    for fname, (t0, t1), columns in FIGURES[call.kind]:
        with open(os.path.join(outdir, fname)) as fh:
            rows = _table(problems, fh.read(), ["t"] + [c[0] for c in columns],
                          FIG_STEPS)
        if rows is None:
            continue
        n_rows += len(rows)
        idx = _sample(rng, len(rows))
        t = rows[idx, 0]
        if not np.allclose(rows[:, 0], np.linspace(t0, t1, FIG_STEPS),
                           rtol=0.0, atol=1e-12 * t1):
            problems.append(f"{fname}: time column is not the figure's grid")
        for j, (label, observable, over) in enumerate(columns, 1):
            cf = closed_form(dict(call.params, **FIG_BASE, **over), t)
            _compare(problems, f"{fname} {label}", rows[idx, j], cf, observable)
    return problems, n_rows


def check_verify(call, text: str, code: int) -> tuple[list, list, int]:
    """(problems, FAIL lines, verdict rows) of one verify call.

    A FAIL line is the program's own verdict; it fails the call but is no
    fault of the output format.  Problems are outputs the CLI documents
    otherwise: lines other than PASS/FAIL verdicts, or an exit code that
    disagrees with the verdicts.
    """
    lines = text.splitlines()
    problems = [f"unexpected line {ln!r}" for ln in lines
                if not ln.startswith(("PASS ", "FAIL "))]
    fails = [ln for ln in lines if ln.startswith("FAIL ")]
    if not lines:
        problems.append("no verdict lines")
    if code != (1 if fails else 0):
        problems.append(f"exit code {code} with {len(fails)} FAIL lines")
    return problems, fails, len(lines)


def check(call, text: str, code: int, rng) -> tuple[list, list, int]:
    """(problems, FAIL verdicts, rows) of one call."""
    if call.kind == "verify":
        return check_verify(call, text, code)
    if code != 0:
        return [f"exit code {code}"], [], 0
    if call.kind == "timeseries":
        problems, rows = check_timeseries(call, text, rng)
    elif call.kind == "sweep2d":
        problems, rows = check_sweep2d(call, text, rng)
    else:
        problems, rows = check_fig(call, text, rng)
    return problems, [], rows
