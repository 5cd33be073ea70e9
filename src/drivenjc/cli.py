"""Command-line front end emitting CSV.

Subcommands: params | timeseries | sweep2d | fig1 | fig2 | fig3 | fig4 | verify.
Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 numerical
failure.  Option precedence: command-line flag > config file > built-in
default.  The Fock-space oracle (`liouville`) is imported only by the
commands that run it: `timeseries --oracle` and `verify`.  No command loads
scipy.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import signal
import sys

import numpy as np

from . import analytic, entanglement, model

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

#: Options of every subcommand: (name, type, default, sweepable, help).  The
#: name is the config-file and metadata key; the flag is --name with dashes.
OPTIONS = (
    ("omega", float, 2.0, True, "cavity frequency"),
    ("omega0", float, 1.9, True, "atomic transition frequency"),
    ("omega_c", float, 0.0, True, "classical drive frequency"),
    ("g", float, 1e-2, True, "atom-cavity coupling"),
    ("lambda", float, 0.0, True, "drive coupling"),
    ("kappa", float, 1e-3, True, "cavity decay rate"),
    ("alpha_re", float, 1.0, True, "Re of initial coherent amplitude"),
    ("alpha_im", float, 0.0, True, "Im of initial coherent amplitude"),
    ("c0_re", float, 1.0 / math.sqrt(2.0), False, "Re of dressed |0> amplitude"),
    ("c0_im", float, 0.0, False, "Im of dressed |0> amplitude"),
    ("c1_re", float, 1.0 / math.sqrt(2.0), False, "Re of dressed |1> amplitude"),
    ("c1_im", float, 0.0, False, "Im of dressed |1> amplitude"),
    ("t_start", float, 0.0, False, "first sample time"),
    ("t_end", float, 300.0, False, "last sample time"),
    ("steps", int, 600, False, "number of time samples"),
    ("nmax", int, None, False, "Fock truncation override"),
)


def _key(name: str) -> str:
    """Config key of an option, flag or axis name; `lambda` is stored as `lam`."""
    name = name.replace("-", "_")
    return "lam" if name == "lambda" else name


_SPEC = {_key(opt[0]): opt for opt in OPTIONS}
_SWEEPABLE = tuple(key for key, opt in _SPEC.items() if opt[3])


def _drive(x: float, kappa: float) -> dict:
    return dict(omega_c=x, lam=x, kappa=kappa)


#: figure -> files (name, row axes, observable, {column suffix: overrides}).
#: A row axis (header, low, high) takes --grid points in fig1, --steps points
#: otherwise; `t` is time, any other name an option, evaluated at t = 1/g.
FIGURES = {
    "fig1": [
        ("fig1.csv", [("lambda", 0.0, 1.0), ("kappa", 0.0, 5e-3)],
         "concurrence", {"": {}})],
    "fig2": [
        ("fig2_upper.csv", [("t", 0.0, 300.0)], "concurrence",
         {"_k0": _drive(0.0, 0.0), "_k1e-04": _drive(0.0, 1e-4),
          "_k1e-03": _drive(0.0, 1e-3)}),
        ("fig2_lower.csv", [("t", 0.0, 300.0)], "concurrence",
         {"_undriven": _drive(0.0, 1e-3), "_driven": _drive(0.2, 1e-3)})],
    "fig3": [
        ("fig3.csv", [("t", 0.0, 200.0)], "photon_number",
         {"_k1e-04": dict(kappa=1e-4), "_k1e-03": dict(kappa=1e-3)})],
    "fig4": [
        ("fig4.csv", [("t", 0.0, 300.0)], "linear_entropy",
         {"_undriven": _drive(0.0, 1e-3), "_driven": _drive(0.5, 1e-3)})],
}
_FIG_NOTES = {
    "fig4.csv": "# note: emits linear entropy; the source figure caption says "
                "concurrence but the surrounding text describes linear entropy",
}


def _number(name: str, kind: type, text: str):
    """Convert one option value, from a flag or a config file; floats must
    be finite."""
    value = kind(text)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key = _key(key.strip())
            if key not in _SPEC:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _number(*_SPEC[key][:2], val.strip())
    return values


def build_config(args: argparse.Namespace) -> dict:
    """Option key -> value, from flags, then the config file, then defaults."""
    file_values = _read_config_file(args.config) if args.config else {}
    cfg = {}
    for key, (name, kind, default, _, _) in _SPEC.items():
        flag = getattr(args, key)
        cfg[key] = (_number(name, kind, flag) if flag is not None
                    else file_values.get(key, default))
    return cfg


def model_params(cfg: dict, **over) -> model.ModelParams:
    """ModelParams of cfg with `over` applied; values may be arrays."""
    v = {**cfg, **over}
    return model.ModelParams(
        omega=v["omega"], omega0=v["omega0"], omega_c=v["omega_c"], g=v["g"],
        lam=v["lam"], kappa=v["kappa"], alpha=v["alpha_re"] + 1j * v["alpha_im"],
        c0=complex(v["c0_re"], v["c0_im"]), c1=complex(v["c1_re"], v["c1_im"]),
    )


def _nmax(cfg: dict) -> int:
    """The explicit --nmax, checked, else the default for |alpha|."""
    if cfg["nmax"] is not None:
        return model.check_nmax(cfg["nmax"])
    return model.default_nmax(complex(cfg["alpha_re"], cfg["alpha_im"]))


def _default_t_eval(cfg: dict) -> float:
    """1/g, the evaluation time of `sweep2d` and `fig1` unless one is given."""
    if cfg["g"] == 0:
        raise ValueError("t_eval defaults to 1/g, undefined at g = 0")
    return 1.0 / cfg["g"]


def _steps(cfg: dict) -> int:
    if cfg["steps"] < 2:
        raise ValueError("steps must be >= 2")
    return cfg["steps"]


def _time_range(cfg: dict) -> tuple[float, float]:
    """(t_start, t_end) of a forward time grid from t = 0."""
    if not 0 <= cfg["t_start"] <= cfg["t_end"]:
        raise ValueError("time grid needs 0 <= t_start <= t_end")
    return cfg["t_start"], cfg["t_end"]


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _metadata_lines(cfg: dict, **extra) -> list[str]:
    items = {opt[0]: cfg[key] for key, opt in _SPEC.items()}
    items["nmax"] = _nmax(cfg)
    items.update(extra)
    return [f"# {k} = {_fmt(v)}" for k, v in items.items()]


def _require_finite(values, degenerate=False):
    """`values`, unless a cell outside the degenerate points is inf or NaN."""
    if np.any(~np.isfinite(values) & ~np.asarray(degenerate)):
        raise FloatingPointError("evaluation overflowed to non-finite values")
    return values


def _write_csv(output, meta: list[str], header: list[str], rows,
               axes=()) -> None:
    """Write metadata, header and `rows` (2-D) with every cell as `%.17g`.

    With `axes` (1-D point arrays, the first outermost), the table is their
    product grid: each row is one grid point's coordinates followed by its
    row of `rows`.  Each axis point is formatted once into the template as
    literal text: the innermost axis by one `%` pass that keeps the value
    placeholders (escaped as `%%`), each outer point by one `replace` that
    prefixes a copy of the inner block.  One `%` then fills only the cells
    of `rows`.  The bytes equal per-cell `format(v, ".17g")` of the expanded
    table, which shares the conversion.
    """
    line = ",".join(["%.17g"] * rows.shape[1])
    if axes:
        *outer, inner = axes
        block = (("\n%.17g," + line.replace("%", "%%")) * len(inner)
                 % tuple(inner.tolist()))
        for points in reversed(outer):
            block = "".join([block.replace("\n", "\n%.17g," % x)
                             for x in points.tolist()])
    else:
        block = ("\n" + line) * rows.shape[0]
    text = "\n".join([*meta, ",".join(header)])
    text += block % tuple(rows.ravel().tolist()) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _observables(p: model.ModelParams, d: model.DerivedParams, t) -> dict:
    """The closed-form CSV columns, broadcast over the parameters and t."""
    s = analytic.evolve(p, d, t)
    return {
        "concurrence": analytic.concurrence_analytic(s),
        "linear_entropy": analytic.linear_entropy_analytic(s),
        "photon_number": analytic.photon_number(p, t),
        "abs_f": np.abs(s.f),
        "abs_tau": np.abs(s.tau),
    }


def _grid(cfg: dict, axes, counts, observable: str, columns: dict, t_eval):
    """Header, axis points and values of `observable` on the product grid of
    `axes`, as `_write_csv` takes them.

    Each axis (header, low, high) takes `counts` points along one array
    dimension, and each column its option overrides along the last one; the
    values are one row per grid point, the last axis fastest.  Degenerate
    points give NaN cells, counted in a warning on stderr.
    """
    ndim = len(axes) + 1
    points = [np.linspace(lo, hi, n) for (_, lo, hi), n in zip(axes, counts)]
    grid = {_key(name): x.reshape([-1 if j == i else 1 for j in range(ndim)])
            for i, ((name, _, _), x) in enumerate(zip(axes, points))}
    cols = list(columns.values())
    grid.update({key: np.reshape([c[key] for c in cols], [1] * len(axes) + [-1])
                 for key in cols[0]})
    t = grid.pop("t", t_eval)
    p = model_params(cfg, **grid)
    d = model.derive_params(p)
    shape = [*counts, len(cols)]
    value = np.broadcast_to(_observables(p, d, t)[observable], shape)
    degenerate = np.broadcast_to(d.degenerate, shape)
    _require_finite(value, degenerate)
    # the photon number does not depend on delta2: finite, and not counted
    ndegenerate = np.count_nonzero(degenerate & np.isnan(value))
    if ndegenerate:
        print(f"warning: {ndegenerate} of {value.size} cells "
              f"degenerate (|delta2| < {model.EPS_DIV:g}), written as NaN",
              file=sys.stderr)
    header = [name for name, _, _ in axes] + [observable + s for s in columns]
    return header, points, value.reshape(-1, len(cols))


def _parse_axis(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"axis must be name:min:max, got {text!r}")
    key = _key(parts[0])
    if key not in _SWEEPABLE:
        raise ValueError(f"cannot sweep {key!r}; choose one of {_SWEEPABLE}")
    lo, hi = (_number(key, float, x) for x in parts[1:])
    if hi < lo:
        raise ValueError(f"axis bounds out of order in {text!r}")
    return key, lo, hi


def _parse_grid(text: str):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"grid must be <n1>x<n2>, got {text!r}")
    n1, n2 = int(parts[0]), int(parts[1])
    if n1 < 1 or n2 < 1:
        raise ValueError("grid sizes must be >= 1")
    return n1, n2


def cmd_params(args) -> int:
    cfg = build_config(args)
    _nmax(cfg)
    p = model_params(cfg)
    d = model.derive_params(p)
    n_typ = math.ceil(abs(p.alpha) ** 2)
    ratio = model.dispersive_ratio(d, n_typ)
    report = {name: getattr(d, name) for name in (
        "delta1", "Omega1", "theta", "g_prime", "omega_prime", "delta2",
        "Omega_eff")}
    report[f"dispersive_ratio(n={model.short_int(n_typ)})"] = ratio
    _require_finite(list(report.values()))
    for name, value in report.items():
        print(f"{name:<11} = {_fmt(value)}")
    if ratio > model.DISPERSIVE_THRESHOLD:
        print(
            f"warning: dispersive ratio {ratio:.3g} exceeds threshold "
            f"{model.DISPERSIVE_THRESHOLD}; dispersive treatment questionable",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_timeseries(args) -> int:
    cfg = build_config(args)
    p = model_params(cfg)
    d = model.derive_params(p)
    grid = *_time_range(cfg), _steps(cfg)
    times = np.linspace(*grid)
    columns = {"t": times, **_observables(p, d, times)}
    if args.oracle:
        from . import liouville
        conc, _, _, terr = liouville.oracle_series(p, d, *grid, _nmax(cfg))
        columns.update(concurrence_numeric=conc, trace_error=terr)
        phase = _phase(p, d, grid[1])
    rows = _require_finite(np.column_stack(list(columns.values())))
    # after every check, so that a run that fails prints only its error
    if args.oracle and phase > VERIFY_PHASE_LIMIT:
        print(f"warning: oracle phase |Omega_eff| min(t_end, 1/kappa) = "
              f"{phase:.3g} rad exceeds {VERIFY_PHASE_LIMIT:g}, the largest "
              "verify resolves; concurrence_numeric may miss its 1e-8 gate",
              file=sys.stderr)
    _write_csv(args.output, _metadata_lines(cfg, oracle=int(args.oracle)),
               list(columns), rows)
    return EXIT_OK


def cmd_sweep2d(args) -> int:
    cfg = build_config(args)
    axes = [_parse_axis(args.axis1), _parse_axis(args.axis2)]
    if axes[0][0] == axes[1][0]:
        raise ValueError(f"axis1 and axis2 both sweep {axes[0][0]!r}")
    counts = _parse_grid(args.grid)
    t_eval = (_default_t_eval(cfg) if args.t_eval is None
              else _number("t_eval", float, args.t_eval))
    header, points, values = _grid(cfg, axes, counts, "concurrence", {"": {}},
                                   t_eval)
    meta = _metadata_lines(cfg, axis1=args.axis1, axis2=args.axis2,
                           grid="{}x{}".format(*counts), t_eval=t_eval)
    _write_csv(args.output, meta, header, values, points)
    return EXIT_OK


def cmd_fig(args) -> int:
    outdir = args.output if args.output else "."
    cfg = build_config(args)
    for name, axes, observable, columns in FIGURES[args.command]:
        if axes[0][0] == "t":
            counts, t_eval, extra = [_steps(cfg)], None, {}
        else:
            counts, t_eval = _parse_grid(args.grid), _default_t_eval(cfg)
            extra = dict(grid="{}x{}".format(*counts), t_eval=t_eval)
        header, points, values = _grid(cfg, axes, counts, observable, columns,
                                       t_eval)
        meta = _metadata_lines(cfg, **extra)
        if name in _FIG_NOTES:
            meta.insert(0, _FIG_NOTES[name])
        os.makedirs(outdir, exist_ok=True)
        _write_csv(os.path.join(outdir, name), meta, header, values, points)
    return EXIT_OK


#: times of verify's first stage, the disentangling check
DISENTANGLING_TIMES = (10.0, 100.0, 500.0)
#: largest phase |Omega_eff| min(t, 1/kappa) over verify's times that its
#: routes resolve in float64: a decade below 3.2e7 rad, where the concurrence
#: first misses its 1e-8 gate (kappa = 0, |alpha| = 18; 4.2e7 to 1e8 rad at
#: |alpha| = 0.5 to 4); beyond t ~ 1/kappa the field has decayed
VERIFY_PHASE_LIMIT = 3e6


def _phase(p: model.ModelParams, d: model.DerivedParams,
           horizon: float) -> float:
    """|Omega_eff| min(horizon, 1/kappa), the phase an oracle must follow
    over [0, horizon]; beyond t ~ 1/kappa the field has decayed."""
    return abs(d.Omega_eff) / max(1.0 / horizon if horizon else math.inf,
                                  p.kappa)


def cmd_verify(args) -> int:
    from . import liouville

    cfg = build_config(args)
    p = model_params(cfg)
    d = model.derive_params(p)
    _require_finite(d.Omega_eff)
    # bad oracle input exits 2 before any verdict is printed; stage 1's dyad
    # refuses an alpha whose default_nmax exceeds NMAX_LIMIT before its first
    # verdict
    grid = *_time_range(cfg), 16
    nmax = _nmax(cfg)
    liouville.coherent_vector(p.alpha, nmax)
    phase = _phase(p, d, max(grid[1], *DISENTANGLING_TIMES))
    if not phase <= VERIFY_PHASE_LIMIT:
        raise ValueError(f"verify resolves a phase |Omega_eff| min(t, 1/kappa) "
                         f"<= {VERIFY_PHASE_LIMIT:g} rad, got {phase:.3g}")
    ok = True

    # stage 1: the factorized exponentials against two independent routes
    for t in DISENTANGLING_TIMES:
        dev, dy = liouville.verify_disentangling(d.Omega_eff, p.kappa, t,
                                                 p.alpha)
        good = dev < 1e-8 and dy < 1e-10
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'} disentangling t={t:g} "
              f"pairwise_dev={dev:.3e} dyad_err={dy:.3e}")

    # stage 2: closed forms against the exactly propagated Lindblad oracle
    try:
        conc, entr, nbar, terr = liouville.oracle_series(p, d, *grid, nmax)
    except entanglement.InvalidDensityMatrix as exc:
        print(f"FAIL oracle integration: {exc}")
        return EXIT_VERIFY_FAIL
    closed = _observables(p, d, np.linspace(*grid))
    # the oracle's photon number is off by |alpha|^2 times its trace error,
    # the rounding of the coherent state, so its tolerance is per photon
    photons = max(1.0, abs(p.alpha) ** 2)
    checks = [
        ("concurrence", np.max(np.abs(closed["concurrence"] - conc)), 1e-8),
        ("linear_entropy", np.max(np.abs(closed["linear_entropy"] - entr)), 1e-12),
        ("photon_number", np.max(np.abs(closed["photon_number"] - nbar)),
         1e-12 * photons),
        ("trace_error", np.max(terr), 1e-8),
    ]
    for name, dev, tol in checks:
        good = dev < tol
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'} oracle {name} max_dev={dev:.3e} "
              f"(tol {tol:.3g})")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


COMMANDS = {
    "params": (cmd_params, "report derived parameters"),
    "timeseries": (cmd_timeseries, "time series of observables"),
    "sweep2d": (cmd_sweep2d, "2-D parameter sweep of concurrence"),
    **{name: (cmd_fig, f"emit figure-{name[3:]} CSV data") for name in FIGURES},
    "verify": (cmd_verify, "run the numerical cross-checks"),
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by `main`.

    `parse_args` returns a fresh Namespace on every call, so no value
    carries from one call to the next; callers must not modify the parser.
    """
    parser = argparse.ArgumentParser(
        prog="drivenjc",
        description="Dissipative dynamics and entanglement of a classically "
                    "driven atom in a lossy cavity; all outputs are CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for command, (_, text) in COMMANDS.items():
        p = parsers[command] = sub.add_parser(command, help=text)
        for name, _, _, _, helptext in OPTIONS:
            p.add_argument("--" + name.replace("_", "-"), dest=_key(name),
                           help=helptext)
        p.add_argument("--config", help="key=value config file")
        if command not in ("params", "verify"):
            p.add_argument("--output",
                           help="output path (default stdout / cwd for figs)")
    parsers["timeseries"].add_argument("--oracle", action="store_true",
                                       help="add Lindblad-integrated columns")
    parsers["sweep2d"].add_argument("--axis1", required=True, help="name:min:max")
    parsers["sweep2d"].add_argument("--axis2", required=True, help="name:min:max")
    parsers["sweep2d"].add_argument("--t-eval", dest="t_eval",
                                    help="evaluation time (default 1/g)")
    for command in ("sweep2d", "fig1"):
        parsers[command].add_argument("--grid", default="101x101", help="<n1>x<n2>")
    return parser


#: A negative number, which argparse reads as a flag when it has an exponent.
_NEGATIVE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with `--flag -1e-3` written `--flag=-1e-3`, so that argparse takes
    every negative number after a flag as its value."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NEGATIVE.match(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = make_parser().parse_args(_attach_negative_values(argv))
    try:
        with np.errstate(all="ignore"):
            return COMMANDS[args.command][0](args)
    # no input is a density matrix: an invalid one is the oracle's own state
    except (ArithmeticError, MemoryError, entanglement.InvalidDensityMatrix) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    # A reader that closes the pipe early (`drivenjc verify | head -1`) ends
    # the process quietly, as it ends a Unix filter, instead of reading as
    # invalid input.  Windows has no SIGPIPE.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
