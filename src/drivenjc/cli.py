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


def _number(name: str, kind: type, text: str, where: str = ""):
    """Convert one option value, from a flag or a config file; floats must
    be finite.  An error names the option, after `where` ("path:line: " of
    a config file)."""
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}{name} must be {what}, got {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{where}{name} must be finite, got {text!r}")
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
            values[key] = _number(*_SPEC[key][:2], val.strip(),
                                  f"{path}:{lineno}: ")
    return values


def build_config(args: argparse.Namespace) -> dict:
    """Option key -> value, from flags, then the config file, then defaults."""
    file_values = _read_config_file(args.config) if args.config else {}
    cfg = {}
    for key, (name, kind, default, _, _) in _SPEC.items():
        flag = getattr(args, key)
        cfg[key] = (_number(name, kind, flag) if flag is not None
                    else file_values.get(key, default))
    if cfg["nmax"] is not None:     # every command, also where no oracle runs
        model.check_nmax(cfg["nmax"])
    return cfg


def model_params(cfg: dict, **over) -> model.ModelParams:
    """ModelParams of cfg with `over` applied; values may be arrays."""
    v = {**cfg, **over}
    return model.ModelParams(
        omega=v["omega"], omega0=v["omega0"], omega_c=v["omega_c"], g=v["g"],
        lam=v["lam"], kappa=v["kappa"], alpha=v["alpha_re"] + 1j * v["alpha_im"],
        c0=complex(v["c0_re"], v["c0_im"]), c1=complex(v["c1_re"], v["c1_im"]),
    )


def _default_t_eval(cfg: dict) -> float:
    """1/g, the evaluation time of `sweep2d` and `fig1` unless one is given."""
    if cfg["g"] == 0 or 1.0 / cfg["g"] == math.inf:
        raise ValueError("t_eval defaults to 1/g, undefined at g = "
                         f"{abs(cfg['g']):.3g}")
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
    items = {opt[0]: cfg[key] for key, opt in _SPEC.items() if key != "nmax"}
    return [f"# {k} = {_fmt(v)}" for k, v in {**items, **extra}.items()]


def _require_finite(values, degenerate=False):
    """`values`, unless a cell outside the degenerate points is inf or NaN."""
    if np.any(~np.isfinite(values) & ~np.asarray(degenerate)):
        raise FloatingPointError("evaluation overflowed to non-finite values")
    return values


#: a CSV cell's text as six little-endian words, each slot but digit 16 and
#: the separator looked up in a table of `_cell_tables`: sign and "0.000"
#: prefix; digits 0-15 each followed by a gap byte that may hold the point;
#: digit 16, its gap, "e+XXX" and the separator.  Zero bytes are dropped.
_WORD = np.dtype("<u8")
#: Dekker's splitter 2^27 + 1: x = head + tail exactly, each of 26 bits
_SPLITTER = 134217729.0
#: values per formatting block of `_write_csv`, which bounds its buffers
_CSV_BLOCK = 4096
#: largest |E| of the tables of `_cells`: a decade beyond |v| <= 1e280
_CELL_E = 282


@functools.cache
def _cell_tables():
    """Lookup tables of `_cells`, built exactly on first use: 10^(16 - E),
    4-digit groups, kept-digit and point masks, prefix and exponent words."""
    # 10^k = hi + lo as a pair of doubles, k = 16 - E for |E| <= _CELL_E,
    # at index _CELL_E - E
    hi, lo = [], []
    for k in range(16 - _CELL_E, 17 + _CELL_E):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        hi.append(num / den)
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    scaled = hi * _SPLITTER
    head = scaled - (scaled - hi)
    # each 4-digit group g as digit bytes with empty gaps, and at 10000 j + g
    # its number of digits up to the last nonzero one (-99 if none) plus 4 j
    group = np.arange(10000)
    pairs = np.zeros((10000, 8), np.uint8)
    pairs[:, ::2] = 48 + group[:, None] // [1000, 100, 10, 1] % 10
    sig = np.where(group, 4 - sum(group % 10 ** j == 0 for j in (1, 2, 3)),
                   -99) + 4 * np.arange(4)[:, None]
    # words 1-5 of a cell that keeps its first k digits, k = 0..17, and
    # words 1-4 with the point in the gap after digit k - 1 (none at 0, 17)
    k, byte = np.arange(18)[:, None], np.arange(40)
    keep = np.where((byte % 2 == 0) & (byte >= 2 * k) & (byte < 34), 0, 255)
    point = np.where(byte[:32] == 2 * k - 1, ord("."), 0)
    # word 0: the sign, and "0." and zeros for -4 <= E < 0, at index
    # 5 sign - E; word 5: "e+XX" after digit 16 and its gap, at index
    # E + _CELL_E + 1, and no exponent at index 0
    prefix = [b"-" * s + (b"0." + b"0" * (z - 1)) * (z > 0)
              for s in (0, 1) for z in range(5)]
    exponent = [b""] + [b"\0\0e" + s[:1] + s[1:].rjust(3, b"\0")
                        for s in (b"%+03d" % e
                                  for e in range(-_CELL_E, _CELL_E + 1))]
    words = [np.frombuffer(b"".join(s.ljust(8, b"\0") for s in strings),
                           _WORD) for strings in (prefix, exponent)]
    tables = (hi, head, hi - head, np.array(lo), pairs.view(_WORD)[:, 0],
              sig.astype(np.int8).ravel(),
              *[w.astype(np.uint8).view(_WORD).T.copy()
                for w in (keep, point)], *words)
    for table in tables:   # shared by every call
        table.setflags(write=False)
    return tables


def _cells(x):
    """`'%.17g' % v` of each value of 1-D float64 `x`, as (6, len(x)) words
    of `_WORD` layout, the separator byte left empty.

    For 0 and 1e-280 <= |v| <= 1e280, E = floor(log10 |v|) and
    D = rint(|v| 10^(16 - E)): Dekker's TwoProduct of |v| with the leading
    double of a double-double 10^(16 - E) is exact, and |v| times its trailing
    double is added, so the fraction of |v| 10^(16 - E) is known to about
    2^-47.  Lookups make the `%g` text of D and E: its 4-digit groups,
    kept-digit mask, point, prefix and exponent.  The cells this cannot decide
    go through `%`: a fraction within 1e-9 of 1/2, a D outside [10^16, 10^17)
    (log10 put E in the wrong decade, or D carried to 10^17), nan, inf and |v|
    outside that range.
    """
    hi, head, tail, lo, pairs, sig, keep_mask, point_mask, prefix, exponent = \
        _cell_tables()
    n = len(x)
    ax = np.abs(x)
    zero = ax == 0
    ok = (ax >= 1e-280) & (ax <= 1e280)
    a = np.where(ok, ax, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    k = _CELL_E - e
    p = a * hi[k]
    a_head = a * _SPLITTER
    a_head -= a_head - a
    a_tail = a - a_head
    h_head, h_tail = head[k], tail[k]
    r = (((a_head * h_head - p) + a_head * h_tail + a_tail * h_head)
         + a_tail * h_tail + a * lo[k])
    floor = np.floor(r)
    frac = r - floor
    whole = p.astype(np.int64) + floor.astype(np.int64)
    d = whole + (frac > 0.5)
    slow = ~zero & (~ok | (np.abs(frac - 0.5) < 1e-9) | (whole < 10 ** 16)
                    | (d >= 10 ** 17))
    d[zero | slow] = 0
    # D as four 4-digit groups and a last digit
    groups = np.empty((4, n), np.int64)
    rest, last = np.divmod(d, 10)
    top, low = np.divmod(rest, 10 ** 8)
    np.divmod(top, 10000, out=tuple(groups[:2]))
    np.divmod(low, 10000, out=tuple(groups[2:]))
    fixed = (e >= -4) & (e < 17)
    # m digits stand before the point; trailing zeros after it are dropped
    m = np.where(fixed, np.maximum(e + 1, 0), 1)
    keep = np.maximum(sig.take(groups + 10000 * np.arange(4)[:, None]).max(0),
                      np.where(last > 0, 17, m))
    words = np.empty((6, n), _WORD)
    words[0] = prefix.take(5 * np.signbit(x) + np.where(fixed & (e < 0), -e, 0))
    words[1:5] = pairs.take(groups)
    words[5] = 48 + last
    words[1:] &= keep_mask.take(keep, axis=1)
    words[1:5] |= point_mask.take(np.where(keep > m, m, 0), axis=1)
    words[5] |= exponent.take(np.where(fixed, 0, e + _CELL_E + 1))
    if slow.any():
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype="S48")
        words[:, slow] = np.frombuffer(text.tobytes(), _WORD).reshape(-1, 6).T
    return words


def _slots(x):
    """`'%.17g,' % v` of each value of 1-D `x`, zero-padded to one whole
    number of words for all: a (len(x), words) array of `_WORD`."""
    texts = [b"%.17g," % v for v in x.tolist()]
    size = -(-max(map(len, texts)) // 8) * 8
    return np.array(texts, f"S{size}").view(_WORD).reshape(len(x), -1)


def _write_csv(output, meta: list[str], header: list[str], rows,
               axes=()) -> None:
    """Write metadata, header and `rows` (2-D) with every cell as `%.17g`.

    With one or two `axes` (1-D point arrays, the first outermost), the
    table is their product grid: each row is one grid point's coordinates
    followed by its row of `rows`.  One axis is written as the first column
    of `rows`.  Of two, each axis point's text and separator is laid out
    once, in a slot of whole words (`_slots`), and row r copies the slots
    of points divmod(r, len(axes[1])).  The values are formatted by `_cells`
    in blocks of about `_CSV_BLOCK`, and the table is written once, whole.
    """
    if len(axes) == 1:
        rows, axes = np.column_stack([axes[0], rows]), ()
    nrow, ncol = rows.shape
    slots = [_slots(x) for x in axes]
    separators = np.full(ncol, ord(","), np.uint64)
    separators[-1:] = ord("\n")
    separators <<= np.uint64(56)
    parts = ["\n".join([*meta, ",".join(header), ""]).encode()]
    step = max(1, _CSV_BLOCK // max(ncol, 1))
    for start in range(0, nrow, step):
        values = np.asarray(rows[start:start + step], dtype=float)
        n = len(values)
        cells = _cells(values.ravel()).reshape(6, n, ncol)
        cells[5] |= separators
        block = cells.transpose(1, 2, 0)
        if slots:
            # each row as words: its coordinates' slots, then its value cells
            i, j = np.divmod(np.arange(start, start + n), len(axes[1]))
            block = np.hstack([slots[0].take(i, axis=0),
                               slots[1].take(j, axis=0), block.reshape(n, -1)])
        parts.append(block.tobytes().translate(None, b"\0"))
    text = b"".join(parts)
    if output is None:
        sys.stdout.write(text.decode())
    else:
        with open(output, "wb") as fh:
            fh.write(text)


#: the closed-form CSV columns: name -> value from the parameters p, the
#: snapshot s and the times t.  Each looks its `analytic` function up when it
#: is called, so that a patched function is the one evaluated.
_COLUMNS = {
    "concurrence": lambda p, s, t: analytic.concurrence_analytic(s),
    "linear_entropy": lambda p, s, t: analytic.linear_entropy_analytic(s),
    "photon_number": lambda p, s, t: analytic.photon_number(p, t),
    "abs_f": lambda p, s, t: np.exp(s.log_f.real),
    "abs_tau": lambda p, s, t: np.exp(
        -0.5 * np.abs(s.alpha_plus - s.alpha_minus) ** 2),
}


def _observables(p: model.ModelParams, d: model.DerivedParams, t,
                 names=tuple(_COLUMNS)) -> dict:
    """The closed-form CSV columns `names`, broadcast over the parameters
    and t; each is evaluated only if it is named, the snapshot only if a
    named column reads it."""
    s = (analytic.evolve(p, d, t) if set(names) != {"photon_number"}
         else None)
    return {name: _COLUMNS[name](p, s, t) for name in names}


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
    value = np.broadcast_to(_observables(p, d, t, [observable])[observable],
                            shape)
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
    n1, n2 = (_number("grid", int, part) for part in parts)
    if n1 < 1 or n2 < 1:
        raise ValueError("grid sizes must be >= 1")
    return n1, n2


def cmd_params(args) -> int:
    cfg = build_config(args)
    p = model_params(cfg)
    d = model.derive_params(p)
    ratio = model.domain(p, d)["ratio"]
    report = {name: getattr(d, name) for name in (
        "delta1", "Omega1", "theta", "g_prime", "omega_prime", "delta2",
        "Omega_eff")}
    n_typ = model.short_int(math.ceil(abs(p.alpha) ** 2))
    report[f"dispersive_ratio(n={n_typ})"] = ratio.value
    _require_finite(list(report.values()))
    for name, value in report.items():
        print(f"{name:<11} = {_fmt(value)}")
    if ratio.exceeded:
        print(f"warning: {ratio.message}", file=sys.stderr)
    return EXIT_OK


def cmd_timeseries(args) -> int:
    cfg = build_config(args)
    p = model_params(cfg)
    d = model.derive_params(p)
    grid = *_time_range(cfg), _steps(cfg)
    times = np.linspace(*grid)
    columns = {"t": times, **_observables(p, d, times)}
    extra = {}
    if args.oracle:
        from . import liouville
        domain = model.domain(p, d, grid[1])
        extra["nmax"] = cfg["nmax"] or domain["truncation"].value
        conc, _, _, terr = liouville.oracle_series(p, d, *grid, extra["nmax"])
        columns.update(concurrence_numeric=conc, trace_error=terr)
    rows = _require_finite(np.column_stack(list(columns.values())))
    # after every check, so that a run that fails prints only its error
    if args.oracle and domain["phase"].exceeded:
        print(f"warning: {domain['phase'].message}", file=sys.stderr)
    meta = _metadata_lines(cfg, **extra, oracle=int(args.oracle))
    _write_csv(args.output, meta, list(columns), rows)
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


def cmd_verify(args) -> int:
    from . import liouville

    cfg = build_config(args)
    p = model_params(cfg)
    d = model.derive_params(p)
    _require_finite(d.Omega_eff)
    grid = *_time_range(cfg), 16
    # exit 2 before any verdict; stage 1's dyad runs at the default truncation
    domain = model.domain(p, d, max(grid[1], *DISENTANGLING_TIMES))
    for record in (domain["truncation"], domain["phase"]):
        if record.exceeded:
            raise ValueError(record.message)
    nmax = cfg["nmax"] or domain["truncation"].value
    liouville.coherent_vector(p.alpha, nmax)
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
        print(f"FAIL oracle concurrence: the state projected onto the "
              f"closed-form branches is not a density matrix ({exc})")
        return EXIT_VERIFY_FAIL
    closed = _observables(p, d, np.linspace(*grid),
                          ["concurrence", "linear_entropy", "photon_number"])
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
