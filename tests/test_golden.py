"""Replay of pinned command-line outputs.

Each case under tests/golden/<case>/ holds the exit code, the standard
output and any files a subcommand wrote.  Metadata lines, headers, verdict
lines, exit codes and NaN cells must match exactly; numbers must agree
within RTOL/ATOL (a number passes if either bound holds).  The pinned
concurrences were written when the closed form took 1 - |tau|^2 as a
difference, which cancels as |tau| -> 1 before sqrt amplifies it; it is now
-expm1(-|alpha_plus - alpha_minus|^2), and the two differ by up to 1.9e-14
absolute (5.1e-12 relative, a concurrence of 3.7e-3 in timeseries_driven).
The time grids are coarse (first t > 0 at 5 or more) to keep that error
far below the tolerance.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py

which keeps every pinned line that still passes and rewrites the others.
"""

import contextlib
import io
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest

from drivenjc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = ATOL = 1e-12

CASES = {
    "params_default": ["params"],
    "params_driven": ["params", "--lambda", "0.2", "--omega-c", "0.2"],
    "timeseries_lossless": ["timeseries", "--kappa", "0", "--steps", "61"],
    "timeseries_decay": ["timeseries", "--kappa", "1e-3", "--steps", "61"],
    "timeseries_driven": ["timeseries", "--lambda", "0.5", "--omega-c", "0.5",
                          "--steps", "61"],
    "timeseries_oracle": ["timeseries", "--oracle", "--steps", "5",
                          "--t-end", "60"],
    # the benchmark's large oracle call, N = 38
    "timeseries_oracle_nmax37": ["timeseries", "--oracle", "--nmax", "37",
                                 "--alpha-re", "2.5", "--lambda", "0.2",
                                 "--omega-c", "0.2", "--steps", "120",
                                 "--t-end", "60"],
    # |alpha| = 1e-3: the coherent amplitudes underflow to exact zeros above
    # n = 86, so the field's support, 87 levels, is below N = 121
    "timeseries_oracle_short_support": ["timeseries", "--oracle",
                                        "--alpha-re", "1e-3", "--nmax", "120",
                                        "--steps", "5"],
    # lambda = 0 makes delta2 exactly 0 at omega = 1.9: NaN cells
    "sweep2d_degenerate": ["sweep2d", "--omega", "1.9",
                           "--axis1", "lambda:0:0.5", "--axis2", "kappa:0:5e-3",
                           "--grid", "6x3"],
    "fig1": ["fig1", "--grid", "11x6"],
    "fig2": ["fig2", "--steps", "41"],
    "fig3": ["fig3", "--steps", "41"],
    "fig4": ["fig4", "--steps", "41"],
    "verify": ["verify", "--t-end", "120"],
    "params_degenerate": ["params", "--omega", "1.9"],
    "timeseries_one_step": ["timeseries", "--steps", "1"],
    "sweep2d_bad_axis": ["sweep2d", "--axis1", "foo:0:1", "--axis2", "kappa:0:1"],
}

#: verify's deviations are rounding-level numbers of its exact routes;
#: only verdicts and names are pinned
_NOISE = re.compile(r"(pairwise_dev|dyad_err|max_dev)=\S+")
_TOKENS = re.compile(r"([\s,=()]+)")


def run_case(name, outdir: Path) -> dict:
    """{file name: text} of one case: exit_code, stdout, written files."""
    argv = list(CASES[name])
    if argv[0].startswith("fig"):
        argv += ["--output", str(outdir)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    stdout = out.getvalue()
    if argv[0] == "verify":
        stdout = _NOISE.sub(r"\1=*", stdout)
    files = {"exit_code": f"{code}\n", "stdout": stdout}
    if argv[0].startswith("fig"):
        files.update({p.name: p.read_text() for p in sorted(outdir.iterdir())})
    return files


def _same_token(want: str, got: str) -> bool:
    try:
        a, b = float(want), float(got)
    except ValueError:
        return want == got
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def _same_line(want: str, got: str) -> bool:
    """Whether `got` passes against the pinned line `want`: a metadata line
    exactly, any other token by token."""
    if want.startswith("#"):
        return got == want
    wt, gt = _TOKENS.split(want), _TOKENS.split(got)
    return len(gt) == len(wt) and all(map(_same_token, wt, gt))


def assert_same_text(want: str, got: str, label: str) -> None:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    assert len(got_lines) == len(want_lines), f"{label}: line count"
    for i, (w, g) in enumerate(zip(want_lines, got_lines), 1):
        assert _same_line(w, g), f"{label}:{i}: {g!r} != {w!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, tmp_path):
    want_dir = GOLDEN / name
    got = run_case(name, tmp_path)
    assert sorted(got) == sorted(p.name for p in want_dir.iterdir())
    for fname, text in got.items():
        assert_same_text((want_dir / fname).read_text(), text, f"{name}/{fname}")


def kept_lines(want: str, got: str) -> str:
    """`got`, with each line that passes against its pinned line of `want`
    kept as pinned, so that a regeneration moves only the lines that fail;
    a changed line count takes `got` whole."""
    want_lines, got_lines = want.splitlines(True), got.splitlines(True)
    if len(want_lines) != len(got_lines):
        return got
    return "".join(w if _same_line(w, g) else g
                   for w, g in zip(want_lines, got_lines))


def regenerate() -> None:
    for name in CASES:
        target = GOLDEN / name
        pinned = {p.name: p.read_text() for p in target.glob("*")}
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(name, Path(tmp))
        for fname, text in files.items():
            (target / fname).write_text(kept_lines(pinned.get(fname, ""), text))


def test_regeneration_keeps_passing_lines():
    pinned = "# a = 1\nt,c\n0,0.53562050171270115\n5,nan\n"
    got = "# a = 2\nt,c\n0,0.53562050171270126\n5,0.5\n"
    assert kept_lines(pinned, got) == (
        "# a = 2\nt,c\n0,0.53562050171270115\n5,0.5\n")
    assert kept_lines(pinned, "t,c\n") == "t,c\n"


if __name__ == "__main__":
    regenerate()
