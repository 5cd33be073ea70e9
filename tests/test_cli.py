import contextlib
import io
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivenjc import analytic, cli, liouville, model
from drivenjc.cli import OPTIONS, main
from drivenjc.entanglement import InvalidDensityMatrix


def parse_report(text):
    values = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, val = line.rpartition("=")
            try:
                values[key.strip()] = float(val)
            except ValueError:
                pass
    return values


def read_csv(path):
    meta, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return meta, header, np.array(rows)


class TestParams:
    def test_reports_dispersive_shift(self, capsys):
        assert main(["params"]) == 0
        vals = parse_report(capsys.readouterr().out)
        assert vals["Omega_eff"] == pytest.approx(-1e-3, rel=1e-12)
        assert vals["theta"] == 0.0

    def test_driven_parameters(self, capsys):
        assert main(["params", "--lambda", "0.2", "--omega-c", "0.2"]) == 0
        vals = parse_report(capsys.readouterr().out)
        assert vals["Omega_eff"] == pytest.approx(-1.8171e-3, rel=1e-4)

    def test_degenerate_input_exits_2(self):
        assert main(["params", "--omega", "1.9"]) == 2

    @pytest.mark.parametrize("argv", [[], ["--alpha-re", "1e154"]])
    def test_short_lines(self, argv, capsys):
        # at |alpha| = 1e154 the photon number ceil(|alpha|^2) has 309
        # digits; the ratio's key names it by its digit count
        assert main(["params", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8 and all(len(line) < 80 for line in lines)
        if argv:
            assert lines[-1].startswith("dispersive_ratio(n=100... (309 digits))")


class TestTimeseries:
    def test_lossless_series(self, tmp_path):
        out = tmp_path / "ts.csv"
        rc = main(["timeseries", "--kappa", "0", "--t-end", "300",
                   "--steps", "61", "--output", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["t", "concurrence", "linear_entropy",
                          "photon_number", "abs_f", "abs_tau"]
        assert rows.shape == (61, 6)
        np.testing.assert_allclose(rows[:, 2], 0.0, atol=1e-14)  # entropy
        assert rows[:, 1].max() > 0.3  # concurrence oscillates up

    def test_decay_reduces_concurrence_maxima(self, tmp_path):
        outs = []
        for k in ("0", "1e-3"):
            out = tmp_path / f"ts_{k}.csv"
            main(["timeseries", "--kappa", k, "--t-end", "300",
                  "--steps", "121", "--output", str(out)])
            outs.append(read_csv(out)[2])
        assert outs[1][:, 1].max() < outs[0][:, 1].max()

    def test_photon_column(self, tmp_path):
        out = tmp_path / "ts.csv"
        main(["timeseries", "--kappa", "1e-3", "--t-start", "100",
              "--t-end", "100", "--steps", "2", "--output", str(out)])
        _, _, rows = read_csv(out)
        assert rows[0, 3] == pytest.approx(0.818731, abs=1e-6)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["timeseries", "--steps", "40", "--t-end", "120"]
        main(args + ["--output", str(a)])
        main(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_oracle_columns(self, tmp_path):
        out = tmp_path / "ts.csv"
        rc = main(["timeseries", "--oracle", "--steps", "5", "--t-end", "60",
                   "--output", str(out)])
        assert rc == 0
        meta, header, rows = read_csv(out)
        assert [line for line in meta if "nmax" in line] == ["# nmax = 20"]
        assert header[-2:] == ["concurrence_numeric", "trace_error"]
        np.testing.assert_allclose(rows[:, 6], rows[:, 1], atol=1e-6)
        assert rows[:, 7].max() < 1e-8

    def test_oracle_records_explicit_nmax(self, capsys):
        # the metadata records the truncation the oracle ran at
        assert main(["timeseries", "--oracle", "--nmax", "30", "--steps",
                     "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "nmax" in line] == ["# nmax = 30"]

    def test_bad_steps_exits_2(self):
        assert main(["timeseries", "--steps", "1"]) == 2

    @pytest.mark.parametrize("error", [FloatingPointError, OverflowError,
                                       InvalidDensityMatrix, None])
    def test_oracle_numerical_failure_exits_3(self, error, capsys, monkeypatch):
        # unpatched (None), the input is valid, but at Omega t = 1e11 rad the
        # oracle's state is no longer a density matrix within tolerance
        def failing(*args):
            raise error("oracle failed")

        if error is not None:
            monkeypatch.setattr(liouville, "oracle_series", failing)
        assert main(["timeseries", "--oracle", "--kappa", "0", "--t-end",
                     "1e14", "--steps", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]+\n", captured.err)

    @pytest.mark.parametrize("t_end, warned", [
        # |Omega_eff| t_end = 1e7 rad, above verify's bound; 1e6 rad, below
        ("1e10", True),
        ("1e9", False),
    ])
    def test_oracle_warns_above_verify_phase_limit(self, t_end, warned,
                                                   capsys):
        assert main(["timeseries", "--oracle", "--kappa", "0", "--t-end",
                     t_end, "--steps", "3"]) == 0
        captured = capsys.readouterr()
        assert "warning" not in captured.out
        if warned:
            assert re.fullmatch(r"warning: [^\n]*\b1e\+07 rad[^\n]*"
                                r"\b3e\+06\b[^\n]*\n", captured.err)
        else:
            assert captured.err == ""


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("omega0 = 1.5   # overrides default\n"
                           "kappa = 2e-3\n")
        # default layer
        main(["params"])
        vals = parse_report(capsys.readouterr().out)
        assert vals["delta1"] == pytest.approx(1.9)
        # config layer
        main(["params", "--config", str(cfgfile)])
        vals = parse_report(capsys.readouterr().out)
        assert vals["delta1"] == pytest.approx(1.5)
        # flag layer wins
        main(["params", "--config", str(cfgfile), "--omega0", "1.7"])
        vals = parse_report(capsys.readouterr().out)
        assert vals["delta1"] == pytest.approx(1.7)

    def test_unknown_key_exits_2(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("nonsense = 3\n")
        assert main(["params", "--config", str(cfgfile)]) == 2

    def test_nonfinite_value_exits_2(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("kappa = nan\n")
        assert main(["timeseries", "--config", str(cfgfile)]) == 2

    @pytest.mark.parametrize("text, error", [
        # blank and comment-only lines are skipped, but counted
        ("\n  # a comment\nsteps = 1e3\n",
         ":3: steps must be an integer, got '1e3'"),
        ("omega = abc\n", ":1: omega must be a number, got 'abc'"),
        ("kappa = nan\n", ":1: kappa must be finite, got 'nan'"),
        ("kappa\n", ":1: expected key=value, got 'kappa\\n'"),
    ])
    def test_bad_line_names_its_place(self, text, error, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        assert main(["timeseries", "--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfgfile}{error}\n"

    @pytest.mark.parametrize("data, place", [
        (b"\xff\n", ":1: "),
        # the line of the byte, though the file is decoded in larger chunks
        (b"omega = 2\n\nkappa = 1e-3  # caf\xc3\xa9\ng = \xe9\n", ":4: "),
    ], ids=["line1", "line4"])
    def test_bytes_not_utf8_name_their_place(self, data, place, tmp_path,
                                             capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(data)
        assert main(["params", "--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfgfile}{place}")
        assert re.fullmatch(r"error: [^\n]+can't decode byte[^\n]+\n",
                            captured.err)


#: the error text some invalid inputs must print: the dyad's truncation, not
#: the user's --nmax, and the option a malformed value was given for
_ERROR_TEXT = {
    ("verify", "--alpha-re", "18.6", "--nmax", "500"):
        "error: |alpha| = 18.6: verify's dyad runs at default_nmax(alpha) = "
        "505 > NMAX_LIMIT = 500\n",
    ("fig1", "--g", "1e-320", "--grid", "2x2"):
        "error: t_eval defaults to 1/g, undefined at g = 1e-320\n",
    ("params", "--nmax", "2.5"): "error: nmax must be an integer, got '2.5'\n",
    ("params", "--omega", "abc"): "error: omega must be a number, got 'abc'\n",
    ("sweep2d", "--axis1", "lambda:0", "--axis2", "kappa:0:1e-3"):
        "error: axis must be name:min:max, got 'lambda:0'\n",
    ("sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:1e-3",
     "--grid", "3"): "error: grid must be <n1>x<n2>, got '3'\n",
    ("sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:1e-3",
     "--grid", "0x3"): "error: grid sizes must be >= 1\n",
    ("sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:1e-3",
     "--grid", "3.5x2"): "error: grid must be an integer, got '3.5'\n",
    ("fig1", "--grid", "2xabc"): "error: grid must be an integer, got 'abc'\n",
    ("timeseries", "--c0-re", "2"):
        "error: |c0|^2 + |c1|^2 must be 1, got 4.5\n",
    ("params", "--steps", "1"): "error: steps must be >= 2\n",
    ("params", "--t-start", "5", "--t-end", "1"):
        "error: time grid needs 0 <= t_start <= t_end\n",
    ("verify", "--steps", "1"): "error: steps must be >= 2\n",
    ("sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:1e-3",
     "--grid", "3x2", "--t-start", "5", "--t-end", "1"):
        "error: time grid needs 0 <= t_start <= t_end\n",
    ("fig1", "--grid", "3x2", "--steps", "1", "--output", "d"):
        "error: steps must be >= 2\n",
    ("fig3", "--t-start", "-1", "--output", "d"):
        "error: time grid needs 0 <= t_start <= t_end\n",
    **{argv: f"error: steps must be <= {sys.maxsize // 16}\n" for argv in (
        ("timeseries", "--steps", "9223372036854775807"),
        ("timeseries", "--steps", "9223372036854775808"),
        ("timeseries", "--steps", "99999999999999999999"),
        ("fig2", "--steps", "9223372036854775807", "--output", "d"),
        ("params", "--steps", "9223372036854775807"),
        ("verify", "--steps", "9223372036854775807"))},
    **{argv: f"error: grid sizes must be <= {sys.maxsize // 16}\n" for argv in (
        ("sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:1e-3",
         "--grid", "9223372036854775807x2"),
        ("sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:1e-3",
         "--grid", "99999999999999999999x2"),
        ("fig1", "--grid", "2x9223372036854775807", "--output", "d"))},
}


class TestInputContract:
    @pytest.mark.parametrize("argv, code", [
        (["params", "--g", "nan"], 2),
        (["timeseries", "--kappa", "nan"], 2),
        (["timeseries", "--c0-re", "nan"], 2),
        (["timeseries", "--alpha-re", "inf"], 2),
        (["timeseries", "--oracle", "--nmax", "0"], 2),
        (["sweep2d", "--g", "0", "--axis1", "lambda:0:1",
          "--axis2", "kappa:0:1e-3"], 2),
        (["sweep2d", "--axis1", "lambda:0:nan", "--axis2", "kappa:0:1e-3"], 2),
        # finite inputs whose evaluation overflows
        (["timeseries", "--alpha-re", "1e200"], 3),
        (["params", "--g", "1e300"], 3),
        (["timeseries", "--g", "1e300"], 3),
        (["sweep2d", "--axis1", "g:0:1e300", "--axis2", "kappa:0:1e-3",
          "--grid", "3x2"], 3),
        # an oracle grid before t = 0 or running backwards
        (["verify", "--t-start", "-1"], 2),
        (["verify", "--t-start", "100", "--t-end", "0"], 2),
        # kappa h = 5e309: the oracle's step generator B_0 h overflows
        (["timeseries", "--oracle", "--steps", "3", "--kappa", "1e10",
          "--t-end", "1e300"], 3),
        # |alpha| = 1 loses 1.9e-2 norm at nmax 3
        (["verify", "--nmax", "3"], 2),
        (["timeseries", "--t-start", "100", "--t-end", "0", "--steps", "3"], 2),
        # kappa t = 1e309: the disentangling routes overflow
        (["verify", "--kappa", "1e308"], 3),
        # an explicit --nmax outside 1..NMAX_LIMIT, also where no oracle runs
        (["timeseries", "--nmax", "-5"], 2),
        (["fig3", "--nmax", "0", "--output", "d"], 2),
        (["sweep2d", "--nmax", "501", "--axis1", "lambda:0:1",
          "--axis2", "kappa:0:1e-3", "--grid", "3x2"], 2),
        (["params", "--nmax", "0"], 2),
        # fig1 evaluates at t = 1/g, as sweep2d does without --t-eval
        (["fig1", "--g", "0", "--grid", "3x2", "--output", "d"], 2),
        # |alpha| = 18.5 implies nmax 501 > NMAX_LIMIT, refused before any
        # verdict or row
        (["verify", "--alpha-re", "18.5"], 2),
        (["timeseries", "--oracle", "--alpha-re", "18.5", "--steps", "3"], 2),
        # |alpha|^2 overflows the truncation bound of default_nmax
        (["verify", "--alpha-re", "1e200"], 2),
        (["params", "--alpha-re", "1e200"], 2),
        (["timeseries", "--oracle", "--alpha-re", "1e200", "--steps", "3"], 2),
        # an explicit --nmax 500 holds |alpha| = 18.6, but stage 1's dyad
        # runs at default_nmax(alpha) = 505 > NMAX_LIMIT
        (["verify", "--alpha-re", "18.6", "--nmax", "500"], 2),
        # phases above VERIFY_PHASE_LIMIT: 1e11 rad, and 5e303 rad at g = 1e150
        (["verify", "--kappa", "0", "--t-end", "1e14"], 2),
        (["verify", "--g", "1e150"], 2),
        # a g whose default evaluation time 1/g overflows to inf
        (["fig1", "--g", "1e-320", "--grid", "2x2"], 2),
        (["sweep2d", "--g", "5e-324", "--axis1", "lambda:0:1",
          "--axis2", "kappa:0:1e-3", "--grid", "2x2"], 2),
        # a malformed value, named by its option
        (["params", "--nmax", "2.5"], 2),
        (["params", "--omega", "abc"], 2),
        # a malformed axis or grid
        (["sweep2d", "--axis1", "lambda:0", "--axis2", "kappa:0:1e-3"], 2),
        (["sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:1e-3",
          "--grid", "3"], 2),
        (["sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:1e-3",
          "--grid", "0x3"], 2),
        # a grid size that is not an integer, named by its option
        (["sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:1e-3",
          "--grid", "3.5x2"], 2),
        (["fig1", "--grid", "2xabc"], 2),
        # an unnormalised atom, its norm printed as a plain number
        (["timeseries", "--c0-re", "2"], 2),
        # every command checks every shared option, also one it does not read
        (["params", "--steps", "1"], 2),
        (["params", "--t-start", "5", "--t-end", "1"], 2),
        (["verify", "--steps", "1"], 2),
        (["sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:1e-3",
          "--grid", "3x2", "--t-start", "5", "--t-end", "1"], 2),
        (["fig1", "--grid", "3x2", "--steps", "1", "--output", "d"], 2),
        (["fig3", "--t-start", "-1", "--output", "d"], 2),
        # a count above MAX_COUNT, the longest array numpy can address, named
        # by its option (a traceback or numpy's own text before)
        (["timeseries", "--steps", "9223372036854775807"], 2),
        (["timeseries", "--steps", "9223372036854775808"], 2),
        (["timeseries", "--steps", "99999999999999999999"], 2),
        (["fig2", "--steps", "9223372036854775807", "--output", "d"], 2),
        (["params", "--steps", "9223372036854775807"], 2),
        (["verify", "--steps", "9223372036854775807"], 2),
        (["sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:1e-3",
          "--grid", "9223372036854775807x2"], 2),
        (["sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:1e-3",
          "--grid", "99999999999999999999x2"], 2),
        (["fig1", "--grid", "2x9223372036854775807", "--output", "d"], 2),
    ])
    def test_exit_code_without_output(self, argv, code, capsys, tmp_path,
                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: .+\n", captured.err)
        assert _ERROR_TEXT.get(tuple(argv), "") in captured.err
        assert not any(tmp_path.iterdir())

    def test_oracle_long_step_decays(self, tmp_path):
        # a step of 5e299 at kappa = 1e-3 leaves the fully decayed state,
        # which the exponential's exact diagonal keeps finite
        out = tmp_path / "ts.csv"
        assert main(["timeseries", "--oracle", "--steps", "3", "--t-end",
                     "1e300", "--output", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert rows.shape == (3, 8) and np.all(np.isfinite(rows))
        assert np.all(rows[:, header.index("concurrence_numeric")] == 0.0)
        assert np.max(rows[:, header.index("trace_error")]) < 1e-15

    @pytest.mark.parametrize("argv", [
        ["timeseries", "--oracle", "--alpha-re", "100"],
        ["verify", "--alpha-re", "100"],
        ["timeseries", "--oracle", "--nmax", "100000"],
        ["verify", "--nmax", "600"],
        # a truncation of 309 and one of 400 digits, named by their count
        ["verify", "--alpha-re", "1e154"],
        ["params", "--nmax", "9" * 400],
    ])
    def test_fock_truncation_limit(self, argv, capsys):
        # default_nmax(100) is 10 810: rejected before any Fock-space array
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(liouville.NMAX_LIMIT) in captured.err
        assert re.fullmatch(r"error: .{1,112}\n", captured.err)

    @pytest.mark.parametrize("value, code", [
        ("-1e-3", 0), ("-8.090525902826329e-05", 0), ("-.5", 0), ("-inf", 2)])
    def test_negative_value_after_flag(self, value, code, capsys):
        # argparse alone reads "-1e-3" after a flag as an unknown flag and
        # raises SystemExit
        assert main(["params", "--omega-c", value]) == code
        assert main(["timeseries", "--alpha-im", value, "--steps", "2"]) == code
        capsys.readouterr()

    def test_closed_forms_need_no_fock_space(self, capsys):
        # and record no truncation: default_nmax(100) would be 10 810
        assert main(["timeseries", "--alpha-re", "100"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") > 600 and "# nmax" not in out

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 2.98 GiB for an array"),
         "error: Unable to allocate 2.98 GiB for an array\n"),
        (MemoryError(), "error: out of memory\n"),
    ])
    def test_memory_error_exits_3(self, exc, message, capsys, monkeypatch):
        # an allocation that fails is a numerical failure, not a verify
        # failure (exit 1) with a traceback
        def evolve(*args):
            raise exc

        monkeypatch.setattr(cli.analytic, "evolve", evolve)
        assert main(["timeseries", "--steps", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    @pytest.mark.parametrize("command", ["params", "verify"])
    def test_output_only_where_csv_is_written(self, command, tmp_path, capsys):
        # params and verify print to stdout; --output is an unknown flag there
        out = tmp_path / "report.txt"
        with pytest.raises(SystemExit) as exc:
            main([command, "--output", str(out)])
        assert exc.value.code == 2
        assert "--output" in capsys.readouterr().err
        assert not out.exists()


_FLOATS = [name for name, kind, *_ in OPTIONS if kind is float]
_VALUES = ["0", "1e300", "-1e300", "inf", "-inf", "nan"]
# name:low:high with the bounds in order (test_unordered_bounds_exit_2 covers
# the other order); 1.9 as the low end of omega hits delta2 = 0
_AXIS = st.tuples(
    st.sampled_from([name for name, _, _, sweepable, _ in OPTIONS if sweepable]),
    st.lists(st.sampled_from(["0", "1e-3", "0.5", "1.9", "1e300", "-1e300",
                              "nan"]),
             min_size=2, max_size=2).map(lambda b: sorted(b, key=float)),
).map(lambda a: ":".join([a[0], *a[1]]))
_DEGENERATE = re.compile(r"warning: (\d+) of \d+ cells degenerate")


def _flags(values):
    """Option flags in the attached form --name=value;
    test_negative_value_after_flag covers a negative value as its own token."""
    return [f"--{name.replace('_', '-')}={text}" for name, text in values.items()]


def _check_exit_code_and_cells(argv, steps):
    """Run `argv` (figures into a temporary directory): the exit code is 0,
    2 or 3, and after 0 every output cell is finite except the NaN cells
    the stderr warning counts, every CSV cell is written as `%.17g`, and
    every time series has `steps` rows."""
    command = argv[0]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as outdir:
        if command.startswith("fig"):
            argv = [*argv, f"--output={outdir}"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        texts = [out.getvalue()] + [p.read_text()
                                    for p in sorted(Path(outdir).iterdir())]
    assert code in (0, 2, 3)
    if code != 0:
        return
    cells = []
    for text in filter(None, texts):
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        if command == "params":
            cells += [ln.rpartition("=")[2] for ln in lines]
            continue
        csv_cells = [c for ln in lines[1:] for c in ln.split(",")]
        assert all(format(float(c), ".17g") == c for c in csv_cells)
        cells += csv_cells
        if command not in ("sweep2d", "fig1"):
            assert len(lines) == steps + 1
    cells = np.array(cells, dtype=float)
    reported = sum(map(int, _DEGENERATE.findall(err.getvalue())))
    assert cells.size
    assert np.count_nonzero(~np.isfinite(cells)) == reported
    assert np.count_nonzero(np.isnan(cells)) == reported


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["params", "timeseries"]),
       steps=st.integers(2, 20),
       values=st.fixed_dictionaries({}, optional={
           name: st.sampled_from(_VALUES) for name in _FLOATS}))
def test_any_float_input_gives_finite_output_or_exit_code(command, steps, values):
    _check_exit_code_and_cells([command, "--steps", str(steps), *_flags(values)],
                               steps)


# At most two options are set, so that most draws get past them to the grid
# or, for verify, to the numerical checks.
_SOME_VALUES = st.dictionaries(st.sampled_from(_FLOATS),
                               st.sampled_from(_VALUES), max_size=2)


@settings(max_examples=200, deadline=None)
@given(values=_SOME_VALUES, axis1=_AXIS, axis2=_AXIS)
def test_sweep2d_gives_finite_output_or_exit_code(values, axis1, axis2):
    _check_exit_code_and_cells(["sweep2d", "--grid=3x2", f"--axis1={axis1}",
                                f"--axis2={axis2}", *_flags(values)], None)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["fig1", "fig2", "fig3", "fig4"]),
       steps=st.integers(2, 20), values=_SOME_VALUES)
def test_figures_give_finite_output_or_exit_code(command, steps, values):
    grid = ["--grid=3x2"] if command == "fig1" else []
    _check_exit_code_and_cells(
        [command, f"--steps={steps}", *grid, *_flags(values)], steps)


# a verify call costs about 0.1 s; a few dozen draws keep tier-1 cheap
@settings(max_examples=25, deadline=None)
@given(values=_SOME_VALUES)
def test_verify_gives_verdicts_or_exit_code(values):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", *_flags(values)])
    assert code in (0, 1, 2, 3)
    lines = out.getvalue().splitlines()
    assert all(ln.startswith(("PASS ", "FAIL ")) for ln in lines)
    if code == 2:
        assert lines == []
    if code in (0, 1):
        assert (code == 1) == any(ln.startswith("FAIL ") for ln in lines)


def valid_verify_inputs(seed, count, alpha_max=4.0):
    """`count` seeded `verify` flag lists from its declared valid range.

    omega = 2 and omega0 = 1.9; complex alpha uniform over the disc
    |alpha| <= alpha_max; kappa = 0 with probability 0.15, else log-uniform on
    [1e-4, 1]; g log-uniform on [1e-3, 5e-2]; lambda and omega_c each
    uniform on [0, 1]; (c0, c1) from a normalised Gaussian 4-vector; t_end
    uniform on [1, 500].  Draws that are degenerate, or whose domain record
    "ratio" (dispersive_ratio at n = ceil(|alpha|^2)) exceeds its bound
    DISPERSIVE_THRESHOLD, are skipped.
    """
    rng = np.random.default_rng(seed)
    inputs = []
    while len(inputs) < count:
        r, phase = rng.uniform(size=2)
        alpha = alpha_max * np.sqrt(r) * np.exp(2j * np.pi * phase)
        c = rng.normal(size=4)
        c /= np.linalg.norm(c)
        kappa = 0.0 if rng.uniform() < 0.15 else 10 ** rng.uniform(-4, 0)
        values = {"omega": 2.0, "omega0": 1.9, "kappa": kappa,
                  "g": 10 ** rng.uniform(-3, math.log10(5e-2)),
                  "lambda": rng.uniform(), "omega_c": rng.uniform(),
                  "alpha_re": alpha.real, "alpha_im": alpha.imag,
                  "c0_re": c[0], "c0_im": c[1], "c1_re": c[2], "c1_im": c[3],
                  "t_end": rng.uniform(1, 500)}
        argv = _flags({k: repr(float(v)) for k, v in values.items()})
        args = cli.make_parser().parse_args(["verify", *argv])
        p = cli.model_params(cli.build_config(args))
        try:
            d = model.derive_params(p)
        except model.DegenerateDispersive:
            continue
        if not model.domain(p, d)["ratio"].exceeded:
            inputs.append(argv)
    return inputs


@pytest.mark.parametrize("argv", valid_verify_inputs(seed=1, count=50))
def test_verify_passes_across_valid_range(argv, capsys):
    assert main(["verify", *argv]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7 and "FAIL" not in out


class TestSweep2d:
    def test_single_point(self, tmp_path):
        out = tmp_path / "sw.csv"
        rc = main(["sweep2d", "--axis1", "lambda:0:0", "--axis2",
                   "kappa:1e-3:1e-3", "--grid", "1x1", "--output", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["lam", "kappa", "concurrence"]
        assert rows.shape == (1, 3)
        assert rows[0, 2] == pytest.approx(0.17899646574, abs=1e-9)

    def test_concurrence_nonincreasing_in_kappa(self, tmp_path):
        out = tmp_path / "sw.csv"
        main(["sweep2d", "--axis1", "lambda:0:0", "--axis2", "kappa:0:5e-3",
              "--grid", "1x6", "--output", str(out)])
        _, _, rows = read_csv(out)
        c = rows[:, 2]
        assert np.all(np.diff(c) <= 1e-12)

    def test_values_in_range(self, tmp_path):
        out = tmp_path / "sw.csv"
        main(["sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:5e-3",
              "--grid", "7x5", "--output", str(out)])
        _, _, rows = read_csv(out)
        c = rows[:, 2]
        finite = c[np.isfinite(c)]
        assert np.all((finite >= 0.0) & (finite <= 1.0))

    def test_bad_axis_exits_2(self):
        assert main(["sweep2d", "--axis1", "foo:0:1",
                     "--axis2", "kappa:0:1"]) == 2

    def test_unordered_bounds_exit_2(self):
        assert main(["sweep2d", "--axis1", "lambda:1:0",
                     "--axis2", "kappa:0:1"]) == 2

    def test_same_axis_twice_exits_2(self, capsys):
        # `lam` and `lambda` name one axis
        assert main(["sweep2d", "--axis1", "lambda:0:1",
                     "--axis2", "lam:0:0.5", "--grid", "3x2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: axis1 and axis2 both sweep 'lam'\n"

    def test_degenerate_cells_reported_on_stderr(self, capsys):
        # the sweep2d_degenerate golden case: lambda = 0 at omega = 1.9
        assert main(["sweep2d", "--omega", "1.9", "--axis1", "lambda:0:0.5",
                     "--axis2", "kappa:0:5e-3", "--grid", "6x3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("nan") == 3
        assert captured.err == ("warning: 3 of 18 cells degenerate "
                                "(|delta2| < 1e-12), written as NaN\n")

    def test_regular_sweep_silent_on_stderr(self, capsys):
        assert main(["sweep2d", "--axis1", "lambda:0:1",
                     "--axis2", "kappa:0:5e-3", "--grid", "7x5"]) == 0
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        assert captured.err == ""


class TestFigures:
    def test_finite_photon_number_not_counted(self, tmp_path, capsys):
        # delta2 = 0, but the photon number does not depend on it
        assert main(["fig3", "--omega", "0", "--omega0", "0", "--steps", "2",
                     "--output", str(tmp_path)]) == 0
        assert "nan" not in (tmp_path / "fig3.csv").read_text()
        assert capsys.readouterr().err == ""

    def test_fig1_grid_dimensions(self, tmp_path):
        rc = main(["fig1", "--grid", "6x5", "--output", str(tmp_path)])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "fig1.csv")
        assert header == ["lambda", "kappa", "concurrence"]
        assert rows.shape == (30, 3)

    def test_fig2_panels(self, tmp_path):
        rc = main(["fig2", "--steps", "40", "--output", str(tmp_path)])
        assert rc == 0
        _, hu, ru = read_csv(tmp_path / "fig2_upper.csv")
        assert hu == ["t", "concurrence_k0", "concurrence_k1e-04",
                      "concurrence_k1e-03"]
        assert ru.shape == (40, 4)
        _, hl, rl = read_csv(tmp_path / "fig2_lower.csv")
        assert hl == ["t", "concurrence_undriven", "concurrence_driven"]
        # driving raises the best achievable concurrence
        assert rl[:, 2].max() > rl[:, 1].max()

    def test_fig3_initial_photon_number(self, tmp_path):
        main(["fig3", "--steps", "11", "--output", str(tmp_path)])
        _, header, rows = read_csv(tmp_path / "fig3.csv")
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-14)
        assert rows[0, 2] == pytest.approx(1.0, abs=1e-14)
        # slower decay for the smaller kappa
        assert rows[-1, 1] > rows[-1, 2]

    def test_fig4_emits_entropy_with_note(self, tmp_path):
        main(["fig4", "--steps", "11", "--output", str(tmp_path)])
        meta, header, rows = read_csv(tmp_path / "fig4.csv")
        assert header == ["t", "linear_entropy_undriven",
                          "linear_entropy_driven"]
        assert any("linear entropy" in m for m in meta)
        assert np.all(rows[:, 1:] >= 0.0)
        assert np.all(rows[:, 1:] <= 0.5)

    def test_flags_reach_the_figures(self, tmp_path):
        for name, argv in (("default", []), ("omega3", ["--omega", "3"])):
            assert main(["fig2", "--steps", "5", *argv,
                         "--output", str(tmp_path / name)]) == 0
        meta, _, rows = read_csv(tmp_path / "omega3" / "fig2_upper.csv")
        assert "# omega = 3" in meta
        _, _, default = read_csv(tmp_path / "default" / "fig2_upper.csv")
        assert np.any(rows[1:, 1:] != default[1:, 1:])

    @pytest.mark.parametrize("command, steps", [
        ("fig2", "1"), ("fig3", "0"), ("fig4", "-1")])
    def test_too_few_steps_exit_2(self, command, steps, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main([command, "--steps", steps, "--output", str(out)]) == 2
        assert "steps must be >= 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def _five_columns(p, d, t):
    """Every closed-form column from one snapshot, spelled out apart from
    `cli._COLUMNS`: the reference each written column must equal."""
    s = analytic.evolve(p, d, t)
    return {
        "concurrence": analytic.concurrence_analytic(s),
        "linear_entropy": analytic.linear_entropy_analytic(s),
        "photon_number": analytic.photon_number(p, t),
        "abs_f": np.exp(np.real(s.log_f)),
        "abs_tau": np.exp(-0.5 * np.abs(s.alpha_plus - s.alpha_minus) ** 2),
    }


def _same_bits(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    return np.array_equal(a.view(np.int64), b.view(np.int64))


#: omega = 1.9 makes lambda = 0 degenerate (NaN cells), and kappa runs from 0
_COLUMN_CFG = {key: opt[2] for key, opt in cli._SPEC.items()} | {"omega": 1.9}


class TestWrittenColumns:
    """Each table evaluates only the columns it writes; each must equal the
    same column of a full five-column evaluation, bit for bit."""

    @pytest.mark.parametrize("name", list(cli._COLUMNS))
    def test_one_column_of_the_full_evaluation(self, name):
        p = cli.model_params(_COLUMN_CFG,
                             lam=np.linspace(0.0, 0.5, 6)[:, None, None],
                             kappa=np.array([0.0, 1e-3, 5e-3])[None, :, None],
                             alpha_im=np.array([0.0, 0.7]))
        d = model.derive_params(p)
        assert np.any(d.degenerate)
        t = np.array([0.0, 50.0, 1e3])[:, None, None, None]
        got = cli._observables(p, d, t, [name])
        assert list(got) == [name]
        assert _same_bits(got[name], _five_columns(p, d, t)[name])

    @pytest.mark.parametrize("observable", [
        "concurrence", "linear_entropy", "photon_number"])
    @pytest.mark.parametrize("axes, counts, columns, t_eval", [
        ([("lambda", 0.0, 0.5), ("kappa", 0.0, 5e-3)], (6, 3),
         {"_re": dict(alpha_im=0.0), "_im": dict(alpha_im=0.7)}, 100.0),
        ([("t", 0.0, 300.0)], (7,),
         {"_k0": dict(kappa=0.0, lam=0.0), "_k1": dict(kappa=1e-3, lam=0.3)},
         None)], ids=["lambda-kappa", "t"])
    def test_grid_writes_the_full_evaluation(self, observable, axes, counts,
                                             columns, t_eval, monkeypatch,
                                             capsys):
        seen = []
        observables = cli._observables

        def spy(p, d, t, names):
            seen.append(_five_columns(p, d, t)[observable])
            return observables(p, d, t, names)

        monkeypatch.setattr(cli, "_observables", spy)
        header, _, values = cli._grid(_COLUMN_CFG, axes, counts, observable,
                                      columns, t_eval)
        assert header[-2:] == [observable + s for s in columns]
        want = np.broadcast_to(seen[0], [*counts, 2]).reshape(-1, 2)
        assert _same_bits(values, want)
        # lambda = 0 is degenerate, except for the photon number
        assert np.isnan(values).any() == (observable != "photon_number")
        capsys.readouterr()


def _per_value_csv(meta, header, rows):
    """The per-value writer `_write_csv` replaced: the reference for its bytes."""
    return "\n".join([*meta, ",".join(header), *(
        ",".join(f"{v:.17g}" for v in row) for row in rows.tolist())]) + "\n"


_SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1e16, 0.1,
            1.0, -7.0, 2.0 ** 53, 1e22, 0.30000000000000004]


class TestCsvBytes:
    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (1, 6), (61, 1),
                                       (10201, 3), (3, 5, 2)])
    def test_matches_per_value_format(self, shape, to_file, tmp_path, capsys):
        """A shape (rows, columns) is one table; a shape (n1, n2, columns)
        is the product grid of two axes, written through the `axes` path and
        compared with its meshgrid-expanded table."""
        *counts, ncol = shape
        rng = np.random.default_rng(shape[0] * 7 + shape[1])
        size = math.prod(counts) * ncol
        values = np.concatenate([
            rng.standard_normal(size) * 10.0 ** rng.integers(-320, 307, size),
            rng.integers(-10**6, 10**6, size).astype(float),
            rng.random(size)])
        rng.shuffle(values)
        values = values[:size]
        values[:len(_SPECIAL)] = _SPECIAL[:size]
        rows = values.reshape(-1, ncol)
        axes = [rng.standard_normal(n) * 10.0 ** rng.integers(-320, 307, n)
                for n in counts] if len(counts) > 1 else []
        if axes:
            axes[0][:3] = [-0.0, 5e-324, 1e300]
        table = np.column_stack([
            *(x.ravel() for x in np.meshgrid(*axes, indexing="ij")), rows])
        meta = ["# note: x", "# kappa = 0.001"]
        header = [f"c{j}" for j in range(table.shape[1])]
        want = _per_value_csv(meta, header, table)
        out = tmp_path / "out.csv" if to_file else None
        cli._write_csv(out, meta, header, rows, axes)
        if to_file:
            assert out.read_bytes() == want.encode()
        else:
            assert capsys.readouterr().out == want

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("counts", [(), (3,)], ids=["t", "t-x"])
    @pytest.mark.parametrize("ncol", [1, 4])
    def test_axis_texts_of_every_length(self, ncol, counts, to_file, tmp_path,
                                        capsys):
        """The single-axis grid of `fig2`-`fig4` (`axes=[t]`), and a
        two-axis grid with the same first axis, whose point texts run from
        1 to 24 characters."""
        t = np.array([0.0, 1.0, 5e-324, -1.2345678901234567e-300, 0.5, -0.0,
                      1e16, 2.5e-5, 300.0, np.nextafter(300.0, 0.0)])
        axes = [t, *(np.array([7.0, -1e-300, 0.1])[:n] for n in counts)]
        assert sorted({len("%.17g" % v) for v in t}) == [
            1, 2, 3, 17, 18, 22, 23, 24]
        rows = np.random.default_rng(ncol).standard_normal(
            (math.prod(map(len, axes)), ncol))
        table = np.column_stack([
            *(x.ravel() for x in np.meshgrid(*axes, indexing="ij")), rows])
        header = [f"c{j}" for j in range(table.shape[1])]
        want = _per_value_csv(["# a = 1"], header, table)
        out = tmp_path / "out.csv" if to_file else None
        cli._write_csv(out, ["# a = 1"], header, rows, axes)
        got = out.read_text() if to_file else capsys.readouterr().out
        assert got == want


def cell_mismatches(values):
    """(value, `cli._cells` text, `'%.17g' % value`) of each value of 1-D
    `values` whose two texts differ."""
    values = np.asarray(values, dtype=float)
    words = cli._cells(values)
    words[5] |= np.uint64(ord("\n") << 56)
    got = words.T.tobytes().translate(None, b"\0").decode().splitlines()
    return [(v, a, "%.17g" % v) for v, a in zip(values.tolist(), got)
            if a != "%.17g" % v]


def dyadic_ties(seed, count):
    """`count` seeded values +-m 2^-k, m odd and 2 <= k <= 25, whose exact
    decimals m 5^k 10^-k have 18 significant digits: ties at 17 digits."""
    rng = np.random.default_rng(seed)
    k = rng.integers(2, 26, count)
    five = 5 ** k
    low = -(-10 ** 17 // five)
    high = np.minimum(10 ** 18 // five, 2 ** 53 - 1)
    m = rng.integers(low, high) | 1
    return np.ldexp(m.astype(float), -k) * rng.choice([-1.0, 1.0], count)


def _powers_of_ten():
    """1e-320 to 1e308 and both neighbours of each."""
    p = np.array([float(f"1e{k}") for k in range(-320, 309)])
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


def _points():
    """Exact values of both signs whose `%.17g` puts the point after each of
    1..16 leading digits: N + 2^-j with N of m digits, kept to m + j <= 17
    digits (2^-j has j decimals), N itself, and c 2^-j in [1e-4, 1), which
    print as 0.xxx to 0.000xxx."""
    ints = [int("1928374650192837"[:m]) for m in range(1, 17)]
    values = ints + [n + 2.0 ** -j for n in ints
                     for j in range(1, 18 - len(str(n))) if n << j < 2 ** 53]
    values += [v for v in (c * 2.0 ** -j for c in (1, 3, 5, 7)
                           for j in range(1, 20)) if 1e-4 <= v < 1]
    return np.array(values + [-v for v in values])


class TestCells:
    """`cli._cells` against `'%.17g'`: its arithmetic gives the digits of
    most cells, and `%` those it cannot decide."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_matches_percent_format(self, values):
        assert cell_mismatches(values) == []

    @pytest.mark.parametrize("values", [
        dyadic_ties(0, 2000),
        _powers_of_ten(),
        np.concatenate([np.random.default_rng(1).integers(
            10 ** 16, 10 ** 17, 2000).astype(float),
            [1e16, 1e16 + 2, 1e17 - 16, 1e17, 1e17 + 16]]),
        [s * np.nextafter(v, w) for s in (1.0, -1.0) for v in (1e-280, 1e280)
         for w in (0.0, v, np.inf)],
        [0.0, -0.0],
        _points(),
    ], ids=["ties", "powers_of_ten", "integers", "range_ends", "zeros",
            "points"])
    def test_deterministic_values(self, values):
        assert cell_mismatches(values) == []

    def test_undecided_cells_match(self):
        """Ties, and values whose log10 lies in the next decade, cannot be
        decided by the arithmetic, so these cells go through `%`."""
        from decimal import Decimal
        ties = dyadic_ties(1, 50).tolist()
        digits = [Decimal(v).as_tuple().digits for v in ties]
        assert all(len(d) == 18 and d[-1] == 5 for d in digits)
        # round half to even: an odd 17th digit rounds up, an even one down
        assert {d[16] % 2 for d in digits} == {0, 1}
        misses = [v for v in _powers_of_ten().tolist() if math.floor(
            np.log10(v)) != Decimal(v).adjusted()]
        assert misses
        assert cell_mismatches(ties + misses) == []

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_log10_in_the_wrong_decade(self, shift, monkeypatch):
        """Every cell whose log10 misses its decade, either way, still
        matches: its D falls outside [10^16, 10^17) and goes through `%`."""
        rng = np.random.default_rng(3)
        values = rng.standard_normal(300) * 10.0 ** rng.integers(-280, 280, 300)
        values[:4] = [1e-280, -1e280, 1.0, 9.999999999999999e22]
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        assert cell_mismatches(values) == []


class TestParserReuse:
    def test_calls_match_a_fresh_parser(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("kappa = 2e-3\nlambda = 0.3\n")
        sweep = ["sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:5e-3"]
        short = ["--steps", "5", "--t-end", "60"]
        calls = [
            ["timeseries", "--oracle", *short],
            ["timeseries", *short],
            ["params", "--config", str(cfgfile)],
            ["params"],
            [*sweep, "--grid", "4x3", "--t-eval", "50"],
            [*sweep, "--grid", "4x3"],
            ["fig1", "--grid", "5x4", "--output", str(tmp_path / "figs")],
            sweep,
            ["timeseries", "--no-such-flag"],
            ["timeseries", *short],
        ]

        def run(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = f"SystemExit({exc.code})"
            return code, out.getvalue()

        assert cli.make_parser() is cli.make_parser()
        reused = [run(argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli.make_parser.cache_clear()
            fresh.append(run(argv))
        assert reused == fresh
        assert reused[8] == ("SystemExit(2)", "")
        assert "concurrence_numeric" not in reused[1][1]
        assert "# grid = 101x101" in reused[7][1]


class TestVerify:
    def test_default_checks_pass(self, capsys):
        rc = main(["verify", "--t-end", "120"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 7

    def test_strong_decay_passes(self, capsys):
        # the disentangling stage must stay stable at kappa t = 250
        rc = main(["verify", "--kappa", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out

    def test_oracle_overflow_exits_3(self, capsys, monkeypatch):
        # a non-finite exponential is a numerical failure; stage 1 meets it
        # first, before any verdict
        monkeypatch.setattr(liouville, "expm",
                            lambda A: np.full(A.shape, np.inf, dtype=complex))
        assert main(["verify"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: .+\n", captured.err)

    def test_oracle_stage_overflow_exits_3(self, capsys, monkeypatch):
        # a non-finite oracle state, which the stage-2 Wootters eigensolver
        # used to report as invalid input
        monkeypatch.setattr(liouville, "verify_disentangling",
                            lambda *args: (0.0, 0.0))
        monkeypatch.setattr(liouville, "expm",
                            lambda A: np.full(A.shape, np.inf, dtype=complex))
        assert main(["verify"]) == 3
        assert "oracle state overflowed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # dispersive ratio 0.197 at Omega = 9.763: Omega t = 4.9e3 rad at
        # t = 500, a phase that every route must follow to 1e-8
        ["--omega", "-500", "--g", "70"],
        # stiff decay, kappa t up to 5e302: the exact routes stay finite
        ["--kappa", "1e10"],
        ["--kappa", "1e300"],
    ])
    def test_exact_routes_pass(self, argv, capsys):
        assert main(["verify", *argv]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "FAIL" not in out

    @pytest.mark.parametrize("argv, bound", [
        # decay caps the phase at |Omega_eff| / kappa = 1e7 rad, still above
        (["--kappa", "1e-10", "--t-end", "1e14"], model.VERIFY_PHASE_LIMIT),
        (["--kappa", "0", "--t-end", "1e14"], model.VERIFY_PHASE_LIMIT),
        (["--g", "1e150"], model.VERIFY_PHASE_LIMIT),
    ])
    def test_unresolvable_input_names_its_bound(self, argv, bound, capsys):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"error: .*{re.escape(f'{bound:g}')}.*\n",
                            captured.err)

    @pytest.mark.parametrize("argv", [
        # the largest |alpha| whose default_nmax is NMAX_LIMIT
        ["--alpha-re", "18.49"],
        # a phase of 3e6 rad, the largest accepted at kappa = 0
        ["--kappa", "0", "--t-end", "3e9"],
        # decay caps the phase at |Omega_eff| / kappa = 1e6 rad
        ["--kappa", "1e-9", "--t-end", "1e14"],
        # an entrywise dyad reading at nmax 500 misses the 1e-10 gate here
        # (2.9e-10 at t = 10); the two-branch frame reads 4.8e-14
        ["--alpha-re", "18.45"],
    ])
    def test_largest_accepted_inputs_pass(self, argv, capsys):
        assert main(["verify", *argv]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "FAIL" not in out

    def test_long_horizon_passes(self, capsys):
        # steps of 6.7e298 decay the state fully; every check still holds
        assert main(["verify", "--t-end", "1e300"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "FAIL" not in out
        entropy = re.search(r"linear_entropy max_dev=(\S+)", out)
        assert float(entropy.group(1)) < 1e-15

    def test_large_amplitude_passes(self, capsys):
        # the dyad stage reads |alpha_pm> in its two-branch frame at
        # default_nmax(alpha), which must hold it to 1e-10; at a complex
        # alpha the closed-form concurrence must be 0 at t = 0;
        # at alpha = 0 the oracle steps a single Fock level, a (2, 1, 1) stack
        for argv in (["--alpha-re", "2"], ["--alpha-im", "2"],
                     ["--alpha-re", "0"]):
            rc = main(["verify", *argv])
            out = capsys.readouterr().out
            assert rc == 0, argv
            assert out.count("PASS") == 7 and "FAIL" not in out

    @pytest.mark.parametrize("pairwise, dyad, good", [
        (np.nextafter(1e-8, 0), np.nextafter(1e-10, 0), True),
        (1e-8, np.nextafter(1e-10, 0), False),
        (np.nextafter(1e-8, 1), 0.0, False),
        (np.nextafter(1e-8, 0), 1e-10, False),
        (0.0, np.nextafter(1e-10, 1), False),
    ])
    def test_disentangling_gates(self, capsys, monkeypatch, pairwise, dyad,
                                 good):
        # stage 1 passes only below 1e-8 (pairwise) and 1e-10 (dyad)
        monkeypatch.setattr(liouville, "verify_disentangling",
                            lambda *args: (pairwise, dyad))
        rc = main(["verify", "--t-end", "120"])
        lines = capsys.readouterr().out.splitlines()
        stage1 = [line for line in lines if "disentangling" in line]
        assert len(stage1) == 3
        assert all(line.startswith("PASS" if good else "FAIL")
                   for line in stage1)
        assert sum(line.startswith("PASS oracle") for line in lines) == 4
        assert rc == (0 if good else 1)

    def test_misprinted_projector_detected(self, capsys, monkeypatch):
        def misprinted(Omega, kappa, a, b):
            # level shifts v_0 = 0, v_1 = Omega: both projectors on the
            # |1> branch, a sign structure both stages must reject
            return liouville.SuperopSpec(c_m=2.0 * kappa, c_r=-kappa,
                                         c_l=-kappa, c_s=-1j * Omega * (a - b))

        monkeypatch.setattr(liouville, "generator", misprinted)
        rc = main(["verify", "--t-end", "120"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL oracle" in out
        assert "FAIL disentangling" in out

    def test_lossless_entropy_reported_zero(self, tmp_path):
        out = tmp_path / "ts.csv"
        main(["timeseries", "--kappa", "0", "--oracle", "--steps", "4",
              "--t-end", "90", "--output", str(out)])
        _, _, rows = read_csv(out)
        np.testing.assert_allclose(rows[:, 2], 0.0, atol=1e-14)


def _fresh_interpreter(args, **kwargs):
    """A new Python process that imports drivenjc from where the tests do."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


_CLOSED_FORM_COMMANDS = """
import contextlib, io, sys
from drivenjc import cli

def loaded():
    return [m for m in ("scipy", "drivenjc.liouville") if m in sys.modules]

out = sys.argv[1]
for argv in (["params"],
             ["timeseries", "--output", out + "/ts.csv"],
             ["sweep2d", "--axis1", "lambda:0:1", "--axis2", "kappa:0:1e-3",
              "--grid", "3x3", "--output", out + "/sweep.csv"],
             *([fig, "--output", out] for fig in ("fig1", "fig2", "fig3", "fig4"))):
    assert cli.main(argv) == 0, argv
print("loaded:", loaded())
print("oracle exit:", cli.main(["timeseries", "--oracle", "--steps", "5",
                                "--output", out + "/oracle.csv"]))
print("loaded:", loaded())
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--t-end", "20"])
print("verify exit:", code)
print("loaded:", loaded())
"""


class TestFreshProcess:
    def test_closed_forms_load_no_oracle(self, tmp_path):
        proc = _fresh_interpreter(["-c", _CLOSED_FORM_COMMANDS, str(tmp_path)],
                                  stdout=subprocess.PIPE, text=True)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        # the oracle and verify load liouville, and scipy by no route
        assert out.splitlines()[-5:] == [
            "loaded: []", "oracle exit: 0", "loaded: ['drivenjc.liouville']",
            "verify exit: 0", "loaded: ['drivenjc.liouville']"]
        assert (tmp_path / "fig4.csv").is_file()

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
    def test_closed_reader_ends_quietly(self):
        # -u: each verdict line reaches the pipe as it is printed, so the
        # second one is written after the reader has gone
        proc = _fresh_interpreter(["-u", "-m", "drivenjc.cli", "verify"],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"PASS disentangling")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == -signal.SIGPIPE
        assert err == b""
