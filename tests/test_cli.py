import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivenjc import liouville
from drivenjc.cli import OPTIONS, main


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
        _, header, rows = read_csv(out)
        assert header[-2:] == ["concurrence_numeric", "trace_error"]
        np.testing.assert_allclose(rows[:, 6], rows[:, 1], atol=1e-6)
        assert rows[:, 7].max() < 1e-8

    def test_bad_steps_exits_2(self):
        assert main(["timeseries", "--steps", "1"]) == 2


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


class TestInputContract:
    @pytest.mark.parametrize("argv, code", [
        (["params", "--g", "nan"], 2),
        (["timeseries", "--kappa", "nan"], 2),
        (["timeseries", "--c0-re", "nan"], 2),
        (["timeseries", "--alpha-re", "inf"], 2),
        (["timeseries", "--oracle", "--tol", "nan"], 2),
        (["sweep2d", "--g", "0", "--axis1", "lambda:0:1",
          "--axis2", "kappa:0:1e-3"], 2),
        (["sweep2d", "--axis1", "lambda:0:nan", "--axis2", "kappa:0:1e-3"], 2),
        # finite inputs whose evaluation overflows
        (["timeseries", "--alpha-re", "1e200"], 3),
        (["params", "--g", "1e300"], 3),
        (["timeseries", "--g", "1e300"], 3),
        (["sweep2d", "--axis1", "g:0:1e300", "--axis2", "kappa:0:1e-3",
          "--grid", "3x2"], 3),
    ])
    def test_exit_code_without_output(self, argv, code, capsys):
        assert main(argv) == code
        assert capsys.readouterr().out == ""


_FLOATS = [name for name, kind, *_ in OPTIONS if kind is float]


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["params", "timeseries"]),
       steps=st.integers(2, 20),
       values=st.fixed_dictionaries({}, optional={
           name: st.sampled_from(["0", "1e300", "-1e300", "inf", "-inf", "nan"])
           for name in _FLOATS}))
def test_any_float_input_gives_finite_output_or_exit_code(command, steps, values):
    argv = [command, "--steps", str(steps)]
    # --name=value, since argparse reads "-1e300" after a flag as a flag
    argv += [f"--{name.replace('_', '-')}={text}" for name, text in values.items()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3)
    if code != 0:
        return
    lines = [ln for ln in out.getvalue().splitlines() if not ln.startswith("#")]
    if command == "params":
        cells = [ln.rpartition("=")[2] for ln in lines]
    else:
        cells = [c for ln in lines[1:] for c in ln.split(",")]
        assert len(lines) == steps + 1
    assert cells and np.all(np.isfinite(np.array(cells, dtype=float)))


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


class TestFigures:
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


class TestVerify:
    def test_default_checks_pass(self, capsys):
        rc = main(["verify", "--t-end", "120"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 7

    def test_misprinted_projector_detected(self, capsys, monkeypatch):
        def misprinted(Omega_eff, cfg):
            # both projectors on the |1> branch, a sign structure the
            # oracle checks must reject
            n = np.arange(float(cfg.dim))
            diag = np.concatenate([np.zeros(cfg.dim), Omega_eff * (n + 1.0)
                                   - Omega_eff * n])
            return np.diag(diag).astype(complex)

        monkeypatch.setattr(liouville, "build_interaction_V", misprinted)
        rc = main(["verify", "--t-end", "120"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    def test_lossless_entropy_reported_zero(self, tmp_path):
        out = tmp_path / "ts.csv"
        main(["timeseries", "--kappa", "0", "--oracle", "--steps", "4",
              "--t-end", "90", "--output", str(out)])
        _, _, rows = read_csv(out)
        np.testing.assert_allclose(rows[:, 2], 0.0, atol=1e-14)
