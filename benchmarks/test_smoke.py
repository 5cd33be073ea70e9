"""Smoke test of the benchmark: every workload at its smallest length.

    python3 -m pytest benchmarks

`--seconds 0` runs exactly one cycle of a workload.  Each run must print
every metric that BENCHMARK.json names, with its unit, and must have checked
the output of every call it made.  `verify` runs here too, although
BENCHMARK.json does not list it.
"""

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


@functools.lru_cache(maxsize=None)
def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    result, stdout = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert f"{m['name']} " in stdout
    assert result["attempted"] >= 1
    assert f"# checked {result['attempted']} of {result['attempted']} calls" in stdout
    assert "fail_ratio" in stdout


def test_closed_form_trace_shows_no_oracle_work():
    result, _ = _run("closed_form", 1)
    for name, metric in result["metrics"].items():
        if name.startswith(("liouville.", "integrator.")):
            assert metric["value"] == 0.0, name


def test_verify_counts_fail_verdicts_as_failed_calls():
    result, stdout = _run("verify", 0)
    assert result["correct"]
    verdicts = int(re.search(r"(\d+) FAIL verdicts", stdout).group(1))
    assert result["failed"] == verdicts
