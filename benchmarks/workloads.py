"""Seeded inputs of the benchmark workloads.

A workload is an endless sequence of cycles. A cycle is a fixed list of
call kinds whose parameters are drawn from the seed, so the same seed gives
the same argv lists and every run measures whole cycles of the same mix.
`verify` stratifies its ranges: each cycle draws one point from each
stratum, which keeps the cost of a cycle close from seed to seed without
narrowing the ranges the workload covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: The program's documented defaults (README), passed explicitly so that the
#: output checks never depend on values the benchmark did not choose.
BASE = {
    "omega": 2.0, "omega0": 1.9, "omega_c": 0.0, "g": 1e-2, "lam": 0.0,
    "kappa": 1e-3, "alpha_re": 1.0, "alpha_im": 0.0,
    "c0_re": 1.0 / math.sqrt(2.0), "c0_im": 0.0,
    "c1_re": 1.0 / math.sqrt(2.0), "c1_im": 0.0,
    "t_start": 0.0, "t_end": 300.0,
}

_FLAGS = {"omega_c": "--omega-c", "lam": "--lambda", "t_start": "--t-start",
          "t_end": "--t-end"}


@dataclass
class Call:
    """One `drivenjc.cli.main` call and what its output is checked against."""

    kind: str                   # subcommand, or fig1..fig4
    argv: list[str]
    params: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _flag(name: str) -> str:
    return _FLAGS.get(name, "--" + name.replace("_", "-"))


def _argv(command: str, params: dict, *rest: str) -> list[str]:
    argv = [command]
    for key, value in params.items():
        argv += [_flag(key), repr(int(value)) if key in ("steps", "nmax")
                 else repr(float(value))]
    return argv + list(rest)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _strata(lo: float, hi: float, n: int) -> list[tuple[float, float]]:
    edges = np.linspace(lo, hi, n + 1)
    return list(zip(edges[:-1], edges[1:]))


# --- closed_form ---------------------------------------------------------

#: (axis, low end, high end) of each sweepable axis; a sweep covers a seeded
#: sub-interval.  Only `lam` sweeps (at omega_c = 0) pass delta2 = 0, near
#: lambda = 0.312; a grid point lands inside the program's 1e-12 guard with
#: negligible probability, and the points around it stay finite.
SWEEP_AXES = {
    "lam": (0.0, 1.0), "kappa": (0.0, 5e-3), "alpha_re": (0.2, 3.0),
    "alpha_im": (-1.0, 1.0), "g": (2e-3, 2e-2), "omega_c": (0.0, 1.0),
}
SWEEP_PAIRS = [("lam", "kappa"), ("alpha_re", "alpha_im"), ("g", "kappa"),
               ("omega_c", "alpha_re"), ("lam", "alpha_re")]
SWEEP_GRID = (101, 101)


def _closed_form_cycle(rng, cycle: int, outdir: str) -> list[Call]:
    a1, a2 = SWEEP_PAIRS[cycle % len(SWEEP_PAIRS)]
    axes = []
    for name in (a1, a2):
        lo, hi = SWEEP_AXES[name]
        span = hi - lo
        axes.append((name, lo + span * rng.uniform(0.0, 0.2),
                     hi - span * rng.uniform(0.0, 0.2)))
    t_eval = rng.uniform(50.0, 150.0)
    axis_args = [f"--axis{i + 1}={n}:{lo!r}:{hi!r}" for i, (n, lo, hi) in
                 enumerate(axes)]
    sweep = Call("sweep2d", _argv("sweep2d", BASE, *axis_args,
                                  "--grid", "{}x{}".format(*SWEEP_GRID),
                                  "--t-eval", repr(t_eval)),
                 params=dict(BASE),
                 extra={"axes": axes, "grid": SWEEP_GRID, "t_eval": t_eval})

    drive = rng.uniform(0.5, 1.0) if cycle % 2 else 0.0
    ts_params = dict(BASE, kappa=_log_uniform(rng, 1e-4, 1e-2),
                     alpha_re=rng.uniform(0.5, 2.5), alpha_im=rng.uniform(-0.5, 0.5),
                     lam=drive, omega_c=drive, t_end=rng.uniform(200.0, 400.0),
                     steps=int(rng.integers(2000, 4001)))
    series = Call("timeseries", _argv("timeseries", ts_params),
                  params=ts_params)

    figs = [Call(f"fig{n}", [f"fig{n}", "--output", outdir], params=dict(BASE),
                 extra={"outdir": outdir}) for n in (1, 2, 3, 4)]
    return [sweep, series, *figs]


# --- oracle ---------------------------------------------------------------

#: (alpha range, nmax) of the two Fock sizes: dim 42 and dim 76.
ORACLE_SIZES = [((0.9, 1.1), 20), ((2.4, 2.6), 37)]
#: 120 samples over t in [0, 60]: the sample spacing of the CLI's default
#: 600 samples over [0, 300], so each sample still costs one rk45 restart,
#: but a call takes 0.3 s (dim 42) or 1.1 s (dim 76) instead of 1.5 s or
#: 5.5 s, and a run holds enough calls for a tail with ten calls beyond it.
ORACLE_STEPS = 120
ORACLE_T_END = 60.0


def _oracle_call(rng, alpha_range, nmax: int, driven: bool) -> Call:
    drive = rng.uniform(0.15, 0.25) if driven else 0.0
    params = dict(BASE, alpha_re=rng.uniform(*alpha_range),
                  kappa=_log_uniform(rng, 5e-4, 2e-3), lam=drive,
                  omega_c=drive, t_end=ORACLE_T_END, steps=ORACLE_STEPS,
                  nmax=nmax)
    return Call("timeseries", _argv("timeseries", params, "--oracle"),
                params=params, extra={"oracle": True})


def _oracle_cycle(rng, cycle: int, outdir: str) -> list[Call]:
    (small, n_small), (large, n_large) = ORACLE_SIZES
    # four small calls per large one, so the median call is a dim-42 call
    # and the tail (about p90) a dim-76 call
    return [_oracle_call(rng, small, n_small, False),
            _oracle_call(rng, small, n_small, True),
            _oracle_call(rng, large, n_large, cycle % 2 == 0),
            _oracle_call(rng, small, n_small, False),
            _oracle_call(rng, small, n_small, True)]


# --- verify ----------------------------------------------------------------

VERIFY_KAPPA = (1e-4, 0.5)
VERIFY_ALPHA = (0.5, 2.5)
VERIFY_DRIVE = (0.0, 1.0)
VERIFY_STRATA = 8

#: Points kept in every cycle because they fail at the parent commit:
#: a dyad error of 1.17e-10 > 1e-10 at t=10, and a pairwise deviation of
#: 1.7 at t=500 (see ROADMAP item 4).
VERIFY_KNOWN_FAILURES = [dict(BASE, alpha_re=2.0), dict(BASE, kappa=0.5)]


def _verify_cycle(rng, cycle: int, outdir: str) -> list[Call]:
    n = VERIFY_STRATA
    log_k = _strata(math.log(VERIFY_KAPPA[0]), math.log(VERIFY_KAPPA[1]), n - 1)
    alphas = _strata(*VERIFY_ALPHA, n)
    drives = _strata(*VERIFY_DRIVE, n)
    # kappa stratum i (0 = kappa 0) pairs with alpha stratum n-1-i: the cost of
    # a call grows with both, so the dear high-kappa points keep a small
    # Fock space and the high-alpha points the small kappa where they fail
    calls = []
    for i in range(n):
        kappa = 0.0 if i == 0 else float(math.exp(rng.uniform(*log_k[i - 1])))
        drive = rng.uniform(*drives[(i * 3 + cycle) % n])
        params = dict(BASE, kappa=kappa, alpha_re=rng.uniform(*alphas[n - 1 - i]),
                      lam=drive, omega_c=drive)
        calls.append(Call("verify", _argv("verify", params), params=params))
    calls += [Call("verify", _argv("verify", p), params=p)
              for p in VERIFY_KNOWN_FAILURES]
    return calls


WORKLOADS = {
    "closed_form": _closed_form_cycle,
    "oracle": _oracle_cycle,
    "verify": _verify_cycle,
}

#: One cheap call per workload that runs before timing starts, so imports and
#: lazy set-up inside numpy and scipy are paid outside the measurement.
WARMUP = {
    "closed_form": ["timeseries", "--steps", "50"],
    "oracle": ["timeseries", "--oracle", "--steps", "8", "--t-end", "5"],
    "verify": ["verify", "--kappa", "0", "--t-end", "5"],
}


def cycles(workload: str, seed: int, outdir: str):
    """Yield the calls of one cycle after another, drawn from `seed`."""
    rng = np.random.default_rng(seed)
    make = WORKLOADS[workload]
    cycle = 0
    while True:
        yield make(rng, cycle, outdir)
        cycle += 1
