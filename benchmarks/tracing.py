"""Spans around the calls into each drivenjc module, installed from outside.

`Tracer.install` replaces module attributes with timing wrappers and
`Tracer.uninstall` puts the originals back; nothing in `src/` changes.
Spans are kept in memory as (name, start, end, parent, call id) and written
out when the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from array import array

import numpy as np

#: Per-layer metrics reported by a traced run: name -> unit.
PER_LAYER = {
    "liouville.rhs.self_ms": "ms",
    "liouville.rhs.us_per_eval": "us",
    "liouville.rhs.us_per_eval.dim42": "us",
    "liouville.rhs.us_per_eval.dim76": "us",
    "integrator.rhs_evals": "count",
    "integrator.rk45.calls": "count",
    "integrator.rk45.self_ms": "ms",
    "integrator.step_attempts": "count",
    "liouville.integrate.calls": "count",
    "liouville.integrate_sampled.self_ms": "ms",
    "liouville.expm.calls": "count",
    "liouville.expm.self_ms": "ms",
    "liouville.dense_generator.self_ms": "ms",
    "liouville.apply_factorized.calls": "count",
    "liouville.apply_factorized.self_ms": "ms",
    "liouville.verify_disentangling.self_ms": "ms",
    "liouville.project_two_qubit.calls": "count",
    "liouville.project_two_qubit.self_ms": "ms",
    "liouville.coherent_vector.calls": "count",
    "entanglement.wootters_concurrence.calls": "count",
    "entanglement.wootters_concurrence.self_ms": "ms",
    "entanglement.linear_entropy_general.self_ms": "ms",
    "model.ModelParams.calls": "count",
    "model.derive_params.calls": "count",
    "model.derive_params.self_ms": "ms",
    "analytic.evolve.calls": "count",
    "analytic.evolve.self_ms": "ms",
    "analytic.concurrence_analytic.self_ms": "ms",
    "analytic.linear_entropy_analytic.self_ms": "ms",
    "analytic.photon_number.self_ms": "ms",
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

RHS = "liouville.rhs"
#: A traced run starts no new cycle once it holds this many spans, which
#: bounds its memory (a `closed_form` cycle makes about 130 000).
SPAN_BUDGET = 1_000_000
#: One-line helpers called inside right-hand sides and projection loops;
#: a span around them would cost more than the work it times.
UNTRACED = {"annihilation", "number_op", "block"}


def _public_functions(module) -> list[str]:
    return [name for name, obj in vars(module).items()
            if not name.startswith("_") and name not in UNTRACED
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


class Tracer:
    """Span recorder for one traced run over a list of CLI calls.

    Span i is (names[name[i]], start[i], end[i], parent[i], call[i]), kept
    in flat arrays so a run of millions of spans stays small in memory.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("i")
        self.call_id = -1
        self._codes: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        code = self._codes[name]
        names, starts, ends = self.name, self.start, self.end
        parents, calls = self.parent, self.call
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            calls.append(self.call_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, module, attr: str, name: str, wrapper=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper or self.wrap(name, original))

    def install(self) -> None:
        """Wrap `cli.main` and the public functions of the other modules.

        Only `main` is wrapped in `cli`, so its self time is the CLI's own
        work: option handling, the per-point loops and CSV formatting.
        `liouville`'s bindings of `rk45` and `expm` are wrapped too, and
        every right-hand side handed to `rk45` is timed as `liouville.rhs`.
        """
        from drivenjc import analytic, cli, entanglement, liouville, model

        self._patch(cli, "main", "cli.main")
        self._patch(model, "ModelParams", "model.ModelParams")
        for module in (model, analytic, entanglement, liouville):
            short = module.__name__.rsplit(".", 1)[1]
            for attr in _public_functions(module):
                self._patch(module, attr, f"{short}.{attr}")
        self._patch(liouville, "expm", "liouville.expm")
        rk45 = liouville.rk45
        rk45_span = self.wrap("integrator.rk45", rk45)

        def traced_rk45(f, y0, *args, **kwargs):
            dim = math.isqrt(getattr(y0, "size", 0))
            return rk45_span(self.wrap(f"{RHS}@{dim}", f), y0, *args, **kwargs)

        self._patch(liouville, "rk45", "integrator.rk45", traced_rk45)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict:
        """name -> (calls, total self seconds)."""
        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested],
                            minlength=len(duration))
        counts = np.bincount(name, minlength=len(self.names))
        totals = np.bincount(name, weights=duration - child,
                             minlength=len(self.names))
        return {n: (int(counts[i]), float(totals[i]))
                for i, n in enumerate(self.names)}

    def metrics(self, cycles: int, overhead_ratio: float) -> dict:
        """The PER_LAYER metrics, counts and times per workload cycle."""
        selfs = self.self_times()

        def calls(name):
            return selfs.get(name, (0, 0.0))[0] / cycles

        def self_ms(name):
            return selfs.get(name, (0, 0.0))[1] * 1e3 / cycles

        rhs = {k: v for k, v in selfs.items() if k.startswith(RHS + "@")}
        evals = sum(v[0] for v in rhs.values())
        rhs_s = sum(v[1] for v in rhs.values())
        rk45_calls = calls("integrator.rk45")
        values = {
            "liouville.rhs.self_ms": rhs_s * 1e3 / cycles,
            "liouville.rhs.us_per_eval": rhs_s * 1e6 / evals if evals else 0.0,
            "integrator.rhs_evals": evals / cycles,
            # computed, not counted: an rk45 call evaluates the RHS once,
            # then six times per attempted step (Dormand-Prince with FSAL)
            "integrator.step_attempts": (evals / cycles - rk45_calls) / 6.0,
            "trace.overhead_ratio": overhead_ratio,
        }
        for dim in (42, 76):
            n, s = rhs.get(f"{RHS}@{dim}", (0, 0.0))
            values[f"liouville.rhs.us_per_eval.dim{dim}"] = s * 1e6 / n if n else 0.0
        for name in PER_LAYER:
            if name in values:
                continue
            span, _, kind = name.rpartition(".")
            values[name] = calls(span) if kind == "calls" else self_ms(span)
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER.items()}

    def dump(self, path, header: dict) -> None:
        """Write the span arrays, and `header` as JSON, to an .npz file."""
        np.savez_compressed(path, header=json.dumps(header),
                            names=np.array(self.names), name=self.name,
                            start=self.start, end=self.end,
                            parent=self.parent, call=self.call)
