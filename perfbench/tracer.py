"""In-memory span tracer that wraps plgrad's layer functions from outside.

A span is (name, start, end, parent), recorded around each call into a
wrapped function; its parent is the innermost open span.  Spans are kept in
flat arrays while the benchmark runs and written out once at the end.  A
span's self time is its duration minus the durations of its direct
children, which run inside it and do not overlap one another.

Every traced repeat is one root span; the per-layer metrics are summed over
the spans under each root and reported per operation.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (name, unit, better) of every per-layer metric, in report order.
# ".calls" are counts and "_s" inclusive seconds, per operation; self_s and
# harness.aggregate_s are self times.
PER_LAYER = (
    ("problems.build_s", "s", "lower"),
    ("problems.value.calls", "count", "lower"),
    ("problems.value_s", "s", "lower"),
    ("problems.grad.calls", "count", "lower"),
    ("problems.grad_s", "s", "lower"),
    ("problems.fstar.calls", "count", "lower"),
    ("problems.fstar_s", "s", "lower"),
    ("problems.variability.calls", "count", "lower"),
    ("problems.variability_s", "s", "lower"),
    ("problems.value.calls_per_trial_step", "calls/step", "lower"),
    ("problems.prox_decrease.calls", "count", "lower"),
    ("problems.prox_decrease_s", "s", "lower"),
    ("noise.sample.calls", "count", "lower"),
    ("noise.sample_s", "s", "lower"),
    ("noise.sample.calls_per_trial_step", "calls/step", "lower"),
    ("noise.envelope_s", "s", "lower"),
    ("prox.prox.calls", "count", "lower"),
    ("prox.prox_s", "s", "lower"),
    ("prox.value.calls", "count", "lower"),
    ("prox.value_s", "s", "lower"),
    ("solvers.run.calls", "count", "lower"),
    ("solvers.run_s", "s", "lower"),
    ("solvers.self_s", "s", "lower"),
    ("solvers.trial_steps", "count", "higher"),
    ("bounds.series.calls", "count", "lower"),
    ("bounds.series_s", "s", "lower"),
    ("bounds.geometric_recursion.calls", "count", "lower"),
    ("bounds.geometric_recursion_s", "s", "lower"),
    ("subweibull.fit_from_samples.calls", "count", "lower"),
    ("subweibull.fit_from_samples_s", "s", "lower"),
    ("harness.run_experiment_s", "s", "lower"),
    ("harness.aggregate_s", "s", "lower"),
    ("harness.validate_bounds_s", "s", "lower"),
    ("harness.check.gradient_s", "s", "lower"),
    ("harness.check.pl_s", "s", "lower"),
    ("harness.check.prox_s", "s", "lower"),
    ("cli.write_report_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

# counted metrics must repeat exactly from one traced operation to the next
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "calls/step", "B"))


def _bytes_written(paths) -> int:
    return sum(path.stat().st_size for path in paths)


def _trial_steps(trajectory) -> int:
    return len(trajectory) - 1


def layer_targets() -> list[tuple[object, str, str, tuple | None]]:
    """(owner, attribute, span name, counter) for every wrapped function.

    Names a module imports directly (harness: build_problem, run,
    fit_from_samples; solvers: variability) are wrapped where they are
    imported, since that is the binding the caller looks up.
    """
    from plgrad import bounds, cli, harness, noise, problems, prox, solvers

    targets = [
        (harness, "build_problem", "problems.build", None),
        (harness, "run", "solvers.run", ("solvers.trial_steps", _trial_steps)),
        (harness, "fit_from_samples", "subweibull.fit_from_samples", None),
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "validate_bounds", "harness.validate_bounds", None),
        (harness, "_check_gradient", "harness.check.gradient", None),
        (harness, "_check_pl", "harness.check.pl", None),
        (harness, "_check_prox", "harness.check.prox", None),
        (solvers, "variability", "problems.variability", None),
        (problems, "prox_decrease", "problems.prox_decrease", None),
        (noise, "sample", "noise.sample", None),
        (noise, "envelope_norm", "noise.envelope", None),
        (prox.Regularizer, "prox", "prox.prox", None),
        (prox.Regularizer, "value", "prox.value", None),
        (bounds, "geometric_recursion", "bounds.geometric_recursion", None),
        (cli, "write_report", "cli.write_report", ("cli.bytes_written", _bytes_written)),
    ]
    for attr in (
        "ogd_expectation_bound",
        "ogd_highprob_bound",
        "opgm_expectation_bound",
        "opgm_highprob_bound",
        "markov_highprob_bound",
    ):
        targets.append((bounds, attr, "bounds.series", None))
    # oracles are methods: wrap each class that defines its own
    problem_classes = [
        cls
        for cls in vars(problems).values()
        if isinstance(cls, type) and issubclass(cls, problems.OnlineProblem)
    ]
    for cls in problem_classes:
        for attr in ("value", "grad", "fstar"):
            if attr in vars(cls):
                targets.append((cls, attr, f"problems.{attr}", None))
    return targets


class Tracer:
    """Records spans and counters in memory; wraps functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the parent span, -1 for a root
        self.counters: list[tuple[str, int, int]] = []  # (name, root span, value)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                root = self._stack[0] if self._stack else -1
                self.counters.append((counter[0], root, counter[1](result)))
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block, then restore the originals."""
        saved = []
        try:
            for owner, attr, name, counter in targets:
                original = vars(owner).get(attr)
                if original is None:
                    print(f"trace: {owner.__name__}.{attr} not found; not traced", file=sys.stderr)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.starts, dtype=np.float64).copy()
        end = np.frombuffer(self.ends, dtype=np.float64).copy()
        parent = np.frombuffer(self.parents, dtype=np.int64).copy()
        duration = end - start
        child = parent >= 0
        children = np.bincount(parent[child], weights=duration[child], minlength=len(start))
        return {
            "name": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "parent": parent,
            "self": duration - children,
        }

    def save(self, path) -> None:
        """Write every span and counter; self times are derived again on load."""
        spans = self.arrays()
        del spans["self"]
        np.savez(
            path,
            names=np.array(self.names),
            counters=np.array(json.dumps(self.counters)),
            **spans,
        )

    def per_root(self, root_name: str) -> list[dict]:
        """For each root span of that name: calls, inclusive and self seconds, counters."""
        spans = self.arrays()
        parent, name = spans["parent"], spans["name"]
        duration = spans["end"] - spans["start"]
        roots = np.flatnonzero(parent < 0)
        root_of = roots[np.searchsorted(roots, np.arange(len(parent)), side="right") - 1]
        rows = []
        for root in roots:
            if self.names[name[root]] != root_name:
                continue
            under = root_of == root
            ids = name[under]
            calls = np.bincount(ids, minlength=len(self.names))
            inclusive = np.bincount(ids, weights=duration[under], minlength=len(self.names))
            self_time = np.bincount(ids, weights=spans["self"][under], minlength=len(self.names))
            counters: dict[str, int] = {}
            for cname, croot, value in self.counters:
                if croot == root:
                    counters[cname] = counters.get(cname, 0) + value
            rows.append(
                {
                    "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
                    "inclusive": {n: float(inclusive[i]) for i, n in enumerate(self.names)},
                    "self": {n: float(self_time[i]) for i, n in enumerate(self.names)},
                    "counters": counters,
                }
            )
        return rows


def operation_metrics(row: dict) -> dict[str, float]:
    """The per-layer metrics of one traced operation (trace.overhead_frac aside)."""
    calls, inclusive = row["calls"], row["inclusive"]
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith("_s"):
            out[name] = inclusive.get(name[: -len("_s")], 0.0)
    out["solvers.self_s"] = row["self"].get("solvers.run", 0.0)
    out["harness.aggregate_s"] = row["self"].get("harness.run_experiment", 0.0)
    out["solvers.trial_steps"] = row["counters"].get("solvers.trial_steps", 0)
    out["cli.bytes_written"] = row["counters"].get("cli.bytes_written", 0)
    steps = out["solvers.trial_steps"]
    for span in ("problems.value", "noise.sample"):
        out[f"{span}.calls_per_trial_step"] = out[f"{span}.calls"] / steps if steps else 0.0
    return out
