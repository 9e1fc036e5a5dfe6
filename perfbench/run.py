"""plgrad benchmark: times CLI-equivalent commands and checks their outputs.

Run from the repository root:

    python3 perfbench/run.py --workload fig1-ls --seed 7 --seconds 20 --trace 0

``--seed`` is the experiment seed, passed to plgrad as ``--seed``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics.  Human-
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Outputs,
results and the span file go to .perfbench-out/<workload>/.
"""

import os

# one thread everywhere; these must be set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PLGRAD_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"

from tracer import EXACT, PER_LAYER, Tracer, layer_targets, operation_metrics  # noqa: E402
from workloads import WORKLOADS, Checker, operate, trial_steps  # noqa: E402

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)
# fresh processes timed for setup_s; its median is reported
SETUP_RUNS = 5
# operations timed at least, however short --seconds is
MIN_REPEATS = 3


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _spread(values: list[float]) -> float:
    q1, q2, q3 = _quartiles(values)
    return (q3 - q1) / q2


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _repeat(checker: Checker, tracer: Tracer | None = None) -> tuple[float, bool]:
    """One operation, timed, then its output check; returns (seconds, passed)."""
    with tracer.span("repeat") if tracer else nullcontext():
        start = perf_counter()
        try:
            with tracer.span("op") if tracer else nullcontext():
                result = operate(checker.workload, checker.seed, checker.out_dir)
            wall = perf_counter() - start
            failures = checker.check(result)
        except Exception:  # a failed operation is counted and the run goes on
            wall = perf_counter() - start
            failures = [traceback.format_exc()]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return wall, not failures


def _setup_time(workload, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload.to_json(), str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    setup_runs: int = SETUP_RUNS,
) -> dict:
    """Run one benchmark measurement; return metrics, counts and run facts."""
    import numpy
    import scipy

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checker = Checker(workload, seed, out_dir)
    setup: list[float] = []
    setup_runs = 0 if trace else setup_runs

    # warm-up: fills caches and sets the byte-identity reference; not timed
    _, warm_ok = _repeat(checker)
    oks = [warm_ok]
    walls: list[float] = []
    traced_walls: list[float] = []
    traced_oks: list[bool] = []
    tracer = Tracer() if trace else None
    targets = layer_targets() if trace else []
    # --seconds counts operations and their checks; set-up probes run
    # between operations so that they sample the same stretch of time
    busy = 0.0
    while busy < seconds or len(walls) < MIN_REPEATS:
        start = perf_counter()
        wall, ok = _repeat(checker)
        walls.append(wall)
        oks.append(ok)
        if trace:
            with tracer.installed(targets):
                wall, ok = _repeat(checker, tracer)
            traced_walls.append(wall)
            traced_oks.append(ok)
        busy += perf_counter() - start
        if len(setup) < setup_runs:
            setup.append(_setup_time(workload, seed))
    while len(setup) < setup_runs:
        setup.append(_setup_time(workload, seed))

    steps = trial_steps(workload, seed)
    wall_s = statistics.median(walls)
    facts = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "trial_steps": steps,
        "wall_s": {"n": len(walls), "quartiles": _quartiles(walls), "spread": _spread(walls)},
    }
    if trace:
        rows = [operation_metrics(row) for row in tracer.per_root("repeat")]
        for i, row in enumerate(rows):
            if any(row[name] != rows[0][name] for name in EXACT):
                print(f"trace: counts of traced repeat {i} differ from repeat 0", file=sys.stderr)
                traced_oks[i] = False
        values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
        values["trace.overhead_frac"] = statistics.median(traced_walls) / wall_s - 1.0
        units = PER_LAYER
        facts["traced_wall_s"] = {"n": len(traced_walls), "quartiles": _quartiles(traced_walls)}
        tracer.save(out_dir / "trace.npz")
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        facts["setup_s"] = {"n": len(setup), "quartiles": _quartiles(setup), "spread": _spread(setup)}
    oks += traced_oks
    failed = oks.count(False)
    facts["us_per_trial_step"] = wall_s / steps * 1e6 if steps else None
    facts["failed_frac"] = failed / len(oks)
    return {
        "correct": failed == 0,
        "attempted": len(oks),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in units},
        "facts": facts,
    }


def _print_result(result: dict) -> None:
    facts = result["facts"]
    print(f"workload {facts['workload']}  seed {facts['seed']}  trace {facts['trace']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<38} {metric['value']:.6g} {metric['unit']}")
    wall = facts["wall_s"]
    q1, _, q3 = wall["quartiles"]
    print(f"  {'wall_s samples':<38} n={wall['n']} q1={q1:.6g} q3={q3:.6g} s")
    per_step = facts["us_per_trial_step"]
    per_step_text = "n/a (no trial steps)" if per_step is None else f"{per_step:.6g} us"
    print(f"  {'us_per_trial_step':<38} {per_step_text}")
    print(f"  {'failed_frac':<38} {facts['failed_frac']:.6g} ({result['failed']}/{result['attempted']})")
    print("facts " + json.dumps(facts))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "plgrad" / "__init__.py").is_file():
        print(f"error: no plgrad sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import plgrad

    if Path(plgrad.__file__).resolve().parent != SRC / "plgrad":
        print(f"error: imported plgrad from {plgrad.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out_dir = WORK / workload.name
    result = measure(workload, args.seed, args.seconds, bool(args.trace), out_dir)
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    _print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
