"""The benchmark's workloads, the operation each one times, and its output check.

One operation is the in-process equivalent of one CLI command:

* ``plgrad run``: make_config -> harness.run_experiment -> cli.write_report
* ``plgrad validate --checks ...``: make_config -> harness.run_validation_battery

This module imports only the standard library at load time, so that
setup_probe.py can time ``import plgrad`` itself.  plgrad functions are
looked up through their modules at call time, so the tracer's wrappers are
the ones called while it is installed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

OUTPUT_FILES = ("regret.csv", "bounds.csv", "summary.txt")
EXACT_CONSTANTS = ("smoothness", "pl_constant", "diameter")
# r0 is the mean over trials of one repeated value, so the mean may round
# in the last bits; the other constants are copied and must match exactly
R0_REL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    """A named CLI command: a preset, config-file sections over it, and the checks run."""

    name: str
    command: str  # "run" or "validate"
    preset: str
    sections: dict = field(default_factory=dict)  # section -> {key: value}
    checks: tuple[str, ...] = ()

    def config(self, seed: int, out_dir: Path | None = None):
        from plgrad import config

        sections = {name: dict(values) for name, values in self.sections.items()}
        overrides = {
            "preset": self.preset,
            "seed": seed,
            "out": None if out_dir is None else str(out_dir),
        }
        return config.make_config(sections, overrides)

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @staticmethod
    def from_json(text: str) -> "Workload":
        spec = json.loads(text)
        spec["checks"] = tuple(spec["checks"])
        return Workload(**spec)


# fig1-ls: the paper's headline run; small iterates, so per-step dispatch
#   of the solver loop (noise draws, problem oracles) is nearly all the time.
#   Not listed in BENCHMARK.json: on a shared host its run-to-run spread
#   exceeds the largest bound the benchmark may set (see README.md).
# fig3-dr500: the full-size demand-response run; 50x wider iterates, a box
#   prox and 1-D noise, so array work and the prox layer carry weight.
# checks-dr500: the invariant battery on the same problem; no Monte Carlo
#   run, so solvers and noise sit idle and scalar oracle calls dominate.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig1-ls", "run", "fig1-ls"),
        Workload(
            "fig3-dr500", "run", "fig3-demand-response", sections={"problem": {"n_der": 500}}
        ),
        Workload(
            "checks-dr500",
            "validate",
            "fig3-demand-response",
            sections={"problem": {"n_der": 500}},
            checks=("gradient", "pl", "prox"),
        ),
    )
}

# check names run_validation_battery reports for each selectable check
_CHECK_NAMES = {"gradient": "gradient_fd", "pl": "pl_certificate", "prox": "prox_grid"}


def operate(workload: Workload, seed: int, out_dir: Path):
    """Run one CLI-equivalent command; return what the output check needs."""
    from plgrad import cli, harness

    cfg = workload.config(seed, out_dir)
    if workload.command == "run":
        report = harness.run_experiment(cfg)
        cli.write_report(report, Path(cfg.out_dir))
        return report
    return harness.run_validation_battery(cfg, workload.checks)


def trial_steps(workload: Workload, seed: int) -> int:
    """Trials x horizon of one operation; 0 for a command that simulates nothing."""
    if workload.command != "run":
        return 0
    cfg = workload.config(seed)
    return cfg.trials * cfg.horizon


def _parse_summary(text: str) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    return {key: value for key, value in pairs}


class Checker:
    """Checks each repeat's outputs against a direct build and the first good repeat.

    Run workloads: every validate_bounds check passes; summary.txt states the
    smoothness, PL constant, diameter and r0 of a direct build_problem; and
    regret.csv, bounds.csv and summary.txt are byte-identical to the first
    repeat that passed.  Validate workloads: every selected check passes and
    the verdict table is identical to the first repeat's.
    """

    def __init__(self, workload: Workload, seed: int, out_dir: Path):
        from plgrad import config

        self.workload = workload
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.reference: dict | None = None
        self.constants: dict[str, float] = {}
        if workload.command == "run":
            cfg = workload.config(seed)
            problem = config.build_problem(cfg)
            x0 = config.initial_point(cfg, problem)
            self.constants = {key: getattr(problem, key) for key in EXACT_CONSTANTS}
            self.constants["r0"] = max(problem.total_value(0, x0) - problem.fstar(0), 0.0)

    def check(self, result) -> list[str]:
        """Return a description of each failed check; empty when the output is correct."""
        if self.workload.command == "run":
            failures, outputs = self._check_run(result)
        else:
            failures, outputs = self._check_validate(result)
        if not failures:
            if self.reference is None:
                self.reference = outputs
            failures = [
                f"{name} differs from the first repeat"
                for name, data in outputs.items()
                if data != self.reference[name]
            ]
        return failures

    def _check_run(self, report) -> tuple[list[str], dict]:
        from plgrad import harness

        summary = harness.validate_bounds(report)
        failures = [f"{c.name}: {c.detail}" for c in summary.checks if not c.passed]
        outputs = {name: (self.out_dir / name).read_bytes() for name in OUTPUT_FILES}
        stated = _parse_summary(outputs["summary.txt"].decode())
        for key, expected in self.constants.items():
            got = float(stated[key])
            tol = R0_REL_TOL * abs(expected) if key == "r0" else 0.0
            if not math.isclose(got, expected, rel_tol=0.0, abs_tol=tol):
                failures.append(f"summary.txt {key} = {got!r}, direct build gives {expected!r}")
        return failures, outputs

    def _check_validate(self, summary) -> tuple[list[str], dict]:
        failures = [f"{c.name}: {c.detail}" for c in summary.checks if not c.passed]
        names = [c.name for c in summary.checks]
        expected = [_CHECK_NAMES[c] for c in self.workload.checks]
        if names != expected:
            failures.append(f"checks run {names}, expected {expected}")
        table = "\n".join(f"{c.name} {c.passed} {c.detail}" for c in summary.checks)
        return failures, {"verdict table": table.encode()}
