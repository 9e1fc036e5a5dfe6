"""Command-line front end: run experiments, validate certificates, print bounds.

Commands
    run       execute a configured Monte Carlo experiment and write
              regret.csv, bounds.csv, and summary.txt to the output directory
    validate  run the invariant battery (gradient, slope certificate, prox
              oracle, recursion, dominance, coverage, moments) and print a
              pass/fail table
    bounds    print scalar certificates and optional bound series for given
              parameters, without running any simulation

All numeric output uses 17 significant digits so repeated runs with the same
config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .config import ConfigError, ExperimentConfig, _parse_float_list, load_config_file, make_config
from .harness import (
    AggregateReport,
    BATTERY_CHECKS,
    ValidationSummary,
    run_validation_battery,
)
from .subweibull import SubWeibullParams, hp_bound


_FLOAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT % x


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    template = ",".join([_FLOAT] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # one row of Python floats at a time: whole-column lists would
        # hold every cell as an object at once
        fh.writelines(template % tuple(row.tolist()) for row in np.column_stack(columns))


def write_report(report: AggregateReport, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = report.config
    problem = report.problem
    traj = report.trajectory
    mean = report.mean_regret
    t = np.arange(cfg.horizon + 1, dtype=float)

    # both band flavors: trajectory spread and mean-estimator spread
    spread = 3.0 * report.std_regret
    sem = spread / np.sqrt(cfg.trials)
    header = [
        "t",
        "mean_regret",
        "std_regret",
        "band_lo",
        "band_hi",
        "band_lo_sem",
        "band_hi_sem",
    ]
    cols = [
        t,
        mean,
        report.std_regret,
        np.maximum(mean - spread, 0.0),
        mean + spread,
        np.maximum(mean - sem, 0.0),
        mean + sem,
    ]
    certified = report.configured("expectation", "highprob")
    header += [f"bound_{c.name}" for c in certified]
    cols += [c.series for c in certified]
    regret_path = out_dir / "regret.csv"
    _write_csv(regret_path, header, cols)

    # every record, the configured mode first and sorted by name within a mode
    table = sorted(report.certificates, key=lambda c: (c.mode != cfg.bound_inputs, c.name))
    bounds_path = out_dir / "bounds.csv"
    header = ["t"] + [f"bound_{c.name}_{c.mode}" for c in table]
    _write_csv(bounds_path, header, [t] + [c.series for c in table])

    lines = [
        f"preset = {cfg.preset or 'custom'}",
        f"problem = {problem.name}",
        f"solver = {cfg.solver}",
        f"n = {problem.n}",
        f"horizon = {cfg.horizon}",
        f"trials = {cfg.trials}",
        f"seed = {cfg.seed}",
        f"bound_inputs = {cfg.bound_inputs}",
        f"smoothness = {_fmt(problem.smoothness)}",
        f"pl_constant = {_fmt(problem.pl_constant)}",
        f"zeta = {_fmt(report.recursion.zeta)}",
        f"diameter = {_fmt(problem.diameter)}",
        f"r0 = {_fmt(report.r0)}",
        f"fstar_exact = {problem.fstar_exact}",
        f"mu_exact = {problem.mu_exact}",
        f"envelope_theta = {_fmt(report.envelope_theta)}",
        f"envelope_k_max = {_fmt(float(np.max(report.envelope_k, initial=0.0)))}",
        f"e_bar = {_fmt(report.e_bar_used)}",
        f"psi_bar = {_fmt(report.psi_bar_used)}",
        f"psi_bar_source = {report.psi_bar_source}",
        f"asymptote = {_fmt(report.asymptote_value)}",
        f"recursion_max_violation = {_fmt(report.recursion_max_violation)}",
        f"domain_excursions = {int(traj.domain_excursions.sum())}",
        f"outside_theory = {traj.outside_theory}",
        f"min_raw_regret = {_fmt(float(traj.min_raw_regret.min()))}",
        f"final_mean_regret = {_fmt(float(report.mean_regret[-1]))}",
    ]
    for cert in report.configured("highprob"):
        joined = ", ".join(f"t={cp}: {cert.counts[cp]}" for cp in report.checkpoints)
        lines.append(f"violations_delta_{cert.level:g} = {joined}")
    summary_path = out_dir / "summary.txt"
    with open(summary_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return [regret_path, bounds_path, summary_path]


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    sections = load_config_file(args.config) if args.config is not None else {}
    overrides = {key: getattr(args, key, None) for key in ("preset", "trials", "seed", "out")}
    if args.delta is not None:
        try:
            overrides["deltas"] = _parse_float_list(args.delta)
        except ValueError as exc:
            raise ConfigError(f"bad value for --delta: {args.delta!r}") from exc
    if args.config is None and args.preset is None:
        raise ConfigError("provide --config and/or --preset")
    return make_config(sections, overrides)


def cmd_run(args: argparse.Namespace) -> int:
    from .harness import run_experiment

    config = _config_from_args(args)
    out_dir = Path(config.out_dir or "plgrad-out")
    # made before the run, so a path that cannot be one is refused before
    # any trial; a run that is refused leaves nothing behind
    made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory: {exc}") from exc
    try:
        report = run_experiment(config)
    except BaseException:
        for path in made:
            path.rmdir()
        raise
    for path in write_report(report, out_dir):
        print(f"wrote {path}")
    return 0


def verdict_table(summary: ValidationSummary) -> str:
    """One `name  PASS/FAIL  detail` line per check, names padded to one width."""
    width = max(len(c.name) for c in summary.checks)
    return "\n".join(
        f"{c.name:<{width}}  {'PASS' if c.passed else 'FAIL'}  {c.detail}" for c in summary.checks
    )


def cmd_validate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    summary = run_validation_battery(config, checks)
    print(verdict_table(summary))
    if not summary.passed:
        print(f"failed checks: {', '.join(summary.failed_names())}")
        return 1
    return 0


# each optional `bounds` argument and one it is read with: given without
# it, no printed line would read it, so it is refused rather than ignored
_READ_WITH = {
    "mu": "l", "l": "mu", "e_bar": "mu", "psi_bar": "e_bar", "r0": "horizon", "diameter": "horizon"
}


def _bound_lines(args: argparse.Namespace) -> list[str]:
    """Every line `plgrad bounds` prints; an argument out of range raises ValueError."""
    for name, needed in _READ_WITH.items():
        if getattr(args, name) is not None and getattr(args, needed) is None:
            raise ConfigError(f"--{name} needs --{needed}".replace("_", "-"))
    env = SubWeibullParams(args.theta, args.k)
    lines = [f"hp_bound = {_fmt(hp_bound(env, args.delta))}"]
    # the factor reads only the record's power, which no constant changes
    for name, solver in (("h", "ogd"), ("h_p", "opgm")):
        power = bounds_mod.recursion(solver, 1.0, 1.0, 1.0).power
        lines.append(f"{name} = {_fmt(bounds_mod.highprob_factor(power, args.theta, args.delta))}")

    ogd = None
    if args.mu is not None:  # and so --l, by _READ_WITH
        ogd = bounds_mod.recursion("ogd", args.l, args.mu, args.diameter)
        lines.append(f"zeta = {_fmt(ogd.zeta)}")
        if args.e_bar is not None:
            psi_bar = args.psi_bar if args.psi_bar is not None else 0.0
            # the gradient method's cap; --e-bar is sup E||e||^2
            lines.append(f"asymptote_ogd = {_fmt(ogd.cap(args.e_bar, psi_bar))}")

    if args.horizon is not None:
        if ogd is None:
            raise ConfigError("a bound series needs --mu and --l")
        if args.r0 is None:
            raise ConfigError("a bound series needs --r0")
        if args.horizon < 0:
            raise ConfigError(f"horizon must be nonnegative, got {args.horizon}")
        ks = np.full(args.horizon, args.k)
        psi = np.zeros(args.horizon)
        solvers = ("ogd", "opgm") if args.diameter is not None else ("ogd",)
        series = []
        for solver in solvers:
            rec = bounds_mod.recursion(solver, args.l, args.mu, args.diameter)
            bound = bounds_mod.highprob_bound(args.r0, rec, ks, psi, args.theta, args.delta)
            series.append((f"{solver}_highprob", bound))
        lines.append("t," + ",".join(name for name, _ in series))
        for t in range(args.horizon + 1):
            lines.append(f"{t}," + ",".join(_fmt(float(s[t])) for _, s in series))
    return lines


def cmd_bounds(args: argparse.Namespace) -> int:
    # every line is computed before the first is printed, so a bad argument
    # leaves stdout empty
    try:
        lines = _bound_lines(args)
    except OverflowError as exc:
        raise ConfigError(f"a certificate overflows a float at these parameters: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plgrad",
        description=(
            "Online (proximal-)gradient descent under stochastic gradient errors, "
            "with computable regret certificates and Monte Carlo validation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--preset", help="named preset supplying defaults")
    common.add_argument("--trials", type=int, help="override trial count")
    common.add_argument("--seed", type=int, help="override master seed")
    common.add_argument("--delta", help="comma-separated coverage levels")

    p_run = sub.add_parser("run", parents=[common], help="run an experiment, write CSVs")
    p_run.add_argument("--out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", parents=[common], help="run the invariant battery")
    p_val.add_argument(
        "--checks",
        default=",".join(BATTERY_CHECKS),
        help=f"comma-separated subset of {','.join(BATTERY_CHECKS)} (default: all)",
    )
    p_val.set_defaults(func=cmd_validate)

    p_bounds = sub.add_parser(
        "bounds", help="print certificates for given parameters (no simulation)"
    )
    for name in ("theta", "k", "delta"):
        p_bounds.add_argument(f"--{name}", type=float, required=True)
    for name in ("mu", "l", "diameter", "r0", "e-bar", "psi-bar"):
        p_bounds.add_argument(f"--{name}", type=float)
    p_bounds.add_argument("--horizon", type=int)
    p_bounds.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
