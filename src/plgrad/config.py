"""Experiment configuration: presets, strict config files, builders.

Config files are flat key = value text with bracketed section headers
([experiment], [problem], [noise]); only documented keys are accepted, and
unknown keys are hard errors so that runs stay reproducible.  Defaults live
in two places: ExperimentConfig's fields and each problem kind's keyword
defaults in _PROBLEMS, where None means the family's own default.  A named
preset states only where it differs from them; a config file and
command-line flags override the preset, in that order.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import SOLVERS
from .noise import NoiseModel, time_scales
from .problems import (
    DemandResponse,
    DriftingLogistic,
    LtiTracking,
    OnlineProblem,
    TimeVaryingLeastSquares,
    load_demand_response_traces,
)


class ConfigError(ValueError):
    """Raised for malformed, unknown, or inconsistent configuration."""


# per problem kind: its class, and the [problem] keys it accepts besides
# kind, with their defaults.  None means the family's own default: the key
# is not passed, and the constructor builds it (DemandResponse's bounds and
# traces).
_PROBLEMS = {
    "timevarying_ls": (
        TimeVaryingLeastSquares,
        dict(n=10, d=20, mu=0.1, l=1.0, drift_std=0.0, obs_noise_std=0.0),
    ),
    "logistic": (DriftingLogistic, dict(n=10, d=40, drift_std=0.0)),
    "lti_tracking": (LtiTracking, dict(n=8, m=12)),
    "demand_response": (
        DemandResponse,
        dict(n_der=20, bounds_lo=None, bounds_hi=None, traces=None),
    ),
}

PROBLEM_KINDS = tuple(_PROBLEMS)


@dataclass
class ExperimentConfig:
    """Resolved, typed experiment description."""

    solver: str = "ogd"
    horizon: int = 500
    trials: int = 100
    seed: int = 42
    deltas: tuple[float, ...] = (0.1, 0.05)
    out_dir: str | None = None
    bound_inputs: str = "empirical"
    psi_bar: float | None = None
    step_override: float | None = None
    preset: str | None = None
    problem: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.solver not in SOLVERS:
            raise ConfigError(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if not self.deltas:
            raise ConfigError("at least one delta is required")
        for d in self.deltas:
            if not 0.0 < d < 1.0:
                raise ConfigError(f"delta must lie in (0, 1), got {d}")
        # each delta names its output columns and checks by its %g label
        labels = [f"{d:g}" for d in self.deltas]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"deltas must differ in their %g labels, got {', '.join(labels)}")
        if self.bound_inputs not in ("empirical", "analytic"):
            raise ConfigError(
                f"bound_inputs must be empirical or analytic, got {self.bound_inputs!r}"
            )
        if self.psi_bar is not None and not 0 <= self.psi_bar < math.inf:
            raise ConfigError("psi_bar must be finite and nonnegative")
        if self.step_override is not None and not 0 < self.step_override < math.inf:
            raise ConfigError(f"step_override must lie in (0, inf), got {self.step_override}")
        kind = self.problem.get("kind")
        if kind not in PROBLEM_KINDS:
            raise ConfigError(f"problem kind must be one of {PROBLEM_KINDS}, got {kind!r}")
        build_noise(self)  # checks the [noise] section


PRESETS: dict[str, dict] = {
    # drifting least squares with Gaussian gradient noise of variance 1e-3
    "fig1-ls": {
        "problem": {
            "kind": "timevarying_ls",
            "drift_std": math.sqrt(0.1),
            "obs_noise_std": math.sqrt(1e-3),
        },
        "noise": {"family": "gaussian_iid", "scale": math.sqrt(1e-3)},
    },
    # same geometry, frozen in time (sigma_t = phi_t = 0)
    "static-ls": {
        "problem": {"kind": "timevarying_ls"},
        "noise": {"family": "gaussian_iid", "scale": math.sqrt(1e-3)},
    },
    # box-constrained power tracking from noisy scalar measurements,
    # desk-scale device count (pass n_der = 500 for the full-size run)
    "fig3-demand-response": {
        "experiment": {"solver": "opgm", "horizon": 600, "trials": 50},
        "problem": {"kind": "demand_response"},
        "noise": {"family": "gaussian_iid", "scale": 10.0},
    },
    "logistic": {
        "experiment": {"horizon": 50, "trials": 20, "deltas": (0.1,)},
        "problem": {"kind": "logistic", "drift_std": 0.01},
        "noise": {"family": "gaussian_iid", "scale": 0.05},
    },
    "lti": {
        "experiment": {"horizon": 300, "trials": 50},
        "problem": {"kind": "lti_tracking"},
        "noise": {"family": "gaussian_iid", "scale": 0.05},
    },
}


def _parse_float_list(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    return tuple(float(p) for p in parts)


_EXPERIMENT_PARSERS = {
    "preset": str,
    "solver": str,
    "horizon": int,
    "trials": int,
    "seed": int,
    "deltas": _parse_float_list,
    "out": str,
    "bound_inputs": str,
    "psi_bar": float,
    "step_override": float,
}

_PROBLEM_PARSERS = {
    "kind": str,
    "n": int,
    "d": int,
    "m": int,
    "n_der": int,
    "mu": float,
    "l": float,
    "drift_std": float,
    "obs_noise_std": float,
    "bounds_lo": _parse_float_list,
    "bounds_hi": _parse_float_list,
    "traces": str,
}

_NOISE_PARSERS = {
    "family": str,
    "scale": float,
    "weibull_shape": float,
    "bias": float,
    "envelope_k_scale": float,
    "per_time_scale": _parse_float_list,
}

_PARSERS = {
    "experiment": _EXPERIMENT_PARSERS,
    "problem": _PROBLEM_PARSERS,
    "noise": _NOISE_PARSERS,
}


def load_config_file(path) -> dict[str, dict]:
    """Parse and type-check a config file; unknown keys are errors."""
    # the value given: Path("") is "."
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {str(path)!r}")
    path = Path(path)
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",)
    )
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    out: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _PARSERS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        parsers = _PARSERS[section]
        out[section] = {}
        for key, raw in parser.items(section):
            if key not in parsers:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                out[section][key] = parsers[key](raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for {section}.{key}: {raw!r}") from exc
    return out


def make_config(
    file_sections: dict | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Layer preset defaults, config-file values, and CLI overrides."""
    file_sections = file_sections or {}
    overrides = overrides or {}

    preset_name = overrides.get("preset") or file_sections.get("experiment", {}).get("preset")
    layered: dict[str, dict] = {"experiment": {}, "problem": {}, "noise": {}}
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset_name!r}; available: {sorted(PRESETS)}"
            )
        for section, values in PRESETS[preset_name].items():
            layered[section].update(values)
    for section in ("experiment", "problem", "noise"):
        layered[section].update(file_sections.get(section, {}))
    for key, value in overrides.items():
        if value is None:
            continue
        if key == "preset":
            continue
        layered["experiment"][key] = value

    exp = layered["experiment"]
    exp.pop("preset", None)
    unknown = sorted(exp.keys() - _EXPERIMENT_PARSERS.keys())
    if unknown:
        raise ConfigError(f"unknown experiment settings: {unknown}")
    if "out" in exp:
        exp["out_dir"] = exp.pop("out")
    if "deltas" in exp:
        exp["deltas"] = tuple(exp["deltas"])
    cfg = ExperimentConfig(
        **exp,
        preset=preset_name,
        problem=dict(layered["problem"]),
        noise=dict(layered["noise"]),
    )
    cfg.validate()
    return cfg


def build_noise(cfg: ExperimentConfig) -> NoiseModel:
    spec = dict(cfg.noise)
    unknown = sorted(spec.keys() - _NOISE_PARSERS.keys())
    if unknown:
        raise ConfigError(f"unused noise settings: {unknown}")
    if "per_time_scale" in spec:
        spec["per_time_scale"] = tuple(spec["per_time_scale"])
    try:
        model = NoiseModel(**spec)
        time_scales(model, cfg.horizon)  # a schedule must cover the horizon
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return model


def build_problem(cfg: ExperimentConfig) -> OnlineProblem:
    spec = dict(cfg.problem)
    kind = spec.pop("kind")
    cls, defaults = _PROBLEMS[kind]
    unknown = sorted(spec.keys() - defaults.keys())
    if unknown:
        raise ConfigError(f"settings not applicable to {kind}: {unknown}")
    params = {**defaults, **spec}

    try:
        # config reads the user's files; the family builds everything else
        traces = params.pop("traces", None)
        if traces is not None:
            params["w_trace"], params["p_ref_trace"] = load_demand_response_traces(traces)
        problem = cls(
            seed=cfg.seed,
            horizon=cfg.horizon,
            **{key: value for key, value in params.items() if value is not None},
        )
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc

    if cfg.solver == "ogd" and problem.regularizer.kind != "none":
        raise ConfigError("ogd forbids a regularizer; use solver = opgm")
    return problem


def initial_point(cfg: ExperimentConfig, problem: OnlineProblem) -> np.ndarray:
    """Every run starts at the origin."""
    return np.zeros(problem.n)
