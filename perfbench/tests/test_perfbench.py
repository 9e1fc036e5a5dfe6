"""Tests of the benchmark itself, on tiny workloads.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SEED = 5
TINY_RUN = {"trials": 3, "horizon": 12}
TINY = {
    "fig1-ls": Workload("fig1-ls", "run", "fig1-ls", sections={"experiment": TINY_RUN}),
    "fig3-dr500": Workload(
        "fig3-dr500",
        "run",
        "fig3-demand-response",
        sections={"problem": {"n_der": 30}, "experiment": TINY_RUN},
    ),
    "checks-dr500": Workload(
        "checks-dr500",
        "validate",
        "fig3-demand-response",
        sections={"problem": {"n_der": 4}, "experiment": {"horizon": 12}},
        checks=("gradient", "pl", "prox"),
    ),
}


def _measure(name, trace, out_dir, **kwargs):
    return bench.measure(TINY[name], SEED, 0.0, trace, out_dir, setup_runs=1, **kwargs)


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_tiny_workloads_mirror_the_real_ones():
    assert set(TINY) == set(WORKLOADS)
    for name, tiny in TINY.items():
        real = WORKLOADS[name]
        assert (tiny.command, tiny.preset, tiny.checks) == (real.command, real.preset, real.checks)


def test_benchmark_json_workloads_exist():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted_with_its_unit(name, tmp_path):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = _measure(name, trace, tmp_path / section)
        assert result["correct"] and result["failed"] == 0
        emitted = {key: metric["unit"] for key, metric in result["metrics"].items()}
        assert emitted == _declared(section)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_end_to_end_metrics_are_positive(tmp_path):
    result = _measure("fig1-ls", False, tmp_path)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_corrupted_csv_between_repeats_is_a_failure(tmp_path, monkeypatch):
    from plgrad import cli

    real_write = cli.write_report
    calls = []

    def corrupting_write(report, out_dir):
        written = real_write(report, out_dir)
        calls.append(out_dir)
        if len(calls) == 2:
            with open(out_dir / "regret.csv", "a") as fh:
                fh.write("0,0\n")
        return written

    monkeypatch.setattr(cli, "write_report", corrupting_write)
    result = _measure("fig1-ls", False, tmp_path)
    assert result["failed"] == 1
    assert not result["correct"]
    assert result["facts"]["failed_frac"] == pytest.approx(1 / result["attempted"])


def test_wrong_constant_in_summary_is_a_failure(tmp_path, monkeypatch):
    from plgrad import cli

    real_write = cli.write_report

    def misreporting_write(report, out_dir):
        report.problem_info["smoothness"] *= 1.0 + 1e-15
        return real_write(report, out_dir)

    monkeypatch.setattr(cli, "write_report", misreporting_write)
    result = _measure("fig1-ls", False, tmp_path)
    assert result["failed"] == result["attempted"]


def test_failed_validation_check_is_a_failure(tmp_path):
    # negative control: a deliberately mis-scaled envelope fails envelope_moments
    mis_scaled = Workload(
        "fig1-ls",
        "run",
        "fig1-ls",
        sections={
            "experiment": {**TINY_RUN, "bound_inputs": "analytic"},
            "noise": {"envelope_k_scale": 0.5},
        },
    )
    result = bench.measure(mis_scaled, SEED, 0.0, False, tmp_path, setup_runs=1)
    assert result["failed"] == result["attempted"]


def _traced(tmp_path):
    result = _measure("fig1-ls", True, tmp_path)
    spans = np.load(tmp_path / "trace.npz")
    return result, spans


def test_self_times_never_exceed_their_parent_span(tmp_path):
    _, spans = _traced(tmp_path)
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    duration = end - start
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(start))
    self_time = duration - children
    assert np.all(self_time >= -1e-9)
    assert np.all(self_time[has_parent] <= duration[parent[has_parent]] + 1e-9)
    assert np.all(start[has_parent] >= start[parent[has_parent]])
    assert np.all(end[has_parent] <= end[parent[has_parent]])


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    from tracer import EXACT

    first, _ = _traced(tmp_path / "a")
    second, _ = _traced(tmp_path / "b")
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["solvers.trial_steps"]["value"] == 3 * 12
    assert first["metrics"]["noise.sample.calls"]["value"] == 3 * 12


def test_tracer_restores_wrapped_functions(tmp_path):
    from plgrad import harness, problems

    before = (harness.run, problems.DemandResponse.value)
    _traced(tmp_path)
    assert (harness.run, problems.DemandResponse.value) == before


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1-ls", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
