"""Command-line surface: exit codes, file outputs, config handling."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plgrad
from plgrad.cli import _fmt, _write_csv, main
from plgrad.config import ConfigError, build_problem, load_config_file, make_config


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


MINI_CONFIG = """\
[experiment]
preset = static-ls
trials = 8
horizon = 40
seed = 7
deltas = 0.1

[noise]
family = gaussian_iid
scale = 0.0316227766016838
"""


class TestRunCommand:
    def test_writes_expected_files(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(MINI_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, data = read_csv(out / "regret.csv")
        assert header == [
            "t",
            "mean_regret",
            "std_regret",
            "band_lo",
            "band_hi",
            "band_lo_sem",
            "band_hi_sem",
            "bound_expectation",
            "bound_highprob_0.1",
        ]
        assert data.shape[0] == 41
        mean = data[:, header.index("mean_regret")]
        bound = data[:, header.index("bound_expectation")]
        assert np.all(mean <= bound + 1e-12 * (1 + bound))
        assert np.all(data[:, header.index("band_lo")] >= 0.0)
        assert (out / "bounds.csv").is_file()
        assert (out / "summary.txt").is_file()

    def test_missing_config_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = main(["run", "--config", str(tmp_path / "absent.cfg"), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_preset_only(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["run", "--preset", "static-ls", "--trials", "4", "--out", str(out)]
        )
        assert code == 0
        _, data = read_csv(out / "regret.csv")
        assert data.shape[0] == 501

    def test_requires_config_or_preset(self, capsys):
        assert main(["run"]) == 2

    def test_demand_response_preset_run(self, tmp_path):
        out = tmp_path / "dr"
        cfg = tmp_path / "dr.cfg"
        cfg.write_text(
            "[experiment]\npreset = fig3-demand-response\ntrials = 3\nhorizon = 80\n"
        )
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, data = read_csv(out / "regret.csv")
        mean = data[:, header.index("mean_regret")]
        # sharp initial decrease to a noise plateau
        assert mean[-1] < 1e-2 * mean[0]

    def test_summary_states_outside_theory(self, tmp_path):
        lines = {}
        for name, extra in (("default", ""), ("override", "step_override = 1.5\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(
                f"[experiment]\npreset = static-ls\ntrials = 4\nhorizon = 30\n{extra}"
            )
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            text = (out / "summary.txt").read_text().splitlines()
            lines[name] = dict(line.split(" = ", 1) for line in text)
        assert lines["override"]["outside_theory"] == "True"
        assert lines["default"]["outside_theory"] == "False"
        for stated in lines.values():
            assert float(stated["min_raw_regret"]) >= -1e-9

    def test_summary_diagnostics_reduce_the_trajectory(self, tmp_path):
        # a step of 2.1/L diverges in the ball's units but stays finite over
        # 200 steps, so the excursion count and step norms are nonzero
        from plgrad.cli import write_report
        from plgrad.harness import run_experiment

        cfg = make_config({}, {"preset": "static-ls", "trials": 5})
        cfg.horizon, cfg.step_override = 200, 2.1
        report = run_experiment(cfg)
        write_report(report, tmp_path)
        text = (tmp_path / "summary.txt").read_text().splitlines()
        stated = dict(line.split(" = ", 1) for line in text)
        traj = report.trajectory
        assert stated["domain_excursions"] == str(int(traj.domain_excursions.sum()))
        assert stated["max_step_norm"] == "%.17g" % traj.max_step_norm.max()
        assert stated["min_raw_regret"] == "%.17g" % traj.min_raw_regret.min()
        assert stated["outside_theory"] == "True"
        assert int(stated["domain_excursions"]) > 0

    def test_csv_rows_match_the_per_cell_writer(self, tmp_path):
        special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16 + 2, 0.1]
        columns = [
            np.arange(len(special)),  # an integer-valued t column
            np.array(special),
            np.array(special[::-1]) * -3.0,
        ]
        header = ["t", "a", "b"]
        path = tmp_path / "table.csv"
        _write_csv(path, header, columns)
        expected = "t,a,b\n" + "".join(
            ",".join(f"{float(col[i]):.17g}" for col in columns) + "\n"
            for i in range(len(special))
        )
        assert path.read_bytes() == expected.encode()
        assert all(_fmt(x) == f"{x:.17g}" for x in special + [3, np.float64(0.1)])


class TestValidateCommand:
    def test_passes_on_honest_preset(self, tmp_path, capsys):
        code = main(
            [
                "validate",
                "--preset",
                "static-ls",
                "--trials",
                "8",
                "--checks",
                "prox,recursion,dominance,moments",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_negative_control_fails_named_check(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            MINI_CONFIG.replace("[noise]", "[noise]\nenvelope_k_scale = 0.5")
            + "\n"
        )
        text = cfg.read_text().replace("deltas = 0.1", "deltas = 0.1\nbound_inputs = analytic")
        cfg.write_text(text)
        code = main(["validate", "--config", str(cfg), "--checks", "moments"])
        out = capsys.readouterr().out
        assert code == 1
        assert "envelope_moments" in out and "FAIL" in out

    def test_outside_theory_fails_validation(self, tmp_path, capsys):
        # checks that pass on their own must not vouch for certificates
        # that assume the step 1/L when the run used another step
        cfg = tmp_path / "override.cfg"
        cfg.write_text("[experiment]\npreset = static-ls\ntrials = 8\nstep_override = 1.5\n")
        code = main(["validate", "--config", str(cfg), "--checks", "dominance,coverage"])
        out = capsys.readouterr().out
        assert code == 1
        verdicts = {line.split()[0]: line.split()[1] for line in out.splitlines()[:-1]}
        assert verdicts["theory_scope"] == "FAIL"
        assert "failed checks: theory_scope" in out

    def test_l1_run_fails_validation(self, tmp_path, capsys):
        # fstar is the smooth optimum, so an l1 run measures F_t - f*_t and
        # no certificate covers it, however the other checks come out
        cfg = tmp_path / "l1.cfg"
        cfg.write_text(
            "[experiment]\npreset = static-ls\nsolver = opgm\ntrials = 40\n"
            "[problem]\nregularizer = l1\nl1_weight = 0.5\n"
        )
        checks = "recursion,dominance,coverage,moments,pl"
        code = main(["validate", "--config", str(cfg), "--checks", checks])
        out = capsys.readouterr().out
        assert code == 1
        lines = {line.split()[0]: line for line in out.splitlines()[:-1]}
        assert lines["theory_scope"].split()[1] == "FAIL"
        assert "l1 weight 0.5" in lines["theory_scope"]
        assert "step_override" not in lines["theory_scope"]

    def test_empty_check_selection(self, capsys):
        assert main(["validate", "--preset", "static-ls", "--checks", " , "]) == 2
        assert "no checks selected" in capsys.readouterr().err


class TestBoundsCommand:
    def test_scalar_certificates(self, capsys):
        delta = 2.0 / math.e
        code = main(
            ["bounds", "--theta", "1", "--k", "1", "--delta", f"{delta}", "--mu", "0.1", "--l", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(lines["hp_bound"]) == pytest.approx(2 * math.e, rel=1e-12)
        assert float(lines["h_p"]) == pytest.approx(2 * math.e, rel=1e-12)
        assert float(lines["zeta"]) == pytest.approx(0.9, rel=1e-15)

    def test_series_output(self, capsys):
        code = main(
            [
                "bounds",
                "--theta", "0.5", "--k", "0.1", "--delta", "0.05",
                "--mu", "0.1", "--l", "1", "--r0", "1", "--horizon", "5",
                "--diameter", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert "t,ogd_highprob,opgm_highprob" in lines
        assert len([l for l in lines if l[0].isdigit()]) == 6

    def test_invalid_delta(self, capsys):
        assert main(["bounds", "--theta", "1", "--k", "1", "--delta", "1.5"]) == 2

    def test_asymptote_output(self, capsys):
        code = main(
            ["bounds", "--theta", "0.5", "--k", "1", "--delta", "0.1",
             "--mu", "0.1", "--l", "1", "--e-bar", "0.01"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(lines["asymptote_ogd"]) == pytest.approx(0.05, rel=1e-12)


class TestConfigFiles:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[experiment]\npreset = static-ls\nturbo = yes\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config_file(cfg)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[plotting]\ncolor = red\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config_file(cfg)

    def test_typed_values(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(MINI_CONFIG)
        sections = load_config_file(cfg)
        assert sections["experiment"]["trials"] == 8
        assert sections["experiment"]["deltas"] == (0.1,)
        assert sections["noise"]["scale"] == pytest.approx(math.sqrt(1e-3))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            make_config({}, {"preset": "fig9"})

    def test_delta_validation(self):
        with pytest.raises(ConfigError):
            make_config({}, {"preset": "static-ls", "deltas": (1.5,)})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_psi_bar_outside_range_rejected(self, value):
        # a nan cap would print `asymptote = nan` in summary.txt
        with pytest.raises(ConfigError, match="psi_bar must be finite"):
            make_config({"experiment": {"psi_bar": value}}, {"preset": "static-ls"})

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_step_override_outside_range_rejected(self, value):
        # rejected before the first step, not later as a non-finite iterate
        from plgrad.harness import run_experiment

        cfg = make_config({"experiment": {"step_override": value}}, {"preset": "static-ls"})
        with pytest.raises(ValueError, match="step must be finite and positive"):
            run_experiment(cfg)

    def test_short_noise_schedule_rejected(self):
        sections = {"experiment": {"horizon": 5}, "noise": {"per_time_scale": (1.0, 0.5, 1.0)}}
        with pytest.raises(ConfigError, match="covers 3 steps, need 5"):
            make_config(sections, {"preset": "static-ls"})

    def test_solver_regularizer_consistency(self):
        cfg = make_config({}, {"preset": "fig3-demand-response", "trials": 2})
        cfg.solver = "ogd"
        from plgrad.config import build_problem

        with pytest.raises(ConfigError, match="forbids a regularizer"):
            build_problem(cfg)

    def test_opgm_needs_no_explicit_none(self):
        # a smooth family carries g = 0, so "regularizer = none" is a no-op
        from plgrad.harness import run_experiment

        cfg = make_config({}, {"preset": "static-ls", "trials": 3})
        cfg.solver, cfg.horizon = "opgm", 20
        assert build_problem(cfg).regularizer.kind == "none"
        implicit = run_experiment(cfg)
        cfg.problem["regularizer"] = "none"
        explicit = run_experiment(cfg)
        assert np.array_equal(implicit.trajectory.regret, explicit.trajectory.regret)
        assert np.array_equal(implicit.trajectory.error_norm, explicit.trajectory.error_norm)
        for key, series in implicit.bounds.items():
            assert np.array_equal(series, explicit.bounds[key])

    def test_demand_response_traces_from_csv(self, tmp_path):
        trace = tmp_path / "traces.csv"
        rows = ["t,w_1,p_ref"] + [f"{t},{50 + t},{-200.0}" for t in range(21)]
        trace.write_text("\n".join(rows) + "\n")
        cfg = make_config({}, {"preset": "fig3-demand-response", "trials": 2})
        cfg.horizon = 20
        cfg.problem["traces"] = str(trace)
        cfg.problem["n_der"] = 4
        from plgrad.config import build_problem

        problem = build_problem(cfg)
        # the target -(a_w^T w_t - p_ref) = -(250 + t) lies below the
        # reachable [-100, 200] of the default 4-device box
        assert problem.value(0, np.zeros(4)) == pytest.approx(0.5 * 250.0**2)
        assert problem.fstar(0) == pytest.approx(0.5 * 150.0**2)
        assert problem.fstar(20) == pytest.approx(0.5 * 170.0**2)

    def test_one_value_bounds_fill_the_box(self, tmp_path):
        cfg = tmp_path / "dr.cfg"
        cfg.write_text(
            "[experiment]\npreset = fig3-demand-response\ntrials = 2\nhorizon = 20\n"
            "[problem]\nn_der = 4\nbounds_lo = -10\nbounds_hi = 10\n"
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        box = build_problem(make_config(load_config_file(cfg))).regularizer
        assert np.array_equal(box.lo, np.full(4, -10.0))
        assert np.array_equal(box.hi, np.full(4, 10.0))

    @pytest.mark.parametrize("lo", ["-inf", "nan"])
    def test_non_finite_bounds_rejected_at_build(self, tmp_path, lo):
        # an infinite box would certify an infinite diameter and domain radius
        cfg = tmp_path / "dr.cfg"
        cfg.write_text(
            "[experiment]\npreset = fig3-demand-response\ntrials = 2\nhorizon = 20\n"
            f"[problem]\nn_der = 4\nbounds_lo = {lo}\nbounds_hi = 10\n"
        )
        with pytest.raises(ValueError, match="box bounds must be finite"):
            build_problem(make_config(load_config_file(cfg)))

    def test_l1_weight_needs_l1_regularizer(self):
        cfg = make_config({}, {"preset": "static-ls", "trials": 2})
        cfg.problem["l1_weight"] = 0.5
        with pytest.raises(ConfigError, match="l1_weight"):
            build_problem(cfg)

    def test_burn_in_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[experiment]\npreset = static-ls\nburn_in = 7\n")
        with pytest.raises(ConfigError, match="unknown key 'burn_in'"):
            load_config_file(cfg)


IMPORT_GUARD = """\
import json, sys
import plgrad
from plgrad import cli, config

out_dir, cfg = sys.argv[1], sys.argv[2]
codes = [
    cli.main(["run", "--config", cfg, "--out", out_dir]),
    cli.main(["validate", "--config", cfg, "--checks", "recursion,coverage"]),
]
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
logistic = config.make_config({"experiment": {"horizon": 3}}, {"preset": "logistic"})
config.build_problem(logistic)
print(json.dumps({"codes": codes, "before": before, "after": "scipy.optimize" in sys.modules}))
"""


class TestImportFootprint:
    def test_run_and_validate_load_no_scipy(self, tmp_path):
        # scipy costs about a second to import; only the logistic family's
        # inner solve needs it, so the other families never load it
        cfg = tmp_path / "dr.cfg"
        cfg.write_text(
            "[experiment]\npreset = fig3-demand-response\ntrials = 4\nhorizon = 30\n"
        )
        src = str(Path(plgrad.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD, str(tmp_path / "out"), str(cfg)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == [0, 0]
        assert result["before"] == []
        assert result["after"]
