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

    @pytest.mark.parametrize("below", ["", "deeper"], ids=["a-file", "below-a-file"])
    def test_out_that_cannot_be_a_directory_runs_no_trial(
        self, tmp_path, capsys, monkeypatch, below
    ):
        # refused before the run, not by write_report after every trial
        from plgrad import harness

        def no_run(config):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        args = ["run", "--preset", "static-ls", "--trials", "2", "--out", str(taken / below)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: cannot make the output directory: ")
        assert taken.read_text() == "kept"

    def test_refused_run_removes_only_the_directories_it_made(
        self, tmp_path, capsys, monkeypatch
    ):
        from plgrad import harness

        def refuse(config):
            raise ConfigError("refused")

        monkeypatch.setattr(harness, "run_experiment", refuse)
        (tmp_path / "kept").mkdir()
        for out in (tmp_path / "kept", tmp_path / "kept" / "made" / "deeper"):
            assert main(["run", "--preset", "static-ls", "--out", str(out)]) == 2
            assert capsys.readouterr().err == "error: refused\n"
            assert (tmp_path / "kept").is_dir() and not (tmp_path / "kept" / "made").exists()

    def test_write_failure_after_the_run_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        from plgrad import cli, harness

        def unwritable(report, out_dir):
            raise PermissionError(13, "Permission denied", str(out_dir / "regret.csv"))

        monkeypatch.setattr(harness, "run_experiment", lambda config: None)
        monkeypatch.setattr(cli, "write_report", unwritable)
        assert main(["run", "--preset", "static-ls", "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        regret = tmp_path / "out" / "regret.csv"
        assert captured.out == ""
        assert captured.err == f"error: [Errno 13] Permission denied: '{regret}'\n"

    def test_preset_only(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["run", "--preset", "static-ls", "--trials", "4", "--out", str(out)]
        )
        assert code == 0
        _, data = read_csv(out / "regret.csv")
        assert data.shape[0] == 501

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--preset", "static-ls", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_config_or_preset(self, capsys):
        assert main(["run"]) == 2

    def test_empty_config_path_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["run", "--preset", "static-ls", "--trials", "2", "--config", "", "--out", str(out)]
        assert main(args) == 2
        # the value given, not ".", which Path("") names
        assert "config file not found: ''" in capsys.readouterr().err
        assert not out.exists()

    def test_comment_only_config_names_the_missing_problem_kind(self, tmp_path, capsys):
        cfg = tmp_path / "empty.ini"
        cfg.write_text("# only a comment\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "problem kind must be one of" in err
        assert "provide --config" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "delta, message",
        [
            ("0.1,abc", "bad value for --delta: '0.1,abc'"),
            ("", "at least one delta is required"),
            (" , ", "at least one delta is required"),
            ("0.1,0.1000001", "deltas must differ in their %g labels, got 0.1, 0.1"),
            # 2/delta overflows a float, so no high-probability factor is finite
            ("1e-320", "is inf, not finite"),
        ],
    )
    def test_bad_delta_is_a_config_error(self, tmp_path, capsys, delta, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(MINI_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--delta", delta, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out.exists()

    def test_delta_list_parses_as_in_a_config_file(self, tmp_path):
        # "0.1, " is accepted as the config file's "deltas = 0.1, " is
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(MINI_CONFIG.replace("deltas = 0.1", "deltas = 0.05"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--delta", "0.1, ", "--out", str(out)]) == 0
        header, _ = read_csv(out / "regret.csv")
        assert [h for h in header if h.startswith("bound_highprob")] == ["bound_highprob_0.1"]

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

    @pytest.mark.parametrize("solver", ["ogd", "opgm"])
    def test_biased_output_noise_validates_on_analytic_inputs(self, tmp_path, capsys, solver):
        # a multi-row measured map with a bias has closed-form moments too
        cfg = tmp_path / "lti-bias.cfg"
        cfg.write_text(
            f"[experiment]\npreset = lti\nsolver = {solver}\ntrials = 20\nhorizon = 100\n"
            "bound_inputs = analytic\n[noise]\nbias = 0.05\n"
        )
        code = main(["validate", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "envelope_moments" in out and "FAIL" not in out

    @pytest.mark.parametrize(
        "preset, problem", [("fig3-demand-response", "n_der = 1"), ("static-ls", "mu = 1\nl = 1")]
    )
    def test_mu_equal_to_l_runs_and_validates(self, tmp_path, capsys, preset, problem):
        # zeta = 0: one device has L = mu = ||a||^2, and mu = L is a valid least-squares pair
        cfg = tmp_path / "zeta0.cfg"
        cfg.write_text(
            f"[experiment]\npreset = {preset}\ntrials = 4\nhorizon = 60\n[problem]\n{problem}\n"
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "zeta = 0\n" in (tmp_path / "out" / "summary.txt").read_text()
        code = main(["validate", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "FAIL" not in out

    def test_empty_check_selection(self, capsys):
        assert main(["validate", "--preset", "static-ls", "--checks", " , "]) == 2
        assert "no checks selected" in capsys.readouterr().err

    @pytest.mark.parametrize("checks", ["bogus", "pl,bogus", "gradient,Prox"])
    def test_unknown_check_is_a_config_error(self, checks, capsys):
        # exit 1 means a failing certificate; a bad name is a usage error
        assert main(["validate", "--preset", "static-ls", "--checks", checks]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown checks" in captured.err
        assert "available: gradient, pl, prox, recursion, dominance, coverage, moments" in (
            captured.err
        )

    def test_out_is_refused_before_any_check(self, tmp_path, capsys, monkeypatch):
        # --out belongs to run: validate writes no file, so argparse refuses it
        from plgrad import cli

        calls = []
        monkeypatch.setattr(cli, "run_validation_battery", lambda *args: calls.append(args))
        argv = ["validate", "--preset", "static-ls", "--trials", "2", "--checks", "gradient"]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--out", str(tmp_path / "x")])
        assert exit_info.value.code == 2 and calls == []
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --out" in captured.err
        assert not (tmp_path / "x").exists()


ANALYTIC_CONFIG = """\
[experiment]
preset = fig1-ls
trials = 6
horizon = 30
seed = 7
bound_inputs = analytic
"""


def run_outputs(tmp_path, capsys, delta):
    """bounds.csv and regret.csv headers, the violations_delta_* keys of
    summary.txt, and the coverage verdict names of one run and battery."""
    cfg = tmp_path / "analytic.cfg"
    cfg.write_text(ANALYTIC_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--delta", delta, "--out", str(out)]) == 0
    capsys.readouterr()
    main(["validate", "--config", str(cfg), "--delta", delta, "--checks", "coverage"])
    verdicts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    summary = (out / "summary.txt").read_text().splitlines()
    return (
        read_csv(out / "bounds.csv")[0],
        read_csv(out / "regret.csv")[0],
        [line.split(" = ")[0] for line in summary if line.startswith("violations_delta_")],
        [name for name in verdicts if name.startswith("coverage_")],
    )


class TestCertificateColumns:
    def test_analytic_mode_and_unsorted_deltas_pin_every_column(self, tmp_path, capsys):
        # the goldens run in empirical mode with deltas (0.1, 0.05): here
        # the configured mode is analytic, and the %g labels of the deltas
        # sort "0.001" < "0.05" < "0.2" against their config order
        bounds_header, regret_header, violations, coverage = run_outputs(
            tmp_path, capsys, "0.2,0.001,0.05"
        )
        names = [
            "expectation",
            "highprob_0.001",
            "highprob_0.05",
            "highprob_0.2",
            "markov_0.001",
            "markov_0.05",
            "markov_0.2",
        ]
        assert bounds_header == ["t"] + [
            f"bound_{name}_{mode}" for mode in ("analytic", "empirical") for name in names
        ]
        assert regret_header == [
            "t",
            "mean_regret",
            "std_regret",
            "band_lo",
            "band_hi",
            "band_lo_sem",
            "band_hi_sem",
            "bound_expectation",
            "bound_highprob_0.2",
            "bound_highprob_0.001",
            "bound_highprob_0.05",
        ]
        assert violations == [
            "violations_delta_0.2",
            "violations_delta_0.001",
            "violations_delta_0.05",
        ]
        assert coverage == ["coverage_0.2", "coverage_0.001", "coverage_0.05"]

    def test_one_table_entry_reaches_every_reader(self, tmp_path, capsys, monkeypatch):
        # a configured-mode record added in the builder alone is written to
        # both CSVs, counted into the summary and gated by coverage.  Its
        # series is 0, so every trial with positive regret exceeds it
        from plgrad import bounds

        build = bounds.certificates

        def with_extra(r0, zeta, cost, psi, theta, deltas, inputs):
            records = build(r0, zeta, cost, psi, theta, deltas, inputs)
            records.append(bounds.Certificate("highprob", "analytic", 0.3, np.zeros(len(psi) + 1)))
            return records

        monkeypatch.setattr(bounds, "certificates", with_extra)
        bounds_header, regret_header, violations, coverage = run_outputs(
            tmp_path, capsys, "0.2,0.001,0.05"
        )
        analytic = [h for h in bounds_header if h.endswith("_analytic")]
        assert analytic[3:5] == ["bound_highprob_0.2_analytic", "bound_highprob_0.3_analytic"]
        assert "bound_highprob_0.3_empirical" not in bounds_header
        assert regret_header[-2:] == ["bound_highprob_0.05", "bound_highprob_0.3"]
        assert violations[-2:] == ["violations_delta_0.05", "violations_delta_0.3"]
        assert coverage[-2:] == ["coverage_0.05", "coverage_0.3"]
        out = tmp_path / "out"
        summary = (out / "summary.txt").read_text().splitlines()
        stated = dict(line.split(" = ", 1) for line in summary)
        assert stated["violations_delta_0.3"] == "t=7: 6, t=15: 6, t=30: 6"
        _, data = read_csv(out / "regret.csv")
        assert np.all(data[:, -1] == 0.0)
        main(["validate", "--config", str(tmp_path / "analytic.cfg"), "--delta", "0.2,0.001,0.05"])
        table = capsys.readouterr().out.splitlines()
        verdicts = {line.split()[0]: line.split()[1] for line in table}
        assert verdicts["coverage_0.3"] == "FAIL"
        assert verdicts["coverage_0.2"] == "PASS"


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

    def test_zeta_zero_series(self, capsys):
        # mu = L: B_{t+1} = c_{t+1}, the same constant cost at every t >= 1
        argv = "bounds --theta 0.5 --k 1 --delta 0.05 --mu 1 --l 1 --r0 1 --horizon 2"
        assert main(argv.split()) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "zeta = 0" in lines
        rows = lines[lines.index("t,ogd_highprob") + 1 :]
        assert [row.split(",")[0] for row in rows] == ["0", "1", "2"]
        assert rows[1].split(",")[1] == rows[2].split(",")[1]

    def test_invalid_delta(self, capsys):
        assert main(["bounds", "--theta", "1", "--k", "1", "--delta", "1.5"]) == 2

    @pytest.mark.parametrize(
        "extra",
        [
            "--k nan",
            "--k inf",
            "--theta inf",
            "--mu 1 --l inf --r0 1 --horizon 3",
            "--mu nan --l 2",
            "--mu 1 --l 2 --r0 -1 --horizon 3",
            "--mu 1 --l 2 --e-bar -1",
            "--mu 1 --l 2 --r0 1 --horizon -3",
            "--mu 1 --l 2 --r0 1 --horizon 3 --diameter -2",
            "--theta 1000",
            "--mu 1 --l 2 --r0 nan --horizon 3",
            "--mu 1 --l 2 --e-bar inf",
            "--mu 1 --l 2 --r0 1 --horizon 3 --diameter inf",
            "--mu 0.1 --l 1 --e-bar 1 --psi-bar 1e308",
            # an option that no printed line would read
            "--r0 nan",
            "--e-bar 1",
            "--mu 0.1",
            "--l 1",
            "--mu 0.1 --l 1 --psi-bar 1",
            "--diameter nan",
            "--mu 0.1 --l 1 --r0 1 --diameter 2",
            # a certificate that overflows a float: hp_bound, then a series
            "--k 1e308",
            "--k 1e200 --mu 0.1 --l 1 --r0 1 --horizon 1",
        ],
    )
    def test_bad_argument_prints_nothing(self, extra, capsys):
        # a later flag overrides the valid base value
        argv = ["bounds", "--theta", "0.5", "--k", "1", "--delta", "0.05", *extra.split()]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

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

    @pytest.mark.parametrize("deltas", ["0.1, 0.1000001", "0.05, 0.05"])
    def test_deltas_sharing_a_label_rejected(self, tmp_path, deltas):
        # each delta names its columns and checks by its %g label, so two
        # deltas with one label would write one name twice
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(MINI_CONFIG.replace("deltas = 0.1", f"deltas = {deltas}"))
        with pytest.raises(ConfigError, match="deltas must differ in their %g labels"):
            make_config(load_config_file(cfg))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_psi_bar_outside_range_rejected(self, value):
        # a nan cap would print `asymptote = nan` in summary.txt
        with pytest.raises(ConfigError, match="psi_bar must be finite"):
            make_config({"experiment": {"psi_bar": value}}, {"preset": "static-ls"})

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_step_override_outside_range_rejected(self, tmp_path, capsys, monkeypatch, value):
        # refused with the config, before the problem is built
        from plgrad import harness

        builds = []
        monkeypatch.setattr(harness, "build_problem", builds.append)
        cfg = tmp_path / "step.cfg"
        cfg.write_text(f"[experiment]\npreset = static-ls\nstep_override = {value}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "step_override must lie in (0, inf)" in capsys.readouterr().err
        assert not out.exists() and builds == []

    def test_psi_bar_whose_cap_overflows_is_refused_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        # psi_bar = 1e308 is finite, but the cap (L/mu) psi_bar is not
        from plgrad import harness

        runs = []
        monkeypatch.setattr(harness, "run", lambda *args, **kwargs: runs.append(args))
        cfg = tmp_path / "cap.cfg"
        cfg.write_text("[experiment]\npsi_bar = 1e308\n")
        out = tmp_path / "out"
        args = ["run", "--preset", "static-ls", "--trials", "2", "--config", str(cfg)]
        assert main([*args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "psi_bar = 1e+308" in captured.err and "not finite" in captured.err
        assert captured.out == "" and not out.exists() and runs == []

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_delta_without_a_finite_factor_is_refused_before_the_run(
        self, tmp_path, capsys, monkeypatch, command
    ):
        from plgrad import harness

        runs = []
        monkeypatch.setattr(harness, "run", lambda *args, **kwargs: runs.append(args))
        args = [command, "--preset", "static-ls", "--trials", "3", "--delta", "1e-320"]
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "run" else ["--checks", "coverage"]
        assert main([*args, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "not finite" in captured.err
        assert captured.out == "" and not out.exists() and runs == []

    def test_certificate_that_overflows_after_the_run_writes_nothing(self, tmp_path, capsys):
        # 2/delta is finite at delta = 1.2e-308, but the Markov series
        # E[regret] / delta is not once the mean bound, 2.28 at t = 0 here,
        # exceeds 2.16
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(MINI_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--delta", "1.2e-308", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: a certificate series overflows a float\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_moment_fit_that_overflows_after_the_run_writes_nothing(
        self, tmp_path, capsys, command
    ):
        # norms near 1e31 make the fit's 10th moment overflow a float; at
        # scale 1e29 it is finite.  numpy's overflow warning is an error here
        cfg = tmp_path / "exp.cfg"
        head = "[experiment]\npreset = static-ls\nhorizon = 20\ntrials = 3\n"
        cfg.write_text(head + "[noise]\nscale = 1e31\n")
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "run" else ["--checks", "recursion"]
        assert main([command, "--config", str(cfg), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the empirical moment fit overflows a float\n"
        assert captured.out == "" and not out.exists()
        if command == "run":
            cfg.write_text(head + "[noise]\nscale = 1e29\n")
            assert main([command, "--config", str(cfg), *extra]) == 0

    def test_unknown_experiment_key_in_sections_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown experiment settings: \['bogus'\]"):
            make_config({"experiment": {"bogus": 1}}, {"preset": "static-ls"})

    def test_short_noise_schedule_rejected(self):
        sections = {"experiment": {"horizon": 5}, "noise": {"per_time_scale": (1.0, 0.5, 1.0)}}
        with pytest.raises(ConfigError, match="covers 3 steps, need 5"):
            make_config(sections, {"preset": "static-ls"})

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigError, match="solver must be one of .*got 'sgd'"):
            make_config({"experiment": {"solver": "sgd"}}, {"preset": "static-ls"})

    def test_solver_regularizer_consistency(self):
        cfg = make_config({}, {"preset": "fig3-demand-response", "trials": 2})
        cfg.solver = "ogd"
        from plgrad.config import build_problem

        with pytest.raises(ConfigError, match="forbids a regularizer"):
            build_problem(cfg)

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
        # the target -(1^T w_t - p_ref) = -(250 + t) lies below the
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

    @pytest.mark.parametrize(
        "preset, problem, message",
        [
            ("fig1-ls", "n = 30", "need d >= n >= 1, got n=30, d=20"),
            ("fig3-demand-response", "bounds_lo = 1\nbounds_hi = 0", "lo < hi elementwise"),
            (
                "fig3-demand-response",
                "bounds_lo = -10",
                "bounds_lo and bounds_hi must be given together",
            ),
            (
                "fig3-demand-response",
                "n_der = 4\nbounds_lo = 1, 2, 3\nbounds_hi = 10",
                "bounds_lo must have 1 or 4 entries, got 3",
            ),
            ("fig3-demand-response", "traces = absent.csv", "No such file"),
            ("fig3-demand-response", "traces = {tmp}/nan.csv", "traces must be finite"),
            ("fig1-ls", "drift_std = nan", "noise scales must be finite"),
            ("fig1-ls", "drift_std = inf", "noise scales must be finite"),
            ("fig1-ls", "obs_noise_std = nan", "noise scales must be finite"),
            ("logistic", "drift_std = nan", "drift_std must be finite and nonnegative"),
            ("fig1-ls", "l = inf", "need 0 < mu <= l < inf"),
            ("fig1-ls", "mu = 1e-300", "contraction 1 - mu/L must lie in [0, 1), got 1.0"),
        ],
        ids=[
            "ls-n", "dr-bounds", "dr-lone-bound", "dr-bound-length", "dr-traces",
            "dr-nan-trace", "ls-drift-nan", "ls-drift-inf", "ls-obs-noise-nan",
            "logistic-drift-nan", "ls-l-inf", "ls-zeta-one",
        ],
    )
    def test_bad_problem_value_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, preset, problem, message
    ):
        # the family constructor's own check, or the contraction 1 - mu/L,
        # reported like a bad [noise] value before any trial runs
        from plgrad import harness

        runs = []
        monkeypatch.setattr(harness, "run", lambda *args, **kwargs: runs.append(args))
        # one trace entry is nan; the run is 4 steps long, so it is read
        rows = ["t,w_1,p_ref"] + [f"{t},10,{'nan' if t == 3 else -200}" for t in range(5)]
        (tmp_path / "nan.csv").write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "bad.cfg"
        head = f"[experiment]\npreset = {preset}\ntrials = 2\nhorizon = 4\n"
        cfg.write_text(f"{head}[problem]\n{problem.format(tmp=tmp_path)}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and runs == []

    def test_noise_without_finite_closed_forms_is_refused_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        # Weibull shape 0.01 makes E||e||^2 = scale^2 Gamma(201) overflow a float
        from plgrad import harness

        calls = []
        real_run = harness.run

        def counted_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(harness, "run", counted_run)
        cfg = tmp_path / "weibull.cfg"
        noise = "[noise]\nfamily = weibull_tail\nscale = 0.01\nweibull_shape = {}\n"
        head = "[experiment]\npreset = static-ls\ntrials = 4\nhorizon = 20\n"
        cfg.write_text(head + noise.format(0.01))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "no finite closed form" in captured.err and captured.out == ""
        assert not out.exists() and calls == []
        cfg.write_text(head + noise.format(0.05))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "summary.txt").exists() and len(calls) == 1

    @pytest.mark.parametrize("line", ["regularizer = l1", "regularizer = none", "l1_weight = 0.5"])
    def test_regularizer_keys_rejected(self, tmp_path, capsys, line):
        # each family fixes its regularizer at construction
        cfg = tmp_path / "reg.cfg"
        cfg.write_text(f"[experiment]\npreset = static-ls\nsolver = opgm\n[problem]\n{line}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"unknown key {line.split()[0]!r} in [problem]" in capsys.readouterr().err

    def test_problem_parsers_name_exactly_the_problem_keys(self):
        from plgrad import config

        keys = {"kind"}.union(*(defaults for _, defaults in config._PROBLEMS.values()))
        assert set(config._PROBLEM_PARSERS) == keys

    def test_burn_in_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[experiment]\npreset = static-ls\nburn_in = 7\n")
        with pytest.raises(ConfigError, match="unknown key 'burn_in'"):
            load_config_file(cfg)


IMPORT_GUARD = """\
import json, sys
from plgrad import cli

out_dir, cfgs = sys.argv[1], sys.argv[2:]
codes = []
for i, cfg in enumerate(cfgs):
    codes.append(cli.main(["run", "--config", cfg, "--out", f"{out_dir}/{i}"]))
    codes.append(cli.main(["validate", "--config", cfg, "--checks", "recursion,coverage"]))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


class TestImportFootprint:
    def test_run_and_validate_load_no_scipy(self, tmp_path):
        # scipy costs about a second to import and no family needs it: the
        # logistic optimum is closed-form like the others
        cfgs = []
        for preset in ("fig3-demand-response", "logistic"):
            cfg = tmp_path / f"{preset}.cfg"
            cfg.write_text(f"[experiment]\npreset = {preset}\ntrials = 4\nhorizon = 30\n")
            cfgs.append(str(cfg))
        src = str(Path(plgrad.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD, str(tmp_path / "out"), *cfgs],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == [0, 0, 0, 0]
        assert result["scipy"] == []
