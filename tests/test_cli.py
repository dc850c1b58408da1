"""End-to-end tests of the command-line interface.

Most tests run the installed module in a subprocess to pin down the real
exit codes and byte-level output; the unreachable-by-design exit path
(sweep monotonicity) is exercised in process with a stubbed solver, and
a 1,001-point label sweep runs in process to keep the suite fast.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ratemec import (
    RateClassProblem,
    SolverResult,
    binary_entropy,
    cli,
    label_params,
)

SCHEMA = "qx,qy,qs1,rate,cclass,value_bits,p1,p2,p3,p4,case_label,alpha"


def run_cli(*argv: str, env_extra: dict | None = None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ratemec", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


class TestSolve:
    def test_csv_output_and_schema(self):
        proc = run_cli("solve", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert meta[0] == "# ratemec 0.1.0"
        assert meta[1].startswith("# command: solve")
        assert data[0] == SCHEMA
        cells = data[1].split(",")
        assert len(cells) == 12
        assert cells[0] == "0.2"
        assert cells[10] in ("RateBound", "MarginalBound")
        assert float(cells[5]) > 0.0

    def test_json_output_has_every_schema_key(self):
        proc = run_cli(
            "solve", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5",
            "--format", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert list(payload.keys()) == SCHEMA.split(",")
        assert payload["qs1"] is None
        assert payload["value_bits"] > 0.0

    def test_byte_identical_across_runs(self):
        argv = ("solve", "--qx", "0.31", "--qy", "0.44", "--rate", "0.7")
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_missing_required_flags_exit_1(self):
        proc = run_cli("solve", "--qx", "0.2", "--qy", "0.3")
        assert proc.returncode == 1
        assert "--rate" in proc.stderr

    def test_boundary_marginal_exits_1(self):
        proc = run_cli("solve", "--qx", "0", "--qy", "0.3", "--rate", "0.5")
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_label_flags_must_come_together(self):
        proc = run_cli(
            "solve", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5",
            "--qs1", "0.1",
        )
        assert proc.returncode == 1
        assert "--qs1 and --cclass" in proc.stderr

    def test_infeasible_label_budget_exits_2_naming_the_gate(self):
        proc = run_cli(
            "solve", "--qx", "0.3", "--qy", "0.4", "--rate", "0.5",
            "--qs1", "0.2", "--cclass", "0.1",
        )
        assert proc.returncode == 2
        assert "H_b(q_S1)" in proc.stderr

    def test_joint_infeasibility_names_the_cap_that_binds(self):
        # R / H_b(0.4) = 5.15 is loose; the marginals cap p1 + p2 at
        # q_Y / q_X = 0.25, below the label floor 0.978.
        proc = run_cli(
            "solve", "--qx", "0.4", "--qy", "0.1", "--rate", "5",
            "--qs1", "0.01", "--cclass", "0.1",
        )
        assert proc.returncode == 2
        assert "jointly unsatisfiable" in proc.stderr
        assert "the marginals allow at most min(q_Y / q_X, 1) = 0.25" in proc.stderr
        assert "rate budget" not in proc.stderr
        proc = run_cli(
            "solve", "--qx", "0.3", "--qy", "0.4", "--rate", "0.3",
            "--qs1", "0.01", "--cclass", "0.4",
        )
        assert proc.returncode == 2
        assert "the rate budget allows at most R / H_b(q_X) = 0.3404" in proc.stderr

    def test_no_subcommand_exits_1(self):
        proc = run_cli()
        assert proc.returncode == 1


class TestSweep:
    def test_rate_sweep_crosses_the_feasibility_onset(self):
        proc = run_cli(
            "sweep", "--var", "rate", "--from", "0.3", "--to", "0.8",
            "--steps", "6", "--qx", "0.3", "--qy", "0.4",
            "--qs1", "0.01", "--cclass", "0.4",
        )
        assert proc.returncode == 0
        data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert data[0] == SCHEMA
        rows = [ln.split(",") for ln in data[1:]]
        assert len(rows) == 6
        labels = [r[10] for r in rows]
        assert labels[0] == "Infeasible"
        assert labels[-1] != "Infeasible"
        infeasible = [r for r in rows if r[10] == "Infeasible"]
        for r in infeasible:
            assert r[5] == ""
            assert r[6] == ""
        feasible_vals = [float(r[5]) for r in rows if r[10] != "Infeasible"]
        assert feasible_vals == sorted(feasible_vals)

    def test_degenerate_sweep_repeats_one_point(self):
        proc = run_cli(
            "sweep", "--var", "rate", "--from", "0", "--to", "0",
            "--steps", "2", "--qx", "0.2", "--qy", "0.3",
        )
        assert proc.returncode == 0
        data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert len(data) == 3
        assert data[1] == data[2]
        assert float(data[1].split(",")[5]) == 0.0

    def test_var_rate_conflicts_with_rate_flag(self):
        proc = run_cli(
            "sweep", "--var", "rate", "--from", "0", "--to", "1",
            "--steps", "3", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5",
        )
        assert proc.returncode == 1
        assert "conflicts" in proc.stderr

    def test_cclass_sweep_requires_rate_and_qs1(self):
        proc = run_cli(
            "sweep", "--var", "cclass", "--from", "0.5", "--to", "1.0",
            "--steps", "3", "--qx", "0.2", "--qy", "0.3",
        )
        assert proc.returncode == 1
        assert "--rate" in proc.stderr and "--qs1" in proc.stderr

    def test_cclass_sweep_runs(self):
        proc = run_cli(
            "sweep", "--var", "cclass", "--from", "0.75", "--to", "1.5",
            "--steps", "4", "--qx", "0.3", "--qy", "0.4",
            "--qs1", "0.2", "--rate", "0.6",
        )
        assert proc.returncode == 0
        data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert len(data) == 5

    def test_ill_conditioned_label_sweep_is_monotone(self, capsys):
        # q_S1 near 1/2 and C at H_b(q_S1): the label floor on p1 + p2 is
        # 1 to within rounding, so only rates from H_b(q_X) on can fund it.
        qx, qy, qs1, cclass = (
            0.1122686436741937, 0.19204908117449965, 0.49929232904766924,
            0.9999985550014254,
        )
        lp = label_params(RateClassProblem(qx, qy, qs1, 1.0, cclass))
        floor = (lp.h_b_m - cclass) / (lp.h_b_m - lp.h_b_qs1)
        assert floor == pytest.approx(1.0, abs=1e-9)
        hbx = binary_entropy(qx)
        code = cli.main([
            "sweep", "--var", "rate", "--from", "0.0", "--to", "0.5534185586762598",
            "--steps", "1001", "--qx", repr(qx), "--qy", repr(qy),
            "--qs1", repr(qs1), "--cclass", repr(cclass),
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        data = [ln for ln in captured.out.splitlines() if not ln.startswith("#")]
        assert data[0] == SCHEMA and len(data) == 1002
        values = []
        for row in data[1:]:
            cells = row.split(",")
            rate = float(cells[3])
            assert abs(rate - hbx) > 1e-6
            assert (cells[10] == "Infeasible") == (rate < hbx), row
            if cells[5]:
                values.append(float(cells[5]))
                assert float(cells[6]) + float(cells[7]) == pytest.approx(1.0, abs=1e-9)
        assert values
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_step_count_over_the_bound_exits_1(self):
        # Checked before the grid is allocated: 10**12 points would need 8 TB.
        proc = run_cli(
            "sweep", "--var", "rate", "--from", "0", "--to", "1",
            "--steps", "1000000000000", "--qx", "0.2", "--qy", "0.3",
        )
        assert proc.returncode == 1
        assert "1000000" in proc.stderr

    def test_monotonicity_violation_exits_3(self, monkeypatch, capsys):
        def fake_solver(problem):
            return SolverResult(
                value=1.0 - problem.rate, mixture=None, case_label="RateBound"
            )

        monkeypatch.setattr(cli, "solve_mecbr", fake_solver)
        code = cli.main([
            "sweep", "--var", "rate", "--from", "0.1", "--to", "0.5",
            "--steps", "3", "--qx", "0.2", "--qy", "0.3",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert "monotonicity violation" in captured.err
        assert "nondecreasing" in captured.err


class TestOracle:
    def test_agreement_exits_0_with_diff_under_tolerance(self):
        proc = run_cli("oracle", "--qx", "0.3", "--qy", "0.4", "--rate", "0.4")
        assert proc.returncode == 0
        data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert data[0] == "closed_form_bits,vertex_bits,abs_diff"
        cells = data[1].split(",")
        assert float(cells[2]) <= 1e-8

    def test_perturbed_closed_form_exits_4(self):
        proc = run_cli(
            "oracle", "--qx", "0.3", "--qy", "0.4", "--rate", "0.4",
            env_extra={"RATEMEC_ORACLE_PERTURB": "0.001"},
        )
        assert proc.returncode == 4
        assert "oracle mismatch" in proc.stderr

    def test_grid_oracle_note_appears_in_csv(self):
        proc = run_cli(
            "oracle", "--qx", "0.2", "--qy", "0.3", "--rate", "10",
            "--grid", "101",
        )
        assert proc.returncode == 0
        notes = [ln for ln in proc.stdout.splitlines() if ln.startswith("# theta_oracle:")]
        assert len(notes) == 1
        assert "theta=0.2" in notes[0]

    def test_grid_oracle_in_json_payload(self):
        proc = run_cli(
            "oracle", "--qx", "0.2", "--qy", "0.3", "--rate", "10",
            "--grid", "101", "--format", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["abs_diff"] <= 1e-8
        assert payload["theta_oracle"]["theta"] == pytest.approx(0.2, abs=1e-15)

    def test_grid_over_the_bound_exits_1(self):
        # Checked before the theta grid is allocated.
        proc = run_cli(
            "oracle", "--qx", "0.2", "--qy", "0.3", "--rate", "1",
            "--grid", "1000000000000",
        )
        assert proc.returncode == 1
        assert "1000000" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_matching_infeasibility_verdicts_exit_0(self):
        proc = run_cli(
            "oracle", "--qx", "0.3", "--qy", "0.4", "--rate", "0.2",
            "--qs1", "0.01", "--cclass", "0.4",
        )
        assert proc.returncode == 0
        data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert data[1] == "infeasible,infeasible,"


    def test_ill_conditioned_label_row_verdicts_agree(self):
        # A gap H_b(m) - H_b(q_S1) of 4.6e-10 bits: the label floor needs
        # nearly all weight on the informative maps, far above the rate cap.
        qx, qy, rate, qs1, cclass = (
            0.22046769226277946, 0.10372929264310693, 0.40241667418479937,
            0.49998477272954783, 0.9999999993309654,
        )
        lp = label_params(RateClassProblem(qx, qy, qs1, rate, cclass))
        floor = (lp.h_b_m - cclass) / (lp.h_b_m - lp.h_b_qs1)
        assert floor - rate / binary_entropy(qx) > 0.4
        proc = run_cli(
            "oracle", "--qx", repr(qx), "--qy", repr(qy), "--rate", repr(rate),
            "--qs1", repr(qs1), "--cclass", repr(cclass),
        )
        assert proc.returncode == 0, proc.stderr
        data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert data[1] == "infeasible,infeasible,"

    def test_label_row_below_the_floor_rate_is_infeasible_for_both(self):
        # C at H_b(q_S1) with q_S1 near 1/2: the label floor on p1 + p2 is 1,
        # so every rate below H_b(q_X) = 0.506721 is infeasible.  At
        # R = 0.50664 the rate cap misses the floor by 1.6e-4 in weight but
        # the label row by only 9e-11 bits, so the vertex oracle must measure
        # that row in weight to agree.
        qx, qy, qs1, cclass = (
            0.1122686436741937, 0.19204908117449965, 0.49929232904766924,
            0.9999985550014254,
        )
        for rate in ("0.50664", "0.50668", "0.50672"):
            proc = run_cli(
                "oracle", "--qx", repr(qx), "--qy", repr(qy), "--rate", rate,
                "--qs1", repr(qs1), "--cclass", repr(cclass),
            )
            assert proc.returncode == 0, proc.stderr
            data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
            assert data[1] == "infeasible,infeasible,"

    def test_label_budget_just_below_the_entropy_floor_is_feasible_for_both(self):
        # C lies 1.5e-11 bits below H_b(q_S1), but the label floor on
        # p1 + p2 exceeds 1 by less than 1e-9 in weight, which the label
        # row itself accepts; the gate must judge it in weight too.
        proc = run_cli(
            "oracle", "--qx", "0.49054714276323197", "--qy", "0.49577402320489655",
            "--qs1", "0.309974269998896", "--rate", "1.0208118089550362",
            "--cclass", "0.8931437552661599",
        )
        assert proc.returncode == 0, proc.stderr
        data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        closed, vertex, diff = data[1].split(",")
        assert float(closed) == pytest.approx(float(vertex), abs=1e-8)
        assert float(diff) <= 1e-8

    def test_constant_label_row_verdicts_agree_at_the_gate(self):
        # q_S1 = 1/2 makes the label row the constant H_b(1/2) = 1, so both
        # solvers must apply the gate C >= 1 - 1e-12, not a slack of 1e-10.
        for cclass, verdict in (("0.99999999995", "infeasible"), ("0.9999999999995", None)):
            proc = run_cli(
                "oracle", "--qx", "0.3", "--qy", "0.4", "--rate", "0.5",
                "--qs1", "0.5", "--cclass", cclass,
            )
            assert proc.returncode == 0, proc.stderr
            data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
            cells = data[1].split(",")
            if verdict is None:
                assert float(cells[2]) <= 1e-8
            else:
                assert cells[:2] == [verdict, verdict]

    @pytest.mark.parametrize("qx, qy, qs1, rate, cclass", [
        # C = H_b(q_S1) with a gap of 1e-8: the label floor is 1 and both
        # solvers must find it feasible.
        ("0.09471647455084391", "0.3675483765782794", "0.49989900241663293",
         "1.0936342874540335", "0.9999999705675441"),
        # A gap of 2e-11: the two solvers must build the same label row.
        ("0.1443579007878032", "0.21795283320163145", "0.49999808497496545",
         "0.644018240394285", "0.9999999999894185"),
    ])
    def test_label_row_near_half_label_noise_agrees(self, qx, qy, qs1, rate, cclass):
        proc = run_cli(
            "oracle", "--qx", qx, "--qy", qy, "--qs1", qs1, "--rate", rate,
            "--cclass", cclass,
        )
        assert proc.returncode == 0, proc.stderr
        data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert float(data[1].split(",")[2]) <= 1e-8


class TestConfigAndOutput:
    def test_config_file_fills_missing_flags(self, tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("# one solve point\nqx = 0.2\nqy = 0.3\nrate = 0.5\n")
        proc = run_cli("solve", "--config", str(cfg))
        assert proc.returncode == 0
        data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert data[1].split(",")[0] == "0.2"

    def test_explicit_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("qx=0.2\nqy=0.3\nrate=0.5\n")
        proc = run_cli("solve", "--config", str(cfg), "--qx", "0.25")
        assert proc.returncode == 0
        data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert data[1].split(",")[0] == "0.25"

    def test_unknown_config_key_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        proc = run_cli("solve", "--config", str(cfg), "--qx", "0.2",
                       "--qy", "0.3", "--rate", "0.5")
        assert proc.returncode == 1
        assert "bogus" in proc.stderr

    def test_config_key_for_another_subcommand_exits_1(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("samples=1000\n")
        proc = run_cli("solve", "--config", str(cfg), "--qx", "0.2",
                       "--qy", "0.3", "--rate", "0.5")
        assert proc.returncode == 1
        assert "does not apply" in proc.stderr

    def test_config_value_gets_the_flags_choices_check(self, tmp_path):
        cfg = tmp_path / "fmt.cfg"
        cfg.write_text("format=xml\nqx=0.2\nqy=0.3\nrate=0.5\n")
        proc = run_cli("solve", "--config", str(cfg))
        assert proc.returncode == 1
        assert "xml" in proc.stderr
        assert proc.stdout == ""

    def test_config_from_and_to_keys_fill_a_sweep(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("var=rate\nfrom=0\nto=1\nsteps=3\nqx=0.2\nqy=0.3\n")
        argv = ("sweep", "--config", str(cfg), "--to", "0.5")
        proc = run_cli(*argv)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[1] == "# command: " + " ".join(argv)
        data = [ln for ln in lines if not ln.startswith("#")]
        assert [row.split(",")[3] for row in data[1:]] == ["0.0", "0.25", "0.5"]

    def test_relative_output_resolves_under_env_dir(self, tmp_path):
        proc = run_cli(
            "solve", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5",
            "--output", "runs/point.csv",
            env_extra={"RATEMEC_OUTPUT_DIR": str(tmp_path)},
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
        written = (tmp_path / "runs" / "point.csv").read_text()
        assert SCHEMA in written

    def test_absolute_output_ignores_env_dir(self, tmp_path):
        target = tmp_path / "direct.csv"
        proc = run_cli(
            "solve", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5",
            "--output", str(target),
            env_extra={"RATEMEC_OUTPUT_DIR": str(tmp_path / "elsewhere")},
        )
        assert proc.returncode == 0
        assert target.exists()


class TestSimulate:
    def test_json_report_with_solver_mixture(self):
        proc = run_cli(
            "simulate", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5",
            "--samples", "20000", "--seed", "7",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["samples"] == 20000
        assert payload["generator"] == "pcg64"
        assert payload["h_y_given_xu_hat"] == 0.0
        assert abs(payload["q_y_hat"] - 0.3) < 0.02
        assert payload["slacks"]["class_slack_s_given_y"] is None
        counts = payload["counts"]
        assert len(counts) == 4 and len(counts[0]) == 2

    def test_byte_identical_across_runs(self):
        argv = (
            "simulate", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5",
            "--samples", "5000", "--seed", "42", "--streams", "3",
        )
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_explicit_mixture_override(self):
        proc = run_cli(
            "simulate", "--qx", "0.2", "--qy", "0.2", "--rate", "1.0",
            "--samples", "20000", "--seed", "3", "--mixture", "1,0,0,0",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["mixture"] == [1.0, 0.0, 0.0, 0.0]
        assert abs(payload["q_y_hat"] - 0.2) < 0.02

    def test_malformed_mixture_exits_1(self):
        proc = run_cli(
            "simulate", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5",
            "--samples", "100", "--seed", "1", "--mixture", "1,0,0",
        )
        assert proc.returncode == 1
        assert "--mixture" in proc.stderr

    def test_negative_seed_exits_1(self):
        proc = run_cli(
            "simulate", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5",
            "--samples", "100", "--seed", "-1",
        )
        assert proc.returncode == 1
        assert "seed must be >= 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_csv_format_emits_scalar_row(self):
        proc = run_cli(
            "simulate", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5",
            "--samples", "5000", "--seed", "9", "--format", "csv",
        )
        assert proc.returncode == 0
        data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert data[0].startswith("qx,qy,qs1,rate,cclass,samples,seed,streams,")
        cells = data[1].split(",")
        assert len(cells) == len(data[0].split(",")) == 18
        assert cells[5] == "5000"
        assert cells[8] == "pcg64"
        assert 0.0 < float(cells[9]) < 1.0
        assert cells[15] != "" and cells[16] == cells[17] == ""

    def test_huge_stream_count_seeds_only_the_streams_that_draw(self):
        proc = run_cli(
            "simulate", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5",
            "--samples", "1000", "--seed", "1", "--streams", "1000000000000",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["streams"] == 10**12
        assert np.sum(payload["counts"]) == 1000

    def test_label_problem_reports_class_slacks(self):
        proc = run_cli(
            "simulate", "--qx", "0.3", "--qy", "0.4", "--rate", "2.0",
            "--qs1", "0.1", "--cclass", "1.5",
            "--samples", "20000", "--seed", "5",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["slacks"]["class_slack_s_given_y"] is not None
        assert payload["slacks"]["class_slack_s_given_y_u"] is not None
