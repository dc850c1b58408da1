"""Timing-free tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

They check what a run prints and counts, never how fast anything is.
"""

import dataclasses
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import ratemec.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


@pytest.fixture
def tiny(monkeypatch, capsys):
    """Run one cycle of a workload in process and return (report, result)."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_CHILDREN", 0)

    def go(workload, trace=0, seed=3):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "1e-9", "--trace", str(trace)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return json.loads(lines[-2])["report"], json.loads(lines[-1])

    return go


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tiny, workload, trace):
    report, result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    assert report["cycles"] == 1
    env = report["environment"]
    for key in ("commit", "source_sha256", "python", "numpy", "cpu_count", "blas_threads"):
        assert key in env
    for key in ("label_share", "infeasible_share", "edge_share", "case_share"):
        assert key in report["input_mix"]


def test_closed_form_off_by_a_micro_bit_counts_as_failed(tiny, monkeypatch):
    real = ratemec.cli.solve_mecbr

    def wrong(problem):
        result = real(problem)
        return dataclasses.replace(result, value=result.value + 1e-6)

    monkeypatch.setattr(ratemec.cli, "solve_mecbr", wrong)
    report, result = tiny("sweep")
    assert result["correct"] is False
    # Exactly the rate-only sweeps go through solve_mecbr.
    assert result["failed"] == report["input_mix"]["kind_share"]["sweep-rate"] * report["ops"]
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert report["failed_frac"] == result["failed"] / result["attempted"]
    assert all(f["kind"] == "sweep-rate" for f in report["failures"])


def test_non_zero_exit_counts_as_failed(tiny, monkeypatch):
    monkeypatch.setattr(ratemec.cli, "main", lambda argv: 1)
    report, result = tiny("oracle")
    cli_ops = sum(
        share for kind, share in report["input_mix"]["kind_share"].items()
        if kind.startswith("oracle-2x2")
    ) * report["ops"]
    assert result["failed"] == pytest.approx(cli_ops)
    assert report["failed_frac"] == pytest.approx(0.8)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_gives_same_inputs(name):
    workload = workloads.WORKLOADS[name](None, ROOT, {})
    first = [workload.cycle(11, i) for i in range(3)]
    again = [workloads.WORKLOADS[name](None, ROOT, {}).cycle(11, i) for i in range(3)]
    other = [workload.cycle(12, i) for i in range(3)]
    assert first == again
    assert first != other
    assert workload.warmup(11) == workload.warmup(11)
