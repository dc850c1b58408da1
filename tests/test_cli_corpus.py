"""Byte-identity corpus for the CLI's data rows.

Runs ``cli.main`` in process on a fixed set of ``solve`` and ``sweep``
invocations and pins the SHA-256 of each one's data rows (every output
line that does not start with ``#``).  The corpus covers rate-only
runs, runs with a label budget, a ``cclass`` sweep, q_X = 1/2, a
subnormal sweep range and a one-point range.  These paths use only
Python's ``math``, with no numpy at all, so the rows do not depend on
numpy's build.  The sweep grid is generated in pure Python and matches
``np.linspace`` bit for bit (``tests/test_cold_start.py``).

The hashes were recorded at commit 22db065, the parent of the change
that moved every tolerance into ``prob_core``; the subnormal and
one-point sweeps at commit e575cea, while the grid was still
``np.linspace``.  A change that alters these bytes on purpose must
update the hashes here and say so in ``CHANGES.md``.

``ERRORS`` pins the exit code and the exact stderr of the usage and
infeasibility paths of ``solve`` and ``sweep``, recorded at commit
56fb260, before the CLI's three solver dispatches became one.  The
non-finite ``--from``/``--to`` entries pin the message that rejects
them before any grid is built; before it, the grid turned them into
NaN budgets and an error that named neither the flag nor its value.
"""

import hashlib

import pytest

from ratemec import cli

_RATE = ["--var", "rate", "--from", "0", "--to", "1.2"]
_LABEL = ["--qx", "0.3", "--qy", "0.4", "--qs1", "0.01"]

#: name -> (argv, SHA-256 of the data rows joined by newlines)
CORPUS = {
    "solve-rate-0": (
        ["solve", "--qx", "0.2", "--qy", "0.3", "--rate", "0"],
        "a31f5c87e0f84b727df2e3c80871e107ddb644766b605ae23b931ec2e2b4dab8",
    ),
    "solve-rate-0.5": (
        ["solve", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5"],
        "c1c9653c9e76fca8ebd6716e12e506634fd688d75fe33fb937a71559bf75a004",
    ),
    "solve-rate-5-json": (
        ["solve", "--qx", "0.2", "--qy", "0.3", "--rate", "5", "--format", "json"],
        "146a09a38ed7bde587d45b1620549c7713ee9235a5f965f56ebc89ce1e59c97b",
    ),
    "solve-label": (
        ["solve", "--qx", "0.2", "--qy", "0.3", "--rate", "0.6",
         "--qs1", "0.1", "--cclass", "0.6"],
        "73e9498bfe7eb315b6d8c5da1a965ee125529a5db92e84d5453c3654b410033a",
    ),
    "solve-half-source-label": (
        ["solve", "--qx", "0.5", "--qy", "0.45", "--rate", "0.8",
         "--qs1", "0.2", "--cclass", "0.8"],
        "50f475d9085f55cd62e5f4253ce5d989fc318c762d6f5247fa2059e485144d7d",
    ),
    "sweep-rate": (
        ["sweep", *_RATE, "--steps", "2001", "--qx", "0.2", "--qy", "0.3"],
        "7deb59653c6fac9b4fc784c6e57dab88f7643709f739f4bd075a332ef8e52472",
    ),
    "sweep-rate-json": (
        ["sweep", *_RATE, "--steps", "501", "--qx", "0.45", "--qy", "0.1",
         "--format", "json"],
        "8d473fbf21df19b72b6de87d17a93738f0542103ebfe9acfe7eaa3b6de034a2a",
    ),
    "sweep-rate-half-source": (
        ["sweep", *_RATE, "--steps", "2001", "--qx", "0.5", "--qy", "0.3"],
        "48be11a9e6da78607df914f11e9307251bb756eeb5acd89f562c78c5072720da",
    ),
    "sweep-rate-half-both": (
        ["sweep", *_RATE, "--steps", "2001", "--qx", "0.5", "--qy", "0.5"],
        "4fe85583feb1df8890a8698135ec183f7ce3f5583c4ae3db140209a9a62fc5a6",
    ),
    "sweep-rate-label": (
        ["sweep", *_RATE, "--steps", "1001", *_LABEL, "--cclass", "0.4"],
        "92dabe41d78b487873b9dbdb15eea2cd1d66c184da6b7c541f7f1e9aa18ba3ff",
    ),
    "sweep-cclass": (
        ["sweep", "--var", "cclass", "--from", "0", "--to", "1", "--steps", "1001",
         *_LABEL, "--rate", "0.7"],
        "4a8e4affc3547cd02396925efeef49117d072ef6b1cb7120586424d67f83aa38",
    ),
    "sweep-rate-subnormal": (
        ["sweep", "--var", "rate", "--from", "0", "--to", "1e-323", "--steps", "6",
         "--qx", "0.2", "--qy", "0.3"],
        "a04f09132a516f9d57152fca672083df51a7fc319831a8ac21a037afc2f49637",
    ),
    "sweep-rate-one-point": (
        ["sweep", "--var", "rate", "--from", "0.4", "--to", "0.4", "--steps", "5",
         "--qx", "0.2", "--qy", "0.3"],
        "d05a3619662aead77b21b72aa43910d826cff004c328f0ed66171e00cc755b64",
    ),
    "sweep-cclass-one-point": (
        ["sweep", "--var", "cclass", "--from", "0.5", "--to", "0.5", "--steps", "4",
         *_LABEL, "--rate", "0.7"],
        "8f64e3ec72ff4a5c0e9f6570175fb0a65ff188621b8ba53562bd4ab19444c2e1",
    ),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_data_rows_are_byte_identical(name, capsys):
    argv, expected = CORPUS[name]
    assert cli.main(argv) == 0
    rows = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == expected


_SWEEP = ["sweep", "--qx", "0.2", "--qy", "0.3"]
_UNIT = ["--from", "0", "--to", "1"]

#: name -> (argv, exit code, exact stderr)
ERRORS = {
    "sweep-one-step": (
        [*_SWEEP, "--var", "rate", *_UNIT, "--steps", "1"],
        1, "error: sweep needs at least 2 steps, got 1\n",
    ),
    "sweep-steps-over-bound": (
        [*_SWEEP, "--var", "rate", *_UNIT, "--steps", "1000001"],
        1, "error: sweep allows at most 1000000 steps, got 1000001\n",
    ),
    "sweep-start-after-stop": (
        [*_SWEEP, "--var", "rate", "--from", "1", "--to", "0", "--steps", "3"],
        1, "error: sweep start 1.0 must not exceed stop 0.0\n",
    ),
    "sweep-to-inf": (
        [*_SWEEP, "--var", "rate", "--from", "0", "--to", "inf", "--steps", "3"],
        1, "error: --to must be finite, got inf\n",
    ),
    "sweep-from-inf": (
        [*_SWEEP, "--var", "rate", "--from", "inf", "--to", "inf", "--steps", "3"],
        1, "error: --from must be finite, got inf\n",
    ),
    "sweep-cclass-from-nan": (
        [*_SWEEP, "--var", "cclass", "--from", "nan", "--to", "1", "--steps", "3",
         "--rate", "0.5", "--qs1", "0.1"],
        1, "error: --from must be finite, got nan\n",
    ),
    "sweep-rate-flag-and-var-rate": (
        [*_SWEEP, "--var", "rate", *_UNIT, "--steps", "3", "--rate", "0.5"],
        1, "error: --rate conflicts with --var rate; set the range with --from/--to\n",
    ),
    "sweep-cclass-flag-and-var-cclass": (
        [*_SWEEP, "--var", "cclass", *_UNIT, "--steps", "3", "--rate", "0.5",
         "--qs1", "0.1", "--cclass", "0.3"],
        1, "error: --cclass conflicts with --var cclass; set the range with --from/--to\n",
    ),
    "sweep-cclass-without-qs1": (
        [*_SWEEP, "--var", "cclass", *_UNIT, "--steps", "3", "--rate", "0.5"],
        1, "error: missing required flags: --qs1\n",
    ),
    "sweep-rate-qs1-without-cclass": (
        [*_SWEEP, "--var", "rate", *_UNIT, "--steps", "3", "--qs1", "0.1"],
        1, "error: --qs1 and --cclass must be given together\n",
    ),
    "solve-cclass-without-qs1": (
        ["solve", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5", "--cclass", "0.1"],
        1, "error: --qs1 and --cclass must be given together\n",
    ),
    "solve-label-gate": (
        ["solve", "--qx", "0.3", "--qy", "0.4", "--rate", "2", "--qs1", "0.01",
         "--cclass", "0.05"],
        2, "infeasible: classification budget C=0.05 is below "
           "H_b(q_S1)=0.08079313589591117; no coupling can satisfy it\n",
    ),
    "solve-joint-infeasible": (
        ["solve", "--qx", "0.3", "--qy", "0.4", "--rate", "0.1", "--qs1", "0.01",
         "--cclass", "0.4"],
        2, "infeasible: budgets are jointly unsatisfiable: the label row requires "
           "informative weight p1 + p2 >= 0.6036334563442076 but the rate budget "
           "allows at most R / H_b(q_X) = 0.11346991111254326\n",
    ),
}


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_error_paths_keep_their_exit_code_and_stderr(name, capsys):
    argv, code, stderr = ERRORS[name]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == stderr
    assert captured.out == ""
