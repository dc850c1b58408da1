"""Byte-identity corpus for the CLI's data rows.

Runs ``cli.main`` in process on a fixed set of ``solve`` and ``sweep``
invocations and pins the SHA-256 of each one's data rows (every output
line that does not start with ``#``).  The corpus covers rate-only
runs, runs with a label budget, a ``cclass`` sweep and q_X = 1/2.
These paths use only Python's ``math`` and ``np.linspace``, with no
numpy transcendentals, so the rows do not depend on numpy's build.

The hashes were recorded at commit 22db065, the parent of the change
that moved every tolerance into ``prob_core``.  A change that alters
these bytes on purpose must update the hashes here and say so in
``CHANGES.md``.
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
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_data_rows_are_byte_identical(name, capsys):
    argv, expected = CORPUS[name]
    assert cli.main(argv) == 0
    rows = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == expected
