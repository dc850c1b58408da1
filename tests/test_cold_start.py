"""The closed-form paths run without numpy, and the sweep grid is numpy's.

``import ratemec``, the two closed-form solvers and the CLI's ``solve``
and ``sweep`` must not need numpy: a child process that blocks the
import (``sys.modules["numpy"] = None``) prints byte for byte what the
same calls print here, with numpy loaded.  The sweep grid is generated
in pure Python and must equal ``np.linspace(start, stop, steps)`` bit
for bit, subnormal ranges included.
"""

import contextlib
import inspect
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import ratemec
from ratemec import cli

_SRC = str(Path(ratemec.__file__).resolve().parents[1])

_ARGVS = [
    ["solve", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5"],
    ["solve", "--qx", "0.3", "--qy", "0.4", "--rate", "0.6", "--qs1", "0.01",
     "--cclass", "0.4", "--format", "json"],
    ["sweep", "--var", "rate", "--from", "0", "--to", "1.2", "--steps", "301",
     "--qx", "0.2", "--qy", "0.3"],
    ["sweep", "--var", "rate", "--from", "0", "--to", "1.2", "--steps", "301",
     "--qx", "0.3", "--qy", "0.4", "--qs1", "0.01", "--cclass", "0.4"],
    ["sweep", "--var", "cclass", "--from", "0", "--to", "1", "--steps", "301",
     "--qx", "0.3", "--qy", "0.4", "--qs1", "0.01", "--rate", "0.7"],
    ["sweep", "--var", "rate", "--from", "0", "--to", "1e-323", "--steps", "6",
     "--qx", "0.2", "--qy", "0.3"],
]

_CALLS = f"""
import ratemec
from ratemec import RateClassProblem, RateProblem, cli
print(ratemec.__version__)
print(ratemec.solve_mecbr(RateProblem(0.2, 0.3, 0.5)))
print(ratemec.solve_mecbr(RateProblem(0.7, 0.4, 0.3, extend=True)))
print(ratemec.solve_mecbrc(RateClassProblem(0.3, 0.4, 0.01, 0.6, 0.4)))
for argv in {_ARGVS!r}:
    print("exit", cli.main(argv))
"""


def _child(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


def test_closed_form_paths_print_the_same_without_numpy():
    blocked = _child(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        + _CALLS
        + "assert sys.modules['numpy'] is None\n"
    )
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stderr == ""

    assert "numpy" in sys.modules
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(_CALLS, {})
    assert blocked.stdout == buf.getvalue()
    assert blocked.stdout.count("exit 0\n") == len(_ARGVS)


def test_importing_the_cli_loads_no_numpy():
    proc = _child(
        "import sys, ratemec\n"
        "assert 'numpy' not in sys.modules, 'import ratemec'\n"
        "import ratemec.cli\n"
        "assert 'numpy' not in sys.modules, 'import ratemec.cli'\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_resolves_lazily():
    proc = _child(
        "import sys, ratemec\n"
        "assert ratemec.bernoulli_rate.solve_mecbr is ratemec.solve_mecbr\n"
        "names = set(ratemec.__all__)\n"
        "assert names <= set(dir(ratemec)), names - set(dir(ratemec))\n"
        "assert 'numpy' not in sys.modules\n"
        "for name in sorted(names):\n"
        "    getattr(ratemec, name)\n"
        "assert 'numpy' in sys.modules\n"
        "try:\n"
        "    ratemec.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'ratemec' has no attribute 'no_such_name'\n"
    assert ratemec.__version__ == "0.1.0"


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _assert_grid_is_linspace(start: float, stop: float, steps: int) -> None:
    got = list(cli._grid(start, stop, steps))
    assert _bits(got) == _bits(np.linspace(start, stop, steps)), (start, stop, steps)


def _random_range(rng: random.Random) -> tuple[float, float, int]:
    kind = rng.randrange(5)
    if kind == 0:  # the budgets' usual scale
        a, b = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
    elif kind == 1:  # any sign and magnitude, the span kept finite
        a, b = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
                for _ in range(2))
    elif kind == 2:  # subnormal multiples of the smallest double
        a, b = (rng.randint(-40, 40) * 5e-324 for _ in range(2))
    elif kind == 3:  # a few ulps apart
        a = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-30.0, 30.0)
        b = a
        for _ in range(rng.randint(0, 8)):
            b = math.nextafter(b, math.inf)
    else:  # one point
        a = b = rng.uniform(-2.0, 2.0)
    steps = rng.randint(2, 2001) if rng.random() < 0.02 else rng.randint(2, 40)
    return min(a, b), max(a, b), steps


def test_grid_matches_linspace_on_random_ranges():
    rng = random.Random(8)
    for _ in range(10_000):
        _assert_grid_is_linspace(*_random_range(rng))


def test_grid_matches_linspace_at_the_edges():
    for start, stop, steps in [
        (0.4, 0.4, 5), (0.0, 0.0, 2), (-0.0, -0.0, 3), (1e-310, 1e-310, 4),
        (0.0, 1.2, 2), (0.1, 0.7, 2), (-3.0, 5e-324, 2),
        (0.0, 1.2, 10001), (0.0, 1.0, cli.MAX_STEPS),
    ]:
        _assert_grid_is_linspace(start, stop, steps)


def test_grid_takes_numpys_branch_on_a_subnormal_range():
    # The step 1e-323 / 5 underflows to 0, where start + i*step would
    # give [0, 0, 0, 0, 0, 1e-323].
    expected = [0.0, 0.0, 5e-324, 5e-324, 1e-323, 1e-323]
    assert list(cli._grid(0.0, 1e-323, 6)) == expected
    assert np.linspace(0.0, 1e-323, 6).tolist() == expected


def test_grid_is_generated_point_by_point():
    assert inspect.isgenerator(cli._grid(0.0, 1.0, cli.MAX_STEPS))
