"""A sweep row is the row ``solve`` prints at that grid value.

``cmd_sweep`` renders the cells that stay fixed for the whole sweep
once, and the solvers take the per-instance constants (H_b of a
marginal, the label row's terms) from bounded caches.  Both are pure
savings: over seeded random instances every sweep data row must equal,
byte for byte, the row ``cli.main(["solve", ...])`` prints at the same
budget, and ``solve`` must exit 2 exactly where the sweep says
``Infeasible``.  The instances include q_X = 1/2, q_Y = 1/2,
q_S1 = 1/2, C = H_b(q_S1), R = 0 and grids whose first points are
infeasible, in CSV and JSON.  The caches must give the same bits
whatever was solved before, and stay within their bounds.
"""

import json
import random

import pytest

from ratemec import cli
from ratemec.bernoulli_rate import RateProblem, _marginal_entropy, solve_mecbr
from ratemec.bernoulli_rate_class import (
    RateClassProblem,
    _label_terms,
    label_params,
    solve_mecbrc,
)
from ratemec.errors import InfeasibleError
from ratemec.prob_core import binary_entropy

SCHEMA = cli.SCHEMA
_KINDS = ("rate", "label-rate", "cclass")


def _marginal(rng: random.Random) -> float:
    return 0.5 if rng.random() < 0.15 else rng.uniform(0.01, 0.5)


def _instance(rng: random.Random, kind: str) -> dict:
    """Flags of one random instance; the swept budget is left out."""
    qx, qy = _marginal(rng), _marginal(rng)
    flags = {"qx": qx, "qy": qy}
    if kind == "rate":
        return flags
    qs1 = _marginal(rng)
    floor = binary_entropy(qs1)
    h_m = binary_entropy((1.0 - qx) * (1.0 - qs1) + qx * qs1)
    flags["qs1"] = qs1
    if kind == "label-rate":
        pick = rng.random()
        # At the floor, between it and H_b(m) (an infeasible prefix of
        # the rate grid), or above H_b(m) (no floor on p1 + p2).
        if pick < 0.25:
            flags["cclass"] = floor
        elif pick < 0.8:
            flags["cclass"] = floor + (h_m - floor) * rng.random()
        else:
            flags["cclass"] = h_m + 0.1 * rng.random()
    else:
        flags["rate"] = 0.0 if rng.random() < 0.15 else rng.uniform(0.0, 1.0)
    return flags


def _argv(command: str, flags: dict) -> list[str]:
    argv = [command]
    for name, value in flags.items():
        argv += [f"--{name}", repr(value)]
    return argv


def _run(argv: list[str], capsys) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _csv_rows(out: str) -> list[str]:
    data = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert data[0] == SCHEMA
    return data[1:]


@pytest.mark.parametrize("seed", range(4))
def test_every_sweep_row_is_the_solve_row(seed, capsys):
    rng = random.Random(seed)
    infeasible_rows = feasible_rows = 0
    for i in range(50):
        kind = _KINDS[i % 3]
        fmt = ("csv", "json")[(i // 3) % 2]
        flags = _instance(rng, kind)
        var = "cclass" if kind == "cclass" else "rate"
        start = 0.0 if rng.random() < 0.7 else rng.uniform(0.0, 0.5)
        stop = start + rng.uniform(0.05, 1.2)
        sweep = _argv("sweep", flags) + [
            "--var", var, "--from", repr(start), "--to", repr(stop),
            "--steps", str(rng.randint(2, 5)), "--format", fmt,
        ]
        code, out = _run(sweep, capsys)
        assert code == 0, sweep
        if fmt == "csv":
            rows = _csv_rows(out)
            points = [row.split(",")[3 if var == "rate" else 4] for row in rows]
        else:
            rows = [json.dumps(r) for r in json.loads(out)]
            points = [repr(json.loads(r)[var]) for r in rows]
        for row, point in zip(rows, points):
            solve = _argv("solve", flags) + [f"--{var}", point, "--format", fmt]
            code, out = _run(solve, capsys)
            infeasible = "Infeasible" in row
            assert code == (2 if infeasible else 0), (sweep, row)
            if infeasible:
                assert out == ""
                infeasible_rows += 1
                continue
            solved = _csv_rows(out)[0] if fmt == "csv" else json.dumps(json.loads(out))
            assert solved == row, (sweep, point)
            feasible_rows += 1
    assert infeasible_rows and feasible_rows


def _bits(problem) -> str:
    if isinstance(problem, RateClassProblem):
        try:
            return repr((label_params(problem), solve_mecbrc(problem)))
        except InfeasibleError as exc:
            return f"infeasible: {exc}"
    return repr(solve_mecbr(problem))


def _clear_caches() -> None:
    _marginal_entropy.cache_clear()
    _label_terms.cache_clear()


def _problems(rng: random.Random, count: int) -> list:
    """Rate and label problems; each odd one shares q_X with the one
    before it half of the time, so cache keys collide in part."""
    out = []
    for i in range(count):
        flags = _instance(rng, rng.choice(("rate", "label-rate")))
        if i % 2 and rng.random() < 0.5:
            flags["qx"] = out[-1].q_x
        rate = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 1.2)
        if "qs1" in flags:
            out.append(RateClassProblem(
                flags["qx"], flags["qy"], flags["qs1"], rate, flags["cclass"]
            ))
        else:
            out.append(RateProblem(flags["qx"], flags["qy"], rate))
    return out


def test_interleaved_solves_match_fresh_solves():
    problems = _problems(random.Random(7), 200)
    fresh = []
    for p in problems:
        _clear_caches()
        fresh.append(_bits(p))
    _clear_caches()
    for i in range(0, len(problems), 2):
        a, b = problems[i], problems[i + 1]
        assert [_bits(a), _bits(b), _bits(a)] == [fresh[i], fresh[i + 1], fresh[i]]


def test_caches_stay_within_their_bounds():
    rng = random.Random(11)
    for p in _problems(rng, 1000):
        _bits(p)
    for cache in (_marginal_entropy, _label_terms):
        info = cache.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize
        assert info.currsize == info.maxsize  # 1,000 instances fill it
