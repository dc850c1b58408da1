"""The theta oracle at the two Frechet ends against the grid scan it replaced.

``_reference_theta`` is the scan :func:`coupling_oracle_theta` used to
run: I(X;Y) at ``grid`` equally spaced values of theta = P(X=1, Y=1)
across the Frechet interval, both ends always added, and the first
maximum of the sorted points.  I is convex in theta, so the maximum sits
at an end, and the oracle now evaluates only the two ends.  For both
marginals in [1e-12, 1 - 1e-12] the two must agree bit for bit, in the
returned pair and in what ``ratemec oracle --grid`` prints.  Below
1e-12 the scan can let an interior point win by rounding (its value a
few 1e-17 bits above both ends, which convexity rules out); there the
oracle must return an end and the larger end value.
"""

import json
import math

import numpy as np
import pytest

from ratemec import DomainError, cli, coupling_oracle_theta, frechet_interval
from ratemec.generic_oracle import MAX_GRID

LOW = 1e-12


def _info(q_x, q_y, thetas):
    def cell_term(c, px, py):
        safe = np.maximum(c, 1e-300)
        return np.where(c > 0.0, c * (np.log2(safe) - math.log2(px) - math.log2(py)), 0.0)

    return (
        cell_term(thetas, q_x, q_y)
        + cell_term(q_x - thetas, q_x, 1.0 - q_y)
        + cell_term(q_y - thetas, 1.0 - q_x, q_y)
        + cell_term(1.0 - q_x - q_y + thetas, 1.0 - q_x, 1.0 - q_y)
    )


def _reference_theta(q_x, q_y, grid):
    """The grid scan, as the oracle ran it before it took only the ends."""
    lower, upper = frechet_interval(q_x, q_y)
    thetas = np.unique(
        np.concatenate([np.linspace(lower, upper, int(grid)), [lower, upper]])
    )
    info = _info(q_x, q_y, thetas)
    idx = int(np.argmax(info))
    return float(thetas[idx]), max(float(info[idx]), 0.0)


def _marginal(rng, low):
    """A marginal in [low, 1 - low]: uniform, log-uniform near 0 or 1, or near 1/2."""
    kind = int(rng.integers(4))
    if kind == 0:
        q = float(rng.uniform(low, 1.0 - low))
    elif kind == 1:
        q = 10.0 ** rng.uniform(math.log10(low), 0.0)
    elif kind == 2:
        q = 1.0 - 10.0 ** rng.uniform(math.log10(low), 0.0)
    else:
        q = 0.5 + float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-17.0, -1.0)
    return min(max(q, low), 1.0 - low)


def _instances(seed, count, low, max_grid):
    rng = np.random.default_rng(seed)
    return [
        (_marginal(rng, low), _marginal(rng, low), int(rng.integers(2, max_grid + 1)))
        for _ in range(count)
    ]


def _assert_same_bits(q_x, q_y, grid):
    got = coupling_oracle_theta(q_x, q_y, grid)
    want = _reference_theta(q_x, q_y, grid)
    assert repr(got) == repr(want), (q_x, q_y, grid)


def test_ends_match_the_scan_bitwise_on_random_instances():
    for q_x, q_y, grid in _instances(13, 10_000, LOW, 400):
        _assert_same_bits(q_x, q_y, grid)


def test_ends_match_the_scan_bitwise_on_dense_grids():
    for q_x, q_y, _ in _instances(17, 40, LOW, 2):
        _assert_same_bits(q_x, q_y, 100_001)


EDGES = [
    (0.5, 0.5),
    (0.5, 0.3),
    (0.3, 0.5),
    (0.5 - 1e-16, 0.5),
    (0.5 - 1e-16, 0.5 - 1e-16),
    (0.5 - 1e-16, 0.3),
    (0.7, 0.8),
    (0.2, 0.3),
    (LOW, 0.5),
    (1.0 - LOW, LOW),
    (LOW, LOW),
]


# The million-point scan runs on the q = 1/2 edges only.
EDGE_CASES = [(*edge, grid) for edge in EDGES for grid in (2, 3, 101, 100_001)]
EDGE_CASES += [(*edge, MAX_GRID) for edge in EDGES[:3]]


@pytest.mark.parametrize("q_x, q_y, grid", EDGE_CASES)
def test_edges_match_the_scan_bitwise(q_x, q_y, grid):
    _assert_same_bits(q_x, q_y, grid)


def test_a_tie_goes_to_the_lower_end():
    # At q_X = q_Y = 1/2 both ends carry exactly one bit.
    assert coupling_oracle_theta(0.5, 0.5, 3) == (0.0, 1.0)
    lower, _ = frechet_interval(0.5, 0.3)
    theta, _ = coupling_oracle_theta(0.5, 0.3, 101)
    assert theta == lower


def test_below_the_floor_the_better_end_wins():
    rng = np.random.default_rng(19)
    for _ in range(2_000):
        tiny = 10.0 ** rng.uniform(-320.0, -12.0)
        other = _marginal(rng, LOW)
        q_x, q_y = (tiny, other) if rng.random() < 0.5 else (other, tiny)
        grid = int(rng.integers(2, 200))
        theta, value = coupling_oracle_theta(q_x, q_y, grid)
        ends = frechet_interval(q_x, q_y)
        info = _info(q_x, q_y, np.array(ends))
        assert theta in ends
        assert value == max(float(info.max()), 0.0)
        assert theta == ends[int(np.argmax(info))]
        # The scan's points include both ends; an interior winner gains
        # only rounding (at most 7.4e-17 bits on 20,000 such draws).
        assert 0.0 <= _reference_theta(q_x, q_y, grid)[1] - value <= 1e-16


def _oracle_argv(q_x, q_y, grid, *extra):
    return ["oracle", "--qx", repr(q_x), "--qy", repr(q_y), "--rate", "0.5",
            "--grid", str(grid), *extra]


def _cli_instances():
    # The CLI takes marginals in (0, 1/2].
    rng = np.random.default_rng(23)
    pairs = [(0.5, 0.5), (0.5 - 1e-16, 0.5), (LOW, 0.5), (0.2, 0.3)]
    pairs += [(min(_marginal(rng, LOW), 0.5), min(_marginal(rng, LOW), 0.5)) for _ in range(16)]
    grids = [2, 3, 101, 100_001] + [int(g) for g in rng.integers(2, 1000, size=16)]
    return list(zip(pairs, grids))


@pytest.mark.parametrize("pair, grid", _cli_instances())
def test_cli_theta_line_and_json_object_match_the_scan(capsys, pair, grid):
    q_x, q_y = pair
    theta, value = _reference_theta(q_x, q_y, grid)
    assert cli.main(_oracle_argv(q_x, q_y, grid)) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("# theta_oracle:")]
    assert lines == [f"# theta_oracle: theta={theta!r} value_bits={value!r}"]
    assert cli.main(_oracle_argv(q_x, q_y, grid, "--format", "json")) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta_oracle"] == {"theta": theta, "value_bits": value}


@pytest.mark.parametrize("grid, message", [
    (0, "grid must lie in [2, 1000000], got 0"),
    (1, "grid must lie in [2, 1000000], got 1"),
    (-3, "grid must lie in [2, 1000000], got -3"),
    (MAX_GRID + 1, "grid must lie in [2, 1000000], got 1000001"),
    (10**12, "grid must lie in [2, 1000000], got 1000000000000"),
    (np.int64(1), "grid must lie in [2, 1000000], got 1"),
    (2.0, "grid must be an integer, got 2.0"),
    (float("nan"), "grid must be an integer, got nan"),
    (True, "grid must be an integer, got True"),
    ("3", "grid must be an integer, got '3'"),
    (None, "grid must be an integer, got None"),
])
def test_bad_grids_raise_the_same_messages(grid, message):
    with pytest.raises(DomainError) as err:
        coupling_oracle_theta(0.2, 0.3, grid)
    assert str(err.value) == message
    # The grid is checked before the marginals, as the scan checked it.
    with pytest.raises(DomainError) as err:
        coupling_oracle_theta(0.0, 0.3, grid)
    assert str(err.value) == message
