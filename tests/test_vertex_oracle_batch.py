"""The batched vertex oracle against the per-basis loop it replaced.

``_reference_solve_vertex`` is the loop version of
:func:`ratemec.generic_oracle.solve_vertex`: one ``matrix_rank`` and one
``solve`` per basis.  The batched oracle does the same arithmetic on
stacks of bases, so the two must agree bit for bit: value, weights and
errors.  The non-binary cross-checks judge the oracle against a witness
mixture that makes each polytope non-empty by construction.
"""

from itertools import combinations

import numpy as np
import pytest

import ratemec.generic_oracle as go
from ratemec import (
    InfeasibleError,
    Pmf,
    binary_entropy,
    build_polytope,
    enumerate_maps,
    mutual_information,
    solve_vertex,
)
from ratemec.prob_core import RANK_TOL, ROUND_TOL, ROW_TOL, WEIGHT_TOL


def _reference_solve_vertex(polytope, maps, p_x):
    """The per-basis loop: the reference the batched oracle must match."""
    k, count = polytope.a_eq.shape[0] - 1, polytope.a_eq.shape[1]
    rows, bounds, tols = go._budget_rows(polytope)
    b = len(rows)
    m = k + b
    a = np.block([
        [polytope.a_eq[:k], np.zeros((k, b))],
        [np.reshape(rows, (b, count)), np.eye(b)],
    ])
    rhs = np.concatenate([polytope.b_eq[:k], bounds])
    tol = np.concatenate([np.full(count, ROW_TOL), tols])

    best_value = -1.0
    best_weights = None
    best_support = count + 1
    for basis in combinations(range(count + b), m):
        sub = a[:, basis]
        if np.linalg.matrix_rank(sub, tol=RANK_TOL) < m:
            continue
        x = np.zeros(count + b)
        x[list(basis)] = np.linalg.solve(sub, rhs)
        w = x[:count]
        if np.any(x < -tol) or np.max(np.abs(polytope.a_eq @ w - polytope.b_eq)) > ROW_TOL:
            continue
        clipped = np.clip(w, 0.0, None)
        clipped /= clipped.sum()
        value = mutual_information(go._joint_from_weights(maps, p_x, clipped))
        support = int(np.count_nonzero(clipped > WEIGHT_TOL))
        if value > best_value + ROUND_TOL or (
            abs(value - best_value) <= ROUND_TOL and support < best_support
        ):
            best_value = value
            best_weights = clipped
            best_support = support
    if best_weights is None:
        raise InfeasibleError(go._NO_POINT)
    return best_value, best_weights


def _binary_pmf(q):
    return Pmf(np.array([1.0 - q, q]))


def _outcome(solver, instance):
    """(value, weight bytes) of a solve, or (error type, message)."""
    poly, table, p_x = instance
    try:
        res = solver(poly, table, p_x)
    except InfeasibleError as err:
        return type(err), str(err)
    if isinstance(res, tuple):
        value, weights = res
    else:
        value, weights = res.value, res.weights
    return value, weights.tobytes()


def _binary_instance(q_x, q_y, rate=None, q_s1=None, cclass=None):
    table = enumerate_maps(2, 2, _binary_pmf(q_x), q_s1=q_s1)
    poly = build_polytope(table, _binary_pmf(q_y), rate=rate, cclass=cclass)
    return poly, table, _binary_pmf(q_x)


def _witness_instance(rng, n, k, label):
    """A feasible n x k instance and its witness mixture w0.

    w0 puts half its mass on all maps and half on the constant maps; it
    fixes p_Y, and the rate (and label) budget sits at or above what w0
    spends, so w0 lies in the polytope.
    """
    p_x = Pmf(0.1 / n + 0.9 * rng.dirichlet(np.ones(n)))
    q_s1 = float(0.5 - 0.49 * rng.random()) if label else None
    table = enumerate_maps(n, k, p_x, q_s1=q_s1)
    const = np.all(table.maps == table.maps[:, :1], axis=1)
    w0 = 0.5 * rng.dirichlet(np.ones(len(table.maps)))
    w0[const] += 0.5 * rng.dirichlet(np.ones(int(const.sum())))
    p_y = Pmf(w0 @ table.out_pmfs)
    rate = float(w0 @ table.entropies) * (1.0 + 0.3 * float(rng.random()))
    cclass = None
    if label:
        cclass = float(w0 @ table.cls_terms) * (1.0 + 0.1 * float(rng.random()))
    poly = build_polytope(table, p_y, rate=rate, cclass=cclass)
    return (poly, table, p_x), w0


def _edge_instances():
    """Seeded 2x2 edges, then 3x2, 2x3 with a label, 4x2, 2x4 and 3x3."""
    rng = np.random.default_rng(20261018)

    def q():
        return float(rng.uniform(0.02, 0.98))

    def q_s1():
        return float(0.5 - 0.49 * rng.random())

    cases = []
    for _ in range(12):
        cases.append(("qx_half", _binary_instance(0.5, q(), float(rng.uniform(0.0, 1.0)))))
        cases.append(("rate_zero", _binary_instance(q(), q(), 0.0)))
        cases.append(("rate_huge", _binary_instance(q(), q(), 1e8)))
        s1 = q_s1()
        cases.append(("cclass_at_floor", _binary_instance(
            q(), q(), float(rng.uniform(0.0, 1.2)), s1, binary_entropy(s1))))
        s1 = q_s1()
        cases.append(("cclass_below_floor", _binary_instance(
            q(), q(), float(rng.uniform(0.0, 1.2)), s1, binary_entropy(s1) - 1e-11)))
        cases.append(("qs1_half", _binary_instance(
            q(), q(), float(rng.uniform(0.0, 1.2)), 0.5, float(rng.uniform(0.9, 1.1)))))
        s1 = q_s1()
        cases.append(("cclass_infeasible", _binary_instance(
            q(), q(), float(rng.uniform(0.0, 1.2)), s1, binary_entropy(s1) - 0.01)))
    for shape, reps in (((3, 2, False), 4), ((2, 3, True), 4), ((4, 2, False), 3),
                        ((2, 4, False), 1), ((3, 3, False), 1)):
        for _ in range(reps):
            instance, _ = _witness_instance(rng, *shape)
            cases.append(("%dx%d%s" % (shape[0], shape[1], " label" if shape[2] else ""), instance))
    return cases


EDGE_CASES = _edge_instances()


@pytest.fixture(scope="module")
def reference_outcomes():
    return [_outcome(_reference_solve_vertex, instance) for _, instance in EDGE_CASES]


def test_edge_cases_cover_every_verdict(reference_outcomes):
    # The corpus must reach both verdicts, or the bitwise match proves little.
    kinds = {outcome[0] is InfeasibleError for outcome in reference_outcomes}
    assert kinds == {True, False}


def test_batched_bases_match_the_per_basis_loop_bitwise(reference_outcomes):
    for (name, instance), expected in zip(EDGE_CASES, reference_outcomes):
        assert _outcome(solve_vertex, instance) == expected, name


@pytest.mark.parametrize("chunk", [1, 7])
def test_chunk_boundaries_do_not_move_the_tie_break(monkeypatch, reference_outcomes, chunk):
    monkeypatch.setattr(go, "_CHUNK", chunk)
    for (name, instance), expected in zip(EDGE_CASES, reference_outcomes):
        assert _outcome(solve_vertex, instance) == expected, (name, chunk)


def _info_bits(table, p_x, w):
    joint = np.zeros((table.n, table.k))
    for u, f in enumerate(table.maps):
        joint[np.arange(table.n), f] += w[u]
    joint *= p_x.masses[:, None]
    indep = joint.sum(axis=1)[:, None] * joint.sum(axis=0)[None, :]
    pos = joint > 0
    return float(np.sum(joint[pos] * np.log2(joint[pos] / indep[pos])))


@pytest.mark.parametrize("n, k, label, seed", [(3, 3, False, 3), (2, 4, True, 4)])
def test_non_binary_solution_is_feasible_and_beats_the_witness(n, k, label, seed):
    (poly, table, p_x), w0 = _witness_instance(np.random.default_rng(seed), n, k, label)
    res = solve_vertex(poly, table, p_x)
    w = res.weights
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= ROW_TOL
    assert np.max(np.abs(poly.a_eq @ w - poly.b_eq)) <= ROW_TOL
    assert np.max(poly.a_ub @ w - poly.b_ub) <= ROW_TOL
    assert abs(res.value - _info_bits(table, p_x, w)) <= 1e-10
    assert res.value >= _info_bits(table, p_x, w0) - ROUND_TOL
