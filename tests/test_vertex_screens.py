"""The two screens ahead of the vertex oracle's exact work.

``solve_vertex`` rank-tests a chunk of bases with one stacked
determinant (``_rank_screen``) and sends only the doubtful bases through
the singular-value count; it scores the sign-passing points as one stack
(``_info_bounds``) and skips the exact scoring of a point whose stacked
score lies clearly below the running best.  Both screens must be sound:
the determinant never certifies a basis the singular values reject, and
the stacked score stays within rounding of the exact scorer on every
point it sees.  Every basis of each instance below is checked, on the
workload shapes and on the degenerate edges (q_X = 1/2, equal source
masses that give duplicate columns, q_S1 next to 1/2, R at saturation,
R = 0, where every feasible point ties and the smaller support wins).
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
    saturation_rate,
    solve_vertex,
)
from ratemec.prob_core import RANK_TOL, ROUND_TOL, ROW_TOL


def _pmf(masses):
    return Pmf(np.asarray(masses, dtype=float))


def _binary(q_x, q_y, rate, q_s1=None, cclass=None):
    p_x = _pmf([1.0 - q_x, q_x])
    table = enumerate_maps(2, 2, p_x, q_s1=q_s1)
    return build_polytope(table, _pmf([1.0 - q_y, q_y]), rate=rate, cclass=cclass), table, p_x


def _witness(rng, n, k, label, p_x=None):
    """A feasible n x k instance: a random mixture fixes p_Y and the budgets."""
    p_x = _pmf(0.1 / n + 0.9 * rng.dirichlet(np.ones(n))) if p_x is None else p_x
    q_s1 = float(0.5 - 0.49 * rng.random()) if label else None
    table = enumerate_maps(n, k, p_x, q_s1=q_s1)
    const = np.all(table.maps == table.maps[:, :1], axis=1)
    w0 = 0.5 * rng.dirichlet(np.ones(len(table.maps)))
    w0[const] += 0.5 * rng.dirichlet(np.ones(int(const.sum())))
    rate = float(w0 @ table.entropies) * (1.0 + 0.3 * float(rng.random()))
    cclass = float(w0 @ table.cls_terms) * 1.05 if label else None
    poly = build_polytope(table, _pmf(w0 @ table.out_pmfs), rate=rate, cclass=cclass)
    return poly, table, p_x


def _instances():
    rng = np.random.default_rng(11)
    cases = [
        ("2x2", _binary(0.2, 0.3, 0.5)),
        ("2x2 label", _binary(0.3, 0.4, 0.6, 0.1, 0.7)),
        ("2x2 qx_half", _binary(0.5, 0.3, 0.4)),
        ("2x2 rate_zero", _binary(0.2, 0.3, 0.0)),
        ("2x2 qx_half rate_zero", _binary(0.5, 0.3, 0.0)),
        ("2x2 rate_at_saturation", _binary(0.2, 0.3, saturation_rate(0.2, 0.3))),
        ("2x2 qs1_near_half", _binary(0.3, 0.4, 0.6, 0.5 - 1e-9, 1.0)),
        ("2x2 qs1_half", _binary(0.3, 0.4, 0.6, 0.5, 1.0)),
        ("2x2 cclass_at_floor", _binary(0.3, 0.4, 0.6, 0.1, binary_entropy(0.1))),
    ]
    for name, shape in (("3x2", (3, 2, False)), ("2x3 label", (2, 3, True)),
                        ("4x2", (4, 2, False)), ("2x4", (2, 4, False)), ("3x3", (3, 3, False))):
        cases.append((name, _witness(rng, *shape)))
    cases += [
        ("3x2 equal masses", _witness(rng, 3, 2, False, _pmf(np.full(3, 1 / 3)))),
        ("3x3 equal masses", _witness(rng, 3, 3, False, _pmf(np.full(3, 1 / 3)))),
        ("2x3 qx_half", _witness(rng, 2, 3, False, _pmf([0.5, 0.5]))),
        ("2x3 label qs1_near_half", _label_near_half(rng)),
    ]
    return cases


def _label_near_half(rng):
    p_x = _pmf([0.7, 0.3])
    table = enumerate_maps(2, 3, p_x, q_s1=0.5 - 1e-9)
    w0 = rng.dirichlet(np.ones(len(table.maps)))
    poly = build_polytope(table, _pmf(w0 @ table.out_pmfs),
                          rate=float(w0 @ table.entropies), cclass=float(w0 @ table.cls_terms))
    return poly, table, p_x


CASES = _instances()
IDS = [name for name, _ in CASES]


def _all_bases(poly):
    """Every column subset of the standard form: (a, rhs, tol, subs, basis)."""
    a, rhs, tol = go._standard_form(poly)
    m = a.shape[0]
    basis = np.array(list(combinations(range(a.shape[1]), m)), dtype=np.intp)
    return a, rhs, tol, a[:, basis].transpose(1, 0, 2), basis


def _svd_full(subs):
    singular = np.linalg.svd(subs, compute_uv=False)
    return np.count_nonzero(singular > RANK_TOL, axis=-1) == subs.shape[-1]


def _sign_passing(poly):
    """Every basic solution that passes the sign test, in basis order."""
    a, rhs, tol, subs, basis = _all_bases(poly)
    full = _svd_full(subs)
    n, m = int(full.sum()), a.shape[0]
    sol = np.linalg.solve(subs[full], np.broadcast_to(rhs[:, None], (n, m, 1)))
    x = np.zeros((n, a.shape[1]))
    x[np.arange(n)[:, None], basis[full]] = sol[..., 0]
    return x[~np.any(x < -tol, axis=1), :poly.a_eq.shape[1]]


def _outcome(case):
    try:
        res = solve_vertex(*case)
    except InfeasibleError as err:
        return str(err)
    return res.value, res.weights.tobytes()


@pytest.mark.parametrize("case", [c for _, c in CASES], ids=IDS)
def test_determinant_never_certifies_a_basis_the_singular_values_reject(case):
    poly = case[0]
    a, _, _, subs, _ = _all_bases(poly)
    a_norm = float(np.linalg.norm(a, 2))
    svd_full = _svd_full(subs)
    certified = go._rank_screen(subs, a_norm)
    assert not np.any(certified & ~svd_full)
    assert np.array_equal(go._full_rank(subs, a_norm), svd_full)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_determinant_screen_is_sound_at_the_rank_threshold(m):
    # The tight case for |det| <= sigma_min * sigma_max**(m - 1): every other
    # singular value at the 2-norm bound, sigma_min around RANK_TOL.
    rng = np.random.default_rng(m)
    smin = np.concatenate([np.geomspace(1e-14, 1e-9, 400), RANK_TOL * np.array([0.999, 1.0, 1.001])])
    left = np.linalg.qr(rng.standard_normal((len(smin), m, m)))[0]
    right = np.linalg.qr(rng.standard_normal((len(smin), m, m)))[0]
    sigma = np.ones((len(smin), m))
    sigma[:, -1] = smin
    subs = left @ (sigma[:, :, None] * right)
    certified = go._rank_screen(subs, 1.0)
    svd_full = _svd_full(subs)
    assert not np.any(certified & ~svd_full)
    assert np.all(certified[smin > 2.1 * RANK_TOL])
    assert np.array_equal(go._full_rank(subs, 1.0), svd_full)


def test_determinant_certifies_most_bases_of_the_largest_shapes():
    # The screen is only worth its determinant if it spares most SVDs.
    for name, (poly, _, _) in CASES:
        if name in ("3x3", "4x2"):
            a, _, _, subs, _ = _all_bases(poly)
            certified = go._rank_screen(subs, float(np.linalg.norm(a, 2)))
            assert certified.mean() > 0.9, name


def _assert_scores_match(table, p_x, w):
    with np.errstate(all="raise"):
        bounds = go._info_bounds(table, p_x, w)
    assert bounds.shape == (w.shape[0],)
    for row, bound in zip(w, bounds):
        clipped = np.clip(row, 0.0, None)
        if clipped.sum() == 0.0:
            assert np.isnan(bound)
            continue
        clipped /= clipped.sum()
        exact = mutual_information(go._joint_from_weights(table, p_x, clipped))
        assert abs(bound - exact) <= 1e-13


@pytest.mark.parametrize("case", [c for _, c in CASES], ids=IDS)
def test_stacked_score_matches_the_exact_scorer_on_every_sign_passing_point(case):
    poly, table, p_x = case
    points = _sign_passing(poly)
    _assert_scores_match(table, p_x, points)
    # The screen also sees points the residual check would drop: the same
    # points scaled off the simplex row, and pushed off the marginal rows.
    rng = np.random.default_rng(7)
    off = np.vstack([1.5 * points, points + rng.uniform(-0.01, 0.01, points.shape)])
    residual = np.max(np.abs(off @ poly.a_eq.T - poly.b_eq), axis=1)
    assert np.all(residual > ROW_TOL)
    _assert_scores_match(table, p_x, off)


@pytest.mark.parametrize("n, k", [(8, 2), (2, 5), (4, 3)])
def test_stacked_score_stays_within_rounding_on_the_largest_tables(n, k):
    # 8x2 and 2x5 are the largest tables MAX_BASES admits without a budget
    # row; the score margin must dwarf the rounding there too.
    rng = np.random.default_rng(n * 10 + k)
    p_x = _pmf(rng.dirichlet(np.ones(n)))
    table = enumerate_maps(n, k, p_x)
    count = len(table.maps)
    w = 3.0 * rng.dirichlet(np.full(count, 0.3), size=50) - 0.01 * rng.random((50, count))
    _assert_scores_match(table, p_x, w)


def test_zero_weight_row_scores_nan_and_an_empty_stack_scores_nothing():
    _, table, p_x = CASES[0][1]
    count = len(table.maps)
    with np.errstate(all="raise"):
        empty = go._info_bounds(table, p_x, np.zeros((0, count)))
        # Map 2 is the constant 0, which carries no information.
        scored = go._info_bounds(table, p_x, np.vstack([np.zeros(count), np.eye(count)[2]]))
    assert empty.shape == (0,)
    assert np.isnan(scored[0]) and scored[1] == 0.0
    assert go._full_rank(np.zeros((0, 2, 2)), 1.0).shape == (0,)


@pytest.mark.parametrize("case", [c for _, c in CASES], ids=IDS)
def test_nan_scores_are_never_skipped(monkeypatch, case):
    # With every stacked score NaN nothing is skipped, so every point that
    # passes the residual check is scored exactly, and the answer stands.
    poly, table, _ = case
    expected = _outcome(case)
    scored = []

    def counting(joint):
        scored.append(joint)
        return mutual_information(joint)

    monkeypatch.setattr(go, "mutual_information", counting)
    monkeypatch.setattr(go, "_info_bounds", lambda maps, p_x, w: np.full(len(w), np.nan))
    assert _outcome(case) == expected
    points = _sign_passing(poly)
    residual = np.max(np.abs(points @ poly.a_eq.T - poly.b_eq), axis=1)
    assert len(scored) == int(np.count_nonzero(residual <= ROW_TOL))


@pytest.mark.parametrize("case", [c for _, c in CASES], ids=IDS)
def test_scores_low_by_most_of_the_margin_move_no_bit(monkeypatch, case):
    # A stacked score may err low by up to the margin less its own rounding
    # (1e-13) without skipping a point that could beat or tie the best.
    expected = _outcome(case)
    scores = go._info_bounds
    shift = 0.8 * go._SCORE_MARGIN
    monkeypatch.setattr(go, "_info_bounds", lambda maps, p_x, w: scores(maps, p_x, w) - shift)
    assert _outcome(case) == expected


@pytest.mark.parametrize("case", [c for _, c in CASES], ids=IDS)
def test_a_point_that_can_tie_is_never_skipped(monkeypatch, case):
    # Stand-in scores that all lie within ROUND_TOL of each other, so any
    # point may tie the best and win on support; each stacked score errs
    # low by most of the margin.  Skipping none, the answer must equal the
    # one reached with every stacked score NaN.
    count = len(case[1].maps)
    ramp = np.linspace(0.0, 1.0, count)

    def value(w):
        return 0.25 - 0.9 * ROUND_TOL * (w @ ramp)

    def clipped(w):
        w = np.clip(w, 0.0, None)
        with np.errstate(invalid="ignore"):
            return w / w.sum(axis=-1, keepdims=True)

    monkeypatch.setattr(go, "_joint_from_weights", lambda maps, p_x, w: w)
    monkeypatch.setattr(go, "mutual_information", value)
    monkeypatch.setattr(go, "_info_bounds", lambda maps, p_x, w: np.full(len(w), np.nan))
    expected = _outcome(case)
    shift = 0.8 * go._SCORE_MARGIN
    monkeypatch.setattr(go, "_info_bounds", lambda maps, p_x, w: value(clipped(w)) - shift)
    assert _outcome(case) == expected


def test_the_score_screen_spares_most_exact_scorings(monkeypatch):
    scored = []

    def counting(joint):
        scored.append(joint)
        return mutual_information(joint)

    monkeypatch.setattr(go, "mutual_information", counting)
    for name, case in CASES:
        if name == "3x3":
            solve_vertex(*case)
            assert 0 < len(scored) < 0.2 * len(_sign_passing(case[0]))
