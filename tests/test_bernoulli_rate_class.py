"""Label-budget solver: feasibility gate, vertex-oracle agreement, frozen optima."""

import numpy as np
import pytest

from ratemec import (
    DomainError,
    InfeasibleError,
    Pmf,
    RateClassProblem,
    RateProblem,
    binary_entropy,
    build_polytope,
    enumerate_maps,
    feasibility,
    label_params,
    mutual_information,
    solve_mecbr,
    solve_mecbrc,
    solve_vertex,
)
from ratemec.bernoulli_rate import _objective_value

# Frozen references computed with 50-digit arithmetic and rounded to double.
HB_M_03_001 = 0.8861256474645222         # H_b of the blended label marginal
LABEL_FLOOR_03_04 = 0.6036334563442075   # (H_b(m) - 0.4) / (H_b(m) - H_b(0.01))
RATE_ONSET_03_04 = 0.5319766715473178    # floor * H_b(0.3)
VALUE_FIG5_R06 = 0.3098632041640273
VALUE_FIG5_PLATEAU = 0.5567796494470395
CLASS_SAT_RATE = 0.7553921993405937      # H_b(0.3) * 6/7
VALUE_R02_NOCLASS_FLIP = 0.03392933079845359
VALUE_R02_NOCLASS_IDENT = 0.0321444387532773


def _vertex_value(p):
    """2x2 vertex-oracle value with both budgets, or None if infeasible."""
    p_x = Pmf(np.array([1.0 - p.q_x, p.q_x]))
    p_y = Pmf(np.array([1.0 - p.q_y, p.q_y]))
    table = enumerate_maps(2, 2, p_x, q_s1=p.q_s1)
    poly = build_polytope(table, p_y, rate=p.rate, cclass=p.cclass)
    try:
        return solve_vertex(poly, table, p_x).value
    except InfeasibleError:
        return None


def test_problem_validation():
    RateClassProblem(0.3, 0.4, 0.5, 0.5, 0.5)
    with pytest.raises(DomainError):
        RateClassProblem(0.3, 0.4, 0.6, 0.5, 0.5)
    with pytest.raises(DomainError):
        RateClassProblem(0.3, 0.4, 0.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        RateClassProblem(0.3, 0.4, 0.1, 0.5, -0.1)


def test_label_params_frozen_values():
    lp = label_params(RateClassProblem(0.3, 0.4, 0.01, 0.5, 0.4))
    assert lp.q_s == pytest.approx(0.304, abs=1e-15)
    assert lp.m == pytest.approx(0.696, abs=1e-15)
    assert lp.h_b_m == pytest.approx(HB_M_03_001, abs=2e-15)
    assert lp.h_b_qs1 == pytest.approx(binary_entropy(0.01), abs=1e-15)


def test_label_params_blend_ordering_holds_on_random_draws():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        q_x = rng.uniform(0.01, 0.5)
        q_s1 = rng.uniform(0.01, 0.49)
        lp = label_params(RateClassProblem(q_x, 0.4, q_s1, 0.5, 1.0))
        assert lp.h_b_m >= lp.h_b_qs1 - 1e-12


def test_feasibility_gate_threshold():
    hb1 = binary_entropy(0.1)
    assert feasibility(RateClassProblem(0.3, 0.4, 0.1, 0.5, hb1))
    assert feasibility(RateClassProblem(0.3, 0.4, 0.1, 0.5, hb1 + 0.2))
    assert not feasibility(RateClassProblem(0.3, 0.4, 0.1, 0.5, hb1 - 1e-6))
    # The gate is judged in weight: 1e-11 bits below H_b(q_S1) puts the
    # floor on p1 + p2 only 2.2e-11 above 1, within WEIGHT_TOL.
    assert feasibility(RateClassProblem(0.3, 0.4, 0.1, 0.5, hb1 - 1e-11))


def test_gate_failure_raises_with_threshold_in_message():
    with pytest.raises(InfeasibleError, match="H_b\\(q_S1\\)"):
        solve_mecbrc(RateClassProblem(0.3, 0.4, 0.1, 1.0, 0.05))


def test_flip_side_marginal_cap_candidate_can_win():
    # Mid-rate window where the flip family hits its marginal cap just
    # below the rate cap and still beats every identity-side point.
    p = RateClassProblem(0.38, 0.43, 0.41, 0.67, 1.9)
    res = solve_mecbrc(p)
    assert res.case_label == "PartII-Case4"
    assert res.value == pytest.approx(_vertex_value(p), abs=1e-12)
    assert res.mixture.p2 == pytest.approx(0.43 / 0.62, abs=1e-9)


def test_floor_cap_candidate_can_be_the_only_feasible_one():
    # A label floor above the one-sided marginal cap leaves no feasible
    # one-sided mixture, yet the instance is feasible: the optimum pairs
    # the floor with the p3 = 0 row at p1 > 0 and p2 > 0.
    p = RateClassProblem(0.1, 0.45, 0.3, 0.6, binary_entropy(0.3) + 0.001)
    floor, _ = _floor_and_gap(p)
    res = solve_mecbrc(p)
    assert res.case_label == "PartI-Case2"
    assert res.value == pytest.approx(_vertex_value(p), abs=1e-12)
    assert res.mixture.p1 > 0.5 and res.mixture.p2 > 0.4
    assert res.mixture.p1 + res.mixture.p2 == pytest.approx(floor, abs=1e-12)
    assert res.mixture.p3 == pytest.approx(0.0, abs=1e-12)


def test_best_feasible_candidate_matches_solver():
    # The best feasible vertex of the 2x2 polytope (the vertex oracle)
    # agrees with the closed form in verdict and value.
    rng = np.random.default_rng(32)
    feasible = 0
    for _ in range(200):
        q_x = rng.uniform(0.01, 0.5)
        q_y = rng.uniform(0.01, 0.5)
        q_s1 = rng.uniform(0.01, 0.5)
        rate = rng.uniform(0.0, 1.2)
        cclass = binary_entropy(q_s1) + rng.uniform(0.0, 1.0)
        p = RateClassProblem(q_x, q_y, q_s1, rate, cclass)
        try:
            value = solve_mecbrc(p).value
        except InfeasibleError:
            value = None
        vertex = _vertex_value(p)
        assert (value is None) == (vertex is None), p
        if value is not None:
            feasible += 1
            assert value == pytest.approx(vertex, abs=1e-9)
    assert feasible > 150


def test_solver_frozen_rate_bound_point():
    res = solve_mecbrc(RateClassProblem(0.3, 0.4, 0.01, 0.6, 0.4))
    assert res.value == pytest.approx(VALUE_FIG5_R06, abs=1e-12)
    assert res.case_label == "PartI-Case1"
    assert res.alpha == pytest.approx(0.6 / binary_entropy(0.3), abs=1e-12)


def test_solver_frozen_plateau_point():
    res = solve_mecbrc(RateClassProblem(0.3, 0.4, 0.01, 2.0, 0.4))
    assert res.value == pytest.approx(VALUE_FIG5_PLATEAU, abs=1e-12)
    assert res.case_label == "PartI-Case4"
    beyond = solve_mecbrc(RateClassProblem(0.3, 0.4, 0.01, CLASS_SAT_RATE + 0.01, 0.4))
    assert beyond.value == pytest.approx(VALUE_FIG5_PLATEAU, abs=1e-10)


def test_solver_prefers_flip_family_when_it_wins():
    # With a loose label budget the problem reduces to the rate-only one,
    # whose optimum at this point sits on the flip side (p1 = 0).
    res = solve_mecbrc(RateClassProblem(0.3, 0.4, 0.01, 0.2, 10.0))
    assert res.value == pytest.approx(VALUE_R02_NOCLASS_FLIP, abs=1e-12)
    assert res.case_label == "PartII-Case1"
    assert res.value > VALUE_R02_NOCLASS_IDENT


def test_joint_infeasibility_onset_is_sharp():
    with pytest.raises(InfeasibleError):
        solve_mecbrc(RateClassProblem(0.3, 0.4, 0.01, RATE_ONSET_03_04 - 1e-6, 0.4))
    res = solve_mecbrc(RateClassProblem(0.3, 0.4, 0.01, RATE_ONSET_03_04 + 1e-6, 0.4))
    informative = res.mixture.p1 + res.mixture.p2
    assert informative == pytest.approx(LABEL_FLOOR_03_04, abs=1e-5)


def test_joint_infeasibility_message_names_both_budgets():
    with pytest.raises(InfeasibleError, match="jointly unsatisfiable"):
        solve_mecbrc(RateClassProblem(0.3, 0.4, 0.01, 0.3, 0.4))


def test_loose_label_budget_reduces_to_rate_only():
    rng = np.random.default_rng(33)
    for _ in range(100):
        q_x = rng.uniform(0.01, 0.5)
        q_y = rng.uniform(0.01, 0.5)
        q_s1 = rng.uniform(0.01, 0.5)
        rate = rng.uniform(0.0, 1.2)
        with_label = solve_mecbrc(RateClassProblem(q_x, q_y, q_s1, rate, 2.0))
        rate_only = solve_mecbr(RateProblem(q_x, q_y, rate))
        assert with_label.value == pytest.approx(rate_only.value, abs=1e-10)


def test_slack_label_budget_gives_the_rate_only_answer_bitwise():
    # With C >= H_b(m) the label floor is at most 0, so both solvers run the
    # same step interval [0, hi] and must agree to the last bit.
    rng = np.random.default_rng(36)
    for i in range(2000):
        q_x = 0.5 if i % 10 == 0 else rng.uniform(0.01, 0.5)
        q_y = rng.uniform(0.01, 0.5)
        q_s1 = rng.uniform(0.01, 0.5)
        rate = rng.uniform(0.0, 1.2)
        h_b_m = label_params(RateClassProblem(q_x, q_y, q_s1, rate, 1.0)).h_b_m
        cclass = h_b_m if i % 3 == 0 else h_b_m + rng.uniform(0.0, 1.0)
        with_label = solve_mecbrc(RateClassProblem(q_x, q_y, q_s1, rate, cclass))
        rate_only = solve_mecbr(RateProblem(q_x, q_y, rate))
        assert with_label.value == rate_only.value
        assert with_label.mixture == rate_only.mixture
        assert with_label.alpha == rate_only.alpha


def test_exact_tie_at_half_source_goes_to_the_aligned_side():
    # At q_X = 1/2, I(d) = I(-d) and both extremes of d sit at s = hi, so a
    # binding label floor changes nothing: the answer is the rate-only one,
    # and when the two extremes' values tie to the last bit, PartI wins.
    rng = np.random.default_rng(37)
    ties = 0
    for _ in range(400):
        q_y = rng.uniform(0.01, 0.5)
        q_s1 = rng.uniform(0.01, 0.5)
        rate = rng.uniform(0.0, 1.2)
        lp = label_params(RateClassProblem(0.5, q_y, q_s1, rate, 1.0))
        cclass = lp.h_b_qs1 + rng.uniform(0.0, 1.0) * (lp.h_b_m - lp.h_b_qs1)
        try:
            res = solve_mecbrc(RateClassProblem(0.5, q_y, q_s1, rate, cclass))
        except InfeasibleError:
            continue
        rate_only = solve_mecbr(RateProblem(0.5, q_y, rate))
        assert res.value == rate_only.value
        assert res.mixture == rate_only.mixture
        if _objective_value(0.5, q_y, res.alpha) == _objective_value(0.5, q_y, -res.alpha):
            ties += 1
            assert res.case_label.startswith("PartI-"), res.case_label
    assert ties > 100


def test_solution_satisfies_every_constraint_row():
    rng = np.random.default_rng(34)
    for _ in range(300):
        q_x = rng.uniform(0.01, 0.5)
        q_y = rng.uniform(0.01, 0.5)
        q_s1 = rng.uniform(0.01, 0.5)
        rate = rng.uniform(0.0, 1.2)
        cclass = binary_entropy(q_s1) + rng.uniform(0.0, 1.0)
        p = RateClassProblem(q_x, q_y, q_s1, rate, cclass)
        try:
            res = solve_mecbrc(p)
        except InfeasibleError:
            continue
        m = res.mixture
        lp = label_params(p)
        assert m.induced_qy(q_x) - q_y < 1e-8
        assert (m.p1 + m.p2) * binary_entropy(q_x) <= rate + 1e-8
        label_row = (m.p1 + m.p2) * lp.h_b_qs1 + (m.p3 + m.p4) * lp.h_b_m
        assert label_row <= cclass + 1e-8
        direct = mutual_information(m.induced_joint(q_x))
        assert res.value == pytest.approx(direct, abs=1e-9)


def test_nondecreasing_in_both_budgets():
    rng = np.random.default_rng(35)
    for _ in range(60):
        q_x = rng.uniform(0.05, 0.5)
        q_y = rng.uniform(0.05, 0.5)
        q_s1 = rng.uniform(0.05, 0.45)
        base_c = binary_entropy(q_s1) + 0.05
        rates = np.sort(rng.uniform(0.0, 1.2, size=5))
        values = []
        for r in rates:
            try:
                values.append(solve_mecbrc(RateClassProblem(q_x, q_y, q_s1, r, base_c)).value)
            except InfeasibleError:
                continue
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12

        ccs = np.sort(rng.uniform(base_c, 2.0, size=5))
        fixed_rate = rng.uniform(0.3, 1.2)
        values = []
        for c in ccs:
            try:
                values.append(solve_mecbrc(RateClassProblem(q_x, q_y, q_s1, fixed_rate, c)).value)
            except InfeasibleError:
                continue
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12


# Label rows whose gap H_b(m) - H_b(q_S1) is tiny (q_S1 near 1/2, C at the
# floor H_b(q_S1)).  A 1e-9-bit slack on such a row admits weights far
# below the label floor, so the verdicts below come from the floor L and
# the rate cap U = R / H_b(q_X) directly, not from a slack in bits.
ILL_SWEEP = (0.1122686436741937, 0.19204908117449965, 0.49929232904766924,
             0.9999985550014254)
ILL_ORACLE = (0.22046769226277946, 0.10372929264310693, 0.49998477272954783,
              0.40241667418479937, 0.9999999993309654)


def _floor_and_gap(p):
    lp = label_params(p)
    gap = lp.h_b_m - lp.h_b_qs1
    return (lp.h_b_m - p.cclass) / gap, gap


def test_ill_conditioned_floor_of_one_needs_every_informative_weight():
    q_x, q_y, q_s1, cclass = ILL_SWEEP
    hbx = binary_entropy(q_x)
    floor, gap = _floor_and_gap(RateClassProblem(q_x, q_y, q_s1, 1.0, cclass))
    assert gap < 1e-6
    assert floor == pytest.approx(1.0, abs=1e-9)
    # Just below R = H_b(q_X) the rate cap U misses the floor by 6.7e-4 in
    # weight but the row by only 3.8e-10 bits.
    rate = 0.50638
    assert 1.0 - rate / hbx > 1e-4
    with pytest.raises(InfeasibleError, match="jointly unsatisfiable"):
        solve_mecbrc(RateClassProblem(q_x, q_y, q_s1, rate, cclass))
    p = RateClassProblem(q_x, q_y, q_s1, hbx + 1e-3, cclass)
    res = solve_mecbrc(p)
    assert res.mixture.p1 + res.mixture.p2 == pytest.approx(1.0, abs=1e-9)
    assert "Case2" in res.case_label


def test_ill_conditioned_floor_far_above_the_rate_cap_is_infeasible():
    p = RateClassProblem(*ILL_ORACLE)
    floor, gap = _floor_and_gap(p)
    cap = p.rate / binary_entropy(p.q_x)
    assert gap < 1e-9
    assert floor - cap > 0.4
    with pytest.raises(InfeasibleError, match="jointly unsatisfiable"):
        solve_mecbrc(p)
