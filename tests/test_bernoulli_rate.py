"""Closed-form rate-budget solver: frozen optima, invariants, reflection."""

import numpy as np
import pytest

from ratemec import (
    BINARY_MAPS,
    CASE_MARGINAL_BOUND,
    CASE_RATE_BOUND,
    DomainError,
    MapMixture,
    RateProblem,
    binary_entropy,
    mutual_information,
    saturation_rate,
    solve_mecbr,
)

# Frozen references computed with 50-digit arithmetic and rounded to double.
ALPHA_02_03_05 = 0.6925897517231431      # 0.5 / H_b(0.2)
VALUE_02_03_05 = 0.2511050144778606      # objective at the binding rate step
SAT_02_03 = 0.631687083026442            # H_b(0.2) * 7/8
# At (0.3, 0.4, R=0.4) the better optimum pairs the flip map with the
# constants (p1 = 0); restricting to p2 = 0 loses about 0.02 bits.
VALUE_03_04_04 = 0.1505412619993998
VALUE_03_04_04_ALIGNED_ONLY = 0.13065112981928073


def test_binary_maps_table():
    assert BINARY_MAPS.shape == (4, 2)
    assert BINARY_MAPS.tolist() == [[0, 1], [1, 0], [0, 0], [1, 1]]
    with pytest.raises(ValueError):
        BINARY_MAPS[0, 0] = 1


def test_rate_problem_rejects_degenerate_marginals():
    with pytest.raises(DomainError):
        RateProblem(0.0, 0.3, 0.5)
    with pytest.raises(DomainError):
        RateProblem(0.2, 1.0, 0.5)
    with pytest.raises(DomainError):
        RateProblem(0.2, 0.3, -0.1)


def test_rate_problem_above_half_needs_extend():
    with pytest.raises(DomainError):
        RateProblem(0.7, 0.3, 0.5)
    RateProblem(0.7, 0.3, 0.5, extend=True)


def test_map_mixture_validation():
    MapMixture(0.25, 0.25, 0.25, 0.25)
    with pytest.raises(DomainError):
        MapMixture(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(DomainError):
        MapMixture(0.3, 0.3, 0.3, 0.3)


def test_map_mixture_clamps_tiny_negative_weight():
    m = MapMixture(0.5, 0.5 + 1e-13, -1e-13, 0.0)
    assert m.p3 == 0.0
    assert m.p1 + m.p2 + m.p3 + m.p4 == pytest.approx(1.0, abs=1e-15)


def _clamped(weights):
    """The clamp-and-renormalize path every mixture took before the
    in-range shortcut: float, clamp at 0, divide by the clamped sum."""
    cleaned = [max(float(v), 0.0) for v in weights]
    total = sum(cleaned)
    return [repr(v / total) for v in cleaned]


def test_map_mixture_shortcut_equals_the_clamp_bit_for_bit():
    rng = np.random.default_rng(5)
    cases = [(1, 0, 0, 0), (0.25, 0.25, 0.25, 0.25), (-0.0, 0.5, 0.5, 0.0),
             (np.float64(0.1), 0.2, 0.3, 0.4), (0.5, 0.5 + 1e-13, -1e-13, 0.0)]
    for _ in range(2000):
        w = rng.dirichlet(np.ones(4))
        w[rng.random(4) < 0.2] = 0.0
        w[2] += w.sum() == 0.0
        w *= (1.0 + rng.uniform(-9e-13, 9e-13)) / w.sum()
        cases.append(tuple(float(v) for v in w))
    for weights in cases:
        if abs(sum(float(v) for v in weights) - 1.0) > 1e-12:
            continue
        m = MapMixture(*weights)
        assert [repr(m.p1), repr(m.p2), repr(m.p3), repr(m.p4)] == _clamped(weights)


@pytest.mark.parametrize("weights, message", [
    ((float("nan"), 0.5, 0.25, 0.25), "p1 is not finite: nan"),
    ((0.5, float("inf"), 0.0, 0.0), "p2 is not finite: inf"),
    ((0.5, 0.5, 0.5, -0.5), "p4=-0.5 negative beyond tolerance"),
    ((0.3, 0.3, 0.3, 0.3), "sum to 1.2, off from 1"),
])
def test_map_mixture_out_of_range_keeps_its_messages(weights, message):
    with pytest.raises(DomainError, match=message):
        MapMixture(*weights)


def test_map_mixture_induced_marginal():
    # P(Y=1) = p1 q_x + p2 (1 - q_x) + p4.
    m = MapMixture(0.4, 0.1, 0.3, 0.2)
    assert m.induced_qy(0.25) == pytest.approx(0.4 * 0.25 + 0.1 * 0.75 + 0.2, abs=1e-15)
    j = m.induced_joint(0.25)
    assert j.marginal_x().masses[1] == pytest.approx(0.25, abs=1e-15)


def test_saturation_rate_frozen_value():
    assert saturation_rate(0.2, 0.3) == pytest.approx(SAT_02_03, abs=1e-15)


def test_solve_zero_budget_gives_exact_zero():
    res = solve_mecbr(RateProblem(0.2, 0.3, 0.0))
    assert res.value == 0.0
    assert res.mixture.p1 == 0.0
    assert res.mixture.p2 == 0.0


def test_solve_frozen_value_rate_bound():
    res = solve_mecbr(RateProblem(0.2, 0.3, 0.5))
    assert res.value == pytest.approx(VALUE_02_03_05, abs=1e-12)
    assert res.case_label == CASE_RATE_BOUND
    assert res.alpha == pytest.approx(ALPHA_02_03_05, abs=1e-12)
    assert res.reflected is None


def test_solve_plateau_is_marginal_bound():
    res = solve_mecbr(RateProblem(0.2, 0.3, 0.9))
    assert res.case_label == CASE_MARGINAL_BOUND
    res_more = solve_mecbr(RateProblem(0.2, 0.3, 5.0))
    assert res_more.value == pytest.approx(res.value, abs=1e-12)


def test_solve_flip_side_beats_identity_side_at_low_rate():
    # Regression pin: with q_Y > q_X and a tight budget, pairing the flip
    # map with the constants is strictly better than any identity-side
    # mixture, so the optimizer must search both families.
    res = solve_mecbr(RateProblem(0.3, 0.4, 0.4))
    assert res.value == pytest.approx(VALUE_03_04_04, abs=1e-12)
    assert res.value > VALUE_03_04_04_ALIGNED_ONLY + 0.01
    assert res.mixture.p1 == 0.0
    assert res.mixture.p2 > 0.4


def test_solve_value_is_consistent_with_its_own_mixture():
    rng = np.random.default_rng(21)
    for _ in range(300):
        q_x = rng.uniform(0.01, 0.5)
        q_y = rng.uniform(0.01, 0.5)
        rate = rng.uniform(0.0, 1.2)
        res = solve_mecbr(RateProblem(q_x, q_y, rate))
        direct = mutual_information(res.mixture.induced_joint(q_x))
        assert res.value == pytest.approx(direct, abs=1e-10)


def test_solve_mixture_matches_target_marginal():
    rng = np.random.default_rng(22)
    for _ in range(300):
        q_x = rng.uniform(0.01, 0.5)
        q_y = rng.uniform(0.01, 0.5)
        rate = rng.uniform(0.0, 1.2)
        res = solve_mecbr(RateProblem(q_x, q_y, rate))
        assert res.mixture.induced_qy(q_x) - q_y < 1e-9


def test_solve_respects_rate_budget():
    rng = np.random.default_rng(23)
    for _ in range(300):
        q_x = rng.uniform(0.01, 0.5)
        q_y = rng.uniform(0.01, 0.5)
        rate = rng.uniform(0.0, 1.2)
        res = solve_mecbr(RateProblem(q_x, q_y, rate))
        spent = (res.mixture.p1 + res.mixture.p2) * binary_entropy(q_x)
        assert spent <= rate + 1e-9


def test_solve_nondecreasing_in_rate():
    rng = np.random.default_rng(24)
    for _ in range(100):
        q_x = rng.uniform(0.01, 0.5)
        q_y = rng.uniform(0.01, 0.5)
        rates = np.sort(rng.uniform(0.0, 1.2, size=6))
        values = [solve_mecbr(RateProblem(q_x, q_y, r)).value for r in rates]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12


def test_solve_value_bounded_by_target_entropy():
    rng = np.random.default_rng(25)
    for _ in range(200):
        q_x = rng.uniform(0.01, 0.5)
        q_y = rng.uniform(0.01, 0.5)
        res = solve_mecbr(RateProblem(q_x, q_y, rng.uniform(0.0, 2.0)))
        assert 0.0 <= res.value <= binary_entropy(q_y) + 1e-12


def test_reflection_preserves_value_and_marginals():
    rng = np.random.default_rng(26)
    for _ in range(100):
        q_x = rng.uniform(0.01, 0.5)
        q_y = rng.uniform(0.01, 0.5)
        rate = rng.uniform(0.0, 1.0)
        base = solve_mecbr(RateProblem(q_x, q_y, rate))

        rx = solve_mecbr(RateProblem(1.0 - q_x, q_y, rate, extend=True))
        assert rx.reflected == "x"
        assert rx.value == pytest.approx(base.value, abs=1e-12)
        assert rx.mixture.induced_qy(1.0 - q_x) == pytest.approx(q_y, abs=1e-9)

        ry = solve_mecbr(RateProblem(q_x, 1.0 - q_y, rate, extend=True))
        assert ry.reflected == "y"
        assert ry.value == pytest.approx(base.value, abs=1e-12)
        assert ry.mixture.induced_qy(q_x) == pytest.approx(1.0 - q_y, abs=1e-9)

        rxy = solve_mecbr(RateProblem(1.0 - q_x, 1.0 - q_y, rate, extend=True))
        assert rxy.reflected == "xy"
        assert rxy.value == pytest.approx(base.value, abs=1e-12)
        assert rxy.mixture.induced_qy(1.0 - q_x) == pytest.approx(1.0 - q_y, abs=1e-9)
