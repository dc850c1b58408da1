"""Tests for the brute-force map-mixture oracle and the theta grid scan."""

import time

import numpy as np
import pytest

from ratemec import (
    BINARY_MAPS,
    DEFAULT_MAP_CAP,
    DimensionCapError,
    DomainError,
    InfeasibleError,
    Pmf,
    RateClassProblem,
    RateProblem,
    binary_entropy,
    build_polytope,
    coupling_oracle_theta,
    enumerate_maps,
    frechet_interval,
    label_params,
    solve_mecbr,
    solve_mecbrc,
    solve_vertex,
)
from ratemec.generic_oracle import MAX_BASES, MAX_GRID

# H_b(0.3) = 0.8812908992306926 bits (frozen from a 50-digit evaluation).
HB_03 = 0.8812908992306926
# Unconstrained two-point coupling value at q_x = 0.2, q_y = 0.3:
# H_b(0.3) - 0.8 * H_b(0.125) = 0.4464393446710155 bits.
PLATEAU_02_03 = 0.4464393446710155


def _binary_pmf(q: float) -> Pmf:
    return Pmf(np.array([1.0 - q, q]))


class TestEnumerateMaps:
    def test_binary_case_matches_canonical_map_order(self):
        table = enumerate_maps(2, 2, _binary_pmf(0.3))
        assert table.maps.shape == (4, 2)
        np.testing.assert_array_equal(table.maps, BINARY_MAPS)

    def test_map_count_is_k_to_the_n(self):
        table = enumerate_maps(3, 2, Pmf(np.array([0.2, 0.3, 0.5])))
        assert table.maps.shape == (8, 3)
        assert table.out_pmfs.shape == (8, 2)
        assert table.entropies.shape == (8,)

    def test_non_binary_maps_come_in_lexicographic_order(self):
        table = enumerate_maps(3, 2, Pmf(np.array([0.2, 0.3, 0.5])))
        expected = [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        ]
        assert [tuple(row) for row in table.maps] == expected

    def test_cap_violation_names_the_cap(self):
        with pytest.raises(DimensionCapError, match="17"):
            enumerate_maps(5, 4, Pmf(np.full(5, 0.2)), cap=17)

    def test_default_cap_allows_four_by_four(self):
        # 4 ** 4 = 256 <= 4096 so this must enumerate without complaint.
        table = enumerate_maps(4, 4, Pmf(np.full(4, 0.25)))
        assert table.maps.shape == (256, 4)
        assert DEFAULT_MAP_CAP == 4096

    def test_out_pmfs_are_distributions(self):
        table = enumerate_maps(3, 3, Pmf(np.array([0.5, 0.25, 0.25])))
        np.testing.assert_allclose(table.out_pmfs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(table.out_pmfs >= 0.0)

    def test_constant_maps_have_zero_entropy(self):
        table = enumerate_maps(2, 2, _binary_pmf(0.3))
        assert table.entropies[2] == 0.0
        assert table.entropies[3] == 0.0
        assert table.entropies[0] == pytest.approx(HB_03, abs=1e-12)
        assert table.entropies[1] == pytest.approx(HB_03, abs=1e-12)

    def test_label_terms_for_binary_maps(self):
        q_x, q_s1 = 0.3, 0.01
        table = enumerate_maps(2, 2, _binary_pmf(q_x), q_s1=q_s1)
        hb_s1 = binary_entropy(q_s1)
        m = (1.0 - q_x) * (1.0 - q_s1) + q_x * q_s1
        hb_m = binary_entropy(m)
        # Injective maps pin down X, so the label residual is H_b(q_s1);
        # constant maps reveal nothing, leaving the mixture entropy H_b(m).
        np.testing.assert_allclose(
            table.cls_terms, [hb_s1, hb_s1, hb_m, hb_m], atol=1e-12
        )

    def test_label_model_requires_binary_source(self):
        with pytest.raises(DomainError, match="binary source"):
            enumerate_maps(3, 2, Pmf(np.array([0.2, 0.3, 0.5])), q_s1=0.1)

    def test_label_model_rejects_out_of_domain_q_s1(self):
        with pytest.raises(DomainError):
            enumerate_maps(2, 2, _binary_pmf(0.3), q_s1=0.7)

    def test_rejects_mismatched_source_pmf(self):
        with pytest.raises(DomainError, match="source alphabet"):
            enumerate_maps(3, 2, _binary_pmf(0.3))

    def test_cls_terms_absent_without_label_model(self):
        table = enumerate_maps(2, 2, _binary_pmf(0.3))
        assert table.cls_terms is None

    def test_tables_are_read_only(self):
        table = enumerate_maps(2, 2, _binary_pmf(0.3))
        with pytest.raises(ValueError):
            table.maps[0, 0] = 1

    def test_label_terms_equal_label_params_bitwise(self):
        # Near q_S1 = 1/2 the gap H_b(m) - H_b(q_S1) is 1e-8, so an ulp in
        # either term moves the label row's bound in weight by about 1e-8;
        # the oracle must build the row from the closed form's two numbers.
        q_x, q_y, q_s1 = 0.09471647455084391, 0.3675483765782794, 0.49989900241663293
        lp = label_params(RateClassProblem(q_x, q_y, q_s1, 1.0, 1.0))
        table = enumerate_maps(2, 2, _binary_pmf(q_x), q_s1=q_s1)
        assert table.cls_terms.tolist() == [lp.h_b_qs1, lp.h_b_qs1, lp.h_b_m, lp.h_b_m]

    def test_label_terms_for_a_ternary_output(self):
        # Injective maps (two distinct outputs) leave H_b(q_S1), constant
        # maps H_b(m), whatever the output alphabet.
        q_x, q_s1 = 0.3, 0.2
        lp = label_params(RateClassProblem(q_x, 0.4, q_s1, 1.0, 1.0))
        table = enumerate_maps(2, 3, _binary_pmf(q_x), q_s1=q_s1)
        injective = table.maps[:, 0] != table.maps[:, 1]
        assert np.all(table.cls_terms[injective] == lp.h_b_qs1)
        assert np.all(table.cls_terms[~injective] == lp.h_b_m)
        assert not table.cls_terms.flags.writeable


class TestBuildPolytope:
    def test_constraint_shapes_for_binary_case(self):
        table = enumerate_maps(2, 2, _binary_pmf(0.2))
        poly = build_polytope(table, _binary_pmf(0.3), rate=0.5)
        # Equalities: two marginal rows plus the simplex row.
        assert poly.a_eq.shape == (3, 4)
        assert poly.b_eq.shape == (3,)
        # Inequalities: rate row plus four nonnegativity rows.
        assert poly.a_ub.shape == (5, 4)
        assert poly.ub_names[0] == "rate"
        assert poly.ub_names[1:] == tuple(f"nonneg[{u}]" for u in range(4))

    def test_rate_row_is_the_entropy_vector(self):
        table = enumerate_maps(2, 2, _binary_pmf(0.2))
        poly = build_polytope(table, _binary_pmf(0.3), rate=0.5)
        np.testing.assert_array_equal(poly.a_ub[0], table.entropies)
        assert poly.b_ub[0] == 0.5

    def test_class_row_requires_label_model(self):
        table = enumerate_maps(2, 2, _binary_pmf(0.2))
        with pytest.raises(DomainError, match="label model"):
            build_polytope(table, _binary_pmf(0.3), cclass=0.5)

    def test_class_row_uses_the_label_terms(self):
        table = enumerate_maps(2, 2, _binary_pmf(0.2), q_s1=0.1)
        poly = build_polytope(table, _binary_pmf(0.3), rate=0.5, cclass=0.9)
        assert poly.ub_names[:2] == ("rate", "classification")
        np.testing.assert_array_equal(poly.a_ub[1], table.cls_terms)
        assert poly.b_ub[1] == 0.9

    def test_rejects_mismatched_output_pmf(self):
        table = enumerate_maps(2, 2, _binary_pmf(0.2))
        with pytest.raises(DomainError, match="output alphabet"):
            build_polytope(table, Pmf(np.array([0.2, 0.3, 0.5])))

    def test_rejects_negative_budgets(self):
        table = enumerate_maps(2, 2, _binary_pmf(0.2), q_s1=0.1)
        with pytest.raises(DomainError):
            build_polytope(table, _binary_pmf(0.3), rate=-0.1)
        with pytest.raises(DomainError):
            build_polytope(table, _binary_pmf(0.3), cclass=-0.1)


class TestSolveVertex:
    def test_matches_closed_form_on_random_rate_problems(self):
        rng = np.random.default_rng(20240817)
        for _ in range(60):
            q_x = rng.uniform(0.02, 0.5)
            q_y = rng.uniform(0.02, 0.5)
            rate = rng.uniform(0.0, 1.2)
            closed = solve_mecbr(RateProblem(q_x, q_y, rate))
            table = enumerate_maps(2, 2, _binary_pmf(q_x))
            poly = build_polytope(table, _binary_pmf(q_y), rate=rate)
            vertex = solve_vertex(poly, table, _binary_pmf(q_x))
            assert vertex.value == pytest.approx(closed.value, abs=1e-9)

    def test_vertex_result_carries_weights_and_mixture(self):
        table = enumerate_maps(2, 2, _binary_pmf(0.2))
        poly = build_polytope(table, _binary_pmf(0.3), rate=0.5)
        res = solve_vertex(poly, table, _binary_pmf(0.2))
        assert res.case_label == "Vertex"
        assert res.weights.shape == (4,)
        assert res.mixture is not None
        np.testing.assert_allclose(
            [res.mixture.p1, res.mixture.p2, res.mixture.p3, res.mixture.p4],
            res.weights,
            atol=1e-12,
        )

    def test_ternary_source_solution_is_internally_consistent(self):
        p_x = Pmf(np.array([0.5, 0.3, 0.2]))
        p_y = _binary_pmf(0.4)
        table = enumerate_maps(3, 2, p_x)
        poly = build_polytope(table, p_y, rate=0.6)
        res = solve_vertex(poly, table, p_x)
        w = res.weights
        assert np.all(w >= -1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)
        induced = w @ table.out_pmfs
        np.testing.assert_allclose(induced, p_y.masses, atol=1e-9)
        assert float(w @ table.entropies) <= 0.6 + 1e-9
        assert 0.0 <= res.value <= binary_entropy(0.4) + 1e-12
        # No binary mixture exists for a ternary source.
        assert res.mixture is None

    def test_ternary_rate_zero_forces_zero_information(self):
        p_x = Pmf(np.array([0.5, 0.3, 0.2]))
        p_y = _binary_pmf(0.4)
        table = enumerate_maps(3, 2, p_x)
        poly = build_polytope(table, p_y, rate=0.0)
        res = solve_vertex(poly, table, p_x)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        # Constant maps carry all the weight at zero rate.
        informative = [u for u in range(8) if table.entropies[u] > 1e-12]
        assert float(res.weights[informative].sum()) == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_label_budget_raises(self):
        q_s1 = 0.2
        table = enumerate_maps(2, 2, _binary_pmf(0.3), q_s1=q_s1)
        poly = build_polytope(
            table, _binary_pmf(0.4), rate=2.0, cclass=binary_entropy(q_s1) - 0.01
        )
        with pytest.raises(InfeasibleError, match="basic feasible"):
            solve_vertex(poly, table, _binary_pmf(0.3))

    def test_tie_break_prefers_small_support(self):
        # At rate zero every optimal point mixes only the constant maps;
        # the 2-map split (1 - q_y, q_y) must win over wider supports.
        table = enumerate_maps(2, 2, _binary_pmf(0.2))
        poly = build_polytope(table, _binary_pmf(0.3), rate=0.0)
        res = solve_vertex(poly, table, _binary_pmf(0.2))
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert int(np.count_nonzero(res.weights > 1e-9)) <= 2
        np.testing.assert_allclose(res.weights[:2], 0.0, atol=1e-9)

    def test_unconstrained_binary_problem_hits_the_plateau(self):
        table = enumerate_maps(2, 2, _binary_pmf(0.2))
        poly = build_polytope(table, _binary_pmf(0.3))
        res = solve_vertex(poly, table, _binary_pmf(0.2))
        assert res.value == pytest.approx(PLATEAU_02_03, abs=1e-10)

    def test_basis_count_over_the_bound_raises_before_any_solve(self):
        # 256 maps and one rate row give C(257, 5) = 8,984,341,696 bases.
        p_x = Pmf(np.full(4, 0.25))
        table = enumerate_maps(4, 4, p_x)
        poly = build_polytope(table, Pmf(np.full(4, 0.25)), rate=1.0)
        start = time.perf_counter()
        with pytest.raises(DimensionCapError, match="8984341696") as err:
            solve_vertex(poly, table, p_x)
        assert time.perf_counter() - start < 1.0
        assert str(MAX_BASES) in str(err.value)

    def test_huge_rate_budget_returns_the_plateau(self):
        # A rate row that never binds is dropped; kept, its basic slack of
        # 1e8 would swamp the rounding of the weights.
        q_x, q_y = 0.37, 0.11
        table = enumerate_maps(2, 2, _binary_pmf(q_x))
        free = solve_vertex(build_polytope(table, _binary_pmf(q_y)), table, _binary_pmf(q_x))
        poly = build_polytope(table, _binary_pmf(q_y), rate=1e8)
        res = solve_vertex(poly, table, _binary_pmf(q_x))
        assert res.value == pytest.approx(free.value, abs=1e-12)
        assert res.value == pytest.approx(
            solve_mecbr(RateProblem(q_x, q_y, 1e8)).value, abs=1e-12
        )

    def test_slack_ill_conditioned_label_row_gives_the_rate_only_value(self):
        # C exceeds H_b(m), so the label row (gap H_b(m) - H_b(q_S1) of
        # 1.6e-12 bits) never binds; kept, its slack would reach 3e10 in
        # weight and the oracle would return the flip vertex, 0.0344 bits.
        q_x, q_y, q_s1 = 0.47215379695393944, 0.036352218518679834, 0.49999925745212837
        rate, cclass = 0.07891824431897239, 1.0480737881659754
        table = enumerate_maps(2, 2, _binary_pmf(q_x), q_s1=q_s1)
        poly = build_polytope(table, _binary_pmf(q_y), rate=rate, cclass=cclass)
        res = solve_vertex(poly, table, _binary_pmf(q_x))
        expected = solve_mecbr(RateProblem(q_x, q_y, rate)).value
        assert res.value == pytest.approx(expected, abs=1e-9)
        assert res.value == pytest.approx(
            solve_mecbrc(RateClassProblem(q_x, q_y, q_s1, rate, cclass)).value, abs=1e-9
        )

    def test_exact_tie_at_half_source_goes_to_the_aligned_side(self):
        # At q_X = 1/2 the identity and flip maps are mirror images, so the
        # closed form's tie rule (p1 >= p2) must hold at the oracle too.
        rng = np.random.default_rng(4)
        p_x = _binary_pmf(0.5)
        table = enumerate_maps(2, 2, p_x)
        for _ in range(500):
            q_y = rng.uniform(0.02, 0.98)
            rate = rng.uniform(0.0, 1.0)
            res = solve_vertex(build_polytope(table, _binary_pmf(q_y), rate=rate), table, p_x)
            assert res.weights[0] >= res.weights[1], (q_y, rate, res.weights)


class TestFrechetInterval:
    def test_low_marginals_interval(self):
        lower, upper = frechet_interval(0.2, 0.3)
        assert lower == 0.0
        assert upper == pytest.approx(0.2, abs=1e-15)

    def test_high_marginals_force_overlap(self):
        lower, upper = frechet_interval(0.7, 0.8)
        assert lower == pytest.approx(0.5, abs=1e-15)
        assert upper == pytest.approx(0.7, abs=1e-15)

    def test_rejects_boundary_marginals(self):
        with pytest.raises(DomainError):
            frechet_interval(0.0, 0.3)
        with pytest.raises(DomainError):
            frechet_interval(0.3, 1.0)


class TestCouplingOracleTheta:
    def test_plateau_value_exact_at_small_grid(self):
        # Endpoints always join the grid, and for marginals below one half
        # the maximizer is the upper endpoint, so even a coarse grid is exact.
        theta, value = coupling_oracle_theta(0.2, 0.3, 101)
        assert theta == pytest.approx(0.2, abs=1e-15)
        assert value == pytest.approx(PLATEAU_02_03, abs=1e-12)

    def test_plateau_value_exact_at_dense_grid(self):
        theta, value = coupling_oracle_theta(0.2, 0.3, 100_000)
        assert theta == pytest.approx(0.2, abs=1e-15)
        assert value == pytest.approx(PLATEAU_02_03, abs=1e-12)

    def test_agrees_with_vertex_oracle_without_budgets(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q_x = rng.uniform(0.05, 0.5)
            q_y = rng.uniform(0.05, 0.5)
            _, value = coupling_oracle_theta(q_x, q_y, 20_001)
            table = enumerate_maps(2, 2, _binary_pmf(q_x))
            poly = build_polytope(table, _binary_pmf(q_y))
            vertex = solve_vertex(poly, table, _binary_pmf(q_x))
            assert value == pytest.approx(vertex.value, abs=1e-9)

    def test_value_is_nonnegative(self):
        _, value = coupling_oracle_theta(0.49, 0.49, 3)
        assert value >= 0.0

    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError, match="grid"):
            coupling_oracle_theta(0.2, 0.3, 1)

    def test_grid_over_the_bound_is_rejected_before_allocating(self):
        # 10**12 points would need terabytes; the bound is checked first.
        with pytest.raises(DomainError, match=str(MAX_GRID)):
            coupling_oracle_theta(0.2, 0.3, 10**12)
        theta, _ = coupling_oracle_theta(0.2, 0.3, MAX_GRID)
        assert theta == pytest.approx(0.2, abs=1e-15)
