"""Cross-check the closed-form solvers against two independent oracles.

The vertex oracle enumerates every basic feasible point of the exact
constraint polytope over deterministic-map mixtures; the theta oracle
evaluates the one free cell of an unconstrained 2x2 coupling at the two
ends of its Frechet interval, where the convex I(X;Y) peaks.  Neither
shares any code path with the closed-form case analysis, so agreement
to within 1e-9 bits on random instances is strong evidence that the
case analysis is right.
"""

import numpy as np

from ratemec import (
    InfeasibleError,
    Pmf,
    RateClassProblem,
    RateProblem,
    binary_entropy,
    build_polytope,
    coupling_oracle_theta,
    enumerate_maps,
    solve_mecbr,
    solve_mecbrc,
    solve_vertex,
)


def main() -> None:
    rng = np.random.default_rng(2718)

    worst_rate = 0.0
    for _ in range(200):
        q_x = rng.uniform(0.02, 0.5)
        q_y = rng.uniform(0.02, 0.5)
        rate = rng.uniform(0.0, 1.2)
        closed = solve_mecbr(RateProblem(q_x, q_y, rate)).value
        p_x = Pmf(np.array([1.0 - q_x, q_x]))
        table = enumerate_maps(2, 2, p_x)
        poly = build_polytope(table, Pmf(np.array([1.0 - q_y, q_y])), rate=rate)
        vertex = solve_vertex(poly, table, p_x).value
        worst_rate = max(worst_rate, abs(closed - vertex))
    print(f"rate-only solver vs vertex oracle, 200 random instances:")
    print(f"  worst |closed - vertex| = {worst_rate:.3e} bits")

    worst_class = 0.0
    verdict_mismatches = 0
    feasible = 0
    for _ in range(200):
        q_x = rng.uniform(0.02, 0.5)
        q_y = rng.uniform(0.02, 0.5)
        q_s1 = rng.uniform(0.01, 0.5)
        rate = rng.uniform(0.0, 1.2)
        cclass = max(0.0, binary_entropy(q_s1) + rng.uniform(-0.1, 1.0))
        closed = None
        try:
            closed = solve_mecbrc(RateClassProblem(q_x, q_y, q_s1, rate, cclass)).value
        except InfeasibleError:
            pass
        p_x = Pmf(np.array([1.0 - q_x, q_x]))
        table = enumerate_maps(2, 2, p_x, q_s1=q_s1)
        poly = build_polytope(
            table, Pmf(np.array([1.0 - q_y, q_y])), rate=rate, cclass=cclass
        )
        vertex = None
        try:
            vertex = solve_vertex(poly, table, p_x).value
        except InfeasibleError:
            pass
        if (closed is None) != (vertex is None):
            verdict_mismatches += 1
            continue
        if closed is not None:
            feasible += 1
            worst_class = max(worst_class, abs(closed - vertex))
    print(f"rate-plus-label solver vs vertex oracle, 200 random instances:")
    print(f"  feasibility verdict mismatches: {verdict_mismatches}")
    print(f"  worst |closed - vertex| on {feasible} feasible instances: "
          f"{worst_class:.3e} bits")

    worst_theta = 0.0
    for _ in range(50):
        q_x = rng.uniform(0.05, 0.5)
        q_y = rng.uniform(0.05, 0.5)
        unconstrained = solve_mecbr(RateProblem(q_x, q_y, 2.0)).value
        # The grid argument no longer changes the result; 2 is its least value.
        _, at_ends = coupling_oracle_theta(q_x, q_y, 2)
        worst_theta = max(worst_theta, abs(unconstrained - at_ends))
    print(f"unconstrained plateau vs coupling-cell theta oracle, 50 instances:")
    print(f"  worst deviation = {worst_theta:.3e} bits")


if __name__ == "__main__":
    main()
