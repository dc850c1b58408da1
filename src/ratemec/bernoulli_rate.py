"""Closed-form solver for the rate-constrained Bernoulli coupling problem.

Setting: X ~ Bern(q_X) must be coupled to Y ~ Bern(q_Y) through a mixture
p_U over the four deterministic binary maps

    f1(x) = x        (identity)
    f2(x) = 1 - x    (flip)
    f3(x) = 0        (constant 0)
    f4(x) = 1        (constant 1)

subject to the rate budget H_b(q_X) * (p1 + p2) <= R and the marginal
match q_X p1 + (1 - q_X) p2 + p4 = q_Y.  The goal is to maximize I(X;Y).

The objective depends on the mixture only through the step d = p1 - p2:

    I(d) = H_b(q_Y) - (1 - q_X) H_b(q_Y - q_X d) - q_X H_b(q_Y + (1 - q_X) d)

which is convex in d with minimum 0 at d = 0, so the optimum sits at an
extreme of d over the feasible polygon in the (p1, p2) plane.  On the
canonical domain q_X, q_Y in (0, 1/2] the marginal match fixes p3 and
p4, and every budget bounds only s = p1 + p2: the rate row and the rows
p_i >= 0 cap it at hi = min(R / H_b(q_X), q_Y / q_X, 1), and the label
row of :mod:`ratemec.bernoulli_rate_class` sets a floor lo.  Over that
step interval the extremes of d are

- aligned:  d_max(s) = min(s, (2 - 2 q_Y - s) / (1 - 2 q_X)), concave,
  with its kink at s = (1 - q_Y) / (1 - q_X) where p2 = p3 = 0;
- mirrored: d_min(s) = max(-s, (s - 2 q_Y) / (1 - 2 q_X)), convex,
  with its kink at s = q_Y / (1 - q_X) where p1 = p4 = 0.

:func:`_step_interval` takes each at its kink clipped to [lo, hi] and
keeps the larger value; a tie goes to the aligned side.  With lo = 0
(:func:`solve_mecbr`) the two extremes are the one-sided families: all
informative weight on the identity map, or all of it on the flip map.
The mirrored family can win at small rates with interior marginals (the
third derivative of the conditional entropy in d is positive there);
the brute-force vertex oracle in :mod:`ratemec.generic_oracle` confirms
the two-extreme maximum is exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError
from .prob_core import ROUND_TOL, BitsValue, JointPmf, binary_entropy, check_real, check_type

if TYPE_CHECKING:
    import numpy as np

#: Case labels reported by the rate solver.
CASE_RATE_BOUND = "RateBound"
CASE_MARGINAL_BOUND = "MarginalBound"


@dataclass(frozen=True)
class RateProblem:
    """Rate-constrained coupling instance.

    Marginals live in (0, 1/2] by default.  With ``extend=True`` they may
    lie anywhere in (0, 1); the solver then relabels symbols (reflects the
    offending alphabet) and records the relabeling in the result.
    """

    q_x: float
    q_y: float
    rate: float
    extend: bool = False

    def __post_init__(self) -> None:
        if self.extend is not False:  # the default needs no call
            check_type(self.extend, "extend", bool)
        marginals = "(0, 1)" if self.extend else "(0, 0.5]"
        check_real(self.q_x, "q_x", marginals)
        check_real(self.q_y, "q_y", marginals)
        check_real(self.rate, "rate", "[0, inf)")


@dataclass(frozen=True)
class MapMixture:
    """Distribution over the four deterministic binary maps.

    Components within ``ROUND_TOL`` below zero are clamped to 0 and the
    mixture renormalized (case-boundary arithmetic leaves values a few
    ulps below zero); anything worse is rejected.
    """

    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self) -> None:
        w = (self.p1, self.p2, self.p3, self.p4)
        # Four floats in range skip the checks: the clamp would change
        # nothing (a NaN fails the total test).  Any other input, numpy
        # scalars included, is checked, clamped and converted to float.
        if not (
            type(w[0]) is float is type(w[1]) is type(w[2]) is type(w[3])
            and min(w) >= 0.0 and abs((total := sum(w)) - 1.0) <= ROUND_TOL
        ):
            raw = []
            for i, v in enumerate(w):
                name = f"mixture component p{i + 1}"
                if isinstance(v, float) and not -math.inf < v < math.inf:
                    raise DomainError(f"{name} is not finite: {float(v)!r}")
                check_real(v, name, "(-inf, inf)")
                if v < -ROUND_TOL:
                    raise DomainError(f"{name}={float(v)!r} negative beyond tolerance {ROUND_TOL}")
                raw.append(float(v))
            if abs(sum(raw) - 1.0) > ROUND_TOL:
                raise DomainError(
                    f"mixture components sum to {sum(raw)!r}, off from 1 beyond {ROUND_TOL}"
                )
            w = [max(v, 0.0) for v in raw]
            total = sum(w)
        vars(self).update(p1=w[0] / total, p2=w[1] / total, p3=w[2] / total, p4=w[3] / total)

    def induced_qy(self, q_x: float) -> float:
        """P(Y = 1) when X ~ Bern(q_x) passes through this mixture."""
        return q_x * self.p1 + (1.0 - q_x) * self.p2 + self.p4

    def induced_joint(self, q_x: float) -> JointPmf:
        """The 2x2 joint of (X, Y) induced by the mixture."""
        y1_given_x0 = self.p2 + self.p4
        y1_given_x1 = self.p1 + self.p4
        return JointPmf([
            [(1.0 - q_x) * (1.0 - y1_given_x0), (1.0 - q_x) * y1_given_x0],
            [q_x * (1.0 - y1_given_x1), q_x * y1_given_x1],
        ])


@dataclass(frozen=True)
class SolverResult:
    """Optimal value (bits), optimizing mixture, and branch bookkeeping.

    ``alpha`` is the winning coupling step |p1 - p2|.  ``reflected``
    records which alphabets were relabeled for an extended-domain solve
    (None, "x", "y", or "xy").  ``weights`` is populated by the vertex
    oracle when the decision variable has more than four components.
    """

    value: BitsValue
    mixture: MapMixture | None
    case_label: str
    alpha: float | None = None
    reflected: str | None = None
    weights: np.ndarray | None = None


@functools.lru_cache(maxsize=128)
def _marginal_entropy(q: float) -> float:
    """H_b of a problem marginal, cached: a sweep solves one instance at
    every grid point, and only its budget changes from point to point."""
    return binary_entropy(q)


def _objective_value(q_x: float, q_y: float, d: float) -> float:
    """I(X;Y) in bits for a mixture with p1 - p2 = d and matched marginal."""
    if d == 0.0:
        return 0.0
    lo = q_y - q_x * d
    hi = q_y + (1.0 - q_x) * d
    return (
        _marginal_entropy(q_y)
        - (1.0 - q_x) * binary_entropy(lo)
        - q_x * binary_entropy(hi)
    )


def saturation_rate(q_x: float, q_y: float) -> float:
    """Smallest rate beyond which the marginal cap, not R, limits coupling.

    For every R at or above this threshold ``solve_mecbr`` returns the
    same (unconstrained-coupling) value.
    """
    p = RateProblem(q_x, q_y, 0.0)
    cap = min(p.q_y / p.q_x, (1.0 - p.q_y) / (1.0 - p.q_x))
    return binary_entropy(p.q_x) * cap


def _step_interval(q_x: float, q_y: float, lo: float, hi: float):
    """Best step d = p1 - p2 with lo <= p1 + p2 <= hi, for q_x, q_y in (0, 1/2].

    Needs 0 <= lo <= hi <= min(q_y / q_x, 1).  Each extreme of d sits at
    its kink clipped to [lo, hi]; past the kink it lies on the p3 = 0
    (aligned) or p4 = 0 (mirrored) row.  At q_x = 1/2 both kinks are at
    or beyond hi, so the division by 1 - 2 q_x is never reached there.
    Returns the value (clamped at 0), the weights (p1, p2, p3, p4) and d.
    """
    k_up = (1.0 - q_y) / (1.0 - q_x)
    s_up = min(max(k_up, lo), hi)
    d_up = s_up if s_up <= k_up else (2.0 - 2.0 * q_y - s_up) / (1.0 - 2.0 * q_x)
    k_dn = q_y / (1.0 - q_x)
    s_dn = min(max(k_dn, lo), hi)
    d_dn = -s_dn if s_dn <= k_dn else (s_dn - 2.0 * q_y) / (1.0 - 2.0 * q_x)
    # Near q_x = 1/2 that division amplifies the rounding of s; p1, p2 >= 0
    # need |d| <= s.
    d_up, d_dn = min(d_up, s_up), max(min(d_dn, s_dn), -s_dn)
    v_up = _objective_value(q_x, q_y, d_up)
    v_dn = _objective_value(q_x, q_y, d_dn)
    s, d, value = (s_up, d_up, v_up) if v_up >= v_dn else (s_dn, d_dn, v_dn)
    p1, p2 = (s + d) / 2.0, (s - d) / 2.0
    weights = (
        p1,
        p2,
        1.0 - q_y - (1.0 - q_x) * p1 - q_x * p2,
        q_y - q_x * p1 - (1.0 - q_x) * p2,
    )
    return max(value, 0.0), weights, d


def solve_mecbr(p: RateProblem) -> SolverResult:
    """Maximize I(X;Y) under the rate budget; exact closed form.

    Returns the optimal value in bits, the optimizing map mixture, a case
    label saying whether the rate cap or the marginal cap fixed the step,
    and the step size itself as ``alpha``.  The value is 0 exactly at
    R = 0 and nondecreasing in R.
    """
    check_type(p, "p", RateProblem)
    flip_x, flip_y = p.q_x > 0.5, p.q_y > 0.5
    q_x = 1.0 - p.q_x if flip_x else p.q_x
    q_y = 1.0 - p.q_y if flip_y else p.q_y

    rate_cap = p.rate / _marginal_entropy(q_x)
    marginal_cap = min(q_y / q_x, 1.0)
    value, weights, step = _step_interval(q_x, q_y, 0.0, min(rate_cap, marginal_cap))
    # The rate row binds unless the winner's marginal rows stop it first.
    kink = (1.0 - q_y) / (1.0 - q_x) if step >= 0.0 else q_y / (1.0 - q_x)
    label = CASE_RATE_BOUND if rate_cap < min(marginal_cap, kink) else CASE_MARGINAL_BOUND

    w1, w2, w3, w4 = weights
    if flip_x:
        # Relabeled X = 1 - X: identity and flip trade places.
        w1, w2 = w2, w1
    if flip_y:
        # Relabeled Y = 1 - Y: flip both the bijective and the constant pair.
        w1, w2, w3, w4 = w2, w1, w4, w3

    return SolverResult(
        value=value,
        mixture=MapMixture(w1, w2, w3, w4),
        case_label=label,
        alpha=abs(step),
        reflected=("x" if flip_x else "") + ("y" if flip_y else "") or None,
    )
