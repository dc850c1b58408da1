"""Solver for the rate- and classification-constrained Bernoulli problem.

On top of the rate-constrained setting of :mod:`ratemec.bernoulli_rate`
a binary label S = X xor S1 with S1 ~ Bern(q_S1) independent of X must
stay predictable from the reconstruction: the mixture has to satisfy

    (p1 + p2) H_b(q_S1) + (p3 + p4) H_b(m) <= C,      (label row)

where m = (1 - q_X)(1 - q_S1) + q_X q_S1 is the probability that a
constant-map output agrees with the label.  The bijective maps leave
label uncertainty H_b(q_S1) while constant maps leave H_b(m), and since
H_b(m) >= H_b(q_S1) always (see :func:`label_params`), the label row is
a FLOOR on the informative weight s = p1 + p2:

    s >= L = (H_b(m) - C) / (H_b(m) - H_b(q_S1))    whenever C < H_b(m).

So the feasible set is the step interval max(L, 0) <= s <= hi, with
hi = min(R / H_b(q_X), q_Y / q_X, 1) the cap from the rate row and the
marginal rows, and :func:`solve_mecbrc` solves it with the same closed
form as the rate-only solver: each extreme of d = p1 - p2 sits at its
kink clipped to the interval, the larger value wins, and a tie goes to
the aligned side (PartI).  Consequences:

- The label budget gates feasibility and bounds s only from below.  A
  small C forces weight onto the bijective maps, which the rate budget
  or the marginals may not allow; then L > hi and :func:`solve_mecbrc`
  raises :class:`~ratemec.errors.InfeasibleError` naming the cap that
  binds.
- Above that minimum rate the optimum never exceeds the rate-only one,
  and falls below it only where the rate-only optimum puts less than
  the floor on the bijective maps (for instance, a flip-only optimum
  when the floor exceeds the flip family's marginal cap).  The winner
  can then be a mixed point on the floor with p1 > 0 and p2 > 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .bernoulli_rate import MapMixture, SolverResult, _marginal_entropy, _step_interval
from .errors import DomainError, InfeasibleError
from .prob_core import ROUND_TOL, WEIGHT_TOL, BitsValue, binary_entropy, check_real, check_type


@dataclass(frozen=True)
class RateClassProblem:
    """Instance parameters: marginals, label noise, and the two budgets."""

    q_x: float
    q_y: float
    q_s1: float
    rate: float
    cclass: float

    def __post_init__(self) -> None:
        check_real(self.q_x, "q_x", "(0, 0.5]")
        check_real(self.q_y, "q_y", "(0, 0.5]")
        check_real(self.q_s1, "q_s1", "(0, 0.5]")
        check_real(self.rate, "rate", "[0, inf)")
        check_real(self.cclass, "cclass", "[0, inf)")


@dataclass(frozen=True)
class DerivedLabelParams:
    """Quantities the label row is built from.

    q_s is the label marginal P(S = 1); m is the agreement probability of
    a constant output with the label.  They satisfy q_s = 1 - m, so
    H_b(q_s) = H_b(m).
    """

    q_s: float
    m: float
    h_b_m: BitsValue
    h_b_qs1: BitsValue


def label_params(p: RateClassProblem) -> DerivedLabelParams:
    """Derive the label marginal and the constant-map entropy terms.

    Guarantees H_b(m) >= H_b(q_S1) - ``ROUND_TOL``: writing
    m - 1/2 = (q_X - 1/2)(2 q_S1 - 1) shows |m - 1/2| <= |q_S1 - 1/2|,
    and H_b decreases in the distance from 1/2.  Equality needs
    q_S1 = 1/2 (q_X in {0, 1} is outside the domain).  The terms depend
    on (q_X, q_S1) alone and are cached by that pair, so every point of a
    sweep shares one immutable result.
    """
    check_type(p, "p", RateClassProblem)
    return _label_terms(p.q_x, p.q_s1)


@functools.lru_cache(maxsize=64)
def _label_terms(q_x: float, q_s1: float) -> DerivedLabelParams:
    q_s = q_x + q_s1 - 2.0 * q_x * q_s1
    m = (1.0 - q_x) * (1.0 - q_s1) + q_x * q_s1
    h_b_m = binary_entropy(m)
    h_b_qs1 = binary_entropy(q_s1)
    if h_b_m < h_b_qs1 - ROUND_TOL:
        raise DomainError(
            f"entropy ordering violated: H_b(m)={h_b_m!r} < H_b(q_S1)={h_b_qs1!r}"
        )
    return DerivedLabelParams(q_s=q_s, m=m, h_b_m=h_b_m, h_b_qs1=h_b_qs1)


def _label_floor(p: RateClassProblem, lp: DerivedLabelParams) -> float | None:
    """The floor (H_b(m) - C) / (H_b(m) - H_b(q_S1)) on p1 + p2.

    None when the gap is at most ``ROUND_TOL``: the row then reads H_b(m)
    to within ``ROUND_TOL`` for every mixture (q_S1 = 1/2), and the
    feasibility gate holds that to C in bits.
    """
    gap = lp.h_b_m - lp.h_b_qs1
    return (lp.h_b_m - p.cclass) / gap if gap > ROUND_TOL else None


def _gate(p: RateClassProblem, lp: DerivedLabelParams, floor: float | None) -> bool:
    if floor is None:
        return p.cclass >= lp.h_b_qs1 - ROUND_TOL
    return floor <= 1.0 + WEIGHT_TOL


def feasibility(p: RateClassProblem) -> bool:
    """True iff C >= H_b(q_S1), the necessary label-budget floor.

    Even bijective maps leave H_b(q_S1) of label uncertainty, so no
    mixture can beat it.  The test is made in weight, like the label
    row: the floor on p1 + p2 may exceed 1 by at most ``WEIGHT_TOL``.  A
    constant row (gap at most ``ROUND_TOL``) is tested in bits,
    C >= H_b(q_S1) - ``ROUND_TOL``.  This check is necessary, not
    sufficient: a feasible C may still be unreachable when the rate
    budget cannot fund the informative weight the label row demands (see
    :func:`solve_mecbrc`).
    """
    lp = label_params(p)
    return _gate(p, lp, _label_floor(p, lp))


def _slacks_for(
    mixture: MapMixture,
    p: RateClassProblem,
    lp: DerivedLabelParams,
    floor: float | None,
) -> tuple[float, float]:
    """Signed slacks (rate, label) of the two budget rows; >= 0 holds.

    The other rows hold by construction.  The label slack is in weight,
    (p1 + p2) - floor, because in bits it shrinks with the gap
    H_b(m) - H_b(q_S1) as q_S1 nears 1/2; without a floor it is C minus
    the constant row, in bits.
    """
    s = mixture.p1 + mixture.p2
    if floor is None:
        label_slack = p.cclass - (s * lp.h_b_qs1 + (mixture.p3 + mixture.p4) * lp.h_b_m)
    else:
        label_slack = s - floor
    return p.rate - _marginal_entropy(p.q_x) * s, label_slack


def solve_mecbrc(p: RateClassProblem) -> SolverResult:
    """Maximize I(X;Y) under both the rate budget and the label budget.

    Raises :class:`InfeasibleError` in two situations: the label budget
    is below the floor H_b(q_S1) that even bijective maps cannot beat, or
    the budgets are individually sensible but jointly unsatisfiable (the
    label floor exceeds hi by more than ``WEIGHT_TOL``; the
    message names whichever cap sets hi).

    The case label reports the sign of the winning step (PartI for
    p1 >= p2, PartII otherwise) and which budget rows are tight at the
    winner: Case1 rate only, Case2 label only, Case3 both, Case4 neither.
    A row is tight when its slack from :func:`_slacks_for` is within
    ``WEIGHT_TOL``.  ``alpha`` is the winning step |p1 - p2|.
    """
    lp = label_params(p)
    floor = _label_floor(p, lp)
    if not _gate(p, lp, floor):
        raise InfeasibleError(
            f"classification budget C={p.cclass!r} is below "
            f"H_b(q_S1)={lp.h_b_qs1!r}; no coupling can satisfy it"
        )
    rate_cap = p.rate / _marginal_entropy(p.q_x)
    marginal_cap = min(p.q_y / p.q_x, 1.0)
    hi = min(rate_cap, marginal_cap)
    lo = 0.0 if floor is None else max(floor, 0.0)
    if lo > hi + WEIGHT_TOL:
        cap = (
            f"the rate budget allows at most R / H_b(q_X) = {rate_cap!r}"
            if rate_cap <= marginal_cap
            else f"the marginals allow at most min(q_Y / q_X, 1) = {marginal_cap!r}"
        )
        raise InfeasibleError(
            "budgets are jointly unsatisfiable: the label row requires "
            f"informative weight p1 + p2 >= {floor!r} but {cap}"
        )

    value, weights, step = _step_interval(p.q_x, p.q_y, min(lo, hi), hi)
    mixture = MapMixture(*weights)
    rate_slack, label_slack = _slacks_for(mixture, p, lp, floor)
    rate_active = abs(rate_slack) <= WEIGHT_TOL
    label_active = abs(label_slack) <= WEIGHT_TOL
    part = "PartI" if step >= 0.0 else "PartII"
    if rate_active and label_active:
        case = "Case3"
    elif rate_active:
        case = "Case1"
    elif label_active:
        case = "Case2"
    else:
        case = "Case4"

    return SolverResult(
        value=value,
        mixture=mixture,
        case_label=f"{part}-{case}",
        alpha=abs(step),
    )
