"""Exact finite-alphabet probability primitives, everything in bits.

This module owns the small set of information measures the solvers are
built from: pmf and joint-pmf containers with strict validation, Shannon
entropy, mutual information, conditional entropy, and the binary entropy
function.

Conventions
-----------
- Logarithms are base 2 throughout; all entropies and rates are bits.
- ``0 * log 0 = 0`` is handled by an explicit branch, never by limits,
  so deterministic distributions produce exactly ``0.0``.
- Probability inputs may be off by at most ``ROUND_TOL``: inputs
  within the tolerance are clamped/renormalized, anything worse raises
  :class:`~ratemec.errors.DomainError`.

Tolerances
----------
Every tolerance of the package is defined here, one name per role:

- ``ROUND_TOL`` = 1e-12, in probability or bits: rounding on a quantity
  that is exact in real arithmetic.  Probability inputs and mixture
  weights are clamped within it; the label row counts as constant when
  its gap H_b(m) - H_b(q_S1) is at most it, and that constant row is
  then held to C in bits within it; H_b(m) >= H_b(q_S1) is checked to
  it; vertex values within it tie; and a rate sweep may not fall by
  more than it.
- ``ROW_TOL`` = 1e-10: how far a basic solution of the vertex oracle
  may miss an equality row, or fall below zero on a weight or on the
  rate row's slack (in bits).
- ``RANK_TOL`` = 1e-11: the rank threshold for the vertex oracle's
  basis submatrices.
- ``WEIGHT_TOL`` = 1e-9, in mixture weight: the label row's slack in
  both solvers, that is how far the floor on p1 + p2 may exceed 1 (the
  gate) or the cap on p1 + p2 (joint feasibility); how close a budget
  row's slack (the rate row's in bits) must come to 0 for the case
  label to call the row tight; and the weight below which a vertex
  component does not count toward its support.
- ``ORACLE_TOL`` = 1e-8, in bits: how closely the closed form and the
  vertex oracle must agree, or ``ratemec oracle`` exits 4.

Input checks
------------
Every public entry point and CLI flag checks its inputs here, so each
rule and message exists once: :func:`check_real` takes a real number in
an interval written as text, such as ``"(0, 0.5]"`` or ``"[0, inf)"``
(an infinite end is open, so the number is finite), :func:`check_count`
an integer in one (compared exactly with a finite end; an int past the
float range lies inside an infinite one), and :func:`check_type` an
instance of a class.  A non-number, a bool or a non-integral count is
rejected, never coerced,
with a :class:`~ratemec.errors.DomainError` shaped ``q_x must lie in
(0, 0.5], got 0.6``, ``rate must be >= 0, got -1.0``, ``rate must be
finite, got inf``, ``q_x must be a real number, got '0.2'``, ``seed
must be an integer, got 1.5`` or ``p must be a RateProblem, got str``;
a numpy scalar shows as the number it holds.  Two clamps within
``ROUND_TOL`` stay local: ``binary_entropy`` maps t outside (0, 1) to 0
bits, and ``MapMixture`` clamps its components and renormalizes them.

Work bounds (``MAX_BASES``, ``MAX_GRID``, ``MAX_STEPS``,
``MAX_SAMPLES``, ``DEFAULT_MAP_CAP``), the log floor of the grid scan
and the vertex oracle's score-screen margin, which decides only which
points are scored exactly and moves no result, are not tolerances and
live with their code.

numpy is imported inside the functions that build or reduce arrays, so
the tolerances and ``binary_entropy``, which are all that the closed
forms use, load without it.

All operations are pure functions on immutable values and are safe to
call concurrently.  So are the closed forms built on them: the only
state they keep is two bounded ``functools.lru_cache`` tables of
per-instance constants (H_b of a marginal in ``bernoulli_rate``, the
label row's terms keyed by (q_X, q_S1) in ``bernoulli_rate_class``) and
the parsed bounds of each interval text the code passes to
:func:`check_real`.  The caches are thread-safe, hold floats and frozen
values only, and give the same bits as a fresh call.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

# Entropy and information values are plain floats measured in bits.  A
# wrapper class would buy nothing here; the alias documents intent in
# signatures.
BitsValue = float

#: The tolerance table; the module docstring says where each is judged.
ROUND_TOL = 1e-12
ROW_TOL = 1e-10
RANK_TOL = 1e-11
WEIGHT_TOL = 1e-9
ORACLE_TOL = 1e-8

_LN2 = math.log(2.0)

#: Interval text -> its closed float bounds, filled by :func:`check_real`.
_BOUNDS: dict[str, tuple[float, float]] = {}


def _bounds(interval: str) -> tuple[float, float]:
    """Closed float bounds of ``interval``: an open end moves one float
    inward, so one chained comparison tests membership and rejects inf."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if interval[0] == "(":
        lo = math.nextafter(lo, math.inf)
    if interval[-1] == ")":
        hi = math.nextafter(hi, -math.inf)
    return lo, hi


def _shown(value) -> str:
    """repr of a value, with a numpy scalar shown as the number it holds."""
    if value.__hash__ is not None and hasattr(value, "item"):
        value = value.item()
    return repr(value)


def check_real(value, name: str, interval: str) -> None:
    """Raise DomainError naming ``name`` unless ``value`` is a real number in ``interval``."""
    try:
        lo, hi = _BOUNDS[interval]
    except KeyError:
        lo, hi = _BOUNDS[interval] = _bounds(interval)
    if type(value) is float and lo <= value <= hi:
        return
    number = value
    if type(value) is not int:
        # A bool, a str or an array (unhashable at any size) is no number; a
        # number is compared as a float, never cast to a bound's precision.
        to_float = getattr(type(value), "__float__", None)
        if type(value) is bool or value.__hash__ is None or to_float is None:
            raise DomainError(f"{name} must be a real number, got {_shown(value)}")
        number = to_float(value)
    if lo <= number <= hi:
        return
    shown = _shown(value)
    if not interval.endswith("inf)"):
        raise DomainError(f"{name} must lie in {interval}, got {shown}")
    lower = interval[1:interval.index(",")]
    if lower != "-inf" and number < lo:
        sign = ">" if interval[0] == "(" else ">="
        raise DomainError(f"{name} must be {sign} {lower}, got {shown}")
    raise DomainError(f"{name} must be finite, got {shown}")


def check_count(value, name: str, interval: str) -> None:
    """:func:`check_real` for a count: an int or numpy integer, never a bool or float."""
    if type(value) is bool or value.__hash__ is None or not hasattr(value, "__index__"):
        raise DomainError(f"{name} must be an integer, got {_shown(value)}")
    number = operator.index(value)
    # An int past the largest float is finite all the same: an infinite
    # end of the interval takes it, where its float bound would not.
    if abs(number) > sys.float_info.max and ("-inf" if number < 0 else "inf)") in interval:
        return
    check_real(number, name, interval)


def check_type(value, name: str, *kinds: type) -> None:
    """Raise DomainError naming ``name`` unless ``value`` is one of ``kinds``."""
    if not isinstance(value, kinds):
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise DomainError(f"{name} must be a {expected}, got {type(value).__name__}")


def _as_prob_array(values, name: str, ndim: int) -> np.ndarray:
    """``values`` as a checked, renormalized, read-only ``ndim``-D float array."""
    import numpy as np

    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):  # a ragged nesting, for one
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be an array of real numbers")
    if arr.ndim != ndim:
        raise DomainError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    shape = arr.shape
    arr = arr.astype(float, copy=False).ravel()
    if arr.size == 0:
        raise DomainError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    if np.any(arr < -ROUND_TOL):
        raise DomainError(f"{name} has a negative entry {float(arr.min())!r} beyond tolerance {ROUND_TOL}")
    arr = np.clip(arr, 0.0, None)
    total = float(arr.sum())
    if abs(total - 1.0) > ROUND_TOL:
        raise DomainError(f"{name} sums to {total!r}, off from 1 by more than {ROUND_TOL}")
    if total != 1.0:
        arr = arr / total
    arr.flags.writeable = False
    return arr.reshape(shape)


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over a finite alphabet.

    Masses are validated on construction: non-negative within ``ROUND_TOL``
    and summing to 1 within ``ROUND_TOL`` (then renormalized exactly).
    The stored array is read-only.
    """

    masses: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "masses", _as_prob_array(self.masses, "Pmf masses", 1))

    @property
    def size(self) -> int:
        return int(self.masses.size)


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Joint probability table over two finite alphabets, indexed (x, y)."""

    table: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _as_prob_array(self.table, "JointPmf table", 2))

    def marginal_x(self) -> Pmf:
        return Pmf(self.table.sum(axis=1))

    def marginal_y(self) -> Pmf:
        return Pmf(self.table.sum(axis=0))


#: [0, 1] widened by ``ROUND_TOL`` at each end, and its float bounds.
_NEAR_UNIT = f"[{-ROUND_TOL!r}, {1.0 + ROUND_TOL!r}]"
_NEAR_LO, _NEAR_HI = _bounds(_NEAR_UNIT)


def binary_entropy(t: float) -> BitsValue:
    """H_b(t) = -t log2 t - (1-t) log2(1-t), in bits.

    Symmetric about 1/2.  Accepts t within ``ROUND_TOL`` of [0, 1] and
    clamps it; rejects anything further out.  The (1-t) term uses
    ``log1p`` so values near t = 0 keep full precision.
    """
    # The closed forms call this four times per sweep point with a float
    # in range, so that case skips the call that decides everything else.
    if type(t) is not float or not _NEAR_LO <= t <= _NEAR_HI:
        check_real(t, "binary_entropy argument t", _NEAR_UNIT)
        t = float(t)
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return -t * math.log2(t) - (1.0 - t) * (math.log1p(-t) / _LN2)


def entropy(p: Pmf) -> BitsValue:
    """Shannon entropy of a pmf in bits, with the 0 log 0 = 0 convention."""
    import numpy as np

    check_type(p, "p", Pmf)
    m = p.masses
    pos = m[m > 0.0]
    # "+ 0.0" normalizes the IEEE -0.0 that a point mass would produce.
    return float(-(pos * np.log2(pos)).sum()) + 0.0


def mutual_information(j: JointPmf) -> BitsValue:
    """I(X;Y) = H(X) + H(Y) - H(X,Y) in bits, clamped to be non-negative.

    Rounding in the three entropy sums can leave a residual a few ulps
    below zero; that is clamped to exactly 0.0.
    """
    check_type(j, "j", JointPmf)
    hx = entropy(j.marginal_x())
    hy = entropy(j.marginal_y())
    hxy = entropy(Pmf(j.table.ravel()))
    mi = hx + hy - hxy
    return mi if mi > 0.0 else 0.0


def conditional_entropy(j: JointPmf, given: str) -> BitsValue:
    """H(other | given) in bits; ``given`` is "x" (rows) or "y" (columns).

    Computed by the decomposition sum_g P(g) H(other | g) rather than by
    subtracting entropies, so a deterministic channel yields exactly 0.0.
    """
    check_type(j, "j", JointPmf)
    if given == "x":
        groups = j.table
    elif given == "y":
        groups = j.table.T
    else:
        raise DomainError(f'given must be "x" or "y", got {_shown(given)}')
    import numpy as np

    acc = 0.0
    for row in groups:
        mass = float(row.sum())
        if mass <= 0.0:
            continue
        cond = row[row > 0.0] / mass
        acc += mass * float(-(cond * np.log2(cond)).sum())
    return acc + 0.0
