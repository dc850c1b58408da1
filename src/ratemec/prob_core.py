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

Work bounds (``MAX_BASES``, ``MAX_GRID``, ``MAX_STEPS``,
``MAX_SAMPLES``, ``DEFAULT_MAP_CAP``) and the log floor of the grid scan
are not tolerances and live with their code.

numpy is imported inside the functions that build or reduce arrays, so
the tolerances and ``binary_entropy``, which are all that the closed
forms use, load without it.

All operations are pure functions on immutable values and are safe to
call concurrently.  So are the closed forms built on them: the only
state they keep is two bounded ``functools.lru_cache`` tables of
per-instance constants (H_b of a marginal in ``bernoulli_rate``, the
label row's terms keyed by (q_X, q_S1) in ``bernoulli_rate_class``).
The caches are thread-safe, hold floats and frozen values only, and
give the same bits as a fresh call.
"""

from __future__ import annotations

import math
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


def _as_prob_array(values, name: str) -> np.ndarray:
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DomainError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    if np.any(arr < -ROUND_TOL):
        raise DomainError(
            f"{name} has a negative entry {arr.min()!r} beyond tolerance {ROUND_TOL}"
        )
    arr = np.clip(arr, 0.0, None)
    total = float(arr.sum())
    if abs(total - 1.0) > ROUND_TOL:
        raise DomainError(
            f"{name} sums to {total!r}, off from 1 by more than {ROUND_TOL}"
        )
    if total != 1.0:
        arr = arr / total
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over a finite alphabet.

    Masses are validated on construction: non-negative within ``ROUND_TOL``
    and summing to 1 within ``ROUND_TOL`` (then renormalized exactly).
    The stored array is read-only.
    """

    masses: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_prob_array(self.masses, "Pmf masses")
        if arr.ndim != 1:
            raise DomainError(f"Pmf masses must be 1-D, got shape {arr.shape}")
        object.__setattr__(self, "masses", arr)

    @property
    def size(self) -> int:
        return int(self.masses.size)


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Joint probability table over two finite alphabets, indexed (x, y)."""

    table: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        arr = np.asarray(self.table, dtype=float)
        if arr.ndim != 2:
            raise DomainError(f"JointPmf table must be 2-D, got shape {arr.shape}")
        flat = _as_prob_array(arr.ravel(), "JointPmf table")
        arr = flat.reshape(arr.shape).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)

    def marginal_x(self) -> Pmf:
        return Pmf(self.table.sum(axis=1))

    def marginal_y(self) -> Pmf:
        return Pmf(self.table.sum(axis=0))


def binary_entropy(t: float) -> BitsValue:
    """H_b(t) = -t log2 t - (1-t) log2(1-t), in bits.

    Symmetric about 1/2.  Accepts t within ``ROUND_TOL`` of [0, 1] and
    clamps it; rejects anything further out.  The (1-t) term uses
    ``log1p`` so values near t = 0 keep full precision.
    """
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"binary_entropy needs a finite probability, got {t!r}")
    if t < -ROUND_TOL or t > 1.0 + ROUND_TOL:
        raise DomainError(f"binary_entropy argument {t!r} outside [0, 1]")
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return -t * math.log2(t) - (1.0 - t) * (math.log1p(-t) / _LN2)


def entropy(p: Pmf) -> BitsValue:
    """Shannon entropy of a pmf in bits, with the 0 log 0 = 0 convention."""
    import numpy as np

    m = p.masses
    pos = m[m > 0.0]
    # "+ 0.0" normalizes the IEEE -0.0 that a point mass would produce.
    return float(-(pos * np.log2(pos)).sum()) + 0.0


def mutual_information(j: JointPmf) -> BitsValue:
    """I(X;Y) = H(X) + H(Y) - H(X,Y) in bits, clamped to be non-negative.

    Rounding in the three entropy sums can leave a residual a few ulps
    below zero; that is clamped to exactly 0.0.
    """
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
    if given == "x":
        groups = j.table
    elif given == "y":
        groups = j.table.T
    else:
        raise DomainError(f'conditional_entropy axis must be "x" or "y", got {given!r}')
    import numpy as np

    acc = 0.0
    for row in groups:
        mass = float(row.sum())
        if mass <= 0.0:
            continue
        cond = row[row > 0.0] / mass
        acc += mass * float(-(cond * np.log2(cond)).sum())
    return acc + 0.0
