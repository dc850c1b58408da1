"""Brute-force verification solvers for tiny alphabets.

Two independent oracles cross-check the closed-form solvers:

- :func:`solve_vertex` enumerates every deterministic map from an
  n-symbol source alphabet to a k-symbol reconstruction alphabet,
  assembles the linear constraint polytope over the mixture weights
  (marginal match, simplex, rate row, optional label row, nonnegativity),
  and maximizes I(X;Y) by checking every basic feasible point.  The
  objective is convex in the weights, so the maximum is attained at a
  vertex, the basic solution of some basis of the standard form: the k
  marginal rows plus a slack column for each budget row that can cut
  the simplex (the others are dropped).  Bases are taken in
  lexicographic chunks, and each chunk's rank tests and solves are one
  stacked numpy call; the residual check, the scoring and the tie rule
  stay per point, in basis order.  Ties go to the smaller support, then
  to the first basis.
- :func:`coupling_oracle_theta` scans the single free cell of a 2x2
  coupling over its Frechet interval, verifying the unconstrained
  maximum-information coupling value without reference to map mixtures.

Dimensions stay tiny (the map count k**n and the basis count are
capped), so exhaustive enumeration with explicit tolerances beats
pulling in an LP library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice, product

import numpy as np

from .bernoulli_rate import MapMixture, SolverResult
from .errors import DimensionCapError, DomainError, InfeasibleError
from .prob_core import (
    RANK_TOL,
    ROUND_TOL,
    ROW_TOL,
    WEIGHT_TOL,
    BitsValue,
    JointPmf,
    Pmf,
    binary_entropy,
    entropy,
    mutual_information,
)

#: The four deterministic binary maps, one row per map, columns indexed by
#: the input x: identity, flip, constant 0, constant 1.
BINARY_MAPS = np.array([[0, 1], [1, 0], [0, 0], [1, 1]], dtype=np.int8)
BINARY_MAPS.flags.writeable = False

#: Default ceiling on the number of enumerated maps (k ** n).
DEFAULT_MAP_CAP = 4096

#: Ceiling on the number of bases :func:`solve_vertex` may enumerate.
MAX_BASES = 100_000

# Bases per stacked rank test and solve in solve_vertex; bounds its
# memory for any basis count up to MAX_BASES.
_CHUNK = 1024

#: Ceiling on the number of points :func:`coupling_oracle_theta` may scan.
MAX_GRID = 1_000_000

_NO_POINT = "no basic feasible point satisfies every constraint row"


@dataclass(frozen=True, eq=False)
class MapTable:
    """Every deterministic map X -> Y with per-map precomputed quantities.

    ``maps[u, x]`` is the output symbol of map u on input x.  ``out_pmfs``
    holds each map's output distribution under p_X, ``entropies`` the
    output entropy H(f_u(X)) in bits, and ``cls_terms`` the residual label
    entropy H(S | f_u(X)) when a label model q_S1 was supplied (else None).
    """

    n: int
    k: int
    p_x: Pmf
    maps: np.ndarray
    out_pmfs: np.ndarray
    entropies: np.ndarray
    cls_terms: np.ndarray | None


@dataclass(frozen=True, eq=False)
class LinearPolytope:
    """Constraint rows over the mixture weights: A_eq w = b_eq, A_ub w <= b_ub."""

    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    ub_names: tuple[str, ...]


def frechet_interval(q_x: float, q_y: float) -> tuple[float, float]:
    """(lower, upper) range of the joint cell P(X=1, Y=1) given Bernoulli marginals."""
    for name, q in (("q_x", q_x), ("q_y", q_y)):
        if not math.isfinite(q) or q <= 0.0 or q >= 1.0:
            raise DomainError(f"{name}={q!r} outside (0, 1)")
    return max(0.0, q_x + q_y - 1.0), min(q_x, q_y)


def enumerate_maps(
    n: int,
    k: int,
    p_x: Pmf,
    q_s1: float | None = None,
    cap: int = DEFAULT_MAP_CAP,
) -> MapTable:
    """Tabulate all k**n deterministic maps from n source to k output symbols.

    For the binary-to-binary case the maps come out in the canonical
    order identity, flip, constant 0, constant 1; otherwise they are in
    lexicographic order of their output tuples.  Supplying ``q_s1``
    additionally precomputes each map's residual label entropy
    H(S | f_u(X)) for the label S = X xor S1, which requires a binary
    source alphabet.
    """
    if n < 2 or k < 2:
        raise DomainError(f"alphabet sizes must be >= 2, got n={n}, k={k}")
    if p_x.size != n:
        raise DomainError(f"p_x has {p_x.size} masses but the source alphabet has {n}")
    count = k**n
    if count > cap:
        raise DimensionCapError(
            f"enumerating {count} maps exceeds the cap of {cap}; "
            "raise the cap only if you accept the combinatorial cost"
        )
    if q_s1 is not None:
        if n != 2:
            raise DomainError("the xor label model needs a binary source alphabet")
        if not math.isfinite(q_s1) or q_s1 <= 0.0 or q_s1 > 0.5:
            raise DomainError(f"q_s1={q_s1!r} outside the solver domain (0, 0.5]")

    if n == 2 and k == 2:
        maps = BINARY_MAPS.astype(np.int64)
    else:
        maps = np.array(list(product(range(k), repeat=n)), dtype=np.int64)

    out_pmfs = np.zeros((count, k))
    entropies = np.zeros(count)
    for u in range(count):
        for x in range(n):
            out_pmfs[u, maps[u, x]] += p_x.masses[x]
        entropies[u] = entropy(Pmf(out_pmfs[u]))
    cls_terms = None
    if q_s1 is not None:
        # On a binary source every map is injective, leaving H(S | X) =
        # H_b(q_S1), or constant, leaving H(S) = H_b(m); both computed as
        # label_params computes them, so the two solvers share the gap.
        q_x = float(p_x.masses[1])
        m = (1.0 - q_x) * (1.0 - q_s1) + q_x * q_s1
        cls_terms = np.where(
            maps[:, 0] != maps[:, 1], binary_entropy(q_s1), binary_entropy(m)
        )
        cls_terms.flags.writeable = False
    for arr in (maps, out_pmfs, entropies):
        arr.flags.writeable = False
    return MapTable(
        n=n, k=k, p_x=p_x, maps=maps, out_pmfs=out_pmfs,
        entropies=entropies, cls_terms=cls_terms,
    )


def build_polytope(
    maps: MapTable,
    p_y: Pmf,
    rate: float | None = None,
    cclass: float | None = None,
) -> LinearPolytope:
    """Assemble the constraint rows for a map-mixture weight vector.

    Equalities: one marginal-match row per output symbol plus the simplex
    row.  Inequalities: the rate row sum_u w_u H(f_u(X)) <= R when given,
    the label row sum_u w_u H(S | f_u(X)) <= C when given, and one
    nonnegativity row per map.
    """
    if p_y.size != maps.k:
        raise DomainError(
            f"p_y has {p_y.size} masses but the output alphabet has {maps.k}"
        )
    count = maps.maps.shape[0]
    a_eq = np.vstack([maps.out_pmfs.T, np.ones((1, count))])
    b_eq = np.concatenate([p_y.masses, [1.0]])
    ub_rows, ub_b, names = [], [], []
    if rate is not None:
        if not math.isfinite(rate) or rate < 0.0:
            raise DomainError(f"rate must be finite and >= 0, got {rate!r}")
        ub_rows.append(maps.entropies)
        ub_b.append(float(rate))
        names.append("rate")
    if cclass is not None:
        if maps.cls_terms is None:
            raise DomainError(
                "classification budget given but the map table has no label model; "
                "pass q_s1 to enumerate_maps"
            )
        if not math.isfinite(cclass) or cclass < 0.0:
            raise DomainError(f"cclass must be finite and >= 0, got {cclass!r}")
        ub_rows.append(maps.cls_terms)
        ub_b.append(float(cclass))
        names.append("classification")
    for u in range(count):
        row = np.zeros(count)
        row[u] = -1.0
        ub_rows.append(row)
        ub_b.append(0.0)
        names.append(f"nonneg[{u}]")
    return LinearPolytope(
        a_eq=a_eq,
        b_eq=np.asarray(b_eq, dtype=float),
        a_ub=np.vstack(ub_rows),
        b_ub=np.asarray(ub_b, dtype=float),
        ub_names=tuple(names),
    )


def _joint_from_weights(maps: MapTable, p_x: Pmf, w: np.ndarray) -> JointPmf:
    cond = np.zeros((maps.n, maps.k))
    for u, weight in enumerate(w):
        if weight > 0.0:
            cond[np.arange(maps.n), maps.maps[u]] += weight
    return JointPmf(p_x.masses[:, None] * cond)


def _budget_rows(polytope: LinearPolytope):
    """The budget rows that can cut the simplex: rows, bounds, slack tolerances.

    The label row's coefficients can differ by a tiny gap (H_b(m) and
    H_b(q_S1) as q_S1 nears 1/2), so it is measured in weight: shifted
    by its minimum (exact through the simplex row) and divided by its
    range, checked at ``WEIGHT_TOL``.  A range of at most ``ROUND_TOL``
    makes it constant (q_S1 = 1/2): dropped, or infeasible when C lies
    more than ``ROUND_TOL`` below it, the closed form's gate.  A row
    whose bound reaches its largest coefficient never cuts the simplex
    and is dropped: its large basic slack would swamp the rounding of
    the weights.
    """
    rows, bounds, tols = [], [], []
    for row, bound, name in zip(polytope.a_ub, polytope.b_ub, polytope.ub_names):
        if name.startswith("nonneg["):
            continue
        tol = ROW_TOL
        if name == "classification":
            low = row.min()
            row, bound = row - low, bound - low
            span = row.max()
            if span <= ROUND_TOL:
                if bound < -ROUND_TOL:
                    raise InfeasibleError(_NO_POINT)
                continue
            row, bound, tol = row / span, bound / span, WEIGHT_TOL
        if bound < row.max():
            rows.append(row)
            bounds.append(bound)
            tols.append(tol)
    return rows, bounds, tols


def solve_vertex(polytope: LinearPolytope, maps: MapTable, p_x: Pmf) -> SolverResult:
    """Maximize I(X;Y) over the polytope by basic-feasible-point enumeration.

    Standard form: the k marginal rows (the simplex row is their sum and
    is dropped) and each budget row :func:`_budget_rows` keeps, with a
    slack column.  Each of the C(count + b, k + b) column subsets whose
    submatrix has full rank at ``RANK_TOL`` is a basis; its basic solution
    is kept when every component is at least minus its tolerance
    (``ROW_TOL``, the label slack ``WEIGHT_TOL``) and it meets all of
    ``a_eq`` within ``ROW_TOL``.  Kept points are scored by mutual
    information after a clamp-and-renormalize projection.  Ties within
    ``ROUND_TOL`` go to the smaller support (weights above
    ``WEIGHT_TOL``; an optimal mixture never needs more than k + 1
    maps), then to the first basis in lexicographic order.  More than
    ``MAX_BASES`` bases raise :class:`DimensionCapError` before any is
    solved.

    The subsets go in lexicographic chunks of ``_CHUNK``.  One stacked
    singular-value call rank-tests a chunk (the count ``matrix_rank``
    takes), one stacked ``solve`` solves its bases, and the sign test
    runs on the whole chunk.  The residual check, the scoring and the
    tie rule stay per point, in basis order, so the chunk size bounds
    memory and moves no bit of the result.
    """
    k, count = polytope.a_eq.shape[0] - 1, polytope.a_eq.shape[1]
    rows, bounds, tols = _budget_rows(polytope)
    b = len(rows)
    m = k + b
    bases = math.comb(count + b, m)
    if bases > MAX_BASES:
        raise DimensionCapError(
            f"{count} maps with {b} budget rows give {bases} bases, "
            f"more than the bound of {MAX_BASES}"
        )
    a = np.block([
        [polytope.a_eq[:k], np.zeros((k, b))],
        [np.reshape(rows, (b, count)), np.eye(b)],
    ])
    rhs = np.concatenate([polytope.b_eq[:k], bounds])
    tol = np.concatenate([np.full(count, ROW_TOL), tols])

    best_value = -1.0
    best_weights: np.ndarray | None = None
    best_support = count + 1
    combos = combinations(range(count + b), m)
    for chunk in iter(lambda: list(islice(combos, _CHUNK)), []):
        basis = np.array(chunk, dtype=np.intp)
        subs = a[:, basis].transpose(1, 0, 2)
        singular = np.linalg.svd(subs, compute_uv=False)
        full = np.count_nonzero(singular > RANK_TOL, axis=-1) == m
        basis = basis[full]
        n = basis.shape[0]
        # An (n, m, 1) right-hand side is a stack of columns under every
        # numpy >= 1.24; a 1-D one broadcasts differently from 2.0 on.
        sol = np.linalg.solve(subs[full], np.broadcast_to(rhs[:, None], (n, m, 1)))
        x = np.zeros((n, count + b))
        x[np.arange(n)[:, None], basis] = sol[..., 0]
        for point in x[~np.any(x < -tol, axis=1)]:
            w = point[:count]
            if np.max(np.abs(polytope.a_eq @ w - polytope.b_eq)) > ROW_TOL:
                continue
            clipped = np.clip(w, 0.0, None)
            clipped /= clipped.sum()
            value = mutual_information(_joint_from_weights(maps, p_x, clipped))
            support = int(np.count_nonzero(clipped > WEIGHT_TOL))
            if value > best_value + ROUND_TOL or (
                abs(value - best_value) <= ROUND_TOL and support < best_support
            ):
                best_value = value
                best_weights = clipped
                best_support = support

    if best_weights is None:
        raise InfeasibleError(_NO_POINT)

    mixture = MapMixture(*best_weights) if maps.n == 2 and maps.k == 2 else None
    return SolverResult(
        value=best_value, mixture=mixture, case_label="Vertex", alpha=None,
        weights=best_weights,
    )


def coupling_oracle_theta(q_x: float, q_y: float, grid: int) -> tuple[float, BitsValue]:
    """Grid-scan the free cell of a 2x2 coupling for maximum information.

    Evaluates I(X;Y) at ``grid`` equally spaced values of
    theta = P(X=1, Y=1) across the Frechet interval (both endpoints are
    always included) and returns the maximizing theta with its value in
    bits.  For marginals in (0, 1/2] the maximizer is the upper endpoint
    min(q_x, q_y).  More than ``MAX_GRID`` points raise
    :class:`DomainError` before any array is allocated.
    """
    if grid < 2:
        raise DomainError(f"grid must be >= 2, got {grid!r}")
    if grid > MAX_GRID:
        raise DomainError(f"grid allows at most {MAX_GRID} points, got {grid!r}")
    lower, upper = frechet_interval(q_x, q_y)
    thetas = np.unique(
        np.concatenate([np.linspace(lower, upper, int(grid)), [lower, upper]])
    )

    def cell_term(c: np.ndarray, px: float, py: float) -> np.ndarray:
        safe = np.maximum(c, 1e-300)
        return np.where(c > 0.0, c * (np.log2(safe) - math.log2(px) - math.log2(py)), 0.0)

    p11 = thetas
    p10 = q_x - thetas
    p01 = q_y - thetas
    p00 = 1.0 - q_x - q_y + thetas
    info = (
        cell_term(p11, q_x, q_y)
        + cell_term(p10, q_x, 1.0 - q_y)
        + cell_term(p01, 1.0 - q_x, q_y)
        + cell_term(p00, 1.0 - q_x, 1.0 - q_y)
    )
    idx = int(np.argmax(info))
    return float(thetas[idx]), max(float(info[idx]), 0.0)
