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
  lexicographic chunks of one cached index table per shape.  A chunk is
  rank-tested by one stacked determinant, which certifies most bases;
  only the doubtful ones take the singular values.  Its bases are
  solved by one stacked call, and the points that pass the sign test
  are scored as one stack.  A point whose stacked score lies clearly
  below the running best is skipped; every other point takes the
  residual check, the exact scoring and the tie rule, one at a time in
  basis order.  Both screens are sound, so the answer is bit for bit
  that of the plain enumeration.  Ties go to the smaller support, then
  to the first basis.
- :func:`coupling_oracle_theta` evaluates I(X;Y) at the two ends of the
  Frechet interval of the single free cell of a 2x2 coupling, verifying
  the unconstrained maximum-information coupling value without
  reference to map mixtures.  I is convex in that cell, so no interior
  point can beat the better end.

Dimensions stay tiny (the map count k**n and the basis count are
capped), so exhaustive enumeration with explicit tolerances beats
pulling in an LP library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product

import numpy as np

from .bernoulli_rate import MapMixture, SolverResult
from .errors import DimensionCapError, DomainError, InfeasibleError
from .prob_core import (
    RANK_TOL, ROUND_TOL, ROW_TOL, WEIGHT_TOL, BitsValue, JointPmf, Pmf, binary_entropy,
    check_count, check_real, check_type, entropy, mutual_information,
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

# How far, beyond ROUND_TOL, a point's stacked information score must lie
# below the running best for solve_vertex to skip its exact scoring: two
# orders of magnitude above the stacked scorer's rounding at any size
# MAX_BASES allows.
_SCORE_MARGIN = 1e-12

#: Ceiling on the ``grid`` :func:`coupling_oracle_theta` accepts.
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
    check_real(q_x, "q_x", "(0, 1)")
    check_real(q_y, "q_y", "(0, 1)")
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
    check_count(n, "n", "[2, inf)")
    check_count(k, "k", "[2, inf)")
    check_type(p_x, "p_x", Pmf)
    check_count(cap, "cap", "[0, inf)")
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
        check_real(q_s1, "q_s1", "(0, 0.5]")

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
    check_type(maps, "maps", MapTable)
    check_type(p_y, "p_y", Pmf)
    if p_y.size != maps.k:
        raise DomainError(
            f"p_y has {p_y.size} masses but the output alphabet has {maps.k}"
        )
    count = maps.maps.shape[0]
    a_eq = np.vstack([maps.out_pmfs.T, np.ones((1, count))])
    b_eq = np.concatenate([p_y.masses, [1.0]])
    ub_rows, ub_b, names = [], [], []
    if rate is not None:
        check_real(rate, "rate", "[0, inf)")
        ub_rows.append(maps.entropies)
        ub_b.append(float(rate))
        names.append("rate")
    if cclass is not None:
        if maps.cls_terms is None:
            raise DomainError(
                "classification budget given but the map table has no label model; "
                "pass q_s1 to enumerate_maps"
            )
        check_real(cclass, "cclass", "[0, inf)")
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


def _standard_form(polytope: LinearPolytope) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The standard form :func:`solve_vertex` enumerates: matrix, right-hand
    side and each column's sign tolerance.

    The k marginal rows (the simplex row is their sum and is dropped)
    and each budget row :func:`_budget_rows` keeps, with a slack column.
    More than ``MAX_BASES`` bases raise :class:`DimensionCapError`.
    """
    k, count = polytope.a_eq.shape[0] - 1, polytope.a_eq.shape[1]
    rows, bounds, tols = _budget_rows(polytope)
    b = len(rows)
    bases = math.comb(count + b, k + b)
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
    return a, rhs, np.concatenate([np.full(count, ROW_TOL), tols])


@lru_cache(maxsize=8)
def _bases(columns: int, m: int) -> np.ndarray:
    """Every m-subset of ``range(columns)`` as a read-only (count, m) index
    table, one row per subset in ``combinations`` order.

    Built once per shape; callers check the count against ``MAX_BASES``
    first (:func:`_standard_form`), so a table never outgrows that bound.
    """
    count = math.comb(columns, m)
    flat = np.fromiter(
        chain.from_iterable(combinations(range(columns), m)), np.intp, count * m
    )
    table = flat.reshape(count, m)
    table.flags.writeable = False
    return table


def _rank_screen(subs: np.ndarray, a_norm: float) -> np.ndarray:
    """Mask of the stacked square submatrices whose determinant alone
    proves rank m at ``RANK_TOL``.

    |det| <= sigma_min * sigma_max**(m - 1), and no column subset of a
    matrix of 2-norm ``a_norm`` has sigma_max above it, so |det| above
    ``RANK_TOL * a_norm**(m - 1)`` puts sigma_min above ``RANK_TOL``; the
    factor 2 covers the backward error of the LU factorization behind
    ``det``.  An unmarked submatrix may still have full rank.
    """
    m = subs.shape[-1]
    return np.abs(np.linalg.det(subs)) > 2.0 * RANK_TOL * a_norm ** (m - 1)


def _full_rank(subs: np.ndarray, a_norm: float) -> np.ndarray:
    """The ``matrix_rank`` count at ``RANK_TOL`` on a stack, as a full-rank
    mask; only the submatrices :func:`_rank_screen` leaves in doubt go
    through the singular values."""
    full = _rank_screen(subs, a_norm)
    doubt = ~full
    if doubt.any():
        singular = np.linalg.svd(subs[doubt], compute_uv=False)
        full[doubt] = np.count_nonzero(singular > RANK_TOL, axis=-1) == subs.shape[-1]
    return full


def _info_bounds(maps: MapTable, p_x: Pmf, w: np.ndarray) -> np.ndarray:
    """I(X;Y) in bits of each row of ``w`` after the clamp-and-renormalize
    projection, scored as one stack.

    The conditional table P(Y|X) of every row comes from one product
    with the maps' (count, n * k) one-hot table, so its sums run in
    another order than :func:`_joint_from_weights`' loop; each value
    still lies within rounding (about 1e-14 bits) of the exact scorer's,
    far inside the screen's margin.  A row with no positive weight
    gives NaN.
    """
    count, n, k = maps.maps.shape[0], maps.n, maps.k
    onehot = np.zeros((count, n * k))
    onehot[np.arange(count)[:, None], np.arange(n) * k + maps.maps] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.clip(w, 0.0, None)
        w /= w.sum(axis=1, keepdims=True)
        joint = p_x.masses[:, None] * (w @ onehot).reshape(-1, n, k)

        def h(t: np.ndarray) -> np.ndarray:
            terms = t * np.log2(np.where(t > 0.0, t, 1.0))
            return -terms.sum(axis=tuple(range(1, t.ndim)))

        return h(joint.sum(axis=2)) + h(joint.sum(axis=1)) - h(joint)


def solve_vertex(polytope: LinearPolytope, maps: MapTable, p_x: Pmf) -> SolverResult:
    """Maximize I(X;Y) over the polytope by basic-feasible-point enumeration.

    Standard form (:func:`_standard_form`): the k marginal rows and each
    budget row :func:`_budget_rows` keeps, with a slack column.  Each of
    the C(count + b, k + b) column subsets whose submatrix has full rank
    at ``RANK_TOL`` is a basis; its basic solution is kept when every
    component is at least minus its tolerance (``ROW_TOL``, the label
    slack ``WEIGHT_TOL``) and it meets all of ``a_eq`` within
    ``ROW_TOL``.  Kept points are scored by mutual information after a
    clamp-and-renormalize projection.  Ties within ``ROUND_TOL`` go to
    the smaller support (weights above ``WEIGHT_TOL``; an optimal
    mixture never needs more than k + 1 maps), then to the first basis
    in lexicographic order.  More than ``MAX_BASES`` bases raise
    :class:`DimensionCapError` before any is solved.

    The subsets go in lexicographic chunks of ``_CHUNK``, slices of one
    index table per shape (:func:`_bases`).  A chunk is rank-tested by
    one stacked determinant (:func:`_rank_screen`), and only the
    submatrices it leaves in doubt take the singular-value count
    ``matrix_rank`` uses; one stacked ``solve`` solves the bases, and the
    sign test runs on the stacked basic solutions, so only the bases that
    pass it are scattered into full-width points.  Those points are
    scored as one stack (:func:`_info_bounds`); a point whose stacked
    score lies more than ``ROUND_TOL + _SCORE_MARGIN`` below the running
    best can neither beat nor tie it and is skipped.  Every other point
    takes the residual check, the exact scoring and the tie rule, one at
    a time in basis order.  Both screens are sound and the chunk size
    bounds memory, so none of them moves a bit of the result.
    """
    check_type(polytope, "polytope", LinearPolytope)
    check_type(maps, "maps", MapTable)
    check_type(p_x, "p_x", Pmf)
    if not np.array_equal(p_x.masses, maps.p_x.masses):
        raise DomainError("p_x differs from the source pmf the map table was built for")
    if not np.array_equal(polytope.a_eq[:-1], maps.out_pmfs.T):
        raise DomainError("polytope was built for another map table")
    a, rhs, tol = _standard_form(polytope)
    m, count = a.shape[0], polytope.a_eq.shape[1]
    a_norm = float(np.linalg.norm(a, 2))

    best_value = -1.0
    best_weights: np.ndarray | None = None
    best_support = count + 1
    table = _bases(a.shape[1], m)
    for start in range(0, table.shape[0], _CHUNK):
        basis = table[start:start + _CHUNK]
        subs = a[:, basis].transpose(1, 0, 2)
        full = _full_rank(subs, a_norm)
        basis = basis[full]
        n = basis.shape[0]
        # An (n, m, 1) right-hand side is a stack of columns under every
        # numpy >= 1.24; a 1-D one broadcasts differently from 2.0 on.
        sol = np.linalg.solve(subs[full], np.broadcast_to(rhs[:, None], (n, m, 1)))[..., 0]
        # Columns outside a basis are 0, which passes every sign test.
        signs = ~np.any(sol < -tol[basis], axis=1)
        basis, sol = basis[signs], sol[signs]
        x = np.zeros((basis.shape[0], a.shape[1]))
        x[np.arange(basis.shape[0])[:, None], basis] = sol
        points = x[:, :count]
        for w, bound in zip(points, _info_bounds(maps, p_x, points).tolist()):
            # A NaN bound (no positive weight) is never below, so never skipped.
            if bound < best_value - ROUND_TOL - _SCORE_MARGIN:
                continue
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
    """The free cell of a 2x2 coupling that carries the most information.

    Returns theta = P(X=1, Y=1) and I(X;Y) in bits at the better end of
    the Frechet interval, the lower end on a tie.  I is convex in theta,
    so no interior point beats the better end.  The ``grid``-point scan
    this oracle once ran (both ends always among its points) returned
    the same bits whenever both marginals are at least 1e-12; below
    that its interior points could win by rounding alone.  So ``grid``
    no longer changes the result; it is still checked against
    ``[2, MAX_GRID]``, as the CLI's ``--grid`` flag passes it.  For
    marginals in (0, 1/2) the maximizer is the upper end min(q_x, q_y).
    """
    check_count(grid, "grid", f"[2, {MAX_GRID}]")
    thetas = np.array(frechet_interval(q_x, q_y))

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
    # The first maximum, as np.argmax took it over the sorted scan.
    idx = int(np.argmax(info))
    return float(thetas[idx]), max(float(info[idx]), 0.0)
