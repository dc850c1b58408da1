"""The vertex oracle's cached basis table.

``solve_vertex`` takes its bases from ``_bases(columns, m)``: every
m-subset of the standard form's columns as one read-only index table,
built once per shape and kept in a small bounded cache.  Its rows must
be ``itertools.combinations`` order exactly, since the tie rule keeps the
first basis; and the ``MAX_BASES`` check must come before any table is
built, so a shape past the bound never allocates one.
"""

import math
from itertools import combinations

import numpy as np
import pytest

import ratemec.generic_oracle as go
from ratemec import DimensionCapError, Pmf, build_polytope, enumerate_maps, solve_vertex
from ratemec.generic_oracle import DEFAULT_MAP_CAP, MAX_BASES


def _reachable_shapes():
    """Every (columns, m) a standard form within ``MAX_BASES`` can have.

    The standard form has k**n map columns plus one slack column per kept
    budget row (the label row needs n = 2), and m = k + b rows.  With no
    budget row the smallest basis is 2 columns of k**n, so k**n stays
    below 450 and the default map cap is never the binding bound.
    """
    shapes = set()
    for n in range(2, 10):
        for k in range(2, 20):
            count = k**n
            if count > DEFAULT_MAP_CAP:
                break
            for b in range(3 if n == 2 else 2):
                if math.comb(count + b, k + b) <= MAX_BASES:
                    shapes.add((count + b, k + b))
    return sorted(shapes)


SHAPES = _reachable_shapes()


def test_reachable_shapes_include_the_workload_shapes():
    # (n x k) 2x2 with zero to two budget rows; 3x2, 4x2, 2x4 and 3x3
    # with a rate row; 2x3 with rate and label rows; the largest tables,
    # 8x2 and 4x3 with no budget row.
    for shape in [(4, 2), (5, 3), (6, 4), (9, 3), (11, 5), (17, 3), (17, 5),
                  (28, 4), (256, 2), (81, 3)]:
        assert shape in SHAPES
    assert max(math.comb(*shape) for shape in SHAPES) <= MAX_BASES


@pytest.mark.parametrize("columns, m", SHAPES)
def test_table_rows_are_the_combinations_in_order(columns, m):
    go._bases.cache_clear()
    table = go._bases(columns, m)
    assert table.dtype == np.intp
    assert table.shape == (math.comb(columns, m), m)
    assert table.tolist() == [list(c) for c in combinations(range(columns), m)]


def test_table_is_read_only_and_shared():
    go._bases.cache_clear()
    table = go._bases(28, 4)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    assert go._bases(28, 4) is table


def test_cache_is_bounded():
    go._bases.cache_clear()
    assert go._bases.cache_info().maxsize == 8
    for columns in range(4, 20):
        go._bases(columns, 2)
    assert go._bases.cache_info().currsize == 8
    go._bases.cache_clear()


def test_bases_over_the_bound_raise_before_any_table_is_built(monkeypatch):
    def must_not_build(columns, m):
        raise AssertionError(f"built a table for {columns} columns, {m} rows")

    monkeypatch.setattr(go, "_bases", must_not_build)
    # 256 maps and one rate row give C(257, 5) = 8,984,341,696 bases.
    p_x = Pmf(np.full(4, 0.25))
    table = enumerate_maps(4, 4, p_x)
    poly = build_polytope(table, Pmf(np.full(4, 0.25)), rate=1.0)
    with pytest.raises(DimensionCapError, match=str(MAX_BASES)):
        solve_vertex(poly, table, p_x)


def test_a_solve_takes_one_table_of_its_standard_form(monkeypatch):
    calls = []
    real = go._bases

    def recording(columns, m):
        calls.append((columns, m))
        return real(columns, m)

    monkeypatch.setattr(go, "_bases", recording)
    p_x = Pmf(np.array([0.2, 0.3, 0.5]))
    table = enumerate_maps(3, 3, p_x)
    poly = build_polytope(table, Pmf(np.array([0.3, 0.3, 0.4])), rate=0.9)
    solve_vertex(poly, table, p_x)
    assert calls == [(28, 4)]
