"""One input policy for every public entry point and CLI flag.

Each public callable of ``ratemec.__all__`` that takes inputs appears in
``CALLS`` with one valid call; every parameter of its signature is then
replaced, one at a time, by each bad value of its kind:

- a real number gets a string, None, NaN, +inf, -inf, a bool, a numpy
  scalar outside its interval and a one-element array;
- a count gets the same plus a non-integral float and a numpy float;
- an object gets a string, None, NaN and an instance of a wrong class.

Every case must raise a ``RatemecError`` subclass whose message names
the parameter as a word and never shows a numpy repr (``np.``).  The
targeted cases below pin inputs that once ended in a bare ``TypeError``,
``ValueError`` or ``AttributeError``, or were accepted: a solver handed
the other problem type, a vertex solve whose arguments disagree, and a
non-integral ``grid``, ``samples`` or ``seed``.  CLI flag values reach
the same checks; the ``--output`` and ``--config`` paths are pinned in
``test_cli_corpus.ERRORS`` and ``test_cli``.  Result records and the
error classes take no inputs to check and are listed in ``RECORDS``.
"""

import inspect
import math
import re
import warnings

import numpy as np
import pytest

import ratemec
from ratemec import (
    JointPmf,
    MapMixture,
    Pmf,
    RateClassProblem,
    RatemecError,
    RateProblem,
    SimConfig,
    build_polytope,
    cli,
    enumerate_maps,
    simulate,
    solve_mecbr,
    solve_mecbrc,
    solve_vertex,
)
from ratemec.generic_oracle import MAX_GRID

#: Public names with nothing to check: result records and error classes.
RECORDS = {
    "BINARY_MAPS", "CASE_MARGINAL_BOUND", "CASE_RATE_BOUND", "DEFAULT_MAP_CAP",
    "BitsValue", "DerivedLabelParams", "LinearPolytope", "MapTable", "SimReport",
    "SolverResult", "DimensionCapError", "DomainError", "InfeasibleError",
    "MonotonicityError", "OracleMismatchError", "RatemecError",
}


def _reals(outside, optional=False):
    bad = ["0.2", None, math.nan, math.inf, -math.inf, True, np.float64(outside),
           np.array([0.25])]
    return bad[:1] + bad[2:] if optional else bad


def _counts(outside):
    return ["3", None, math.nan, math.inf, -math.inf, True, np.int64(outside), 2.5,
            np.float64(3.0)]


def _objects(wrong):
    return ["x", None, math.nan, wrong]


def _p_x():
    return Pmf([0.8, 0.2])


def _table(q_s1=None):
    return enumerate_maps(2, 2, _p_x(), q_s1=q_s1)


def _label_problem():
    return RateClassProblem(0.2, 0.3, 0.1, 0.6, 0.6)


def _rate_problem():
    return RateProblem(0.2, 0.3, 0.5)


def _config():
    return SimConfig(_rate_problem(), MapMixture(0.25, 0.25, 0.25, 0.25), 100, 1)


#: name -> (valid keyword arguments, parameter -> bad values)
CALLS = {
    "MapMixture": (
        lambda: dict(p1=0.25, p2=0.25, p3=0.25, p4=0.25),
        {f"p{i}": _reals(-0.5) for i in range(1, 5)},
    ),
    "RateProblem": (
        lambda: dict(q_x=0.2, q_y=0.3, rate=0.5, extend=False),
        {"q_x": _reals(0.7), "q_y": _reals(0.0), "rate": _reals(-1.0),
         "extend": ["yes", None, math.nan, 1]},
    ),
    "saturation_rate": (
        lambda: dict(q_x=0.2, q_y=0.3),
        {"q_x": _reals(0.7), "q_y": _reals(-0.1)},
    ),
    "solve_mecbr": (
        lambda: dict(p=_rate_problem()), {"p": _objects(_label_problem())},
    ),
    "RateClassProblem": (
        lambda: dict(q_x=0.2, q_y=0.3, q_s1=0.1, rate=0.5, cclass=0.47),
        {"q_x": _reals(0.7), "q_y": _reals(0.0), "q_s1": _reals(0.6),
         "rate": _reals(-1.0), "cclass": _reals(-1e-300)},
    ),
    "feasibility": (
        lambda: dict(p=_label_problem()), {"p": _objects(_rate_problem())},
    ),
    "label_params": (
        lambda: dict(p=_label_problem()), {"p": _objects(_rate_problem())},
    ),
    "solve_mecbrc": (
        lambda: dict(p=_label_problem()), {"p": _objects(_rate_problem())},
    ),
    "frechet_interval": (
        lambda: dict(q_x=0.2, q_y=0.3),
        {"q_x": _reals(1.0), "q_y": _reals(1.5)},
    ),
    "coupling_oracle_theta": (
        lambda: dict(q_x=0.2, q_y=0.3, grid=3),
        {"q_x": _reals(1.0), "q_y": _reals(0.0), "grid": _counts(MAX_GRID + 1)},
    ),
    "enumerate_maps": (
        lambda: dict(n=2, k=2, p_x=_p_x(), q_s1=0.1, cap=16),
        {"n": _counts(1), "k": _counts(0), "p_x": _objects(JointPmf([[0.5, 0.5]])),
         "q_s1": _reals(0.51, optional=True), "cap": _counts(-1)},
    ),
    "build_polytope": (
        lambda: dict(maps=_table(0.1), p_y=Pmf([0.7, 0.3]), rate=0.5, cclass=0.47),
        {"maps": _objects(_p_x()), "p_y": _objects(_table()),
         "rate": _reals(-1.0, optional=True), "cclass": _reals(-2.0, optional=True)},
    ),
    "solve_vertex": (
        lambda: dict(polytope=build_polytope(_table(), Pmf([0.7, 0.3])), maps=_table(),
                     p_x=_p_x()),
        {"polytope": _objects(_table()), "maps": _objects(_p_x()),
         "p_x": _objects(_table())},
    ),
    "SimConfig": (
        lambda: dict(problem=_rate_problem(), mixture=MapMixture(0.25, 0.25, 0.25, 0.25),
                     samples=100, seed=1, streams=1),
        {"problem": _objects((0.2, 0.3, 0.5)), "mixture": _objects((0.25,) * 4),
         "samples": _counts(0), "seed": _counts(-1), "streams": _counts(0)},
    ),
    "simulate": (
        lambda: dict(cfg=_config()), {"cfg": _objects(_rate_problem())},
    ),
    "verify_constraints": (
        lambda: dict(report=simulate(_config()), p=_rate_problem()),
        {"report": _objects(_config()), "p": _objects(_p_x())},
    ),
    "Pmf": (
        lambda: dict(masses=[0.8, 0.2]),
        {"masses": ["0.5", None, ["a", "b"], [0.5, None], [[0.5], [0.25, 0.25]],
                    [True, False], [math.nan, 1.0], np.array([-0.5, 1.5])]},
    ),
    "JointPmf": (
        lambda: dict(table=[[0.4, 0.1], [0.2, 0.3]]),
        {"table": ["0.5", None, [["a", "b"]], [[0.5, None]], [[0.5], [0.25, 0.25]],
                   [[math.inf, 0.0]], np.array([[0.5, 0.5], [0.5, -0.5]])]},
    ),
    "binary_entropy": (lambda: dict(t=0.3), {"t": _reals(1.5)}),
    "entropy": (lambda: dict(p=_p_x()), {"p": _objects(JointPmf([[0.5, 0.5]]))}),
    "mutual_information": (
        lambda: dict(j=JointPmf([[0.4, 0.1], [0.2, 0.3]])), {"j": _objects(_p_x())},
    ),
    "conditional_entropy": (
        lambda: dict(j=JointPmf([[0.4, 0.1], [0.2, 0.3]]), given="x"),
        {"j": _objects(_p_x()), "given": ["z", None, math.nan, math.inf, np.float64(1.0)]},
    ),
}

CASES = [
    (name, param, i)
    for name, (_, params) in CALLS.items()
    for param, bad in params.items()
    for i in range(len(bad))
]


def _assert_names(exc_info, param):
    assert isinstance(exc_info.value, RatemecError)
    message = str(exc_info.value)
    assert re.search(rf"(?<![\w-]){re.escape(param)}\b", message), message
    assert "np." not in message, message


def test_every_public_name_is_checked_or_a_record():
    assert set(ratemec.__all__) == set(CALLS) | RECORDS


@pytest.mark.parametrize("name", sorted(CALLS))
def test_valid_call_passes_and_every_parameter_is_covered(name):
    valid, params = CALLS[name]
    target = getattr(ratemec, name)
    target(**valid())
    assert set(params) == set(inspect.signature(target).parameters)


@pytest.mark.parametrize("name, param, index", CASES)
def test_bad_input_raises_a_ratemec_error_naming_it(name, param, index):
    valid, params = CALLS[name]
    kwargs = valid()
    kwargs[param] = params[param][index]
    with pytest.raises(RatemecError) as exc_info:
        getattr(ratemec, name)(**kwargs)
    _assert_names(exc_info, param)


@pytest.mark.parametrize("call, param", [
    # A solver handed the other problem type: the rate solver used to
    # drop the label budget and return 0.2511 bits on an instance the
    # label solver calls infeasible.
    (lambda: solve_mecbr(RateClassProblem(0.2, 0.3, 0.1, 0.5, 0.47)), "p"),
    (lambda: solve_mecbrc(_rate_problem()), "p"),
    # A vertex solve whose arguments disagree, before any basis is built.
    (lambda: solve_vertex(build_polytope(_table(), Pmf([0.7, 0.3])), _table(),
                          Pmf([0.5, 0.25, 0.25])), "p_x"),
    (lambda: solve_vertex(build_polytope(_table(), Pmf([0.7, 0.3])), _table(),
                          Pmf([0.5, 0.5])), "p_x"),
    (lambda: solve_vertex(build_polytope(enumerate_maps(2, 2, Pmf([0.5, 0.5])),
                                         Pmf([0.7, 0.3])), _table(), _p_x()), "polytope"),
    (lambda: solve_vertex(build_polytope(enumerate_maps(2, 3, _p_x()),
                                         Pmf([0.7, 0.2, 0.1])), _table(), _p_x()), "polytope"),
    # Non-integral counts that were accepted.
    (lambda: ratemec.coupling_oracle_theta(0.2, 0.3, 2.5), "grid"),
    (lambda: SimConfig(_rate_problem(), MapMixture(0.25, 0.25, 0.25, 0.25), 10.5, 1),
     "samples"),
    (lambda: SimConfig(_rate_problem(), MapMixture(0.25, 0.25, 0.25, 0.25), 10, 1.5),
     "seed"),
])
def test_targeted_inputs_raise_a_ratemec_error_naming_them(call, param):
    with pytest.raises(RatemecError) as exc_info:
        call()
    _assert_names(exc_info, param)


_SOLVE = ["solve", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5"]


@pytest.mark.parametrize("argv, name", [
    ([*_SOLVE, "--qs1", "inf", "--cclass", "1"], "--qs1"),
    ([*_SOLVE, "--rate", "nan"], "rate"),
    ([*_SOLVE, "--qs1", "0.1", "--cclass", "-1"], "cclass"),
    (["oracle", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5", "--grid", "1"], "grid"),
    (["simulate", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5", "--samples", "0",
      "--seed", "1"], "samples"),
    (["simulate", "--qx", "0.2", "--qy", "0.3", "--rate", "0.5", "--samples", "10",
      "--seed", "1", "--mixture", "0.5,0.5,inf,0"], "p3"),
])
def test_cli_flags_exit_1_naming_the_input(argv, name, capsys):
    # The file flags are pinned in test_cli_corpus.ERRORS and test_cli.
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "np." not in err, err


@pytest.mark.parametrize("value, interval, message", [
    (0.6, "(0, 0.5]", "x must lie in (0, 0.5], got 0.6"),
    (0.0, "(0, 0.5]", "x must lie in (0, 0.5], got 0.0"),
    (math.nan, "(0, 0.5]", "x must lie in (0, 0.5], got nan"),
    (np.float64(1.0), "(0, 1)", "x must lie in (0, 1), got 1.0"),
    (-1.0, "[0, inf)", "x must be >= 0, got -1.0"),
    (np.float32(-0.5), "[0, inf)", "x must be >= 0, got -0.5"),
    (-math.inf, "[0, inf)", "x must be >= 0, got -inf"),
    (math.inf, "[0, inf)", "x must be finite, got inf"),
    (math.nan, "[0, inf)", "x must be finite, got nan"),
    (0, "(0, inf)", "x must be > 0, got 0"),
    (-math.inf, "(-inf, inf)", "x must be finite, got -inf"),
    ("0.2", "(0, 0.5]", "x must be a real number, got '0.2'"),
    (None, "[0, inf)", "x must be a real number, got None"),
    (False, "[0, inf)", "x must be a real number, got False"),
    (np.array([0.1, 0.2]), "[0, inf)", "x must be a real number, got array([0.1, 0.2])"),
    (np.array([0.3]), "(0, 0.5]", "x must be a real number, got array([0.3])"),
    (np.array(0.3), "(0, 0.5]", "x must be a real number, got array(0.3)"),
    (np.float32(math.inf), "[0, inf)", "x must be finite, got inf"),
    (10**20, "[0, 1]", "x must lie in [0, 1], got 100000000000000000000"),
    (1j, "[0, inf)", "x must be a real number, got 1j"),
])
def test_check_real_message_shapes(value, interval, message):
    from ratemec.prob_core import check_real

    with pytest.raises(ratemec.DomainError) as exc_info:
        check_real(value, "x", interval)
    assert str(exc_info.value) == message


def test_check_real_open_ends_exclude_exactly_the_endpoint():
    from ratemec.prob_core import check_real

    with warnings.catch_warnings():
        # A numpy float32 is compared as a float, never cast to a bound.
        warnings.simplefilter("error")
        for value, interval in [(5e-324, "(0, 0.5]"), (0.5, "(0, 0.5]"), (0.0, "[0, inf)"),
                                (math.nextafter(1.0, 0.0), "(0, 1)"), (1, "(0, 1]"),
                                (np.float64(0.3), "(0, 0.5]"), (1.7e308, "[0, inf)"),
                                (np.float32(0.3), "[0, inf)"), (10**400, "[0, inf]")]:
            check_real(value, "x", interval)
    for value, interval in [(0.0, "(0, 0.5]"), (1.0, "(0, 1)"), (1, "(0, 1)"),
                            (math.nextafter(0.5, 1.0), "(0, 0.5]")]:
        with pytest.raises(ratemec.DomainError):
            check_real(value, "x", interval)


@pytest.mark.parametrize("value, message", [
    (1.5, "n must be an integer, got 1.5"),
    (np.float64(3.0), "n must be an integer, got 3.0"),
    (True, "n must be an integer, got True"),
    ("3", "n must be an integer, got '3'"),
    (1, "n must lie in [2, 10], got 1"),
    (np.int64(11), "n must lie in [2, 10], got 11"),
])
def test_check_count_message_shapes(value, message):
    from ratemec.prob_core import check_count

    with pytest.raises(ratemec.DomainError) as exc_info:
        check_count(value, "n", "[2, 10]")
    assert str(exc_info.value) == message
    check_count(np.int64(2), "n", "[2, 10]")
    check_count(10**30, "n", "[2, inf)")


def test_count_past_the_float_range_fits_an_infinite_end_only():
    from ratemec.prob_core import check_count

    # SeedSequence takes any non-negative int, so SimConfig must too.
    SimConfig(_rate_problem(), MapMixture(1.0, 0.0, 0.0, 0.0), 10, 2**1024)
    check_count(2**1024, "n", "[2, inf)")
    check_count(-(2**1024), "n", "(-inf, 0]")
    # A finite bound stays an exact int comparison.
    check_count(2**53, "n", "[2, 9007199254740992]")
    for value, interval, message in [
        (2**53 + 1, "[2, 9007199254740992]", "n must lie in [2, 9007199254740992], got 9007199254740993"),
        (2**1024, "[2, 10]", f"n must lie in [2, 10], got {2**1024}"),
        (-(2**1024), "[0, inf)", f"n must be >= 0, got {-(2**1024)}"),
    ]:
        with pytest.raises(ratemec.DomainError) as exc_info:
            check_count(value, "n", interval)
        assert str(exc_info.value) == message


def test_check_type_names_the_expected_and_the_given_class():
    from ratemec.prob_core import check_type

    with pytest.raises(ratemec.DomainError, match="^p must be a RateProblem or "
                       "RateClassProblem, got str$"):
        check_type("x", "p", RateProblem, RateClassProblem)
    check_type(_rate_problem(), "p", RateProblem, RateClassProblem)


def test_in_range_inputs_are_stored_as_given():
    # The checks never coerce: a numpy scalar or an int stays what it was.
    p = RateProblem(np.float64(0.2), 0.3, 1)
    assert type(p.q_x) is np.float64 and type(p.rate) is int
    cfg = SimConfig(p, MapMixture(0.25, 0.25, 0.25, 0.25), np.int64(100), np.int64(3))
    assert type(cfg.samples) is np.int64
    # MapMixture keeps storing floats, numpy scalar components included.
    m = MapMixture(np.float64(0.5), 0.5, 0, 0)
    assert all(type(v) is float for v in (m.p1, m.p2, m.p3, m.p4))
