"""Command-line front end: solve, sweep, oracle, simulate.

Every subcommand takes one path from flags to answers: ``--qx``,
``--qy`` and ``--qs1`` are checked against (0, 0.5] once per run,
``_problem`` builds a ``RateProblem``, or a ``RateClassProblem`` when
``--qs1`` is given, and ``_solve`` hands it to ``solve_mecbr`` or
``solve_mecbrc`` by its type.  A sweep still solves every grid point
that way.  A curve row is a plain tuple in ``SCHEMA`` order for JSON;
for CSV, ``solve`` and ``sweep`` render it with one formatter,
``_csv_row``, and a sweep renders the four cells that stay fixed once
per run.  ``solve`` and ``sweep`` load no numpy; ``oracle`` and
``simulate`` import the oracle and the sampler, and with them numpy,
when they run.

Output discipline: data rows are a pure function of the flags (floats
rendered with repr, so identical invocations produce byte-identical
rows), metadata lines are prefixed with ``#`` and carry no timestamps,
and the CSV schema is fixed with absent fields emitted as empty cells.

Exit codes: 0 success, 1 usage or domain error, 2 infeasible problem,
3 monotonicity violation during a rate sweep (a solver-bug signal),
4 oracle mismatch.

A ``--config`` file supplies ``key=value`` defaults (one per line,
``#`` comments allowed), converted and checked like the flags they
name; explicit flags always win.  Relative ``--output`` paths resolve
under ``$RATEMEC_OUTPUT_DIR`` when that variable is set.  The
environment variable ``RATEMEC_ORACLE_PERTURB`` adds a float offset to
the closed-form value inside ``oracle`` before comparison; it exists so
tests can exercise the mismatch exit path without breaking a solver.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .bernoulli_rate import MapMixture, RateProblem, SolverResult, solve_mecbr
from .bernoulli_rate_class import RateClassProblem, solve_mecbrc
from .errors import (
    DomainError,
    InfeasibleError,
    MonotonicityError,
    OracleMismatchError,
)
from .prob_core import ORACLE_TOL, ROUND_TOL, Pmf, check_count, check_real

#: Fixed curve-point schema; columns are never dropped, only left empty.
SCHEMA = "qx,qy,qs1,rate,cclass,value_bits,p1,p2,p3,p4,case_label,alpha"

#: Scalar schema for simulation reports in CSV form.
SIM_SCHEMA = (
    "qx,qy,qs1,rate,cclass,samples,seed,streams,generator,"
    "q_y_hat,mi_xy_hat,h_y_given_u_hat,h_y_given_xu_hat,"
    "h_s_given_y_hat,h_s_given_yu_hat,"
    "rate_slack,class_slack_s_given_y,class_slack_s_given_y_u"
)

ORACLE_SCHEMA = "closed_form_bits,vertex_bits,abs_diff"

#: Largest sweep grid, so the grid and its rows stay within memory.
MAX_STEPS = 1_000_000


class _UsageExit(Exception):
    """Raised by the parser instead of argparse's SystemExit(2)."""


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; this tool reserves
    2 for infeasible problems, so usage errors are rerouted to exit 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageExit(message)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


_FLAG_NAMES = {"start": "from", "stop": "to"}

_CONFIG_ALIASES = {flag: dest for dest, flag in _FLAG_NAMES.items()}


def _config_flags(parser: _Parser, args: argparse.Namespace) -> list[str]:
    """The --config file's lines as ``--flag=value`` tokens.

    The parser converts the tokens, so a config value passes the same
    type and choices checks as its flag; placed ahead of the command
    line, they lose to any flag given there.
    """
    path = args.config
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read --config file {path!r}: {exc}") from exc
    known = {key for name in _HANDLERS for key in vars(parser.parse_args([name]))}
    known -= {"command", "config"}
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = _CONFIG_ALIASES.get(key.strip(), key.strip())
        if key not in known:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        if not hasattr(args, key):
            raise DomainError(
                f"{path}:{lineno}: key {key!r} does not apply to this subcommand"
            )
        tokens.append(f"--{_FLAG_NAMES.get(key, key)}={value.strip()}")
    return tokens


def _require(args: argparse.Namespace, names: list[str]) -> None:
    missing = [
        "--" + _FLAG_NAMES.get(n, n) for n in names if getattr(args, n) is None
    ]
    if missing:
        raise DomainError("missing required flags: " + ", ".join(missing))


def _check_label_pair(args: argparse.Namespace) -> None:
    if (args.qs1 is None) != (args.cclass is None):
        raise DomainError("--qs1 and --cclass must be given together")


def _emit(text: str, args: argparse.Namespace) -> None:
    output = getattr(args, "output", None)
    if output is None:
        print(text)
        return
    # An absolute path, or no RATEMEC_OUTPUT_DIR, leaves the path as given.
    path = os.path.join(os.environ.get("RATEMEC_OUTPUT_DIR") or "", output)
    parent = os.path.dirname(path)
    try:
        # open() names what is wrong with an existing parent; makedirs would not.
        if parent and not os.path.exists(parent):
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise DomainError(f"cannot write --output {path!r}: {exc.strerror}") from exc


def _meta_lines(args: argparse.Namespace) -> list[str]:
    echo = " ".join(getattr(args, "argv_echo", []))
    return [f"# ratemec {__version__}", f"# command: {echo}"]


def _problem(
    args: argparse.Namespace, rate: float, cclass: float | None
) -> RateProblem | RateClassProblem:
    if args.qs1 is not None:
        return RateClassProblem(args.qx, args.qy, args.qs1, rate, cclass)
    return RateProblem(args.qx, args.qy, rate)


def _solve(problem: RateProblem | RateClassProblem) -> SolverResult:
    if isinstance(problem, RateClassProblem):
        return solve_mecbrc(problem)
    return solve_mecbr(problem)


def _row(
    args: argparse.Namespace, rate: float, cclass: float | None,
    result: SolverResult | None = None,
) -> tuple:
    """One curve row in ``SCHEMA`` order; no result gives the Infeasible row."""
    head = (args.qx, args.qy, args.qs1, rate, cclass)
    if result is None:
        return head + (None,) * 5 + ("Infeasible", None)
    m = result.mixture
    weights = (None,) * 4 if m is None else (m.p1, m.p2, m.p3, m.p4)
    return head + (result.value, *weights, result.case_label, result.alpha)


def _csv_row(lead: str, result: SolverResult | None) -> str:
    """``_row`` rendered as one CSV line, its five problem cells given
    already rendered as ``lead``; no result gives the Infeasible row."""
    if result is None:
        return lead + ",,,,,,Infeasible,"
    m = result.mixture
    weights = ",,," if m is None else f"{m.p1!r},{m.p2!r},{m.p3!r},{m.p4!r}"
    return f"{lead},{result.value!r},{weights},{result.case_label},{_fmt(result.alpha)}"


def _as_json(args: argparse.Namespace) -> bool:
    return (args.format or "csv") == "json"


def _emit_rows(rows: list, args: argparse.Namespace) -> None:
    """Emit curve rows: ``_row`` tuples for JSON, ``_csv_row`` lines for CSV."""
    if _as_json(args):
        payload = [dict(zip(SCHEMA.split(","), row)) for row in rows]
        text = json.dumps(payload[0] if len(payload) == 1 else payload, indent=2)
    else:
        text = "\n".join(_meta_lines(args) + [SCHEMA] + rows)
    _emit(text, args)


def _grid(start: float, stop: float, steps: int):
    """``np.linspace(start, stop, steps)`` bit for bit, one point at a time.

    Needs steps >= 2.  Point i is ``start + i*step``, or, where the step
    underflows to 0 (a subnormal range), ``start + (i/div)*delta`` as
    numpy does; the last point is ``stop`` itself.
    """
    div = steps - 1
    delta = stop - start
    step = delta / div
    for i in range(div):
        yield start + (i * step if step else i / div * delta)
    yield stop


def cmd_solve(args: argparse.Namespace) -> int:
    _require(args, ["qx", "qy", "rate"])
    _check_label_pair(args)
    result = _solve(_problem(args, args.rate, args.cclass))
    if _as_json(args):
        row = _row(args, args.rate, args.cclass, result)
    else:
        cells = (args.qx, args.qy, args.qs1, args.rate, args.cclass)
        row = _csv_row(",".join(_fmt(v) for v in cells), result)
    _emit_rows([row], args)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, ["var", "start", "stop", "steps", "qx", "qy"])
    by_rate = args.var == "rate"
    if by_rate:
        if args.rate is not None:
            raise DomainError("--rate conflicts with --var rate; set the range with --from/--to")
        _check_label_pair(args)
    else:
        if args.cclass is not None:
            raise DomainError("--cclass conflicts with --var cclass; set the range with --from/--to")
        _require(args, ["rate", "qs1"])
    # Both budgets are >= 0, so a negative --from names no valid point;
    # rejecting it also keeps stop - start from overflowing to inf.
    check_real(args.start, "--from", "[0, inf)")
    check_real(args.stop, "--to", "(-inf, inf)")
    if not (args.start <= args.stop):
        raise DomainError(f"sweep start {args.start!r} must not exceed stop {args.stop!r}")
    if args.steps < 2:
        raise DomainError(f"sweep needs at least 2 steps, got {args.steps!r}")
    if args.steps > MAX_STEPS:
        raise DomainError(f"sweep allows at most {MAX_STEPS} steps, got {args.steps!r}")

    # Only the swept budget's cell changes from row to row, so the other
    # four are rendered once, as the text before and after it.
    as_json = _as_json(args)
    cells = [_fmt(v) for v in (args.qx, args.qy, args.qs1, args.rate, args.cclass)]
    at = 3 if by_rate else 4
    before = ",".join(cells[:at]) + ","
    after = "".join("," + c for c in cells[at + 1:])
    rows = []
    prev_value = -math.inf
    for v in _grid(args.start, args.stop, args.steps):
        rate, cclass = (v, args.cclass) if by_rate else (args.rate, v)
        try:
            result = _solve(_problem(args, rate, cclass))
        except InfeasibleError:
            result = None
        if by_rate and result is not None:
            if result.value < prev_value - ROUND_TOL:
                raise MonotonicityError(
                    f"value decreased from {prev_value!r} to {result.value!r} "
                    f"at rate={rate!r}; the curve must be nondecreasing in the rate budget"
                )
            prev_value = result.value
        if as_json:
            rows.append(_row(args, rate, cclass, result))
        else:
            rows.append(_csv_row(f"{before}{v!r}{after}", result))
    _emit_rows(rows, args)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from .generic_oracle import (
        MAX_GRID, build_polytope, coupling_oracle_theta, enumerate_maps, solve_vertex,
    )

    _require(args, ["qx", "qy", "rate"])
    _check_label_pair(args)
    if args.grid is not None:
        # Before any solving, so a bad --grid costs no vertex solve.
        check_count(args.grid, "grid", f"[2, {MAX_GRID}]")

    closed_value: float | None = None
    try:
        closed_value = _solve(_problem(args, args.rate, args.cclass)).value
    except InfeasibleError:
        pass
    perturb = os.environ.get("RATEMEC_ORACLE_PERTURB")
    if perturb is not None and closed_value is not None:
        closed_value += float(perturb)

    vertex_value: float | None = None
    p_x = Pmf([1.0 - args.qx, args.qx])
    p_y = Pmf([1.0 - args.qy, args.qy])
    table = enumerate_maps(2, 2, p_x, q_s1=args.qs1)
    polytope = build_polytope(table, p_y, rate=args.rate, cclass=args.cclass)
    try:
        vertex_value = solve_vertex(polytope, table, p_x).value
    except InfeasibleError:
        pass

    theta_note: tuple[float, float] | None = None
    if args.grid is not None:
        theta_note = coupling_oracle_theta(args.qx, args.qy, args.grid)

    diff = None if None in (closed_value, vertex_value) else abs(closed_value - vertex_value)
    if (args.format or "csv") == "json":
        payload = {"closed_form_bits": closed_value, "vertex_bits": vertex_value, "abs_diff": diff}
        if theta_note is not None:
            payload["theta_oracle"] = {"theta": theta_note[0], "value_bits": theta_note[1]}
        text = json.dumps(payload, indent=2)
    else:
        lines = _meta_lines(args)
        if theta_note is not None:
            lines.append(
                f"# theta_oracle: theta={theta_note[0]!r} value_bits={theta_note[1]!r}"
            )
        lines.append(ORACLE_SCHEMA)
        cells = (
            "infeasible" if closed_value is None else repr(closed_value),
            "infeasible" if vertex_value is None else repr(vertex_value),
            _fmt(diff),
        )
        lines.append(",".join(cells))
        text = "\n".join(lines)
    _emit(text, args)

    if (closed_value is None) != (vertex_value is None):
        raise OracleMismatchError(
            "feasibility verdicts disagree: closed form says "
            f"{'infeasible' if closed_value is None else 'feasible'}, "
            f"vertex oracle says {'infeasible' if vertex_value is None else 'feasible'}"
        )
    if diff is not None and diff > ORACLE_TOL:
        raise OracleMismatchError(
            f"|closed_form - vertex| = {diff!r} exceeds the {ORACLE_TOL!r} agreement bound"
        )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .mc_sim import SimConfig, simulate, verify_constraints

    _require(args, ["qx", "qy", "rate", "samples", "seed"])
    _check_label_pair(args)
    problem = _problem(args, args.rate, args.cclass)

    if args.mixture is not None:
        parts = args.mixture.split(",")
        if len(parts) != 4:
            raise DomainError(
                f"--mixture needs four comma-separated weights, got {args.mixture!r}"
            )
        try:
            weights = [float(t) for t in parts]
        except ValueError as exc:
            raise DomainError(f"cannot parse --mixture {args.mixture!r}") from exc
        mixture = MapMixture(*weights)
    else:
        mixture = _solve(problem).mixture

    cfg = SimConfig(
        problem=problem,
        mixture=mixture,
        samples=args.samples,
        seed=args.seed,
        streams=args.streams if args.streams is not None else 1,
    )
    report = simulate(cfg)
    slacks = verify_constraints(report, problem)

    payload = report.to_dict()
    if (args.format or "json") == "json":
        payload["slacks"] = slacks
        text = json.dumps(payload, indent=2)
    else:
        # SIM_SCHEMA lists the payload's scalar fields in order, then the slacks.
        scalars = [v for v in payload.values() if not isinstance(v, list)]
        row = ",".join(_fmt(v) for v in scalars + list(slacks.values()))
        text = "\n".join(_meta_lines(args) + [SIM_SCHEMA, row])
    _emit(text, args)
    return 0


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--qx", type=float, default=None, help="source marginal P(X=1) in (0, 0.5]")
    p.add_argument("--qy", type=float, default=None, help="target marginal P(Y=1) in (0, 0.5]")
    p.add_argument("--qs1", type=float, default=None,
                   help="label flip rate in (0, 0.5]; requires --cclass")
    p.add_argument("--rate", type=float, default=None, help="rate budget in bits")
    p.add_argument("--cclass", type=float, default=None,
                   help="classification budget in bits; requires --qs1")
    p.add_argument("--config", default=None,
                   help="key=value defaults file; explicit flags override it")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="output format (csv default; simulate defaults to json)")
    p.add_argument("--output", default=None,
                   help="write to this file instead of stdout; relative paths "
                        "resolve under $RATEMEC_OUTPUT_DIR when set")


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged,
    and building it costs about ten times a parse."""
    parser = _Parser(
        prog="ratemec",
        description="Rate- and classification-constrained maximum-information "
                    "couplings of binary marginals.",
    )
    sub = parser.add_subparsers(dest="command", metavar="{solve,sweep,oracle,simulate}")

    solve_p = sub.add_parser("solve", help="solve one problem instance")
    _add_common_flags(solve_p)

    sweep_p = sub.add_parser("sweep", help="sweep the rate or classification budget")
    _add_common_flags(sweep_p)
    sweep_p.add_argument("--var", choices=("rate", "cclass"), default=None,
                         help="which budget to sweep")
    sweep_p.add_argument("--from", dest="start", type=float, default=None,
                         help="sweep start in bits")
    sweep_p.add_argument("--to", dest="stop", type=float, default=None,
                         help="sweep stop in bits")
    sweep_p.add_argument("--steps", type=int, default=None, help="number of points")

    oracle_p = sub.add_parser("oracle", help="cross-check solvers against the "
                                             "vertex-enumeration oracle")
    _add_common_flags(oracle_p)
    oracle_p.add_argument("--grid", type=int, default=None,
                          help="also run the coupling-cell theta oracle; it "
                               "evaluates both ends of the Frechet interval, "
                               "so the value (2 to 1000000) does not change "
                               "the result")

    sim_p = sub.add_parser("simulate", help="Monte Carlo check of a mixture")
    _add_common_flags(sim_p)
    sim_p.add_argument("--samples", type=int, default=None, help="number of draws")
    sim_p.add_argument("--seed", type=int, default=None, help="RNG seed")
    sim_p.add_argument("--streams", type=int, default=None,
                       help="independent generator streams (default 1)")
    sim_p.add_argument("--mixture", default=None,
                       help="override mixture weights 'p1,p2,p3,p4' "
                            "(default: the solver's optimum)")
    return parser


_HANDLERS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
    "simulate": cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("a subcommand is required")
        if args.config is not None:
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(parser, args) + argv[at:])
        args.argv_echo = argv
        # The domain every subcommand solves on, checked before any problem is built.
        for name in ("qx", "qy", "qs1"):
            if getattr(args, name) is not None:
                check_real(getattr(args, name), f"--{name}", "(0, 0.5]")
        return _HANDLERS[args.command](args)
    except _UsageExit:
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except MonotonicityError as exc:
        print(f"monotonicity violation: {exc}", file=sys.stderr)
        return 3
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
