"""The four benchmark workloads: seeded inputs, one operation, its check.

Every workload is a closed loop over *cycles*.  A cycle is a fixed list
of slots (operation kinds, edge classes and cost-driving fractions);
the seed fills in each slot's parameters and the order of the slots.
Runs always execute whole cycles, so every run has exactly the same mix
of kinds, and the fractions that drive cost (the infeasible share of a
label sweep, for instance) step through a golden-ratio sequence with a
seeded offset, so a few cycles already cover their range evenly.  That
is what keeps throughput and the latency percentiles steady from one
seed to the next.

Input generation uses its own closed-form helpers (binary entropy,
saturation rate, label floor), so the inputs depend on the seed alone.
The one exception is ``sample``, whose mixtures are the solver's optima
for the seeded instances, as the workload's definition asks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

import numpy as np

SCHEMA = "qx,qy,qs1,rate,cclass,value_bits,p1,p2,p3,p4,case_label,alpha"
ORACLE_SCHEMA = "closed_form_bits,vertex_bits,abs_diff"
SWEEP_STEPS = 1001
THETA_GRID = 100001
SIM_DRAWS = 10**6

#: Closed form and vertex oracle must agree this tightly (the CLI's ORACLE_TOL).
VALUE_TOL = 1e-8
#: Polytope rows must hold this tightly (the oracle's EQ_TOL and INEQ_TOL).
ROW_TOL = 1e-10
#: Returned weights must reproduce the returned value this tightly.
REPRO_TOL = 1e-10
#: Monte Carlo estimates may miss their target by this many standard errors.
Z_BOUND = 6.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

TRACE_MARKER = "PERFBENCH_TRACE "


# --------------------------------------------------------------------------
# Closed-form helpers for input generation (independent of the program).


def hb(t: float) -> float:
    """Binary entropy in bits."""
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return -t * math.log2(t) - (1.0 - t) * math.log2(1.0 - t)


def marginal(rng) -> float:
    """A marginal in (0.01, 1/2]."""
    return float(0.5 - 0.49 * rng.random())


def cap_plus(qx: float, qy: float) -> float:
    return min(qy / qx, (1.0 - qy) / (1.0 - qx))


def saturation(qx: float, qy: float) -> float:
    """Rate beyond which the marginals, not R, limit the coupling."""
    return hb(qx) * cap_plus(qx, qy)


def agreement(qx: float, qs1: float) -> float:
    """P(constant output agrees with the label S = X xor S1)."""
    return (1.0 - qx) * (1.0 - qs1) + qx * qs1


def max_informative(qx: float, qy: float) -> float:
    """Largest p1 + p2 the marginal rows allow."""
    return 1.0 if qx < 0.5 and qy >= qx else cap_plus(qx, qy)


def min_cclass(qx: float, qy: float, qs1: float, rate: float) -> float:
    """Smallest label budget that the rate budget can meet."""
    hm = hb(agreement(qx, qs1))
    gap = hm - hb(qs1)
    return hm - gap * min(rate / hb(qx), max_informative(qx, qy))


def edge_rate(rng, qx: float, qy: float, edge) -> float:
    """R = 0 or R = saturation for those edge classes, else U(0, 1.2 sat)."""
    sat = saturation(qx, qy)
    draw = 1.2 * sat * float(rng.random())
    return {"rate_zero": 0.0, "rate_at_saturation": sat}.get(edge, draw)


def feasible_cclass(rng, qx: float, qy: float, qs1: float, rate: float) -> float:
    """A label budget between what the rate allows and just past H_b(m)."""
    low, high = min_cclass(qx, qy, qs1, rate), hb(agreement(qx, qs1)) + 0.05
    return low + (high - low) * (0.05 + 0.95 * float(rng.random()))


def _offset(seed: int, slot: int) -> float:
    return float(np.random.default_rng([seed, 1 << 20, slot]).random())


def spread(seed: int, slot: int, index: int, lo: float, hi: float) -> float:
    """Golden-ratio sequence over cycles, with a seeded offset per slot."""
    return lo + (hi - lo) * ((_offset(seed, slot) + index * GOLDEN) % 1.0)


def cli_argv(cmd, qx, qy, rate=None, qs1=None, cclass=None, extra=()):
    argv = [cmd, "--qx", repr(qx), "--qy", repr(qy)]
    if rate is not None:
        argv += ["--rate", repr(rate)]
    if qs1 is not None:
        argv += ["--qs1", repr(qs1), "--cclass", repr(cclass)]
    return tuple(argv) + tuple(extra)


def case_class(label: str) -> str:
    """PartI, PartII, RateBound, MarginalBound, Infeasible or Vertex."""
    return label.split("-")[0]


# --------------------------------------------------------------------------
# Operations and check results.


@dataclass(frozen=True)
class Op:
    """One seeded operation.  ``args`` is a CLI argv or a parameter tuple."""

    kind: str
    args: tuple
    label: bool
    edge: str | None = None


@dataclass
class Checked:
    """What a check found, plus what the operation contributes to the mix."""

    problems: list = field(default_factory=list)
    instances: int = 1
    infeasible: int = 0
    cases: Counter = field(default_factory=Counter)
    data_rows: list = field(default_factory=list)
    rows_out: int = 0
    bytes_out: int = 0


@dataclass(frozen=True)
class CliRun:
    """Exit code and output of one CLI invocation."""

    code: int
    stdout: str
    stderr: str
    maxrss_kb: int = 0
    trace: dict | None = None


def run_cli_inprocess(main, argv) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return CliRun(code, out.getvalue(), err.getvalue())


def run_child(cmd, env, cwd) -> CliRun:
    """Run a child to completion and read its peak resident memory."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd
    )
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err.decode()
    trace = None
    kept = []
    for line in stderr.splitlines(keepends=True):
        if line.startswith(TRACE_MARKER):
            trace = json.loads(line[len(TRACE_MARKER):])
        else:
            kept.append(line)
    return CliRun(proc.returncode, out.decode(), "".join(kept), usage.ru_maxrss, trace)


def split_output(text: str):
    """(metadata lines, other lines) of CLI output."""
    lines = text.splitlines()
    return [ln for ln in lines if ln.startswith("#")], [
        ln for ln in lines if not ln.startswith("#")
    ]


# --------------------------------------------------------------------------
# Workloads.


class Workload:
    """Base class: cycles of seeded slots, executed and checked one by one."""

    name = ""
    in_process = True

    def __init__(self, ratemec_modules, root: str, env: dict) -> None:
        self.rm = ratemec_modules
        self.root = root
        self.env = env

    def slots(self, seed: int, index: int, rng) -> list:
        raise NotImplementedError

    def cycle(self, seed: int, index: int) -> list:
        rng = np.random.default_rng([seed, index])
        ops = self.slots(seed, index, rng)
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup(self, seed: int) -> Op:
        """Slot 0 of cycle 0, so set-up always warms up the same kind."""
        return self.slots(seed, 0, np.random.default_rng([seed, 0]))[0]

    def prepare(self, op: Op):
        """Untimed: turn an operation into what ``execute`` consumes."""
        return op.args

    def execute(self, payload, traced: bool = False):
        raise NotImplementedError

    def check(self, op: Op, payload, output, index: int, primary: bool) -> Checked:
        raise NotImplementedError

    def post_check(self) -> dict:
        """Checks run after the timed phase: op index -> problems."""
        return {}

    # Shared oracle helpers (called only from checks, never timed).

    def vertex_value(self, qx, qy, qs1, rate, cclass):
        """2x2 vertex-oracle value, or None when it finds no feasible point."""
        go, pc = self.rm.generic_oracle, self.rm.prob_core
        p_x = pc.Pmf(np.array([1.0 - qx, qx]))
        p_y = pc.Pmf(np.array([1.0 - qy, qy]))
        table = go.enumerate_maps(2, 2, p_x, q_s1=qs1)
        poly = go.build_polytope(table, p_y, rate=rate, cclass=cclass)
        try:
            return go.solve_vertex(poly, table, p_x).value
        except self.rm.errors.InfeasibleError:
            return None

    def closed_form_case(self, qx, qy, qs1, rate, cclass) -> str:
        try:
            if qs1 is None:
                res = self.rm.bernoulli_rate.solve_mecbr(
                    self.rm.bernoulli_rate.RateProblem(qx, qy, rate)
                )
            else:
                res = self.rm.bernoulli_rate_class.solve_mecbrc(
                    self.rm.bernoulli_rate_class.RateClassProblem(qx, qy, qs1, rate, cclass)
                )
        except self.rm.errors.InfeasibleError:
            return "Infeasible"
        return case_class(res.case_label)

    def check_oracle_run(self, op: Op, run: CliRun, res: Checked) -> None:
        """Check one ``ratemec oracle`` invocation (2x2)."""
        a = _argdict(op.args)
        if run.code != 0:
            res.problems.append(f"exit {run.code}: {run.stderr.strip()[:200]}")
            return
        meta, data = split_output(run.stdout)
        res.data_rows = data
        if len(data) != 2 or data[0] != ORACLE_SCHEMA:
            res.problems.append(f"bad oracle output {data!r:.200}")
            return
        closed, vertex, _ = data[1].split(",")
        if (closed == "infeasible") != (vertex == "infeasible"):
            res.problems.append(f"verdicts differ: {data[1]}")
            return
        res.rows_out, res.bytes_out = 1, len(run.stdout.encode())
        if closed == "infeasible":
            res.infeasible = 1
            res.cases["Infeasible"] += 1
        else:
            diff = abs(float(closed) - float(vertex))
            if diff > VALUE_TOL:
                res.problems.append(f"closed form and vertex differ by {diff!r}")
            res.cases[self.closed_form_case(*_instance(a))] += 1
        if "--grid" in a:
            theta = [ln for ln in meta if ln.startswith("# theta_oracle:")]
            if len(theta) != 1:
                res.problems.append("missing theta_oracle line")
            elif closed != "infeasible":
                best = float(theta[0].rsplit("value_bits=", 1)[1])
                if best < float(vertex) - VALUE_TOL:
                    res.problems.append(
                        f"unconstrained theta value {best!r} below constrained {vertex}"
                    )


def _argdict(argv) -> dict:
    """Flag -> value for a CLI argv (flags without a value map to None)."""
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            out[tok] = None if nxt is None or nxt.startswith("--") else nxt
    return out


def _instance(a: dict):
    """(qx, qy, qs1, rate, cclass) from parsed flags."""
    f = lambda k: None if a.get(k) is None else float(a[k])  # noqa: E731
    return f("--qx"), f("--qy"), f("--qs1"), f("--rate"), f("--cclass")


class SweepWorkload(Workload):
    """``ratemec.cli.main`` in process, one 1,001-point sweep per operation."""

    name = "sweep"
    rows_checked_per_op = 2

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.sampled = []

    def slots(self, seed, index, rng):
        ops = []
        for edge in ("qx_half", "rate_at_saturation", None, None):
            qx = 0.5 if edge == "qx_half" else marginal(rng)
            qy = marginal(rng)
            top = saturation(qx, qy) * (1.0 if edge == "rate_at_saturation" else 1.2)
            ops.append(Op("sweep-rate", _sweep("rate", top, qx, qy), False, edge))
        for slot, edge in enumerate(("cclass_at_floor", "qs1_half", "below_floor", None)):
            qx, qy = marginal(rng), marginal(rng)
            qs1 = 0.5 if edge == "qs1_half" else marginal(rng)
            top = 1.2 * saturation(qx, qy)
            floor, hm = hb(qs1), hb(agreement(qx, qs1))
            if edge == "cclass_at_floor":
                cclass = floor
            elif edge == "qs1_half":
                cclass = 1.0 + 0.1 * float(rng.random())
            elif edge == "below_floor":
                cclass = floor * (0.5 + 0.5 * float(rng.random()))
            else:
                # The first `share` of the rate grid cannot fund the label floor.
                # Kept below 0.4 so this slot stays among the costly sweeps.
                share = spread(seed, slot, index, 0.0, 0.4)
                cclass = hm - (hm - floor) * share * top / hb(qx)
            edge = None if edge == "below_floor" else edge
            ops.append(
                Op("sweep-label-rate", _sweep("rate", top, qx, qy, qs1=qs1, cclass=cclass), True, edge)
            )
        for slot, edge in enumerate(("rate_zero", "qs1_half", None, None), start=4):
            qx, qy = marginal(rng), marginal(rng)
            qs1 = 0.5 if edge == "qs1_half" else marginal(rng)
            rate = 0.0 if edge == "rate_zero" else 1.2 * saturation(qx, qy) * float(rng.random())
            # The first `share` of the cclass grid lies below what the rate
            # allows.  A narrow band keeps these sweeps alike in cost, so the
            # median latency falls inside this kind, not on a kind boundary.
            share = spread(seed, slot, index, 0.4, 0.6)
            top = min_cclass(qx, qy, qs1, rate) / share
            ops.append(
                Op("sweep-cclass", _sweep("cclass", top, qx, qy, qs1=qs1, rate=rate), True, edge)
            )
        return ops

    def execute(self, payload, traced=False):
        return run_cli_inprocess(self.rm.cli.main, payload)

    def check(self, op, payload, output, index, primary):
        res = Checked(instances=0)
        if not isinstance(output, CliRun):
            res.problems.append(f"raised {output!r:.200}")
            return res
        if output.code != 0:
            res.problems.append(f"exit {output.code}: {output.stderr.strip()[:200]}")
            return res
        _, data = split_output(output.stdout)
        res.data_rows = data
        res.bytes_out = len(output.stdout.encode())
        if not data or data[0] != SCHEMA:
            res.problems.append("bad schema header")
            return res
        rows = data[1:]
        res.rows_out = res.instances = len(rows)
        if len(rows) != SWEEP_STEPS:
            res.problems.append(f"{len(rows)} rows, expected {SWEEP_STEPS}")
        parsed = []
        prev = None
        for row in rows:
            cells = row.split(",")
            if len(cells) != 12:
                res.problems.append(f"row has {len(cells)} cells: {row!r:.120}")
                return res
            value = float(cells[5]) if cells[5] else None
            res.cases[case_class(cells[10])] += 1
            if value is None:
                res.infeasible += 1
            elif op.kind != "sweep-cclass":
                if prev is not None and value < prev:
                    res.problems.append(f"value decreased from {prev!r} to {value!r}")
                prev = value
            parsed.append(
                tuple(float(c) if c else None for c in cells[:5]) + (value,)
            )
        if primary:
            rng = np.random.default_rng([index, len(parsed)])
            for i in rng.choice(len(parsed), self.rows_checked_per_op, replace=False):
                self.sampled.append((index, parsed[int(i)]))
        return res

    def post_check(self):
        problems = {}
        for index, (qx, qy, qs1, rate, cclass, value) in self.sampled:
            expect = self.vertex_value(qx, qy, qs1, rate, cclass)
            if (expect is None) != (value is None):
                msg = f"row {qx, qy, qs1, rate, cclass}: sweep says {value!r}, vertex says {expect!r}"
            elif value is not None and abs(value - expect) > VALUE_TOL:
                msg = f"row {qx, qy, qs1, rate, cclass}: |{value!r} - {expect!r}| > {VALUE_TOL}"
            else:
                continue
            problems.setdefault(index, []).append(msg)
        return problems


def _sweep(var, top, qx, qy, qs1=None, cclass=None, rate=None):
    argv = ["sweep", "--var", var, "--from", "0.0", "--to", repr(top),
            "--steps", str(SWEEP_STEPS), "--qx", repr(qx), "--qy", repr(qy)]
    if rate is not None:
        argv += ["--rate", repr(rate)]
    if qs1 is not None:
        argv += ["--qs1", repr(qs1)]
    if cclass is not None:
        argv += ["--cclass", repr(cclass)]
    return tuple(argv)


#: Library solves per oracle cycle: (n, k, label budget).  Four 4x2 solves
#: sit at the 85-95th percentile, so p90 falls inside one kind.
VERTEX_SHAPES = ((3, 2, False), (2, 3, True), (4, 2, False), (4, 2, False),
                 (4, 2, False), (4, 2, False), (2, 4, False), (3, 3, False))


class OracleWorkload(Workload):
    """2x2 ``ratemec oracle`` runs in process plus non-binary vertex solves."""

    name = "oracle"

    def slots(self, seed, index, rng):
        ops = []
        rate_edges = ("qx_half", "rate_zero", "rate_at_saturation") + (None,) * 9
        label_edges = ("qs1_half", "cclass_at_floor") + (None,) * 10
        for edge in rate_edges:
            ops.append(self._oracle_2x2(rng, False, edge, ()))
        for edge in label_edges:
            ops.append(self._oracle_2x2(rng, True, edge, ()))
        for label in (False, True) * 4:
            ops.append(self._oracle_2x2(rng, label, None, ("--grid", str(THETA_GRID))))
        for n, k, label in VERTEX_SHAPES:
            ops.append(_vertex_op(rng, n, k, label))
        return ops

    @staticmethod
    def _oracle_2x2(rng, label, edge, extra):
        qx = 0.5 if edge == "qx_half" else marginal(rng)
        qy = marginal(rng)
        rate = edge_rate(rng, qx, qy, edge)
        if not label:
            return Op("oracle-2x2", cli_argv("oracle", qx, qy, rate, extra=extra), False, edge)
        qs1 = 0.5 if edge == "qs1_half" else marginal(rng)
        floor, hm = hb(qs1), hb(agreement(qx, qs1))
        if edge == "cclass_at_floor":
            cclass = floor
        else:
            # Both sides of the floor H_b(q_s1), up to just past H_b(m).
            cclass = max(0.0, floor - 0.05 + (hm - floor + 0.1) * float(rng.random()))
        argv = cli_argv("oracle", qx, qy, rate, qs1, cclass, extra=extra)
        return Op("oracle-2x2-label", argv, True, edge)

    def prepare(self, op):
        if op.kind.startswith("oracle-2x2"):
            return op.args
        n, k, px, py, rate, qs1, cclass = op.args
        pc = self.rm.prob_core
        return n, k, pc.Pmf(np.array(px)), pc.Pmf(np.array(py)), rate, qs1, cclass

    def execute(self, payload, traced=False):
        if isinstance(payload[0], str):
            return run_cli_inprocess(self.rm.cli.main, payload)
        n, k, p_x, p_y, rate, qs1, cclass = payload
        go = self.rm.generic_oracle
        table = go.enumerate_maps(n, k, p_x, q_s1=qs1)
        poly = go.build_polytope(table, p_y, rate=rate, cclass=cclass)
        return table, poly, go.solve_vertex(poly, table, p_x)

    def check(self, op, payload, output, index, primary):
        res = Checked()
        if isinstance(output, BaseException):
            res.problems.append(f"raised {output!r:.200}")
        elif op.kind.startswith("oracle-2x2"):
            self.check_oracle_run(op, output, res)
        else:
            _check_vertex_solve(payload, output, res)
        return res


def _vertex_op(rng, n, k, label):
    """A non-binary instance that is feasible by construction.

    A random mixture w0 over all maps (half its mass on constant maps)
    fixes p_Y; the budgets are set at or above what w0 spends, so w0 is
    a witness that the polytope is non-empty.
    """
    px = 0.1 / n + 0.9 * rng.dirichlet(np.ones(n))
    maps = np.array(list(product(range(k), repeat=n)))
    const = np.all(maps == maps[:, :1], axis=1)
    w0 = 0.5 * rng.dirichlet(np.ones(len(maps)))
    w0[const] += 0.5 * rng.dirichlet(np.ones(int(const.sum())))
    out = np.zeros((len(maps), k))
    for u, f in enumerate(maps):
        np.add.at(out[u], f, px)
    py = w0 @ out
    ent = np.array([-sum(p * math.log2(p) for p in row if p > 0) for row in out])
    rate = float(w0 @ ent) * (1.0 + 0.3 * float(rng.random()))
    qs1 = cclass = None
    if label:
        qs1 = marginal(rng)
        cls = np.array([
            sum(
                (px[0] * (f[0] == y) + px[1] * (f[1] == y))
                * hb(
                    (px[0] * (f[0] == y) * qs1 + px[1] * (f[1] == y) * (1 - qs1))
                    / (px[0] * (f[0] == y) + px[1] * (f[1] == y))
                )
                for y in set(f)
            )
            for f in maps
        ])
        cclass = float(w0 @ cls) * (1.0 + 0.1 * float(rng.random()))
    args = (n, k, tuple(map(float, px)), tuple(map(float, py)), rate, qs1, cclass)
    return Op(f"vertex-{n}x{k}", args, label)


def _check_vertex_solve(payload, output, res: Checked) -> None:
    table, poly, result = output
    _, _, p_x, _, _, _, _ = payload
    w = np.asarray(result.weights, dtype=float)
    res.cases["Vertex"] += 1
    if w.min() < -ROW_TOL or abs(w.sum() - 1.0) > ROW_TOL:
        res.problems.append(f"weights are not a distribution: {w!r:.200}")
    eq = float(np.max(np.abs(poly.a_eq @ w - poly.b_eq)))
    ub = float(np.max(poly.a_ub @ w - poly.b_ub))
    if eq > ROW_TOL or ub > ROW_TOL:
        res.problems.append(f"weights break a polytope row: eq {eq!r}, ub {ub!r}")
    joint = np.zeros((table.n, table.k))
    for u, f in enumerate(table.maps):
        joint[np.arange(table.n), f] += w[u]
    joint *= p_x.masses[:, None]
    indep = joint.sum(axis=1)[:, None] * joint.sum(axis=0)[None, :]
    pos = joint > 0
    info = float(np.sum(joint[pos] * np.log2(joint[pos] / indep[pos])))
    if abs(info - result.value) > REPRO_TOL:
        res.problems.append(f"weights give {info!r} bits, solver says {result.value!r}")


class SampleWorkload(Workload):
    """One ``simulate`` call at 10^6 draws per operation."""

    name = "sample"

    def slots(self, seed, index, rng):
        rate_edge = ("qx_half", "rate_zero", "rate_at_saturation", None)[index % 4]
        label_edge = ("qs1_half", None)[index % 2]
        ops = []
        for label, streams, edge in (
            (False, 1, rate_edge), (False, 2, None), (True, 1, label_edge), (True, 2, None)
        ):
            qx = 0.5 if edge == "qx_half" else marginal(rng)
            qy = marginal(rng)
            rate = edge_rate(rng, qx, qy, edge)
            qs1 = cclass = None
            if label:
                qs1 = 0.5 if edge == "qs1_half" else marginal(rng)
                cclass = feasible_cclass(rng, qx, qy, qs1, rate)
            sim_seed = int(rng.integers(2**32))
            ops.append(Op("simulate", (qx, qy, qs1, rate, cclass, streams, sim_seed), label, edge))
        return ops

    def prepare(self, op):
        qx, qy, qs1, rate, cclass, streams, sim_seed = op.args
        br, brc = self.rm.bernoulli_rate, self.rm.bernoulli_rate_class
        if qs1 is None:
            problem = br.RateProblem(qx, qy, rate)
            result = br.solve_mecbr(problem)
        else:
            problem = brc.RateClassProblem(qx, qy, qs1, rate, cclass)
            result = brc.solve_mecbrc(problem)
        cfg = self.rm.mc_sim.SimConfig(
            problem=problem, mixture=result.mixture, samples=SIM_DRAWS,
            seed=sim_seed, streams=streams,
        )
        return cfg, case_class(result.case_label)

    def execute(self, payload, traced=False):
        return self.rm.mc_sim.simulate(payload[0])

    def check(self, op, payload, output, index, primary):
        cfg, case = payload
        res = Checked()
        res.cases[case] += 1
        if isinstance(output, BaseException):
            res.problems.append(f"raised {output!r:.200}")
            return res
        rep = output
        if rep.h_y_given_xu_hat != 0.0:
            res.problems.append(f"H(Y|X,U) estimate {rep.h_y_given_xu_hat!r} is not 0")
        se_qy = math.sqrt(float(np.sum(rep.cell_se[:, :, 1, :] ** 2)))
        if abs(rep.q_y_hat - cfg.problem.q_y) > Z_BOUND * se_qy + 1e-12:
            res.problems.append(
                f"q_y estimate {rep.q_y_hat!r} vs {cfg.problem.q_y!r}, se {se_qy!r}"
            )
        # Linearised bound on H(Y|U): dH/dc_uy = -log2 P(y|u), times each
        # (u, y) cell's standard error.
        n = float(rep.samples)
        cells = rep.counts.sum(axis=(1, 3)) / n
        cond = np.divide(cells, cells.sum(axis=1, keepdims=True),
                         out=np.zeros_like(cells), where=cells > 0)
        grad = np.where(cells > 0, -np.log2(np.where(cond > 0, cond, 1.0)), 0.0)
        se_rate = float(np.sum(np.abs(grad) * np.sqrt(cells * (1.0 - cells) / n)))
        if rep.h_y_given_u_hat > cfg.problem.rate + Z_BOUND * se_rate + 1e-12:
            res.problems.append(
                f"H(Y|U) estimate {rep.h_y_given_u_hat!r} over budget "
                f"{cfg.problem.rate!r} by more than {Z_BOUND} x {se_rate!r}"
            )
        return res


class ColdCliWorkload(Workload):
    """A fresh ``python -m ratemec`` process per operation."""

    name = "cold-cli"
    in_process = False

    def slots(self, seed, index, rng):
        rate_edge = ("qx_half", "rate_zero", "rate_at_saturation", None)[index % 4]
        ops = [self._solve(rng, rate_edge), self._solve(rng, None)]
        qx, qy, qs1 = marginal(rng), marginal(rng), marginal(rng)
        label_edge = ("qs1_half", None)[index % 2]
        if label_edge:
            qs1 = 0.5
        rate = 1.2 * saturation(qx, qy) * float(rng.random())
        cclass = feasible_cclass(rng, qx, qy, qs1, rate)
        ops.append(Op("solve-label", cli_argv("solve", qx, qy, rate, qs1, cclass), True, label_edge))
        qx, qy, qs1 = marginal(rng), marginal(rng), marginal(rng)
        rate = 1.2 * saturation(qx, qy) * float(rng.random())
        floor_edge = ("cclass_at_floor", None)[index % 2]
        cclass = hb(qs1) if floor_edge else hb(qs1) * (0.5 + 0.5 * float(rng.random()))
        ops.append(Op("solve-label", cli_argv("solve", qx, qy, rate, qs1, cclass), True, floor_edge))
        ops.append(OracleWorkload._oracle_2x2(rng, False, None, ()))
        ops.append(OracleWorkload._oracle_2x2(rng, True, None, ()))
        return ops

    @staticmethod
    def _solve(rng, edge):
        qx = 0.5 if edge == "qx_half" else marginal(rng)
        qy = marginal(rng)
        return Op("solve", cli_argv("solve", qx, qy, edge_rate(rng, qx, qy, edge)), False, edge)

    def execute(self, payload, traced=False):
        if traced:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
            cmd = [sys.executable, launcher, *payload]
        else:
            cmd = [sys.executable, "-m", "ratemec", *payload]
        return run_child(cmd, self.env, self.root)

    def check(self, op, payload, output, index, primary):
        res = Checked()
        if isinstance(output, BaseException):
            res.problems.append(f"raised {output!r:.200}")
        elif op.kind.startswith("oracle"):
            self.check_oracle_run(op, output, res)
        else:
            self._check_solve(op, output, res)
        return res

    def _check_solve(self, op, run: CliRun, res: Checked) -> None:
        qx, qy, qs1, rate, cclass = _instance(_argdict(op.args))
        expect = self.vertex_value(qx, qy, qs1, rate, cclass)
        want = 0 if expect is not None else 2
        if run.code != want:
            res.problems.append(
                f"exit {run.code}, vertex oracle implies {want}: {run.stderr.strip()[:200]}"
            )
            return
        _, data = split_output(run.stdout)
        res.data_rows = data
        res.bytes_out = len(run.stdout.encode())
        if expect is None:
            res.infeasible = 1
            res.cases["Infeasible"] += 1
            return
        if len(data) != 2 or data[0] != SCHEMA:
            res.problems.append(f"bad solve output {data!r:.200}")
            return
        res.rows_out = 1
        cells = data[1].split(",")
        res.cases[case_class(cells[10])] += 1
        value = float(cells[5])
        if abs(value - expect) > VALUE_TOL:
            res.problems.append(f"solve says {value!r}, vertex oracle {expect!r}")


WORKLOADS = {
    w.name: w for w in (SweepWorkload, OracleWorkload, SampleWorkload, ColdCliWorkload)
}
