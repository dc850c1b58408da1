"""ratemec benchmark: one workload, one seed, one closed-loop run.

Usage, from the root of a ratemec checkout:

    python3 perfbench/run.py --workload {sweep,oracle,sample,cold-cli} \\
        --seed N --seconds S --trace {0,1}

The run imports ``ratemec`` from the checkout's ``src`` and never from
anywhere else.  It executes whole cycles of seeded operations, one after
another in this one process, until the operations have taken ``S``
seconds and, untraced, at least ``MIN_OPS`` operations have run.  Every
operation's output is checked.

Stdout ends with two JSON lines.  The first is the full report: the
environment, the measured input mix, latency percentiles with their
sample counts, every failure, the data-row digest and, when traced, the
per-function trace summary.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``, where ``metrics``
holds the end-to-end metrics untraced and the per-layer metrics traced.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

WORKLOAD_NAMES = ("sweep", "oracle", "sample", "cold-cli")
LAYER_MODULES = (
    "errors", "prob_core", "bernoulli_rate", "bernoulli_rate_class",
    "generic_oracle", "mc_sim", "cli",
)
#: Environment hooks of the CLI that the measured code must never see.
HOOK_VARS = ("RATEMEC_ORACLE_PERTURB", "RATEMEC_OUTPUT_DIR")
#: Untraced runs go on past ``--seconds`` until this many operations ran,
#: so that p90 has at least ten samples beyond it.
MIN_OPS = 100
#: Fresh processes that measure set-up, besides the measuring process.
SETUP_CHILDREN = 4
#: Cycles, from the start of the run, whose CLI data rows are digested.
DIGEST_CYCLES = 2
MAX_LISTED_FAILURES = 20
#: What the speed probe takes, in seconds, on the reference host (2 vCPUs,
#: Python 3.11, numpy 2.4; about the median over 3,000 probes).  Timed metrics
#: are scaled as if the host ran the probe in exactly this long.
PROBE_REF_S = 0.003
#: Probes (one per operation) averaged into the host speed at an operation.
PROBE_WINDOW = 16
#: Probes run before and after each set-up.
SETUP_PROBES = 5


class SpeedProbe:
    """Fixed benchmark-owned work whose time tracks the host's speed.

    Shared hosts change speed by up to 2x over seconds to minutes, for
    every process alike.  The probe mixes the three kinds of work the
    ratemec layers do: interpreted Python, small dense linear algebra
    and a pass over a large array.  It never calls ratemec, so no change
    to the program can move it.
    """

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        self.linalg = numpy.linalg
        self.small = rng.random((16, 16))
        self.large = rng.random(20000)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(15000):
            acc += i * i % 7
        for _ in range(30):
            self.linalg.matrix_rank(self.small)
        float((self.large * self.large).sum())
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor that turns a time measured now into reference time."""
        return PROBE_REF_S / statistics.mean(self() for _ in range(SETUP_PROBES))


def normalise(times, probes):
    """Scale each time by the reference over the mean of nearby probes."""
    half = PROBE_WINDOW // 2
    out = []
    for i, t in enumerate(times):
        local = probes[max(0, i - half):i + half]
        out.append(t * PROBE_REF_S / statistics.mean(local))
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in HOOK_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def set_up(root: str, src: str, name: str, seed: int, env: dict):
    """Import ratemec, generate the first cycle, run one untimed warm-up."""
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import ratemec.cli

    import_s = time.perf_counter() - t0
    where = os.path.realpath(ratemec.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"imported ratemec from {where}, not from {src}")
    import workloads

    rm = SimpleNamespace(
        **{m: importlib.import_module(f"ratemec.{m}") for m in LAYER_MODULES}
    )
    workload = workloads.WORKLOADS[name](rm, root, env)
    workload.cycle(seed, 0)
    workload.execute(workload.prepare(workload.warmup(seed)))
    return time.perf_counter() - t0, import_s, workload


def measure_setup_in_children(args, root: str, env: dict, probe) -> list:
    """Set-up times of fresh processes, each scaled by probes around it."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        before = probe.scale()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"],
            capture_output=True, text=True, env=env, cwd=root, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        setup_s = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
        samples.append(setup_s * (before + probe.scale()) / 2.0)
    return samples


class RunState:
    """Everything the timed phase accumulates."""

    def __init__(self, digest_ops: int) -> None:
        self.ops = 0
        self.cycles = 0
        self.attempted = 0
        self.failed_execs = set()
        self.failures = []
        self.latencies = []
        self.probes = []
        self.busy = 0.0
        self.traced_busy = 0.0
        self.untraced_twin_busy = 0.0
        self.child_rss_kb = 0
        self.child_import_s = []
        self.child_run_s = []
        self.digest = hashlib.sha256()
        self.digest_ops = digest_ops
        self.digest_rows = 0
        self.mix = {"ops": 0, "label": 0, "edge": 0, "instances": 0,
                    "infeasible": 0, "kinds": {}, "edges": {}, "cases": {}}

    def fail(self, key, op, problems) -> None:
        if key not in self.failed_execs:
            self.failed_execs.add(key)
            if len(self.failures) < MAX_LISTED_FAILURES:
                self.failures.append(
                    {"op": key[0], "traced": key[1], "kind": op.kind,
                     "edge": op.edge, "args": list(op.args), "problems": problems[:3]}
                )

    def record_primary(self, op, checked, output) -> None:
        mix = self.mix
        mix["ops"] += 1
        mix["label"] += op.label
        mix["edge"] += op.edge is not None
        mix["kinds"][op.kind] = mix["kinds"].get(op.kind, 0) + 1
        if op.edge is not None:
            mix["edges"][op.edge] = mix["edges"].get(op.edge, 0) + 1
        mix["instances"] += checked.instances
        mix["infeasible"] += checked.infeasible
        for case, count in checked.cases.items():
            mix["cases"][case] = mix["cases"].get(case, 0) + count
        if self.ops < self.digest_ops:
            for row in checked.data_rows:
                self.digest.update(row.encode() + b"\n")
            self.digest_rows += len(checked.data_rows)
        self.child_rss_kb = max(self.child_rss_kb, getattr(output, "maxrss_kb", 0))

    def mix_report(self) -> dict:
        mix = self.mix
        ops, inst = max(mix["ops"], 1), max(mix["instances"], 1)
        return {
            "ops": mix["ops"],
            "instances": mix["instances"],
            "label_share": mix["label"] / ops,
            "infeasible_share": mix["infeasible"] / inst,
            "edge_share": mix["edge"] / ops,
            "kind_share": {k: v / ops for k, v in sorted(mix["kinds"].items())},
            "edge_class_share": {k: v / ops for k, v in sorted(mix["edges"].items())},
            "case_share": {k: v / inst for k, v in sorted(mix["cases"].items())},
        }


def timed(fn, *args):
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # an operation failure is recorded, not fatal
        out = exc
    return out, time.perf_counter() - t0


def timed_phase(workload, seed: int, seconds: float, tracer, probe) -> RunState:
    per_cycle = len(workload.cycle(seed, 0))
    st = RunState(DIGEST_CYCLES * per_cycle)
    cycle = 0
    while True:
        for op in workload.cycle(seed, cycle):
            payload = workload.prepare(op)
            idx = st.ops
            if tracer is None:
                order = (False,)
            else:
                order = (True, False) if idx % 2 == 0 else (False, True)
            for traced in order:
                if traced:
                    tracer.op_id = idx
                    with tracer.installed():
                        out, dt = timed(workload.execute, payload, True)
                    st.traced_busy += dt
                    trace = getattr(out, "trace", None)
                    if trace is not None:
                        tracer.merge(trace["summary"])
                        st.child_import_s.append(trace["import_s"])
                        st.child_run_s.append(trace["run_s"])
                else:
                    if tracer is None:
                        st.probes.append(probe())
                    out, dt = timed(workload.execute, payload)
                    if tracer is None:
                        st.busy += dt
                        st.latencies.append(dt)
                    else:
                        st.untraced_twin_busy += dt
                st.attempted += 1
                checked = workload.check(op, payload, out, idx, not traced)
                if checked.problems:
                    st.fail((idx, traced), op, checked.problems)
                if traced:
                    tracer.counters["cli.rows_out"] = (
                        tracer.counters.get("cli.rows_out", 0) + checked.rows_out
                    )
                    tracer.counters["cli.bytes_out"] = (
                        tracer.counters.get("cli.bytes_out", 0) + checked.bytes_out
                    )
                else:
                    st.record_primary(op, checked, out)
            st.ops += 1
        cycle += 1
        if (
            st.busy + st.traced_busy + st.untraced_twin_busy >= seconds
            and (tracer is not None or st.ops >= MIN_OPS)
        ):
            break
    st.cycles = cycle
    for idx, problems in sorted(workload.post_check().items()):
        st.fail((idx, False), _op_at(workload, seed, per_cycle, idx), problems)
    return st


def _op_at(workload, seed, per_cycle, idx):
    return workload.cycle(seed, idx // per_cycle)[idx % per_cycle]


def blas_threads():
    """Thread count of the BLAS numpy loaded, as that library reports it."""
    try:
        from threadpoolctl import threadpool_info

        infos = [i for i in threadpool_info() if i.get("user_api") == "blas"]
        if infos:
            return {"count": infos[0]["num_threads"], "source": "threadpoolctl"}
    except ImportError:
        pass
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return {"count": int(fn()), "source": symbol}
    return {"count": None, "source": "unknown"}


def environment(root: str, src: str) -> dict:
    import numpy

    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(os.path.join(src, "ratemec")):
        dirnames.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def latency_stats(lat) -> dict:
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return {
        "n": len(lat),
        "throughput_ops_per_s": len(lat) / sum(lat),
        "p50_ms": statistics.median(lat) * 1e3,
        "p90_ms": p90 * 1e3,
        "samples_beyond_p90": sum(1 for t in lat if t > p90),
    }


def end_to_end_metrics(st: RunState, setup_samples, in_process: bool) -> dict:
    lat = latency_stats(normalise(st.latencies, st.probes))
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if in_process else st.child_rss_kb
    )
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "throughput_ops_per_s": (lat["throughput_ops_per_s"], "ops/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_p90_ms": (lat["p90_ms"], "ms"),
        "ok_frac": (1.0 - len(st.failed_execs) / st.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer_metrics(st: RunState, tracer, import_s: float) -> dict:
    summary = tracer.summary()
    fns, counters = summary["functions"], summary["counters"]
    ops = max(st.ops, 1)

    def fn(name, key):
        return fns.get(name, {}).get(key, 0)

    def layer_total(layer, key):
        return sum(v[key] for k, v in fns.items() if k.startswith(layer + "."))

    mecbrc_calls = fn("bernoulli_rate_class.solve_mecbrc", "calls")
    sim_total = fn("mc_sim.simulate", "total_s")
    metrics = {
        "bernoulli_rate_class.solve_mecbrc.calls": (mecbrc_calls / ops, "calls/op"),
        "bernoulli_rate_class.solve_mecbrc.self_s": (
            fn("bernoulli_rate_class.solve_mecbrc", "self_s") / ops, "s/op"),
        "bernoulli_rate_class.infeasible_frac": (
            fn("bernoulli_rate_class.solve_mecbrc", "raised") / mecbrc_calls
            if mecbrc_calls else 0.0, "ratio"),
        "bernoulli_rate.solve_mecbr.calls": (
            fn("bernoulli_rate.solve_mecbr", "calls") / ops, "calls/op"),
        "bernoulli_rate.solve_mecbr.self_s": (
            fn("bernoulli_rate.solve_mecbr", "self_s") / ops, "s/op"),
        "prob_core.calls": (layer_total("prob_core", "calls") / ops, "calls/op"),
        "prob_core.self_s": (layer_total("prob_core", "self_s") / ops, "s/op"),
        "generic_oracle.solve_vertex.calls": (
            fn("generic_oracle.solve_vertex", "calls") / ops, "calls/op"),
        "generic_oracle.solve_vertex.self_s": (
            fn("generic_oracle.solve_vertex", "self_s") / ops, "s/op"),
        "generic_oracle.active_sets": (
            counters.get("generic_oracle.active_sets", 0) / ops, "sets/op"),
        "generic_oracle.enumerate_maps.self_s": (
            fn("generic_oracle.enumerate_maps", "self_s") / ops, "s/op"),
        "generic_oracle.build_polytope.self_s": (
            fn("generic_oracle.build_polytope", "self_s") / ops, "s/op"),
        "generic_oracle.coupling_oracle_theta.self_s": (
            fn("generic_oracle.coupling_oracle_theta", "self_s") / ops, "s/op"),
        "mc_sim.simulate.calls": (fn("mc_sim.simulate", "calls") / ops, "calls/op"),
        "mc_sim.simulate.self_s": (fn("mc_sim.simulate", "self_s") / ops, "s/op"),
        "mc_sim.draws_per_s": (
            counters.get("mc_sim.draws", 0) / sim_total if sim_total else 0.0, "draws/s"),
        "cli.main.self_s": (fn("cli.main", "self_s") / ops, "s/op"),
        "cli.rows_out": (counters.get("cli.rows_out", 0) / ops, "rows/op"),
        "cli.bytes_out": (counters.get("cli.bytes_out", 0) / ops, "bytes/op"),
        "process.import_s": (
            statistics.median(st.child_import_s) if st.child_import_s else import_s, "s"),
        "process.run_s": (
            statistics.median(st.child_run_s) if st.child_run_s else 0.0, "s"),
        "trace.overhead_frac": (st.traced_busy / st.untraced_twin_busy - 1.0, "ratio"),
    }
    return metrics, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ratemec", "__init__.py")):
        print(f"error: no ratemec sources under {src}; run from the root of a "
              "ratemec checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0 and not args.setup_only:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in HOOK_VARS:
        os.environ.pop(var, None)
    seed = args.seed % 2**63
    env = child_env(src)

    if args.setup_only:
        setup_s, _, _ = set_up(root, src, args.workload, seed, env)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_s, import_s, workload = set_up(root, src, args.workload, seed, env)
    probe = SpeedProbe()
    setup_samples = [setup_s * probe.scale()]
    if not args.trace:
        setup_samples += measure_setup_in_children(args, root, env, probe)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    wall0 = time.perf_counter()
    st = timed_phase(workload, seed, args.seconds, tracer, probe)
    wall = time.perf_counter() - wall0

    failed = len(st.failed_execs)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root, src),
        "ops": st.ops,
        "cycles": st.cycles,
        "attempted": st.attempted,
        "failed": failed,
        "failed_frac": failed / st.attempted,
        "failures": st.failures,
        "input_mix": st.mix_report(),
        "data_rows_sha256": {
            "sha256": st.digest.hexdigest() if st.digest_rows else None,
            "ops": min(st.ops, st.digest_ops),
            "lines": st.digest_rows,
        },
        "busy_s": st.busy + st.traced_busy + st.untraced_twin_busy,
        "wall_s": wall,
    }
    if tracer is None:
        metrics = end_to_end_metrics(st, setup_samples, workload.in_process)
        report["latency_at_reference_speed"] = latency_stats(
            normalise(st.latencies, st.probes)
        )
        report["latency_wall"] = latency_stats(st.latencies)
        report["speed_probe_s"] = {
            "reference": PROBE_REF_S,
            "min": min(st.probes),
            "median": statistics.median(st.probes),
            "max": max(st.probes),
        }
        report["setup_samples_s"] = setup_samples
    else:
        metrics, summary = per_layer_metrics(st, tracer, import_s)
        report["trace_summary"] = summary
        report["trace_overhead"] = {
            "traced_busy_s": st.traced_busy,
            "untraced_busy_s": st.untraced_twin_busy,
        }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": st.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
