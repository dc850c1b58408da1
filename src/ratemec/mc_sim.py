"""Monte Carlo validation of map-mixture couplings.

Draws (U, X) pairs, applies the deterministic binary maps to produce Y,
flips X with a noisy label channel to produce S, and estimates every
quantity the analytic solvers promise: the Y marginal, I(X;Y), the rate
row H(Y|U), and both label entropies H(S|Y) and H(S|Y,U).  The sampler
counts the 16 (U, X, S1) cells of the draws and places each count at
Y = map_U(X) and S = X xor S1 in the (U, X, Y, S) table.  Because Y is a
deterministic function of (X, U), the empirical H(Y | X, U) is exactly
zero when that placement is right, which makes it a sharp self-check on
where the counts land; the draws themselves are those of the per-draw
pipeline this sampler replaced, bit for bit.

Streams use numpy's PCG64 generator seeded through SeedSequence, so a
report is reproducible bit for bit from (seed, samples, streams).
Entropy estimates are plug-in (maximum likelihood) without bias
correction; with at most 16 non-empty cells the bias is far below the
sampling noise at the scales these runs target.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .bernoulli_rate import MapMixture, RateProblem
from .bernoulli_rate_class import RateClassProblem
from .generic_oracle import BINARY_MAPS
from .prob_core import (
    BitsValue, JointPmf, check_count, check_type, conditional_entropy, mutual_information,
)

#: Draws per chunk of a stream; a stream of at most this many draws
#: makes one call per variable.
_CHUNK = 1 << 20

# Codes per bincount call: bincount casts its uint8 input to intp, so a
# whole chunk would make an 8 MiB temporary; a slice makes 512 KiB.
_COUNT_SLICE = 1 << 16

#: Ceiling on the draws of one run, checked before any draw: 10^9 draws
#: take about 9 s (8.8 s measured on 2 shared vCPUs).
MAX_SAMPLES = 10**9


def _as_array(mixture: MapMixture) -> np.ndarray:
    return np.array([mixture.p1, mixture.p2, mixture.p3, mixture.p4], dtype=float)


@dataclass(frozen=True)
class SimConfig:
    """Inputs for one reproducible sampling run.

    ``problem`` supplies the marginals and budgets; a rate-only problem
    has no label model, in which case the label channel defaults to the
    uninformative flip rate 1/2 (S is then independent of everything and
    both label entropies estimate 1 bit).  ``streams`` splits the draw
    across independently seeded child generators without changing the
    aggregate distribution; counts merge by summation.
    """

    problem: RateProblem | RateClassProblem
    mixture: MapMixture
    samples: int
    seed: int
    streams: int = 1

    def __post_init__(self) -> None:
        check_type(self.problem, "problem", RateProblem, RateClassProblem)
        check_type(self.mixture, "mixture", MapMixture)
        check_count(self.samples, "samples", f"[1, {MAX_SAMPLES}]")
        check_count(self.seed, "seed", "[0, inf)")
        check_count(self.streams, "streams", "[1, inf)")


@dataclass(frozen=True, eq=False)
class SimReport:
    """Estimates plus the raw (U, X, Y, S) cell counts behind them."""

    q_x: float
    q_y: float
    q_s1: float
    rate: float
    cclass: float | None
    mixture: MapMixture
    samples: int
    seed: int
    streams: int
    generator: str = field(default="pcg64", kw_only=True)
    q_y_hat: float
    mi_xy_hat: BitsValue
    h_y_given_u_hat: BitsValue
    h_y_given_xu_hat: BitsValue
    h_s_given_y_hat: BitsValue
    h_s_given_yu_hat: BitsValue
    counts: np.ndarray = field(repr=False)
    cell_se: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        """JSON-ready view, keys in field order; arrays become nested lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["mixture"] = list(_as_array(self.mixture))
        out["counts"], out["cell_se"] = self.counts.tolist(), self.cell_se.tolist()
        return out


def _draw_counts(cfg: SimConfig, q_x: float, q_s1: float) -> np.ndarray:
    """The (U, X, Y, S) counts table of ``cfg``'s draws.

    Each stream draws in chunks of at most ``_CHUNK`` draws, in a fixed
    order per chunk: U, then X, then the label flip S1, one
    ``rng.random(k)`` each, so a (seed, samples, streams) triple always
    yields the same table.  U is what ``rng.choice(4, p=weights)`` would
    draw from the same generator: ``choice`` draws ``rng.random(k)`` and
    counts the cdf entries <= each draw, and cdf[3] is exactly 1.  A
    chunk reduces to one uint8 code (u << 2) | (x << 1) | s1 per draw,
    counted in slices of ``_COUNT_SLICE`` codes; the 16 code counts are
    placed in the table once per call.
    """
    base, extra = divmod(cfg.samples, cfg.streams)
    cdf = _as_array(cfg.mixture).cumsum()
    cdf /= cdf[-1]
    # Every chunk reuses these two buffers, sized for the longest chunk.
    width = min(_CHUNK, base + (1 if extra else 0))
    draws = np.empty(width)
    codes = np.empty(width, dtype=np.uint8)
    code_counts = np.zeros(16, dtype=np.int64)
    # Only the first min(streams, samples) streams draw anything.
    for i in range(min(cfg.streams, cfg.samples)):
        size = base + (1 if i < extra else 0)
        # Stream i's seed is bitwise the i-th child of SeedSequence.spawn.
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(i,) if cfg.streams > 1 else ())
        rng = np.random.Generator(np.random.PCG64(seq))
        for start in range(0, size, _CHUNK):
            k = min(_CHUNK, size - start)
            r, code = draws[:k], codes[:k]
            rng.random(out=r)
            np.greater_equal(r, cdf[0], out=code)
            code += r >= cdf[1]
            code += r >= cdf[2]
            rng.random(out=r)
            code <<= 1
            code |= r < q_x
            rng.random(out=r)
            code <<= 1
            code |= r < q_s1
            for lo in range(0, k, _COUNT_SLICE):
                code_counts += np.bincount(code[lo:lo + _COUNT_SLICE], minlength=16)

    # Y is BINARY_MAPS[u, x] and S is X xor S1: one table cell per code.
    u, x, s1 = np.indices((4, 2, 2)).reshape(3, 16)
    counts = np.zeros((4, 2, 2, 2), dtype=np.int64)
    counts[u, x, BINARY_MAPS[u, x], x ^ s1] = code_counts
    return counts


def simulate(cfg: SimConfig) -> SimReport:
    """Run the sampling pipeline and estimate every tracked entropy.

    :class:`SimConfig` caps ``samples`` at ``MAX_SAMPLES``, which bounds
    the time; the draws go in chunks of at most ``_CHUNK``, which bounds
    the memory.
    """
    check_type(cfg, "cfg", SimConfig)
    q_x = cfg.problem.q_x
    q_y = cfg.problem.q_y
    q_s1 = getattr(cfg.problem, "q_s1", 0.5)
    cclass = getattr(cfg.problem, "cclass", None)

    counts = _draw_counts(cfg, q_x, q_s1)

    n = float(cfg.samples)
    cells = counts / n
    q_y_hat = float(cells.sum(axis=(0, 1, 3))[1])
    mi_xy = mutual_information(JointPmf(counts.sum(axis=(0, 3)) / n))
    # The conditioning variable goes on the first axis so given="x" reads
    # as "condition on the row variable".
    h_y_u = conditional_entropy(JointPmf(counts.sum(axis=(1, 3)) / n), given="x")
    h_y_xu = conditional_entropy(
        JointPmf(counts.sum(axis=3).reshape(8, 2) / n), given="x"
    )
    h_s_y = conditional_entropy(JointPmf(counts.sum(axis=(0, 1)) / n), given="x")
    h_s_yu = conditional_entropy(
        JointPmf(counts.sum(axis=1).reshape(8, 2) / n), given="x"
    )
    cell_se = np.sqrt(cells * (1.0 - cells) / n)
    cell_se.flags.writeable = False
    frozen = counts.copy()
    frozen.flags.writeable = False

    return SimReport(
        q_x=q_x,
        q_y=q_y,
        q_s1=q_s1,
        rate=cfg.problem.rate,
        cclass=cclass,
        mixture=cfg.mixture,
        samples=cfg.samples,
        seed=cfg.seed,
        streams=cfg.streams,
        q_y_hat=q_y_hat,
        mi_xy_hat=mi_xy,
        h_y_given_u_hat=h_y_u,
        h_y_given_xu_hat=h_y_xu,
        h_s_given_y_hat=h_s_y,
        h_s_given_yu_hat=h_s_yu,
        counts=frozen,
        cell_se=cell_se,
    )


def verify_constraints(
    report: SimReport, p: RateProblem | RateClassProblem
) -> dict[str, float | None]:
    """Slack of each budget row against the report's empirical entropies.

    Positive slack means the constraint holds with room to spare.  Both
    label conditionings are reported separately because a budget stated
    on H(S|Y) does not by itself bound H(S|Y,U), and callers should see
    the two numbers side by side.  The classification slacks are None
    when the problem carries no label budget.
    """
    check_type(report, "report", SimReport)
    check_type(p, "p", RateProblem, RateClassProblem)
    cclass = getattr(p, "cclass", None)
    return {
        "rate_slack": p.rate - report.h_y_given_u_hat,
        "class_slack_s_given_y": (
            None if cclass is None else cclass - report.h_s_given_y_hat
        ),
        "class_slack_s_given_y_u": (
            None if cclass is None else cclass - report.h_s_given_yu_hat
        ),
    }
