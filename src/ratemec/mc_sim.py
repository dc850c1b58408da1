"""Monte Carlo validation of map-mixture couplings.

Draws (U, X) pairs, applies the deterministic binary maps to produce Y,
flips X with a noisy label channel to produce S, and estimates every
quantity the analytic solvers promise: the Y marginal, I(X;Y), the rate
row H(Y|U), and both label entropies H(S|Y) and H(S|Y,U).  Because Y is
a deterministic function of (X, U), the empirical H(Y | X, U) is exactly
zero whenever the estimate is computed from the same counts, which makes
it a sharp self-check on the sampling pipeline.

Streams use numpy's PCG64 generator seeded through SeedSequence, so a
report is reproducible bit for bit from (seed, samples, streams).
Entropy estimates are plug-in (maximum likelihood) without bias
correction; with at most 32 cells the bias is far below the sampling
noise at the scales these runs target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bernoulli_rate import MapMixture, RateProblem
from .bernoulli_rate_class import RateClassProblem
from .errors import DomainError
from .generic_oracle import BINARY_MAPS
from .prob_core import BitsValue, JointPmf, conditional_entropy, mutual_information

#: Draws per chunk of a stream; a stream of at most this many draws
#: makes one call per variable.
_CHUNK = 1 << 20

#: Ceiling on the draws of one run, checked before any draw: 10^9 draws
#: take about a minute.
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
        if not isinstance(self.problem, (RateProblem, RateClassProblem)):
            raise DomainError(
                f"problem must be a rate or rate-class problem, got {type(self.problem).__name__}"
            )
        if not isinstance(self.mixture, MapMixture):
            raise DomainError(f"mixture must be a MapMixture, got {type(self.mixture).__name__}")
        if self.samples < 1:
            raise DomainError(f"samples must be >= 1, got {self.samples!r}")
        if self.samples > MAX_SAMPLES:
            raise DomainError(
                f"samples allows at most {MAX_SAMPLES} draws, got {self.samples!r}"
            )
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed!r}")
        if self.streams < 1:
            raise DomainError(f"streams must be >= 1, got {self.streams!r}")


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
    q_y_hat: float
    mi_xy_hat: BitsValue
    h_y_given_u_hat: BitsValue
    h_y_given_xu_hat: BitsValue
    h_s_given_y_hat: BitsValue
    h_s_given_yu_hat: BitsValue
    counts: np.ndarray = field(repr=False)
    cell_se: np.ndarray = field(repr=False)
    generator: str = "pcg64"

    def to_dict(self) -> dict:
        """JSON-ready view; arrays become nested lists."""
        return {
            "q_x": self.q_x,
            "q_y": self.q_y,
            "q_s1": self.q_s1,
            "rate": self.rate,
            "cclass": self.cclass,
            "mixture": list(_as_array(self.mixture)),
            "samples": self.samples,
            "seed": self.seed,
            "streams": self.streams,
            "generator": self.generator,
            "q_y_hat": self.q_y_hat,
            "mi_xy_hat": self.mi_xy_hat,
            "h_y_given_u_hat": self.h_y_given_u_hat,
            "h_y_given_xu_hat": self.h_y_given_xu_hat,
            "h_s_given_y_hat": self.h_s_given_y_hat,
            "h_s_given_yu_hat": self.h_s_given_yu_hat,
            "counts": self.counts.tolist(),
            "cell_se": self.cell_se.tolist(),
        }


def simulate(cfg: SimConfig) -> SimReport:
    """Run the sampling pipeline and estimate every tracked entropy.

    Each stream draws in chunks of at most ``_CHUNK`` draws, so memory
    stays bounded for any ``samples``; :class:`SimConfig` caps
    ``samples`` at ``MAX_SAMPLES``, which bounds the time.  Draw order
    per chunk is fixed (U first, then X, then the label flip) so that a
    given (seed, samples, streams) triple always yields the same counts
    table.
    """
    q_x = cfg.problem.q_x
    q_y = cfg.problem.q_y
    q_s1 = getattr(cfg.problem, "q_s1", 0.5)
    cclass = getattr(cfg.problem, "cclass", None)

    base, extra = divmod(cfg.samples, cfg.streams)
    weights = _as_array(cfg.mixture)

    counts = np.zeros((4, 2, 2, 2), dtype=np.int64)
    # Only the first min(streams, samples) streams draw anything.
    for i in range(min(cfg.streams, cfg.samples)):
        size = base + (1 if i < extra else 0)
        # Stream i's seed is bitwise the i-th child of SeedSequence.spawn.
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(i,) if cfg.streams > 1 else ())
        rng = np.random.Generator(np.random.PCG64(seq))
        for start in range(0, size, _CHUNK):
            k = min(_CHUNK, size - start)
            u = rng.choice(4, size=k, p=weights)
            x = (rng.random(k) < q_x).astype(np.int64)
            s1 = (rng.random(k) < q_s1).astype(np.int64)
            y = BINARY_MAPS[u, x].astype(np.int64)
            s = x ^ s1
            idx = ((u * 2 + x) * 2 + y) * 2 + s
            counts += np.bincount(idx, minlength=32).reshape(4, 2, 2, 2)

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
