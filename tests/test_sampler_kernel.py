"""The 16-code sampler kernel against the per-draw pipeline it replaced.

``_reference_draw_counts`` is the per-draw version of
:func:`ratemec.mc_sim._draw_counts`: ``rng.choice`` for U, the
``BINARY_MAPS[u, x]`` gather for Y and a 32-cell ``bincount`` per
chunk.  The kernel consumes the same ``rng.random`` draws in the same
order, so the two must agree bit for bit: the counts table and every
byte of the JSON report.  CI runs this file on the numpy floor too,
which pins the kernel to that version's ``choice`` (cdf, then
``searchsorted``) as well.
"""

import json
import tracemalloc

import numpy as np
import pytest

from ratemec import (
    InfeasibleError,
    MapMixture,
    RateClassProblem,
    RateProblem,
    SimConfig,
    binary_entropy,
    simulate,
    solve_mecbr,
    solve_mecbrc,
)
from ratemec import mc_sim
from ratemec.generic_oracle import BINARY_MAPS


def _reference_draw_counts(cfg, q_x, q_s1):
    """The per-draw pipeline: the reference the kernel must match."""
    base, extra = divmod(cfg.samples, cfg.streams)
    weights = mc_sim._as_array(cfg.mixture)
    counts = np.zeros((4, 2, 2, 2), dtype=np.int64)
    for i in range(min(cfg.streams, cfg.samples)):
        size = base + (1 if i < extra else 0)
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(i,) if cfg.streams > 1 else ())
        rng = np.random.Generator(np.random.PCG64(seq))
        for start in range(0, size, mc_sim._CHUNK):
            k = min(mc_sim._CHUNK, size - start)
            u = rng.choice(4, size=k, p=weights)
            x = (rng.random(k) < q_x).astype(np.int64)
            s1 = (rng.random(k) < q_s1).astype(np.int64)
            y = BINARY_MAPS[u, x].astype(np.int64)
            s = x ^ s1
            idx = ((u * 2 + x) * 2 + y) * 2 + s
            counts += np.bincount(idx, minlength=32).reshape(4, 2, 2, 2)
    return counts


def _outcome(cfg):
    """(counts dtype, shape and bytes, JSON report) of one run."""
    rep = simulate(cfg)
    counts = rep.counts
    return (counts.dtype, counts.shape, counts.tobytes()), json.dumps(rep.to_dict())


def _reference_outcome(cfg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc_sim, "_draw_counts", _reference_draw_counts)
        return _outcome(cfg)


def _configs():
    """Seeded configs: edge mixtures, edge marginals and edge sizes."""
    rng = np.random.default_rng(20261018)

    def q():
        return float(rng.uniform(0.02, 0.5))

    def seed():
        return int(rng.integers(2**32))

    edge_mixtures = [
        ("one-hot identity", MapMixture(1.0, 0.0, 0.0, 0.0)),
        ("one-hot flip", MapMixture(0.0, 1.0, 0.0, 0.0)),
        ("one-hot zero", MapMixture(0.0, 0.0, 1.0, 0.0)),
        ("one-hot one", MapMixture(0.0, 0.0, 0.0, 1.0)),
        ("zero p2 p4", MapMixture(0.5, 0.0, 0.5, 0.0)),
        ("zero p1 p3", MapMixture(0.0, 0.3, 0.0, 0.7)),
        ("zero p1", MapMixture(0.0, 0.2, 0.3, 0.5)),
        ("tiny p1", MapMixture(1e-300, 0.0, 0.0, 1.0)),
        ("uniform", MapMixture(0.25, 0.25, 0.25, 0.25)),
    ]
    for _ in range(4):
        w = rng.dirichlet(np.ones(4))
        edge_mixtures.append(("random", MapMixture(*w.tolist())))
    for _ in range(4):
        res = solve_mecbr(RateProblem(q(), q(), float(rng.uniform(0.0, 1.0))))
        edge_mixtures.append(("rate optimum", res.mixture))

    cases = []
    for name, mixture in edge_mixtures:
        samples = int(10 ** rng.uniform(0.0, 4.7))
        streams = int(rng.integers(1, 5))
        cases.append((f"{name}, rate only", SimConfig(
            problem=RateProblem(q(), q(), 0.5), mixture=mixture,
            samples=samples, seed=seed(), streams=streams)))
        cases.append((f"{name}, q_X = 1/2", SimConfig(
            problem=RateProblem(0.5, q(), 0.5), mixture=mixture,
            samples=samples, seed=seed(), streams=streams)))
        cases.append((f"{name}, label", SimConfig(
            problem=RateClassProblem(q(), q(), q(), 0.5, 0.9), mixture=mixture,
            samples=samples, seed=seed(), streams=streams)))
    while sum(name == "label optimum" for name, _ in cases) < 3:
        s1 = q()
        floor = binary_entropy(s1)
        p = RateClassProblem(q(), q(), s1, float(rng.uniform(0.0, 1.0)),
                             floor + (1.0 - floor) * float(rng.random()))
        try:
            res = solve_mecbrc(p)
        except InfeasibleError:
            continue
        cases.append(("label optimum", SimConfig(
            problem=p, mixture=res.mixture, samples=20_000, seed=seed(), streams=2)))
    cases.append(("label q_S1 = 1/2", SimConfig(
        problem=RateClassProblem(q(), q(), 0.5, 0.5, 1.0),
        mixture=MapMixture(0.4, 0.1, 0.3, 0.2), samples=30_000, seed=seed())))
    cases.append(("extended marginals", SimConfig(
        problem=RateProblem(0.97, 0.8, 0.5, extend=True),
        mixture=MapMixture(0.6, 0.1, 0.1, 0.2), samples=30_000, seed=seed())))
    mixture = MapMixture(0.4, 0.1, 0.3, 0.2)
    for samples, streams in ((1, 1), (1, 3), (2, 5), (4, 7), (9, 9)):
        cases.append((f"{samples} draws, {streams} streams", SimConfig(
            problem=RateProblem(q(), q(), 0.5), mixture=mixture,
            samples=samples, seed=seed(), streams=streams)))
    return cases


CONFIGS = _configs()


@pytest.fixture(scope="module")
def reference_outcomes():
    return [_reference_outcome(cfg) for _, cfg in CONFIGS]


def test_configs_reach_every_cell_kind(reference_outcomes):
    # All 16 reachable cells get counts somewhere, and some run fills a
    # single cell, or the bitwise match proves little.
    total = sum(np.frombuffer(c[2], dtype=np.int64) for c, _ in reference_outcomes)
    assert np.count_nonzero(total) == 16
    assert any(np.count_nonzero(np.frombuffer(c[2], dtype=np.int64)) == 1
               for c, _ in reference_outcomes)


def test_kernel_matches_the_per_draw_pipeline_bitwise(reference_outcomes):
    for (name, cfg), expected in zip(CONFIGS, reference_outcomes):
        assert _outcome(cfg) == expected, name


@pytest.mark.parametrize("chunk, samples", [(1, 300), (7, 2_000), (1_000, 5_003)])
def test_chunk_boundaries_keep_the_draw_order(monkeypatch, chunk, samples):
    monkeypatch.setattr(mc_sim, "_CHUNK", chunk)
    for streams in (1, 3):
        cfg = SimConfig(
            problem=RateClassProblem(0.3, 0.4, 0.1, 0.5, 0.9),
            mixture=MapMixture(0.4, 0.1, 0.3, 0.2),
            samples=samples, seed=17, streams=streams,
        )
        assert _outcome(cfg) == _reference_outcome(cfg), (chunk, streams)


def test_uneven_count_slices_keep_the_counts(monkeypatch):
    # 96 divides neither the chunk nor the short last chunk.
    monkeypatch.setattr(mc_sim, "_CHUNK", 1_000)
    monkeypatch.setattr(mc_sim, "_COUNT_SLICE", 96)
    for streams in (1, 3):
        cfg = SimConfig(
            problem=RateClassProblem(0.3, 0.4, 0.1, 0.5, 0.9),
            mixture=MapMixture(0.4, 0.1, 0.3, 0.2),
            samples=5_003, seed=37, streams=streams,
        )
        assert _outcome(cfg) == _reference_outcome(cfg), streams


def test_two_real_chunks_match_the_per_draw_pipeline():
    cfg = SimConfig(
        problem=RateProblem(0.2, 0.3, 0.5),
        mixture=MapMixture(0.5, 0.0, 0.35, 0.15),
        samples=mc_sim._CHUNK + 3, seed=29,
    )
    assert _outcome(cfg) == _reference_outcome(cfg)


def test_peak_traced_allocation_is_bounded():
    # Three full chunks and a short one; numpy reports its buffers to
    # tracemalloc.  The per-draw pipeline peaked at 64 MiB here, and one
    # bincount over a whole chunk at 17.7 MiB; sliced counting peaks at
    # 10.7 MiB.
    cfg = SimConfig(
        problem=RateProblem(0.2, 0.3, 0.5),
        mixture=MapMixture(0.5, 0.0, 0.35, 0.15),
        samples=3 * mc_sim._CHUNK + 5, seed=31,
    )
    tracemalloc.start()
    try:
        simulate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, peak
