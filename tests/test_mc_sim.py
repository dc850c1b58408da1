"""Tests for the Monte Carlo sampling pipeline and its constraint checks."""

import json

import numpy as np
import pytest

from ratemec import (
    DomainError,
    MapMixture,
    RateClassProblem,
    RateProblem,
    SimConfig,
    binary_entropy,
    simulate,
    solve_mecbr,
    verify_constraints,
)
from ratemec import mc_sim

# H_b(0.2) = 0.7219280948873623 bits (frozen from a 50-digit evaluation).
HB_02 = 0.7219280948873623


def _rate_cfg(**overrides) -> SimConfig:
    defaults = dict(
        problem=RateProblem(0.2, 0.3, 0.5),
        mixture=MapMixture(0.5, 0.0, 0.35, 0.15),
        samples=50_000,
        seed=11,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestSimConfig:
    def test_rejects_zero_samples(self):
        with pytest.raises(DomainError, match="samples"):
            _rate_cfg(samples=0)

    def test_rejects_samples_over_the_bound_before_drawing(self):
        # Checked in the config: 10**10 draws would take about 90 s.
        bound = mc_sim.MAX_SAMPLES
        assert _rate_cfg(samples=bound).samples == bound
        with pytest.raises(DomainError, match=str(bound)):
            _rate_cfg(samples=bound + 1)

    def test_rejects_zero_streams(self):
        with pytest.raises(DomainError, match="streams"):
            _rate_cfg(streams=0)

    def test_rejects_non_problem_inputs(self):
        with pytest.raises(DomainError, match="problem"):
            _rate_cfg(problem=(0.2, 0.3, 0.5))
        with pytest.raises(DomainError, match="mixture"):
            _rate_cfg(mixture=(0.5, 0.0, 0.35, 0.15))


class TestSimulateDeterminism:
    def test_same_seed_reproduces_counts_exactly(self):
        a = simulate(_rate_cfg())
        b = simulate(_rate_cfg())
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.mi_xy_hat == b.mi_xy_hat

    def test_different_seed_changes_counts(self):
        a = simulate(_rate_cfg(seed=11))
        b = simulate(_rate_cfg(seed=12))
        assert not np.array_equal(a.counts, b.counts)

    def test_streams_split_is_deterministic_and_complete(self):
        a = simulate(_rate_cfg(streams=4, samples=10_001))
        b = simulate(_rate_cfg(streams=4, samples=10_001))
        np.testing.assert_array_equal(a.counts, b.counts)
        assert int(a.counts.sum()) == 10_001

    def test_stream_count_changes_the_draws(self):
        a = simulate(_rate_cfg(streams=1))
        b = simulate(_rate_cfg(streams=3))
        assert not np.array_equal(a.counts, b.counts)
        assert int(b.counts.sum()) == a.samples

    def test_chunked_draws_sum_and_reproduce(self, monkeypatch):
        monkeypatch.setattr(mc_sim, "_CHUNK", 1_000)
        a = simulate(_rate_cfg(samples=5_000))
        b = simulate(_rate_cfg(samples=5_000))
        np.testing.assert_array_equal(a.counts, b.counts)
        assert int(a.counts.sum()) == 5_000


class TestSimulateEstimates:
    def test_y_is_deterministic_given_x_and_u(self):
        for seed in (1, 2, 3):
            report = simulate(_rate_cfg(seed=seed))
            assert report.h_y_given_xu_hat == 0.0

    def test_identity_mixture_recovers_the_source(self):
        cfg = _rate_cfg(
            problem=RateProblem(0.2, 0.2, 1.0),
            mixture=MapMixture(1.0, 0.0, 0.0, 0.0),
            samples=200_000,
            seed=5,
        )
        report = simulate(cfg)
        assert report.q_y_hat == pytest.approx(0.2, abs=0.005)
        assert report.mi_xy_hat == pytest.approx(HB_02, abs=0.02)
        assert report.h_y_given_u_hat == pytest.approx(HB_02, abs=0.02)

    def test_constant_mixture_has_zero_information(self):
        cfg = _rate_cfg(mixture=MapMixture(0.0, 0.0, 1.0, 0.0), samples=10_000)
        report = simulate(cfg)
        assert report.q_y_hat == 0.0
        assert report.mi_xy_hat == 0.0
        assert report.h_y_given_u_hat == 0.0

    def test_solver_mixture_matches_analytic_value(self):
        p = RateProblem(0.2, 0.3, 0.5)
        res = solve_mecbr(p)
        report = simulate(
            SimConfig(problem=p, mixture=res.mixture, samples=400_000, seed=21)
        )
        assert report.q_y_hat == pytest.approx(0.3, abs=0.003)
        assert report.mi_xy_hat == pytest.approx(res.value, abs=0.01)
        assert report.h_y_given_u_hat <= p.rate + 0.01

    def test_counts_shape_and_total(self):
        report = simulate(_rate_cfg(samples=12_345))
        assert report.counts.shape == (4, 2, 2, 2)
        assert report.counts.dtype == np.int64
        assert int(report.counts.sum()) == 12_345
        assert report.cell_se.shape == (4, 2, 2, 2)
        assert np.all(report.cell_se >= 0.0)

    def test_report_arrays_are_read_only(self):
        report = simulate(_rate_cfg(samples=1_000))
        with pytest.raises(ValueError):
            report.counts[0, 0, 0, 0] = 7
        with pytest.raises(ValueError):
            report.cell_se[0, 0, 0, 0] = 0.5

    def test_rate_only_label_channel_is_uninformative(self):
        # Without a label model S1 flips with probability one half, so S
        # carries one bit of entropy no matter what Y reveals.
        report = simulate(_rate_cfg(samples=200_000, seed=9))
        assert report.q_s1 == 0.5
        assert report.h_s_given_y_hat == pytest.approx(1.0, abs=0.01)
        assert report.h_s_given_yu_hat == pytest.approx(1.0, abs=0.01)

    def test_label_model_entropies_track_the_analytic_rows(self):
        q_x, q_y, q_s1 = 0.3, 0.4, 0.1
        p = RateClassProblem(q_x, q_y, q_s1, 2.0, 2.0)
        # Identity-heavy mixture: the label rows average the per-map terms.
        mixture = MapMixture(0.6, 0.0, 0.4, 0.0)
        report = simulate(SimConfig(problem=p, mixture=mixture, samples=400_000, seed=3))
        hb_s1 = binary_entropy(q_s1)
        m = (1.0 - q_x) * (1.0 - q_s1) + q_x * q_s1
        expected_yu = 0.6 * hb_s1 + 0.4 * binary_entropy(m)
        assert report.h_s_given_yu_hat == pytest.approx(expected_yu, abs=0.01)
        # Coarser conditioning can only increase the residual entropy.
        assert report.h_s_given_y_hat >= report.h_s_given_yu_hat - 1e-9

    def test_report_echoes_the_generator_name(self):
        report = simulate(_rate_cfg(samples=100))
        assert report.generator == "pcg64"


class TestVerifyConstraints:
    def test_rate_slack_uses_the_empirical_rate_row(self):
        p = RateProblem(0.2, 0.3, 0.5)
        report = simulate(SimConfig(problem=p, mixture=MapMixture(0.5, 0.0, 0.35, 0.15), samples=50_000, seed=11))
        slacks = verify_constraints(report, p)
        assert slacks["rate_slack"] == pytest.approx(
            p.rate - report.h_y_given_u_hat, abs=1e-15
        )
        assert slacks["class_slack_s_given_y"] is None
        assert slacks["class_slack_s_given_y_u"] is None

    def test_class_slacks_reported_for_label_problems(self):
        p = RateClassProblem(0.3, 0.4, 0.1, 1.0, 0.9)
        report = simulate(
            SimConfig(problem=p, mixture=MapMixture(0.4, 0.0, 0.6, 0.0), samples=100_000, seed=2)
        )
        slacks = verify_constraints(report, p)
        assert slacks["class_slack_s_given_y"] == pytest.approx(
            0.9 - report.h_s_given_y_hat, abs=1e-15
        )
        assert slacks["class_slack_s_given_y_u"] == pytest.approx(
            0.9 - report.h_s_given_yu_hat, abs=1e-15
        )


class TestReportSerialization:
    def test_to_dict_round_trips_through_json(self):
        report = simulate(_rate_cfg(samples=5_000))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["samples"] == 5_000
        assert payload["seed"] == 11
        assert payload["generator"] == "pcg64"
        assert payload["cclass"] is None
        counts = np.asarray(payload["counts"])
        assert counts.shape == (4, 2, 2, 2)
        np.testing.assert_array_equal(counts, report.counts)
        assert payload["mixture"] == pytest.approx([0.5, 0.0, 0.35, 0.15])
