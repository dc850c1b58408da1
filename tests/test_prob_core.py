"""Entropy and pmf primitives: exact values, domain policing, identities."""

import numpy as np
import pytest

from ratemec import (
    DomainError,
    JointPmf,
    Pmf,
    binary_entropy,
    conditional_entropy,
    entropy,
    mutual_information,
)

# Frozen references computed with 50-digit arithmetic and rounded to double.
HB_02 = 0.7219280948873623
HB_03 = 0.8812908992306926
HB_0125 = 0.5435644431995964


def test_binary_entropy_endpoints_are_exact_zero():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_half_is_exactly_one():
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_frozen_values():
    assert binary_entropy(0.2) == pytest.approx(HB_02, abs=2e-16)
    assert binary_entropy(0.3) == pytest.approx(HB_03, abs=2e-16)
    assert binary_entropy(0.125) == pytest.approx(HB_0125, abs=2e-16)


def test_binary_entropy_symmetry():
    rng = np.random.default_rng(11)
    for t in rng.uniform(0.0, 1.0, size=500):
        assert binary_entropy(t) == pytest.approx(binary_entropy(1.0 - t), abs=5e-16)


def test_binary_entropy_clamps_boundary_noise():
    assert binary_entropy(-1e-13) == 0.0
    assert binary_entropy(1.0 + 1e-13) == 0.0


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(DomainError):
        binary_entropy(-1e-6)
    with pytest.raises(DomainError):
        binary_entropy(1.000001)
    with pytest.raises(DomainError):
        binary_entropy(float("nan"))


def test_pmf_rejects_bad_mass_vectors():
    with pytest.raises(DomainError):
        Pmf(np.array([0.5, 0.6]))
    with pytest.raises(DomainError):
        Pmf(np.array([-0.1, 1.1]))
    with pytest.raises(DomainError):
        Pmf(np.array([[0.5, 0.5]]))


def test_pmf_renormalizes_within_tolerance_and_freezes():
    p = Pmf(np.array([0.5, 0.5 + 5e-13]))
    assert p.masses.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        p.masses[0] = 0.9


def test_entropy_uniform_is_exactly_two_bits():
    assert entropy(Pmf(np.full(4, 0.25))) == 2.0


def test_entropy_point_mass_is_exactly_zero():
    assert entropy(Pmf(np.array([0.0, 1.0, 0.0]))) == 0.0


def test_entropy_is_permutation_invariant():
    rng = np.random.default_rng(13)
    for _ in range(100):
        masses = rng.dirichlet(np.ones(5))
        e1 = entropy(Pmf(masses))
        e2 = entropy(Pmf(masses[rng.permutation(5)]))
        assert e1 == pytest.approx(e2, abs=1e-12)


def test_jointpmf_marginals():
    j = JointPmf(np.array([[0.1, 0.2], [0.3, 0.4]]))
    np.testing.assert_allclose(j.marginal_x().masses, [0.3, 0.7], atol=1e-15)
    np.testing.assert_allclose(j.marginal_y().masses, [0.4, 0.6], atol=1e-15)


def test_jointpmf_requires_two_dims():
    with pytest.raises(DomainError):
        JointPmf(np.array([0.5, 0.5]))


def test_mutual_information_independent_is_zero_within_float_noise():
    # The three-entropy subtraction can leave a positive residue of a few
    # ulp on exact product tables; only negative residue is clamped.
    rng = np.random.default_rng(14)
    for _ in range(200):
        px = rng.dirichlet(np.ones(3))
        py = rng.dirichlet(np.ones(4))
        mi = mutual_information(JointPmf(np.outer(px, py)))
        assert 0.0 <= mi <= 1e-12


def test_mutual_information_clamps_negative_residue_to_exact_zero():
    j = JointPmf(np.outer([0.5, 0.5], [0.25, 0.75]))
    assert mutual_information(j) >= 0.0


def test_mutual_information_perfect_correlation_is_one_bit():
    j = JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert mutual_information(j) == pytest.approx(1.0, abs=1e-15)


def test_mutual_information_bounded_by_marginal_entropies():
    rng = np.random.default_rng(15)
    for _ in range(200):
        j = JointPmf(rng.dirichlet(np.ones(6)).reshape(2, 3))
        mi = mutual_information(j)
        assert mi >= 0.0
        assert mi <= entropy(j.marginal_x()) + 1e-12
        assert mi <= entropy(j.marginal_y()) + 1e-12


def test_conditional_entropy_matches_chain_rule():
    rng = np.random.default_rng(16)
    for _ in range(200):
        j = JointPmf(rng.dirichlet(np.ones(6)).reshape(2, 3))
        full = entropy(Pmf(j.table.reshape(-1)))
        assert conditional_entropy(j, given="x") == pytest.approx(
            full - entropy(j.marginal_x()), abs=1e-12
        )
        assert conditional_entropy(j, given="y") == pytest.approx(
            full - entropy(j.marginal_y()), abs=1e-12
        )


def test_conditional_entropy_deterministic_channel_is_exactly_zero():
    # Each row has a single nonzero cell, so Y is a function of X and the
    # decomposition must produce 0.0 with no floating residue at all.
    j = JointPmf(np.array([[0.3, 0.0], [0.0, 0.25], [0.0, 0.45]]))
    assert conditional_entropy(j, given="x") == 0.0


def test_conditional_entropy_rejects_unknown_axis():
    j = JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]))
    with pytest.raises(DomainError):
        conditional_entropy(j, given="z")
