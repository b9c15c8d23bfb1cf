"""Ground-truth sampling and thinning simulation.

Statistical oracles: exponential interarrivals and Poisson counts in the
degenerate no-excitation regime, and the branching-process identity for the
long-run mean rate.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from hawkesgeo.em import NumericalError, e_step
from hawkesgeo.model import (
    EmbeddingPair,
    EventRecord,
    KernelBank,
    ModelParams,
    influence_matrix,
)
from hawkesgeo.simulate import (
    ground_truth_branching,
    sample_ground_truth,
    simulate_thinning,
)


def poisson_params(rate):
    return ModelParams(
        EmbeddingPair(np.zeros((1, 2)), np.zeros((1, 2))),
        KernelBank([1.0], [1.0], [0.0]),
        np.ones(1), np.array([rate]))


class TestGroundTruthSampling:
    def test_influence_norm_is_one(self):
        for seed in range(8):
            truth = sample_ground_truth(n=int(5 + 3 * seed), m=2, R=1, seed=seed)
            phi = influence_matrix(truth.params)
            assert_allclose(np.linalg.norm(phi), 1.0, atol=1e-9)

    def test_subcritical(self):
        for seed in range(8):
            truth = sample_ground_truth(n=6, m=2, R=1, seed=seed)
            phi = influence_matrix(truth.params)
            rho = np.max(np.abs(np.linalg.eigvals(phi)))
            assert rho < 1.0
            assert_allclose(truth.stability_radius, rho, rtol=1e-10)

    def test_unit_exertion(self):
        truth = sample_ground_truth(n=7, seed=3)
        assert_allclose(truth.params.xi, np.ones(7))

    def test_seed_determinism(self):
        a = sample_ground_truth(n=5, m=3, R=2, seed=42)
        b = sample_ground_truth(n=5, m=3, R=2, seed=42)
        assert np.array_equal(a.params.embedding.reception,
                              b.params.embedding.reception)
        assert np.array_equal(a.params.kernels.kappa, b.params.kernels.kappa)
        assert np.array_equal(a.params.mu, b.params.mu)
        c = sample_ground_truth(n=5, m=3, R=2, seed=43)
        assert not np.array_equal(a.params.mu, c.params.mu)

    def test_coordinates_inside_unit_box(self):
        truth = sample_ground_truth(n=20, m=2, seed=9)
        for pts in (truth.params.embedding.reception,
                    truth.params.embedding.influence):
            assert np.all(pts >= 0.0) and np.all(pts <= 1.0)


class TestThinning:
    def test_seed_determinism(self):
        truth = sample_ground_truth(n=4, seed=1)
        a = simulate_thinning(truth, T=40.0, seed=7)
        b = simulate_thinning(truth, T=40.0, seed=7)
        assert a == b
        c = simulate_thinning(truth, T=40.0, seed=8)
        assert not (a == c)

    def test_target_events_stops_exactly(self):
        truth = sample_ground_truth(n=4, seed=1)
        record = simulate_thinning(truth, target_events=120, seed=2)
        assert record.N == 120
        assert record.horizon > record.times[-1]

    def test_needs_some_stopping_rule(self):
        truth = sample_ground_truth(n=4, seed=1)
        with pytest.raises(ValueError):
            simulate_thinning(truth, seed=2)

    def test_bound_checked_in_debug_mode(self):
        truth = sample_ground_truth(n=5, seed=6)
        record = simulate_thinning(truth, target_events=300, seed=3)
        assert record.N == 300

    def test_accepts_bare_params(self):
        truth = sample_ground_truth(n=3, seed=4)
        a = simulate_thinning(truth, T=20.0, seed=5)
        b = simulate_thinning(truth.params, T=20.0, seed=5)
        assert a == b

    def test_supercritical_hits_event_cap(self):
        runaway = ModelParams(
            EmbeddingPair(np.zeros((1, 2)), np.zeros((1, 2))),
            KernelBank([1.0], [2.0], [2.0]),
            np.ones(1), np.array([0.5]))
        with pytest.raises(NumericalError):
            simulate_thinning(runaway, T=500.0, seed=0, event_cap=2000)

    def test_poisson_interarrivals_pass_ks(self):
        # no excitation: one type at rate mu is a plain Poisson process
        record = simulate_thinning(poisson_params(2.5), seed=101,
                                   target_events=10_000)
        gaps = np.diff(np.concatenate([[0.0], record.times]))
        res = stats.kstest(gaps, "expon", args=(0.0, 1.0 / 2.5))
        assert res.pvalue > 0.01

    def test_poisson_counts_chi_square(self):
        # superposed no-excitation process: counts over [0,T] are Poisson
        mu, T, reps = 0.8, 10.0, 200
        counts = np.array([
            simulate_thinning(poisson_params(mu), T=T, seed=1000 + s).N
            for s in range(reps)])
        mean = mu * T
        # bin tails so expected cell counts stay healthy
        edges = np.arange(int(mean - 5), int(mean + 6))
        probs = np.concatenate([
            [stats.poisson.cdf(edges[0] - 1, mean)],
            stats.poisson.pmf(edges, mean),
            [stats.poisson.sf(edges[-1], mean)]])
        observed = np.concatenate([
            [(counts < edges[0]).sum()],
            [(counts == e).sum() for e in edges],
            [(counts > edges[-1]).sum()]])
        res = stats.chisquare(observed, probs * reps, ddof=0)
        assert res.pvalue > 0.01

    def test_long_run_rate_matches_branching_identity(self):
        truth = sample_ground_truth(n=3, seed=12)
        phi = influence_matrix(truth.params)
        expected = np.linalg.solve(np.eye(3) - phi, truth.params.mu).sum()
        record = simulate_thinning(truth, T=6000.0, seed=13)
        assert abs(record.N / 6000.0 - expected) < 0.05 * expected


class TestGroundTruthBranching:
    def test_first_event_is_background(self):
        truth = sample_ground_truth(n=3, seed=2)
        record = simulate_thinning(truth, target_events=50, seed=3)
        br = ground_truth_branching(record, truth)
        assert_allclose(br.p_background[0], 1.0)

    def test_rows_sum_to_one(self):
        truth = sample_ground_truth(n=3, seed=2)
        record = simulate_thinning(truth, target_events=60, seed=4)
        br = ground_truth_branching(record, truth)
        assert_allclose(br.row_sums(), np.ones(record.N), atol=1e-12)

    def test_matches_expectation_under_truth(self):
        truth = sample_ground_truth(n=3, seed=2)
        record = simulate_thinning(truth, target_events=40, seed=5)
        br = ground_truth_branching(record, truth)
        direct = e_step(record, truth.params)
        assert np.array_equal(br.p, direct.p)
        assert np.array_equal(br.p_background, direct.p_background)
