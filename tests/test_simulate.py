"""Ground-truth sampling and thinning simulation.

Statistical oracles: exponential interarrivals and Poisson counts in the
degenerate no-excitation regime, and the branching-process identity for the
long-run mean rate.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from conftest import make_model, reference_thinning
from hawkesgeo.em import FullRankParams, NumericalError, e_step
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

    @pytest.mark.parametrize("n, m, R", [(0, 2, 1), (3, 0, 1), (3, 2, 0)])
    def test_sizes_below_one_rejected(self, n, m, R):
        with pytest.raises(ValueError, match="n, m, R must be positive"):
            sample_ground_truth(n, m=m, R=R)

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


def assert_same_run(params, **kwargs):
    """``simulate_thinning`` gives the reference loop's record byte for byte,
    or raises the same error with the same message."""
    try:
        want = reference_thinning(params, **kwargs)
    except (ValueError, NumericalError) as exc:
        with pytest.raises(type(exc)) as got:
            simulate_thinning(params, **kwargs)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    got = simulate_thinning(params, **kwargs)
    assert got.types.tobytes() == want.types.tobytes()
    assert got.times.tobytes() == want.times.tobytes()
    assert (got.n, got.horizon) == (want.n, want.horizon)
    return got


class ExpandingClock:
    """Bare params whose clock grows (kappa < 0), so the intensity rises
    between events and the thinning bound fails after the first one."""

    kappa = np.array([-0.5])
    mu = np.array([1.0])

    def amplitudes(self):
        return np.array([[[-1.0]]])


class TestThinningIsTheLoop:
    @pytest.mark.parametrize("n", [1, 3, 15, 100])
    @pytest.mark.parametrize("R", [1, 2, 3])
    def test_both_stopping_rules(self, n, R):
        truth = sample_ground_truth(n, R=R, seed=10 * n + R)
        for seed in (0, 1):
            record = assert_same_run(truth.params, seed=seed, target_events=600)
            assert record.N == 600
            assert_same_run(truth.params, seed=seed, T=float(record.times[300]))

    def test_models_with_silent_backgrounds(self, rng):
        for R in (1, 2, 3):
            params = make_model(rng, 6, R=R)
            mu = params.mu.copy()
            mu[[0, 3, 4]] = 0.0
            silent = type(params)(params.embedding, params.kernels, params.xi, mu)
            assert_same_run(silent, seed=R, target_events=400)
            assert_same_run(silent, seed=R, T=40.0)
        full = FullRankParams(rng.uniform(0.0, 0.2, (4, 4)), [0.7, 2.0], [0.4, 0.6],
                              [0.0, 0.5, 0.0, 0.2])
        assert_same_run(full, seed=3, target_events=300)

    def test_dead_process_and_empty_targets(self, rng):
        params = make_model(rng, 4, R=2)
        dead = type(params)(params.embedding, params.kernels, params.xi, np.zeros(4))
        record = assert_same_run(dead, seed=0, T=10.0)
        assert record.N == 0 and record.horizon == 10.0
        assert_same_run(dead, seed=0, target_events=5)  # zero background: NumericalError
        assert assert_same_run(params, seed=0, target_events=0).N == 0

    def test_errors_match_the_loop(self):
        # the bound check, the event cap, and a target over the cap
        assert_same_run(ExpandingClock(), seed=0, T=50.0)
        runaway = ModelParams(
            EmbeddingPair(np.zeros((1, 2)), np.zeros((1, 2))),
            KernelBank([1.0], [2.0], [2.0]),
            np.ones(1), np.array([0.5]))
        assert_same_run(runaway, seed=0, T=500.0, event_cap=2000)
        assert_same_run(runaway, seed=0, target_events=2000, event_cap=2000)
        assert_same_run(runaway, seed=0, target_events=2001, event_cap=2000)
        with pytest.raises(NumericalError, match="over the thinning bound"):
            simulate_thinning(ExpandingClock(), seed=0, T=50.0)
        with pytest.raises(NumericalError, match="event cap 2000"):
            simulate_thinning(runaway, seed=0, T=500.0, event_cap=2000)

    @pytest.mark.parametrize("T", [float("nan"), float("inf"), 0.0, -1.0])
    def test_horizon_must_be_positive_and_finite(self, T):
        # an unchecked NaN horizon never stops the loop, which then runs to the
        # event cap (about a minute at the default) and blames supercriticality
        truth = sample_ground_truth(n=3, seed=1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="positive and finite"):
            simulate_thinning(truth, T=T, seed=0)
        with pytest.raises(ValueError, match="positive and finite"):
            simulate_thinning(truth, T=T, seed=0, target_events=10)
        assert time.perf_counter() - start < 1.0

    def test_negative_target_rejected(self):
        truth = sample_ground_truth(n=3, seed=1)
        with pytest.raises(ValueError, match="at least 0"):
            simulate_thinning(truth, seed=0, target_events=-1)
        with pytest.raises(ValueError, match="at least 0"):
            simulate_thinning(truth, T=5.0, seed=0, target_events=-3)


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
