"""Core model: records, kernels, intensity, likelihood.

Frozen constants below were derived by hand (logistic weights, unit-variance
Gaussian values) and the likelihood is cross-checked against a loop-and-
quadrature reimplementation in conftest.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hawkesgeo.em import FullRankParams
from hawkesgeo.geometry import _gaussian_terms
from hawkesgeo.io import reorder_to_labels
from hawkesgeo.model import (
    EmbeddingPair,
    EventRecord,
    KernelBank,
    ModelParams,
    NumericsWarning,
    _pair_response,
    compensator,
    influence_matrix,
    intensities_at,
    intensity,
    log_likelihood,
    pair_indices,
    response,
)

from conftest import brute_intensity, brute_loglik, brute_response, make_model, make_record


def unit_model(X, Y, beta_sq=1.0, kappa=1.0):
    """One basis with xi = gamma = 1, so amplitudes are the bare spatial weights."""
    n = np.shape(X)[0]
    return ModelParams(EmbeddingPair(X, Y), KernelBank([beta_sq], [kappa], [1.0]),
                       np.ones(n), np.full(n, 0.1))


def tied_record(rng, n, N, T=5.0):
    """A random record on whole-number times: N > T events force ties."""
    record = make_record(rng, n, N, T)
    return EventRecord(record.types, np.floor(record.times), n, T)


def make_full_rank(rng, n, R=2):
    w = rng.uniform(0.2, 1.0, size=R)
    return FullRankParams(rng.uniform(0.0, 0.4, size=(n, n)), rng.uniform(0.3, 3.0, size=R),
                          w / w.sum(), rng.uniform(0.05, 0.5, size=n))


def scoring_cases(rng):
    """(record, params) pairs: plain, tied times, R = 2 and full-rank models."""
    return [
        (make_record(rng, 3, N=12, T=5.0), make_model(rng, 3)),
        (tied_record(rng, 3, N=12), make_model(rng, 3, R=2)),
        (make_record(rng, 4, N=10, T=5.0), make_full_rank(rng, 4)),
        (tied_record(rng, 4, N=10), make_full_rank(rng, 4, R=1)),
    ]


class TestEventRecord:
    def test_basic_fields(self):
        rec = EventRecord([0, 1, 0], [0.5, 1.0, 2.0], 2, 3.0)
        assert rec.N == 3
        assert rec.n == 2
        assert_allclose(rec.count_by_type(), [2, 1])

    def test_times_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            EventRecord([0, 0], [1.0, 0.5], 1, 2.0)

    def test_times_must_fit_inside_horizon(self):
        with pytest.raises(ValueError):
            EventRecord([0], [2.0], 1, 2.0)

    def test_type_ids_bounded(self):
        with pytest.raises(ValueError):
            EventRecord([3], [0.5], 2, 1.0)

    def test_empty_record_allowed(self):
        rec = EventRecord([], [], 0, 1.0)
        assert rec.N == 0 and rec.n == 0

    def test_truncated_drops_tail(self):
        rec = EventRecord([0, 0, 0], [0.5, 1.0, 2.0], 1, 3.0)
        head = rec.truncated(1.0)
        assert head.N == 1
        assert head.horizon == 1.0

    def test_pair_indices_strict_order(self):
        # the two tied events must not pair with each other
        rec = EventRecord([0, 0, 0], [0.5, 0.5, 1.0], 1, 2.0)
        i_idx, j_idx, dt = pair_indices(rec)
        got = sorted(zip(i_idx.tolist(), j_idx.tolist()))
        assert got == [(0, 2), (1, 2)]
        assert_allclose(dt, [0.5, 0.5])
        assert all(a.size == 0 for a in pair_indices(EventRecord([], [], 1, 1.0)))


class TestKernels:
    def test_spatial_kernel_unit_distance(self):
        # the surrogate's raw Gaussian, m=2, beta^2=1, |x-y|=1: (2 pi)^-1 e^-1/2
        params = unit_model(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        _, G, _ = _gaussian_terms(EventRecord([], [], 1, 1.0), params)
        assert_allclose(G[0, 0, 0], 0.09653235263005391, rtol=1e-14)

    def test_spatial_kernel_peak_at_zero_distance(self):
        x = np.array([0.3, -0.2])
        params = unit_model(np.array([x, x + 0.1]), np.array([x, x]), beta_sq=0.7)
        _, G, _ = _gaussian_terms(EventRecord([], [], 2, 1.0), params)
        assert G[0, 0, 0] > G[0, 1, 0]

    def test_normalized_weights_two_receptors(self):
        # 1-d layout: receptors at 0 and 1, influencer at 0, beta^2=1.
        # Weights reduce to the logistic pair (1, e^-1/2) normalized.
        X = np.array([[0.0], [1.0]])
        A = unit_model(X, np.zeros((2, 1))).amplitudes()
        w0, w1 = A[0, :, 0]
        assert_allclose(w0, 0.6224593312018546, rtol=1e-14)
        assert_allclose(w1, 0.3775406687981454, rtol=1e-14)
        assert_allclose(w0 + w1, 1.0, rtol=1e-15)

    def test_normalized_weights_sum_to_one(self, rng):
        params = make_model(rng, n=6, m=3, R=2)
        A = params.amplitudes()
        scale = params.xi[None, :] * params.kernels.gamma[:, None, None]
        # strip xi*gamma: the remaining receptor weights sum to 1 per column
        cols = (A / np.where(scale == 0, 1.0, scale)).sum(axis=1)
        assert_allclose(cols, np.ones_like(cols), atol=1e-12)

    def test_temporal_kernel_halved_at_half_life(self):
        # one type carries its whole unit mass, so the response is the clock
        # kappa e^(-kappa tau): at tau = ln 2 / kappa with kappa=2 it is 1
        params = unit_model(np.zeros((1, 2)), np.zeros((1, 2)), kappa=2.0)
        assert_allclose(response(0, 0, np.log(2.0) / 2.0, params), 1.0, rtol=1e-14)

    def test_half_life(self):
        # ln 2 / 0.2075 = 3.3404683400479292: the clock halves over that lag
        params = unit_model(np.zeros((1, 2)), np.zeros((1, 2)), kappa=0.2075)
        assert_allclose(response(0, 0, 0.5 + 3.3404683400479292, params),
                        0.5 * response(0, 0, 0.5, params), rtol=1e-12)


class TestResponse:
    def test_zero_for_nonpositive_lag(self, rng):
        params = make_model(rng, n=3)
        assert response(0, 1, 0.0, params) == 0.0
        assert response(0, 1, -1.0, params) == 0.0

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            params = make_model(rng, n=4, m=2, R=2)
            tau = rng.uniform(0.05, 2.0)
            k_to, k_from = rng.integers(0, 4, size=2)
            assert_allclose(response(k_to, k_from, tau, params),
                            brute_response(params, k_to, k_from, tau), rtol=1e-12)

    def test_single_basis_slice(self, rng):
        params = make_model(rng, n=3, R=2)
        total = response(1, 2, 0.7, params)
        parts = [response(1, 2, 0.7, params, r=r) for r in range(2)]
        assert_allclose(total, sum(parts), rtol=1e-12)


class TestIntensity:
    def test_matches_brute_force(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 5))
            record = make_record(rng, n, N=int(rng.integers(5, 15)), T=6.0)
            params = make_model(rng, n, R=int(rng.integers(1, 3)))
            t = rng.uniform(0.0, 6.0)
            k = int(rng.integers(0, n))
            assert_allclose(intensity(k, t, record, params),
                            brute_intensity(record, params, k, t), rtol=1e-10)

    def test_never_below_background(self, rng):
        record = make_record(rng, 3, N=10)
        params = make_model(rng, 3)
        for t in rng.uniform(0.0, 10.0, size=5):
            for k in range(3):
                assert intensity(k, t, record, params) >= params.mu[k]

    def test_intensities_at_matches_pointwise(self, rng):
        record = make_record(rng, 4, N=20)
        params = make_model(rng, 4, R=2)
        ts = np.sort(rng.uniform(0.0, 10.0, size=7))
        table = intensities_at(record, params, ts)
        for q, t in enumerate(ts):
            for k in range(4):
                assert_allclose(table[q, k], brute_intensity(record, params, k, t),
                                rtol=1e-10)

    def test_events_excluded_at_their_own_time(self, rng):
        # evaluation at an event time sees only strictly earlier events
        record = EventRecord([0, 0], [1.0, 2.0], 1, 3.0)
        params = make_model(rng, 1)
        lam = intensity(0, 2.0, record, params)
        assert_allclose(lam, params.mu[0] + response(0, 0, 1.0, params), rtol=1e-12)


class TestCompensator:
    def test_against_quadrature(self, rng):
        cases = []
        for _ in range(6):
            n = int(rng.integers(2, 5))
            record = make_record(rng, n, N=int(rng.integers(4, 12)), T=5.0)
            cases.append((record, make_model(rng, n, R=int(rng.integers(1, 3)))))
        for record, params in cases + scoring_cases(rng):
            ll = log_likelihood(record, params)
            assert_allclose(ll, brute_loglik(record, params), rtol=1e-9)

    def test_window_additivity(self, rng):
        record = make_record(rng, 3, N=15)
        params = make_model(rng, 3, R=2)
        whole = compensator(record, params)
        split = compensator(record, params, (0.0, 4.0)) + \
            compensator(record, params, (4.0, record.horizon))
        assert_allclose(whole, split, rtol=1e-12)

    def test_empty_model_reduces_to_background(self, rng):
        record = make_record(rng, 2, N=8)
        params = make_model(rng, 2)
        zero_gamma = ModelParams(
            params.embedding,
            KernelBank(params.kernels.beta_sq, params.kernels.kappa,
                       np.zeros_like(params.kernels.gamma)),
            params.xi, params.mu)
        assert_allclose(compensator(record, zero_gamma),
                        record.horizon * params.mu.sum(), rtol=1e-14)


class TestLogLikelihood:
    def test_pure_poisson_closed_form(self, rng):
        record = make_record(rng, 1, N=12, T=8.0)
        params = ModelParams(
            EmbeddingPair(np.zeros((1, 2)), np.zeros((1, 2))),
            KernelBank([1.0], [1.0], [0.0]),
            np.ones(1), np.array([0.4]))
        assert_allclose(log_likelihood(record, params),
                        12 * np.log(0.4) - 0.4 * 8.0, rtol=1e-12)
        empty = EventRecord([], [], 1, 8.0)
        assert_allclose(log_likelihood(empty, params), -0.4 * 8.0, rtol=1e-12)

    def test_window_scores_add_up(self, rng):
        record = make_record(rng, 3, N=20)
        params = make_model(rng, 3)
        total = log_likelihood(record, params)
        parts = log_likelihood(record, params, (0.0, 3.0)) + \
            log_likelihood(record, params, (3.0, record.horizon))
        assert_allclose(total, parts, rtol=1e-10)
        # windows that start inside the history, one of them at a tie
        for record, params in [(record, params)] + scoring_cases(rng):
            lam = _pair_response(record, params)[1]
            for window in [(0.0, 3.0), (2.0, 4.5), (3.0, record.horizon)]:
                scored = (record.times >= window[0]) & (record.times < window[1])
                pairwise = np.sum(np.log(lam[scored])) - \
                    compensator(record, params, window)
                assert_allclose(log_likelihood(record, params, window), pairwise,
                                rtol=1e-12)

    def test_zero_intensity_event_gives_minus_inf(self):
        record = EventRecord([0], [0.5], 1, 1.0)
        params = ModelParams(
            EmbeddingPair(np.zeros((1, 2)), np.zeros((1, 2))),
            KernelBank([1.0], [1.0], [0.0]),
            np.ones(1), np.array([0.0]))
        with pytest.warns(NumericsWarning):
            assert log_likelihood(record, params) == -np.inf
        # the warning names the first failing event by its record index; here
        # it is the second scored event
        record = EventRecord([0, 0, 1, 1], [0.5, 1.0, 1.5, 2.0], 2, 3.0)
        params = ModelParams(
            EmbeddingPair(np.zeros((2, 2)), np.zeros((2, 2))),
            KernelBank([1.0], [1.0], [0.0]),
            np.ones(2), np.array([0.3, 0.0]))
        with pytest.warns(NumericsWarning, match="scored event 2;"):
            assert log_likelihood(record, params, (0.7, 3.0)) == -np.inf


class TestInfluenceMatrix:
    def test_column_sums_are_xi_gamma(self, rng):
        params = make_model(rng, n=5, R=2)
        phi = influence_matrix(params)
        want = params.xi * params.kernels.gamma.sum()
        assert_allclose(phi.sum(axis=0), want, rtol=1e-12)

    def test_loglik_invariant_under_type_relabeling(self, rng):
        n = 4
        record = make_record(rng, n, N=15)
        params = make_model(rng, n, R=2)
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        relabeled = EventRecord(inv[record.types], record.times, n, record.horizon)
        labels = [str(k) for k in range(n)]
        reordered = reorder_to_labels(params, labels, [labels[k] for k in perm])
        assert_allclose(log_likelihood(relabeled, reordered),
                        log_likelihood(record, params), rtol=1e-12)
