"""Core model: records, kernels, intensity, likelihood.

Frozen constants below were derived by hand (logistic weights, unit-variance
Gaussian values) and the likelihood is cross-checked against a loop-and-
quadrature reimplementation in conftest.
"""

import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.spatial.distance import cdist

from hawkesgeo import model
from hawkesgeo.diagnostics import background_probabilities, categorical_accuracy
from hawkesgeo.em import FullRankParams, _scan_stats, e_step
from hawkesgeo.geometry import _gaussian_terms
from hawkesgeo.io import reorder_to_labels
from hawkesgeo.model import (
    EmbeddingPair,
    EventRecord,
    KernelBank,
    ModelParams,
    NumericsWarning,
    _rates,
    _realized_rates,
    _scored_events,
    compensator,
    horizon_past,
    influence_matrix,
    intensities_at,
    log_likelihood,
    pair_indices,
)

from conftest import brute_decayed_moments, brute_intensity, brute_loglik, brute_response, \
    make_model, make_record, overflowing, reference_decayed_counts, unblocked_response, \
    walked_moments


def unit_model(X, Y, beta_sq=1.0, kappa=1.0):
    """One basis with xi = gamma = 1, so amplitudes are the bare spatial weights."""
    n = np.shape(X)[0]
    return ModelParams(EmbeddingPair(X, Y), KernelBank([beta_sq], [kappa], [1.0]),
                       np.ones(n), np.full(n, 0.1))


def tied_record(rng, n, N, T=5.0):
    """A random record on whole-number times: N > T events force ties."""
    record = make_record(rng, n, N, T)
    return EventRecord(record.types, np.floor(record.times), n, T)


def excitation(params, tau):
    """The response of a lone type-0 event at time zero on type 0 at lag ``tau``, read off
    ``intensities_at`` less the background."""
    return intensities_at(EventRecord([0], [0.0], params.n, tau + 1.0), params, [tau])[0, 0] \
        - params.mu[0]


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


def with_mu(params, mu):
    if isinstance(params, FullRankParams):
        return FullRankParams(params.phi, params.kappa, params.w, mu)
    return ModelParams(params.embedding, params.kernels, params.xi, mu)


def gap_record(rng, n, gaps, start=0.0, kinds=None):
    """Events at ``start`` plus the cumulative ``gaps``, of types drawn from ``kinds``."""
    times = start + np.cumsum(gaps)
    types = rng.integers(0, n if kinds is None else kinds, size=times.size)
    return EventRecord(types, times, n, horizon_past(times))


def scan_cases(rng):
    """(record, params) pairs that stress the decayed-count scan's chunking."""
    silent = gap_record(rng, 5, rng.exponential(0.5, 30), kinds=3)  # types 3, 4 never occur
    mu = make_model(rng, 5).mu
    # kappa = 2 and mu = 0: after one chunk spanning 240, a gap of 300 leaves
    # rates near e^-600, which exp(-kappa (t_q - t_s)) in one factor flushes to 0
    far = gap_record(rng, 2, np.r_[np.ones(241), 300.0, np.ones(3)])
    decay_only = ModelParams(EmbeddingPair(rng.normal(size=(2, 2)), rng.normal(size=(2, 2))),
                             KernelBank([1.0], [2.0], [1.0]), np.ones(2), np.zeros(2))
    return [
        (far, decay_only),
        (tied_record(rng, 3, N=40), make_model(rng, 3)),  # tie runs of about 8
        (tied_record(rng, 4, N=30), make_full_rank(rng, 4)),
        # kappa T ~ 4000
        (gap_record(rng, 3, rng.exponential(10.0, 200)), make_model(rng, 3, R=2)),
        (gap_record(rng, 3, rng.exponential(1.0, 60), start=1.7e9), make_model(rng, 3)),
        (silent, with_mu(make_model(rng, 5, R=2), np.where(np.arange(5) % 2, 0.0, mu))),
        (silent, with_mu(make_full_rank(rng, 5), np.where(np.arange(5) < 2, 0.0, mu))),
        (EventRecord([], [], 3, 4.0), make_model(rng, 3, R=2)),
    ]


def scan_queries(rng, record):
    """Shuffled queries: random, before the first event, at events (some twice), at the horizon."""
    t0 = record.times[0] if record.N else 0.0
    at_events = record.times[rng.integers(0, record.N, size=6)] if record.N else []
    qs = np.concatenate([t0 + rng.uniform(0.0, record.horizon - t0, size=8),
                         [t0, 0.5 * t0, record.horizon], at_events, at_events[:2]])
    return rng.permutation(qs)


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
        assert rec.truncated(3.0) == rec

    def test_truncated_refuses_time_past_the_horizon(self):
        rec = EventRecord([0, 0, 0], [0.5, 1.0, 2.0], 1, 3.0)
        with pytest.raises(ValueError, match="past the record horizon 3"):
            rec.truncated(3.5)

    def test_pair_indices_strict_order(self):
        # the two tied events must not pair with each other
        rec = EventRecord([0, 0, 0], [0.5, 0.5, 1.0], 1, 2.0)
        i_idx, j_idx, dt = pair_indices(rec)
        got = sorted(zip(i_idx.tolist(), j_idx.tolist()))
        assert got == [(0, 2), (1, 2)]
        assert_allclose(dt, [0.5, 0.5])
        assert all(a.size == 0 for a in pair_indices(EventRecord([], [], 1, 1.0)))

    @pytest.mark.parametrize("types, times, n, labels, msg", [
        ([0, 1], [0.5], 2, None, "types and times must be 1-d arrays of equal length"),
        ([[0]], [[0.5]], 1, None, "types and times must be 1-d arrays of equal length"),
        ([0], [0.5], 0, None, "n must be positive when events are present"),
        ([], [], -1, None, "n must be positive when events are present"),
        ([0, 0], [0.5, np.nan], 1, None, "event times must be finite"),
        ([0, 0], [-0.5, 0.5], 1, None, "event times must be nonnegative"),
        ([0, 1], [0.5, 0.7], 2, ("a",), "labels must have length n"),
        # a fractional type id was truncated, and a fractional n built a record whose
        # count_by_type raised TypeError
        ([0.7, 1.9, 1.2], [0.1, 0.2, 0.3], 2, None, "type ids must be whole numbers"),
        ([0.0, np.nan], [0.1, 0.2], 2, None, "type ids must be whole numbers"),
        ([0, 1], [0.1, 0.2], 2.5, None, "n must be a whole number"),
        # the events CSV would read two types under one label back as one type
        ([0, 1, 0], [0.1, 0.2, 0.3], 2, ("a", "a"), "labels must be distinct"),
        ([0, 1], [0.1, 0.2], 2, (1, "1"), "labels must be distinct"),
    ])
    def test_malformed_records_are_rejected(self, types, times, n, labels, msg):
        with pytest.raises(ValueError, match=re.escape(msg)):
            EventRecord(types, times, n, 1.0, labels)

    def test_whole_number_floats_are_ids(self):
        rec = EventRecord([0.0, 1.0, 1.0], [0.1, 0.2, 0.3], 2.0, 1.0)
        assert rec == EventRecord([0, 1, 1], [0.1, 0.2, 0.3], 2, 1.0)
        assert rec.types.dtype == np.int64
        assert type(rec.n) is int and np.array_equal(rec.count_by_type(), [1.0, 2.0])

    def test_equality_with_another_type_is_left_to_it(self):
        rec = EventRecord([0], [0.5], 1, 1.0)
        assert rec.__eq__((rec.types, rec.times)) is NotImplemented
        assert rec != "a record" and rec == EventRecord([0], [0.5], 1, 1.0)


class TestParameterGuards:
    @pytest.mark.parametrize("beta_sq, kappa, gamma, msg", [
        ([1.0, 1.0], [1.0], [1.0], "beta_sq, kappa, gamma must share shape (R,)"),
        ([], [], [], "kernel bank must hold at least one basis kernel"),
        ([[1.0]], [[1.0]], [[1.0]], "kernel bank must hold at least one basis kernel"),
        ([0.0], [1.0], [1.0], "beta_sq entries must be positive and finite"),
        ([1.0], [0.0], [1.0], "kappa entries must be positive and finite"),
        ([1.0], [np.inf], [1.0], "kappa entries must be positive and finite"),
        ([1.0], [1.0], [-1.0], "gamma entries must be nonnegative and finite"),
        ([1.0], [1.0], [np.nan], "gamma entries must be nonnegative and finite"),
    ])
    def test_kernel_bank(self, beta_sq, kappa, gamma, msg):
        with pytest.raises(ValueError, match=re.escape(msg)):
            KernelBank(beta_sq, kappa, gamma)

    @pytest.mark.parametrize("X, Y, msg", [
        (np.zeros((2, 2)), np.zeros((3, 2)), "must be (n, m) arrays of equal shape"),
        (np.zeros(2), np.zeros(2), "must be (n, m) arrays of equal shape"),
        (np.zeros((2, 2)), np.array([[0.0, 1.0], [np.inf, 0.0]]),
         "embedding coordinates must be finite"),
    ])
    def test_embedding_pair(self, X, Y, msg):
        with pytest.raises(ValueError, match=re.escape(msg)):
            EmbeddingPair(X, Y)

    @pytest.mark.parametrize("xi, mu, msg", [
        (np.ones(3), np.ones(2), "xi and mu must have shape (n,)"),
        (np.ones((2, 1)), np.ones(2), "xi and mu must have shape (n,)"),
        (np.array([1.0, -1.0]), np.ones(2), "xi entries must be nonnegative and finite"),
        (np.array([1.0, np.nan]), np.ones(2), "xi entries must be nonnegative and finite"),
        (np.ones(2), np.array([0.1, -0.1]), "mu entries must be nonnegative and finite"),
        (np.ones(2), np.array([0.1, np.inf]), "mu entries must be nonnegative and finite"),
    ])
    def test_model_params(self, xi, mu, msg):
        with pytest.raises(ValueError, match=re.escape(msg)):
            ModelParams(EmbeddingPair(np.zeros((2, 2)), np.ones((2, 2))),
                        KernelBank([1.0], [1.0], [1.0]), xi, mu)


@st.composite
def point_sets(draw):
    """Two point sets of one dimension whose coordinates span up to 300
    decades, the first rows of the second set coincident with the first's."""
    na, nb, m = draw(st.integers(1, 60)), draw(st.integers(1, 60)), draw(st.integers(1, 12))
    lo = draw(st.floats(-150.0, 150.0))
    hi = draw(st.floats(lo, 150.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X, Y = (rng.normal(size=(k, m)) * 10.0 ** rng.uniform(lo, hi, size=(k, m)) for k in (na, nb))
    shared = draw(st.integers(0, min(na, nb)))
    Y[:shared] = X[:shared]
    return X, Y


class TestSquaredDistances:
    @given(point_sets())
    def test_property_is_cdist_to_the_bit(self, points):
        X, Y = points
        d2 = model._sq_distances(X, Y)
        assert d2.tobytes() == cdist(X, Y, "sqeuclidean").tobytes()
        assert np.sqrt(d2).tobytes() == cdist(X, Y).tobytes()

    @pytest.mark.parametrize("X, Y", [
        ([[1e200, 0.0]], [[-1e200, 1.0]]),             # the square overflows
        ([[1.7e308]], [[-1.7e308]]),                   # the difference overflows
        ([[1e154, 1e154, 1e154]], [[0.0, 0.0, 0.0]]),  # the running sum overflows
        ([[1e200, 0.0], [0.0, 0.0]], [[0.0, 1.0], [3.0, 4.0]]),
    ])
    def test_overflow_is_inf_without_a_warning(self, X, Y):
        X, Y = np.array(X), np.array(Y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d2 = model._sq_distances(X, Y)
        assert np.isinf(d2).any()
        assert d2.tobytes() == cdist(X, Y, "sqeuclidean").tobytes()


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
        assert_allclose(excitation(params, np.log(2.0) / 2.0), 1.0, rtol=1e-14)

    def test_half_life(self):
        # ln 2 / 0.2075 = 3.3404683400479292: the clock halves over that lag
        params = unit_model(np.zeros((1, 2)), np.zeros((1, 2)), kappa=0.2075)
        assert_allclose(excitation(params, 0.5 + 3.3404683400479292),
                        0.5 * excitation(params, 0.5), rtol=1e-12)


class TestResponse:
    """The responses the package forms against the oracle: per pair in ``_pair_response``,
    and none at or before lag zero."""

    def test_zero_for_nonpositive_lag(self, rng):
        # at and before an event's time its response is not in the intensity
        params = make_model(rng, n=3)
        record = EventRecord([1], [1.0], 3, 2.0)
        assert_array_equal(intensities_at(record, params, [0.5, 1.0]), [params.mu] * 2)

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            params = make_model(rng, n=4, m=2, R=2)
            record = make_record(rng, 4, N=8, T=2.0)
            H, _, (i, j, dt), _ = unblocked_response(record, params)
            brute = [brute_response(params, record.types[b], record.types[a], tau)
                     for a, b, tau in zip(i, j, dt)]
            assert_allclose(H.sum(axis=0), brute, rtol=1e-12)

    def test_single_basis_slice(self, rng):
        params = make_model(rng, n=3, R=2)
        record = make_record(rng, 3, N=8, T=2.0)
        H, _, (i, j, dt), _ = unblocked_response(record, params)
        for r in range(2):
            brute = [brute_response(params, record.types[b], record.types[a], tau, r)
                     for a, b, tau in zip(i, j, dt)]
            assert_allclose(H[r], brute, rtol=1e-12)


class TestIntensity:
    def test_matches_brute_force(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 5))
            record = make_record(rng, n, N=int(rng.integers(5, 15)), T=6.0)
            params = make_model(rng, n, R=int(rng.integers(1, 3)))
            t = rng.uniform(0.0, 6.0)
            k = int(rng.integers(0, n))
            assert_allclose(intensities_at(record, params, [t])[0, k],
                            brute_intensity(record, params, k, t), rtol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, np.nextafter(10.0, 11.0)])
    def test_non_finite_query_times_raise(self, rng, bad):
        # as does any time outside [0, horizon]; its ends are valid queries
        record = make_record(rng, 3, N=10)
        params = make_model(rng, 3)
        with pytest.raises(ValueError, match="must lie in \\[0, horizon\\]"):
            intensities_at(record, params, [1.0, bad])
        assert intensities_at(record, params, [0.0, 10.0]).shape == (2, 3)

    def test_never_below_background(self, rng):
        record = make_record(rng, 3, N=10)
        params = make_model(rng, 3)
        for t in rng.uniform(0.0, 10.0, size=5):
            for k in range(3):
                assert intensities_at(record, params, [t])[0, k] >= params.mu[k]

    def test_intensities_at_matches_pointwise(self, rng):
        record = make_record(rng, 4, N=20)
        params = make_model(rng, 4, R=2)
        ts = np.sort(rng.uniform(0.0, 10.0, size=7))
        table = intensities_at(record, params, ts)
        for q, t in enumerate(ts):
            for k in range(4):
                assert_allclose(table[q, k], brute_intensity(record, params, k, t),
                                rtol=1e-10)

    @pytest.mark.parametrize("block", [7, model.SCAN_BLOCK, 4096])
    def test_scan_matches_brute_force_and_pairs(self, rng, monkeypatch, block):
        # chunks of 7 events end inside tie runs; the long record needs many
        # chunks for its span alone, and chunks of 4096 hold the others whole
        monkeypatch.setattr(model, "SCAN_BLOCK", block)
        for record, params in scan_cases(rng):
            qs = scan_queries(rng, record)
            brute = [[brute_intensity(record, params, k, t) for k in range(record.n)]
                     for t in qs]
            assert_allclose(intensities_at(record, params, qs), brute, rtol=1e-10)
            table = intensities_at(record, params, record.times)
            assert_allclose(table[np.arange(record.N), record.types],
                            unblocked_response(record, params)[1], rtol=1e-10)

    @given(st.data())
    def test_scan_property(self, data):
        n = data.draw(st.integers(1, 4))
        gaps = data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.01, 0.7, 3.0, 300.0]),
                                  max_size=30))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        record = gap_record(rng, n, gaps)
        params = make_model(rng, n, R=data.draw(st.integers(1, 2)))
        qs = data.draw(st.lists(st.sampled_from(list(record.times) + [record.horizon])
                                | st.floats(0.0, record.horizon), max_size=8))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "SCAN_BLOCK", data.draw(st.sampled_from([1, 2, 3, 4096])))
            table = intensities_at(record, params, qs)
        brute = [[brute_intensity(record, params, k, t) for k in range(n)] for t in qs]
        assert_allclose(table, np.reshape(brute, (len(qs), n)), rtol=1e-10)

    @pytest.mark.parametrize("block", [1, 7, model.SCAN_BLOCK, 4096])
    def test_lag_moments_match_brute_force(self, rng, monkeypatch, block):
        # the lagged walk yields the plain walk's rows X and decays to the bit; its lag
        # moments D = u S - Y fall cancel within a chunk, so they hold to 1e-12 of D + S /
        # kappa, the lag scale.  Chunks of 4096 events hold each case's record whole
        monkeypatch.setattr(model, "SCAN_BLOCK", block)
        for record, params in scan_cases(rng):
            kappa = np.asarray(params.kappa)
            for qs in (record.times, np.sort(scan_queries(rng, record))):
                S_want, D_want = brute_decayed_moments(record, kappa, qs)
                plain = list(model._decayed_counts(record, kappa, qs))
                lagged = list(model._decayed_counts(record, kappa, qs, lagged=True))
                assert [out[0] for out in plain] == [out[0] for out in lagged]
                for out, out_lagged in zip(plain, lagged):
                    for a, b in zip(out[1:], out_lagged[1:3]):  # X and fall
                        assert a.tobytes() == b.tobytes()
                S_got, D_got = walked_moments(lagged, qs.size, kappa.size, record.n)
                assert_allclose(S_got, S_want, rtol=1e-12, atol=0.0)
                scale = D_want + S_want / kappa[:, None]
                assert np.all(np.abs(D_got - D_want) <= 1e-12 * scale)

    @pytest.mark.parametrize("block", [1, 7, model.SCAN_BLOCK, 4096])
    def test_walk_edge_cases_match_brute_force(self, rng, monkeypatch, block):
        # a tie run of three across index `block`, where chunks of `block` events
        # end; a gap past exp's range at kappa_max = 2; a tie run longer than a
        # chunk.  Queries before the first event, at tied times, inside the gap
        # and at the horizon, besides a sample of the events
        t_tie = 0.5 + 0.01 * block
        t_long = t_tie + 400.0  # 745 / kappa_max = 372.5
        times = np.concatenate([0.5 + 0.01 * np.arange(block - 1), np.full(3, t_tie),
                                np.full(block + 3, t_long),
                                t_long + np.cumsum(rng.exponential(0.3, 6))])
        record = EventRecord(rng.integers(0, 3, size=times.size), times, 3, horizon_past(times))
        params = ModelParams(EmbeddingPair(rng.normal(size=(3, 2)), rng.normal(size=(3, 2))),
                             KernelBank([0.5, 1.5], [2.0, 0.3], [0.4, 0.3]), np.ones(3),
                             np.full(3, 0.2))
        few = [0.25, t_tie, t_tie + 1.0, t_long - 1.0, t_long, record.horizon]
        qs = np.sort(np.concatenate([few, [t_tie + 200.0], times[::max(1, times.size // 20)]]))
        monkeypatch.setattr(model, "SCAN_BLOCK", block)
        S_want, D_want = brute_decayed_moments(record, params.kappa, qs)
        S_got, D_got = walked_moments(model._decayed_counts(record, params.kappa, qs, lagged=True),
                                      qs.size, 2, 3)
        assert_allclose(S_got, S_want, rtol=1e-12, atol=0.0)
        scale = D_want + S_want / params.kappa[:, None]
        assert np.all(np.abs(D_got - D_want) <= 1e-12 * scale)
        k = np.arange(len(few)) % 3  # one type a query: the oracle loops over every event
        brute = [brute_intensity(record, params, k[q], t) for q, t in enumerate(few)]
        assert_allclose(intensities_at(record, params, few)[np.arange(len(few)), k], brute,
                        rtol=1e-12)

    @pytest.mark.parametrize("block", [1, 7, 64, 512])
    def test_sparse_and_windowed_queries_are_the_dense_walk(self, rng, monkeypatch, block):
        # a chunk that no query reads keeps only its end state; the walk yields the
        # bytes of conftest's dense one, whose every chunk builds its cumsums.  Six
        # chunks of `block` events with a tie run of four across the edge of chunks 1
        # and 2: windowed queries from the run on (chunk 0 unread, and the first chunk
        # read ends inside the run), and sparse ones in chunks 2 and 5 (chunks 3 and 4
        # unread), in the gap after the last event and at the horizon
        N, edge = 6 * block, 2 * block
        times = 0.01 * np.arange(N)
        times[edge - 2:edge + 2] = times[edge - 2]
        record = EventRecord(rng.integers(0, 3, size=N), times, 3, horizon_past(times))

        def chunk(c):
            return times[c * block:(c + 1) * block]
        windowed = np.sort(np.concatenate([times[edge - 2:], [record.horizon]]))
        sparse = np.sort(np.concatenate([chunk(2)[::3], chunk(5)[1::2], chunk(5)[-1:] + 0.005,
                                         [record.horizon]]))
        monkeypatch.setattr(model, "SCAN_BLOCK", block)
        for kappa in (np.array([1.3]), np.array([2.0, 0.3])):
            for qs in (windowed, sparse):
                for lagged in (False, True):
                    got = list(model._decayed_counts(record, kappa, qs, lagged=lagged))
                    want = list(reference_decayed_counts(record, kappa, qs, lagged=lagged))
                    assert [out[0] for out in got] == [out[0] for out in want]
                    for out_got, out_want in zip(got, want):
                        for a, b in zip(out_got[1:], out_want[1:]):
                            assert a.shape == b.shape and a.tobytes() == b.tobytes()
                S_got, D_got = walked_moments(model._decayed_counts(record, kappa, qs, lagged=True),
                                              qs.size, kappa.size, 3)
                few = np.unique(np.linspace(0, qs.size - 1, 12).astype(int))  # the oracle loops
                S_want, D_want = brute_decayed_moments(record, kappa, qs[few])
                assert_allclose(S_got[few], S_want, rtol=1e-12, atol=0.0)
                scale = D_want + S_want / kappa[:, None]
                assert np.all(np.abs(D_got[few] - D_want) <= 1e-12 * scale)
        # the scoring calls over the window from the median event, to the bit
        params = make_model(rng, 3, R=2)
        window = (float(times[N // 2]), record.horizon)

        def scores():
            return (log_likelihood(record, params, window),
                    categorical_accuracy(record, params, window),
                    intensities_at(record, params, times[N // 2:]),
                    background_probabilities(record, params))
        got = scores()
        monkeypatch.setattr(model, "_decayed_counts", reference_decayed_counts)
        want = scores()
        assert repr(got[:2]) == repr(want[:2])
        for a, b in zip(got[2:], want[2:]):
            assert a.tobytes() == b.tobytes()

    def test_single_state_rates_are_the_simulators(self, rng):
        # simulate_thinning's records depend on these rates to the last bit;
        # they equal the sum that starts from a tiled mu, for one state and
        # for q states
        for n, R in itertools.product((1, 3, 15, 50, 100), (1, 2, 3)):
            params = make_model(rng, n, R=R)
            A, S = params.amplitudes(), rng.uniform(0.0, 3.0, size=(R, n))
            want = params.mu.copy()
            for r in range(R):
                want += params.kappa[r] * (A[r] @ S[r])
            assert np.array_equal(_rates(params.mu, params.kappa, A, S), want)
            for lead in [(), (1,), (5,), (300,)]:
                S = rng.uniform(0.0, 3.0, size=lead + (R, n))
                want = np.tile(params.mu, S.shape[:-2] + (1,))
                for r in range(R):
                    want += params.kappa[r] * (S[..., r, :] @ A[r].T)
                got = _rates(params.mu, params.kappa, A, S)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_scoring_memory_is_bounded_by_its_output(self, rng):
        # an O(N^2) or unblocked O(q n R) temporary would exceed the bound
        record = make_record(rng, 3, N=200_000, T=1e4)
        params = make_model(rng, 3, R=2)
        params.amplitudes()

        def peak_of(run):
            tracemalloc.start()
            try:
                out = run()
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        table, peak = peak_of(lambda: intensities_at(record, params, record.times))
        assert peak < 3 * table.nbytes
        # the log-likelihood reads each block's realized entries, so it stays
        # under the table it no longer builds
        _, peak = peak_of(lambda: log_likelihood(record, params))
        assert peak < table.nbytes

    @pytest.mark.parametrize("block", [7, model.SCAN_BLOCK, 4096])
    def test_realized_rates_are_the_tables_to_the_bit(self, rng, monkeypatch, block):
        # own rows against the whole table: each sum in its own order, so to 1e-13
        # (6.8e-16 seen); the callers of _own_rates agree with each other to the bit
        monkeypatch.setattr(model, "SCAN_BLOCK", block)
        cases = scan_cases(rng) + [(make_record(rng, 100, N=3000, T=50.0),
                                    make_model(rng, 100, R=2))]
        for record, params in cases:
            for window in [(0.0, record.horizon), (record.horizon / 3, record.horizon),
                           (record.times[record.N // 2] if record.N else 0.0, record.horizon)]:
                events = _scored_events(record, window)
                scored = (record.times >= window[0]) & (record.times < window[1])
                assert np.array_equal(record.times[events], record.times[scored])
                table = intensities_at(record, params, record.times[events])
                lam, total = _realized_rates(record, params, events, totals=True)
                want = table[np.arange(lam.size), record.types[events]]
                assert_allclose(lam, want, rtol=1e-13, atol=0.0)
                assert_allclose(total, table.sum(axis=1), rtol=1e-13, atol=0.0)
                assert np.array_equal(_realized_rates(record, params, events)[0], lam)
                if lam.size:
                    # a mu = 0 row with no event before it has share 0, not 0 / 0, with a
                    # warning, and a window at 0 has no naive history
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", NumericsWarning)
                        rows = table.sum(axis=1)
                        shares = np.divide(want, rows, out=np.zeros(lam.size), where=rows > 0.0)
                        want = 0.0 if np.any(shares <= 0.0) else np.exp(np.mean(np.log(shares)))
                        got = categorical_accuracy(record, params, window)[0]
                    assert_allclose(got, want, rtol=1e-13, atol=0.0)
            lam = _realized_rates(record, params, slice(None))[0]
            if np.all(lam > 0.0):
                assert np.array_equal(_scan_stats(record, params)[0], lam)
                assert np.array_equal(background_probabilities(record, params),
                                      params.mu[record.types] / lam)

    def test_events_excluded_at_their_own_time(self, rng):
        # evaluation at an event time sees only strictly earlier events
        record = EventRecord([0, 0], [1.0, 2.0], 1, 3.0)
        params = make_model(rng, 1)
        lam = intensities_at(record, params, [2.0])[0, 0]
        assert_allclose(lam, params.mu[0] + brute_response(params, 0, 0, 1.0), rtol=1e-12)


class TestWalkArithmetic:
    """The walk yields undecayed rows; every contraction decays them before an amplitude
    meets them, and its cumsums add two columns at a time."""

    def test_undecayed_rows_meet_no_amplitude(self, monkeypatch):
        # a row of 1e300 with decay 1e-300 and amplitude 1e10: the amplitude times the row
        # is inf, the decayed count times the amplitude about 1e10
        X, fall = np.full((4, 1, 2), 1e300), np.full((4, 1), 1e-300)
        lam, dots, _ = model._own_rates(np.ones(2), np.ones(1), np.full((1, 2, 2), 1e10),
                                        X, fall, np.zeros(4, dtype=np.int64))
        assert_allclose(dots, 2e10, rtol=1e-14)
        assert_allclose(lam, 1.0 + 2e10, rtol=1e-14)
        # a real walk: chunks spanning 700 decay lengths, and events at 0, 690.8, 690.85 and
        # 690.9, so the third reads the row 1 + e^690.8 (1.6e300) and the decay e^-690.85
        monkeypatch.setattr(model, "SCAN_SPAN", 700.0)
        record = EventRecord([0, 0, 0, 0], [0.0, 690.8, 690.85, 690.9], 1, 691.0)
        params = ModelParams(EmbeddingPair(np.zeros((1, 2)), np.zeros((1, 2))),
                             KernelBank([1.0], [1.0], [1e10]), np.ones(1), np.full(1, 0.5))
        rows = [X for _, X, _ in model._decayed_counts(record, params.kappa, record.times)]
        assert max(float(X.max()) for X in rows) > 1e300
        brute = [brute_intensity(record, params, 0, t) for t in record.times]
        lam, total = _realized_rates(record, params, slice(None), totals=True)
        assert_allclose(lam, brute, rtol=1e-12)
        assert_allclose(total, brute, rtol=1e-12)  # one type: the total is its rate
        lam_scan, stats = _scan_stats(record, params)
        assert np.array_equal(lam_scan, lam)
        br = e_step(record, params, floor=0.0)
        for name in ("mass_by_r", "lag_mass_by_r", "dyad_mass"):
            assert_allclose(getattr(stats, name), getattr(br, name), rtol=1e-10)

    @pytest.mark.parametrize("R", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 15, 100])
    def test_complex_pair_cumsums_are_the_float_cumsums(self, rng, monkeypatch, R, n):
        # the cumsums run down a complex128 view, one zero column padding an odd R n: each
        # column's sums are a float cumsum's to the bit, and no yield holds the pad
        c = 37
        first, types = rng.uniform(0.0, 5.0, size=(R, n)), rng.integers(0, n, size=c)
        weights = np.exp(rng.uniform(-30.0, 30.0, size=(c, R)))
        want = np.zeros((c + 1, R, n))
        want[0], want[np.arange(1, c + 1), :, types] = first, weights
        got = model._exclusive_cumsums(first, types, weights)
        assert got.shape == want.shape
        assert got.tobytes() == np.cumsum(want, axis=0).tobytes()
        times = np.sort(rng.uniform(0.0, 10.0, size=60))
        times[20:24] = times[20]  # a tie run across the edge of chunks of 16 events
        record = EventRecord(rng.integers(0, n, size=60), times, n, horizon_past(times))
        kappa = rng.uniform(0.5, 2.0, size=R)
        qs = np.sort(np.concatenate([times[::2], rng.uniform(0.0, record.horizon, size=9),
                                     [record.horizon]]))
        monkeypatch.setattr(model, "SCAN_BLOCK", 16)
        for lagged in (False, True):
            got = list(model._decayed_counts(record, kappa, qs, lagged=lagged))
            want = list(reference_decayed_counts(record, kappa, qs, lagged=lagged))
            assert [out[0] for out in got] == [out[0] for out in want]
            for out_got, out_want in zip(got, want):
                assert out_got[1].shape[1:] == (R, n)
                for a, b in zip(out_got[1:], out_want[1:]):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()


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
            lam = unblocked_response(record, params)[1]
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


class TestOverflow:
    """Where a model's intensities overflow, each score is not finite and comes with
    one ``NumericsWarning``, and no raw numpy warning."""

    def test_scores_are_not_finite_with_a_numerics_warning(self):
        record, params = overflowing()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.warns(NumericsWarning, match="compensator is inf"):
                assert compensator(record, params) == np.inf
            with pytest.warns(NumericsWarning, match="log-likelihood is nan"):
                assert np.isnan(log_likelihood(record, params))
            with pytest.warns(NumericsWarning, match="intensities overflow"):
                table = intensities_at(record, params, [0.05, 0.1003, 1.0])
            assert np.array_equal(table[0], params.mu) and np.all(np.isinf(table[1:]))


class TestTypeCount:
    @pytest.mark.parametrize("n", [2, 4])
    def test_a_model_of_other_types_raises_naming_both_counts(self, rng, n):
        # a record of fewer types would index the model's amplitudes with the wrong
        # stride and one of more types past their rows
        record = EventRecord(np.arange(3) % n, [0.1, 0.2, 0.3], n, 1.0)
        msg = f"the record has {n} event types but the model 3"
        for params in (make_full_rank(rng, 3), make_model(rng, 3, R=2)):
            for run in (lambda: intensities_at(record, params, [0.5]),
                        lambda: compensator(record, params),
                        lambda: _realized_rates(record, params, slice(None)),
                        lambda: log_likelihood(record, params),
                        lambda: background_probabilities(record, params),
                        lambda: categorical_accuracy(record, params, (0.15, 1.0))):
                with pytest.raises(ValueError, match=msg):
                    run()


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
