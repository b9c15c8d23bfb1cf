"""Core model: records, kernels, intensity, likelihood.

Frozen constants below were derived by hand (logistic weights, unit-variance
Gaussian values) and the likelihood is cross-checked against a loop-and-
quadrature reimplementation in conftest.
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.spatial.distance import cdist

from hawkesgeo import model
from hawkesgeo.diagnostics import categorical_accuracy
from hawkesgeo.em import FullRankParams
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
    intensity,
    log_likelihood,
    pair_indices,
    response,
)

from conftest import brute_intensity, brute_loglik, brute_response, make_model, make_record, \
    unblocked_response


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

    def test_pair_indices_strict_order(self):
        # the two tied events must not pair with each other
        rec = EventRecord([0, 0, 0], [0.5, 0.5, 1.0], 1, 2.0)
        i_idx, j_idx, dt = pair_indices(rec)
        got = sorted(zip(i_idx.tolist(), j_idx.tolist()))
        assert got == [(0, 2), (1, 2)]
        assert_allclose(dt, [0.5, 0.5])
        assert all(a.size == 0 for a in pair_indices(EventRecord([], [], 1, 1.0)))


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

    @pytest.mark.parametrize("block", [7, model.SCAN_BLOCK])
    def test_scan_matches_brute_force_and_pairs(self, rng, monkeypatch, block):
        # chunks of 7 events end inside tie runs; the long record needs many
        # chunks for its span alone
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

    @pytest.mark.parametrize("block", [7, model.SCAN_BLOCK])
    def test_realized_rates_are_the_tables_to_the_bit(self, rng, monkeypatch, block):
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
                assert np.array_equal(lam, table[np.arange(lam.size), record.types[events]])
                assert np.array_equal(total, table.sum(axis=1))
                assert np.array_equal(_realized_rates(record, params, events)[0], lam)
                if lam.size:
                    # mu = 0 rows share 0 / 0, and a window at 0 has no naive history
                    with np.errstate(invalid="ignore"), warnings.catch_warnings():
                        warnings.simplefilter("ignore", NumericsWarning)
                        shares = table[np.arange(lam.size), record.types[events]] / \
                            table.sum(axis=1)
                        want = 0.0 if np.any(shares <= 0.0) else np.exp(np.mean(np.log(shares)))
                        got = categorical_accuracy(record, params, window)[0]
                    assert_array_equal(got, want)

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
