"""Held-out scoring, attribution divergence, and residual diagnostics."""

import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist
from scipy.stats import kendalltau

from hawkesgeo import model
from hawkesgeo.diagnostics import (
    EvalSplit,
    _kendall_tau_b,
    attribution_hellinger,
    background_probabilities,
    background_qq,
    categorical_accuracy,
    hellinger_divergence,
    kendall_distance_correlation,
    phi_rmse,
    split_eval,
)
from hawkesgeo.em import BranchingStructure, DegenerateEventError, FullRankParams, e_step
from hawkesgeo.model import (
    EmbeddingPair,
    EventRecord,
    KernelBank,
    ModelParams,
    NumericsWarning,
    compensator,
    log_likelihood,
)
from hawkesgeo.simulate import sample_ground_truth, simulate_thinning

from conftest import make_branching, make_model, make_record, overflowing, shuffled


class TestOverflow:
    """Each diagnostic of a model whose intensities overflow: a non-finite score with a
    ``NumericsWarning``, or the probabilities' limit, and no raw numpy warning."""

    def test_scores_are_nan_with_a_numerics_warning(self):
        record, params = overflowing()
        plain = FullRankParams(np.full((3, 3), 0.2), [1.0], [1.0], [0.1, 0.2, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.warns(NumericsWarning, match="accuracy is nan"):
                score, naive = categorical_accuracy(record, params, (0.1002, 2.0))
            assert np.isnan(score) and naive == 0.0  # type 2 first occurs in the window
            for a, b in ((params, plain), (plain, params), (params, params)):
                with pytest.warns(NumericsWarning, match="Hellinger distance is nan"):
                    assert np.isnan(attribution_hellinger(record, a, b))
            with pytest.warns(NumericsWarning, match="log-likelihood is"):
                train, test = split_eval(record, params, EvalSplit(0.1002))
            assert not np.isfinite(train) and not np.isfinite(test)
            with pytest.warns(NumericsWarning, match="phi RMSE is inf"):
                assert phi_rmse(params.phi, plain.phi) == np.inf

    def test_background_probabilities_take_their_limit(self):
        record, params = overflowing()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = background_probabilities(record, params)
        assert p[0] == 1.0 and 0.0 < p[1] < 1e-300 and np.all(p[2:] == 0.0)


class TestSplitEval:
    def test_sides_recombine_to_full_loglik(self, rng):
        record = make_record(rng, n=3, N=40, T=10.0)
        params = make_model(rng, n=3)
        split = EvalSplit(4.0)
        train, test = split_eval(record, params, split)
        n_train = int(np.sum(record.times < 4.0))
        total = train * n_train + test * (record.N - n_train)
        assert_allclose(total, log_likelihood(record, params), rtol=1e-12)

    def test_empty_test_side_is_none_and_warns(self, rng):
        record = make_record(rng, n=2, N=10, T=5.0)
        params = make_model(rng, n=2)
        split = EvalSplit(record.horizon)
        with pytest.warns(NumericsWarning, match="empty test"):
            train, test = split_eval(record, params, split)
        assert train is not None
        assert test is None

    def test_empty_train_side_is_none_and_warns(self, rng):
        record = make_record(rng, n=2, N=10, T=5.0)
        params = make_model(rng, n=2)
        with pytest.warns(NumericsWarning, match="empty train"):
            train, test = split_eval(record, params, EvalSplit(0.0))
        assert train is None
        assert test is not None

    def test_split_beyond_horizon_rejected(self, rng):
        record = make_record(rng, n=2, N=10, T=5.0)
        params = make_model(rng, n=2)
        with pytest.raises(ValueError):
            split_eval(record, params, EvalSplit(5.5))

    def test_negative_split_rejected(self):
        with pytest.raises(ValueError):
            EvalSplit(-1.0)

    def test_poisson_per_event_value_concentrates(self):
        # For a homogeneous Poisson stream at rate mu the per-event value is
        # log(mu) - mu * t / N, and N / t -> mu, so it settles near log(mu) - 1.
        mu = 3.0
        params = ModelParams(
            EmbeddingPair(np.zeros((1, 2)), np.zeros((1, 2))),
            KernelBank(np.array([1.0]), np.array([1.0]), np.array([0.0])),
            np.array([1.0]),
            np.array([mu]),
        )
        record = simulate_thinning(params, T=2000.0, seed=3)
        train, test = split_eval(record, params, EvalSplit(1000.0))
        assert abs(train - (np.log(mu) - 1.0)) < 0.05
        assert abs(test - (np.log(mu) - 1.0)) < 0.05


def brute_hellinger(a: BranchingStructure, b: BranchingStructure) -> float:
    """Dictionary-based restatement: one distribution per event, keys shared."""
    N = a.record.N
    out = np.empty(N)
    for j in range(N):
        da = {(-1, -1): a.p_background[j]}
        db = {(-1, -1): b.p_background[j]}
        for e in range(a.p.size):
            if a.j_idx[e] == j:
                da[(int(a.i_idx[e]), int(a.r_idx[e]))] = a.p[e]
        for e in range(b.p.size):
            if b.j_idx[e] == j:
                db[(int(b.i_idx[e]), int(b.r_idx[e]))] = b.p[e]
        bc = sum(np.sqrt(da.get(k, 0.0) * db.get(k, 0.0)) for k in set(da) | set(db))
        out[j] = np.sqrt(max(0.0, 1.0 - bc))
    return float(out.mean())


def event_distances(a: BranchingStructure, b: BranchingStructure) -> np.ndarray:
    """Each event's Hellinger distance, from one ``np.intersect1d`` over every
    ``(j, i, r)`` key: half the sum of ``(sqrt(p_a) - sqrt(p_b))**2`` over the
    background and the common keys, plus each entry only one side holds, summed
    per event in a's entry order and then b's."""
    N, R = a.record.N, max(a.R, b.R)

    def keys(x):
        return (x.j_idx * N + x.i_idx) * R + x.r_idx

    ka, kb = keys(a), keys(b)
    _, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
    terms = np.concatenate((a.p, b.p))
    terms[ia], terms[a.p.size + ib] = (np.sqrt(a.p[ia]) - np.sqrt(b.p[ib])) ** 2, 0.0
    sq = (np.sqrt(a.p_background) - np.sqrt(b.p_background)) ** 2
    sq += np.bincount(np.concatenate((ka, kb)) // (N * R), weights=terms, minlength=N)
    return np.sqrt(0.5 * sq)


def decimal_hellinger(a: BranchingStructure, b: BranchingStructure) -> float:
    """The divergence in 50-digit decimals: each event's distance is
    ``sqrt(sum((sqrt(p_a) - sqrt(p_b))**2) / 2)`` over the union of its keys."""
    with localcontext() as ctx:
        ctx.prec = 50
        rows = [[{"bg": Decimal(float(x.p_background[j]))} for j in range(a.record.N)]
                for x in (a, b)]
        for row, x in zip(rows, (a, b)):
            for i, j, r, p in zip(x.i_idx.tolist(), x.j_idx.tolist(), x.r_idx.tolist(),
                                  x.p.tolist()):
                row[j][(i, r)] = Decimal(p)
        total = Decimal(0)
        for da, db in zip(*rows):
            sq = sum((da.get(k, Decimal(0)).sqrt() - db.get(k, Decimal(0)).sqrt()) ** 2
                     for k in da.keys() | db.keys())
            total += (sq / 2).sqrt()
        return float(total / a.record.N)


def intersect_hellinger(a: BranchingStructure, b: BranchingStructure) -> float:
    """The divergence as one ``np.intersect1d`` over every ``(j, i, r)`` key."""
    return float(event_distances(a, b).mean())


def only_basis(b: BranchingStructure, r: int, R: int) -> BranchingStructure:
    """``b``'s entries moved onto basis ``r`` of ``R``."""
    return BranchingStructure(b.record, b.i_idx, b.j_idx, np.full_like(b.r_idx, r), b.p,
                              b.p_background, R)


def all_background(record: EventRecord) -> BranchingStructure:
    empty = np.array([], dtype=np.int64)
    return BranchingStructure(record, empty, empty, empty,
                              np.array([], dtype=np.float64),
                              np.ones(record.N), R=1)


class TestHellinger:
    def test_identical_attributions_score_zero(self, rng):
        record = make_record(rng, n=2, N=8)
        b = make_branching(rng, record, R=2)
        # each term (sqrt(p) - sqrt(p))^2 is 0; 1 - BC would keep each row sum's
        # rounding, ~1e-8 after the sqrt
        assert hellinger_divergence(b, b) == 0.0

    def test_nearly_equal_attributions_match_decimals(self, rng):
        # mu scaled by 1 + 1e-6 puts each event's squared distance near 1e-14,
        # so 1 - BC, whose terms round at 1e-16, reads about 2e-3 relative off
        record = make_record(rng, n=6, N=150)
        params = make_model(rng, n=6, R=2)
        a = e_step(record, params)
        b = e_step(record, with_mu(params, params.mu * (1.0 + 1e-6)))
        assert_allclose(hellinger_divergence(a, b), decimal_hellinger(a, b), rtol=1e-9)

    def test_disjoint_support_scores_one(self, rng):
        record = make_record(rng, n=2, N=6)
        est = all_background(record)
        truth = make_branching(rng, record, R=1)
        # strip all background mass from the truth side, except event 0 which
        # has no possible trigger and must stay exogenous
        keep = np.zeros(record.N)
        keep[0] = 1.0
        scale = 1.0 / (1.0 - truth.p_background[truth.j_idx])
        truth = BranchingStructure(record, truth.i_idx, truth.j_idx, truth.r_idx,
                                   truth.p * scale, keep, R=1)
        expected = (record.N - 1) / record.N  # event 0 agrees exactly
        assert_allclose(hellinger_divergence(est, truth), expected, rtol=1e-12)

    def test_symmetry(self, rng):
        record = make_record(rng, n=3, N=10)
        a = make_branching(rng, record, R=2)
        b = make_branching(rng, record, R=2)
        assert_allclose(hellinger_divergence(a, b), hellinger_divergence(b, a),
                        rtol=1e-14)

    def test_two_event_example_by_hand(self):
        record = EventRecord([0, 1], [1.0, 2.0], 2, 3.0)
        one = np.array([1], dtype=np.int64)
        zero = np.array([0], dtype=np.int64)
        a = BranchingStructure(record, zero, one, zero, np.array([0.75]),
                               np.array([1.0, 0.25]), R=1)
        b = BranchingStructure(record, zero, one, zero, np.array([0.25]),
                               np.array([1.0, 0.75]), R=1)
        # event 0 agrees; event 1 has BC = 2 sqrt(3)/4, so H = (sqrt(3)-1)/2
        expected = (np.sqrt(3.0) - 1.0) / 4.0
        assert_allclose(hellinger_divergence(a, b), expected, rtol=1e-14)

    def test_matches_brute_force_on_em_attributions(self, rng):
        record = make_record(rng, n=3, N=25, T=8.0)
        pa = make_model(rng, n=3, R=2)
        pb = make_model(rng, n=3, R=2)
        a = e_step(record, pa, floor=1e-12)
        b = e_step(record, pb, floor=1e-12)
        assert_allclose(hellinger_divergence(a, b), brute_hellinger(a, b),
                        rtol=1e-12)

    @pytest.mark.parametrize("block", [1, 7, model.PAIR_BLOCK])
    def test_equals_the_key_intersection_to_the_bit(self, rng, monkeypatch, block):
        monkeypatch.setattr(model, "PAIR_BLOCK", block)
        ticks = np.sort(rng.integers(0, 12, size=30))  # tie runs
        record = EventRecord(rng.integers(0, 3, size=30), ticks * 0.5, 3, 7.0)
        e1 = e_step(record, make_model(rng, n=3, R=1), floor=1e-3)
        e2 = e_step(record, make_model(rng, n=3, R=2), floor=1e-3)
        h1, h2 = make_branching(rng, record, R=1), make_branching(rng, record, R=2)
        pairs = [
            (e1, e2), (e2, e1), (h1, e2), (h2, e1),      # estimated.R != truth.R
            (shuffled(rng, h2), h2), (shuffled(rng, e2), shuffled(rng, h2)),
            (e2, e2), (h1, make_branching(rng, record, R=1)),  # identical supports
            (all_background(record), h2),                # disjoint supports
            (only_basis(h1, 0, 2), only_basis(h1, 1, 2)),
        ]
        for a, b in pairs:
            assert hellinger_divergence(a, b) == intersect_hellinger(a, b)
        assert hellinger_divergence(shuffled(rng, h2), e2) == hellinger_divergence(h2, e2)

    def test_memory_is_one_block(self, rng, monkeypatch):
        # two 180k-entry attributions against blocks of 4,096 entries
        monkeypatch.setattr(model, "PAIR_BLOCK", 4096)
        record = make_record(rng, n=3, N=600, T=5.0)
        a = e_step(record, make_model(rng, n=3, R=1), floor=0.0)
        b = e_step(record, make_model(rng, n=3, R=2), floor=0.0)
        tracemalloc.start()
        try:
            value = hellinger_divergence(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == intersect_hellinger(a, b)
        # one intersection over all keys peaks near 540 blocks of float64 here
        assert a.p.size + b.p.size > 100 * model.PAIR_BLOCK
        assert peak < 32 * 8 * model.PAIR_BLOCK

    def test_mismatched_records_rejected(self, rng):
        ra = make_record(rng, n=2, N=5)
        rb = make_record(rng, n=2, N=6)
        with pytest.raises(ValueError, match="different records"):
            hellinger_divergence(all_background(ra), all_background(rb))

    def test_empty_record_rejected(self):
        empty = all_background(EventRecord([], [], 2, 1.0))
        with pytest.raises(ValueError, match="empty record"):
            hellinger_divergence(empty, empty)


def with_mu(params, mu):
    return ModelParams(params.embedding, params.kernels, params.xi, np.asarray(mu, float))


def assert_matches_pairwise(record, a, b):
    """The pair-free divergence against ``hellinger_divergence`` of the two
    ``e_step`` attributions: unfloored to 1e-12, at the default floor to 1e-6."""
    value = attribution_hellinger(record, a, b)
    unfloored = hellinger_divergence(e_step(record, a, floor=0.0), e_step(record, b, floor=0.0))
    assert_allclose(value, unfloored, rtol=1e-12)
    assert_allclose(value, hellinger_divergence(e_step(record, a), e_step(record, b)),
                    rtol=1e-6)


@st.composite
def hellinger_problems(draw):
    """A record with tie runs and silent types, and two models of 1 or 2 bases."""
    n = draw(st.integers(1, 4))
    ticks = sorted(draw(st.lists(st.integers(0, 40), min_size=1, max_size=16)))
    types = draw(st.lists(st.integers(0, max(n - 2, 0)), min_size=len(ticks),
                          max_size=len(ticks)))
    record = EventRecord(types, np.array(ticks, dtype=np.float64) * 0.5, n,
                         ticks[-1] * 0.5 + 1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return record, make_model(rng, n, R=draw(st.integers(1, 2))), \
        make_model(rng, n, R=draw(st.integers(1, 2)))


class TestAttributionHellinger:
    @pytest.mark.parametrize("block", [2, 7, model.SCAN_BLOCK, 4096])
    def test_tie_runs_across_scan_chunks(self, rng, monkeypatch, block):
        # chunks of 2 and 7 events end inside the runs of tied times
        monkeypatch.setattr(model, "SCAN_BLOCK", block)
        ticks = np.sort(rng.integers(0, 15, size=40))
        record = EventRecord(rng.integers(0, 3, size=40), ticks * 0.5, 3, 8.0)
        assert np.any(np.diff(record.times) == 0.0)
        assert_matches_pairwise(record, make_model(rng, 3, R=2), make_model(rng, 3, R=2))

    def test_silent_types_and_zero_background_rates(self, rng):
        # types 3 and 4 never occur; type 1 occurs with no background rate,
        # so its events are triggered with certainty under both models
        record = make_record(rng, n=5, N=40, T=10.0)
        types = np.where(record.types > 2, 0, record.types)
        types[0] = 0
        record = EventRecord(types, record.times, 5, record.horizon)
        a = with_mu(make_model(rng, 5, R=2), [0.3, 0.0, 0.2, 0.1, 0.0])
        b = with_mu(make_model(rng, 5, R=1), [0.2, 0.0, 0.4, 0.0, 0.3])
        assert np.any(record.types == 1)
        assert_matches_pairwise(record, a, b)

    def test_record_far_beyond_the_exp_range(self, rng):
        # kappa * T reaches 6,000: exp(kappa t) overflows without the scan's chunks
        times = np.sort(np.concatenate([c + rng.uniform(0.0, 3.0, size=8)
                                        for c in (0.0, 9.0, 600.0, 1500.0, 1995.0)]))
        record = EventRecord(rng.integers(0, 3, size=times.size), times, 3, 2000.0)
        a, b = make_model(rng, 3, R=2), make_model(rng, 3, R=1)
        assert (a.kappa.max() * record.horizon) > 700.0
        assert_matches_pairwise(record, a, b)

    @pytest.mark.parametrize("Ra, Rb", [(1, 2), (2, 1)])
    def test_unequal_basis_counts(self, rng, Ra, Rb):
        record = make_record(rng, n=3, N=40, T=10.0)
        assert_matches_pairwise(record, make_model(rng, 3, R=Ra), make_model(rng, 3, R=Rb))

    @pytest.mark.parametrize("R", [1, 2])
    def test_full_rank_against_geometric(self, rng, R):
        record = make_record(rng, n=4, N=40, T=10.0)
        frb = FullRankParams(rng.uniform(0.0, 0.3, size=(4, 4)), rng.uniform(0.3, 3.0, size=R),
                             np.full(R, 1.0 / R), rng.uniform(0.05, 0.5, size=4))
        geo = make_model(rng, 4, R=2)
        assert_matches_pairwise(record, frb, geo)
        assert_matches_pairwise(record, geo, frb)

    def test_symmetric_and_zero_on_identical_parameters(self, rng):
        record = make_record(rng, n=3, N=50, T=10.0)
        a, b = make_model(rng, 3, R=2), make_model(rng, 3, R=1)
        assert_allclose(attribution_hellinger(record, a, b),
                        attribution_hellinger(record, b, a), rtol=1e-14)
        # unlike the pairwise divergence it forms 1 - BC, which rounding puts at 0 +- eps
        assert attribution_hellinger(record, a, a) < 1e-7

    @given(hellinger_problems())
    def test_property_matches_pairwise(self, problem):
        # Where event j's two attributions nearly agree, 1 - BC_j sits a few
        # ulps from zero, and rounding BC_j by those ulps moves the distance
        # H_j = sqrt(1 - BC_j) by eps / (2 H_j), at most sqrt(eps): the
        # pair-free form carries that error, so the mean is held to it.
        record, a, b = problem
        h = event_distances(e_step(record, a, floor=0.0), e_step(record, b, floor=0.0))
        eps = 8 * np.finfo(np.float64).eps
        assert_allclose(attribution_hellinger(record, a, b), h.mean(), rtol=1e-12,
                        atol=np.mean(eps / np.maximum(2.0 * h, np.sqrt(eps))))

    def test_empty_record_rejected(self, rng):
        params = make_model(rng, 2)
        with pytest.raises(ValueError, match="empty record"):
            attribution_hellinger(EventRecord([], [], 2, 1.0), params, params)

    def test_type_count_mismatch_rejected(self, rng):
        record = make_record(rng, n=2, N=5)
        with pytest.raises(ValueError, match="record's types"):
            attribution_hellinger(record, make_model(rng, 2), make_model(rng, 3))

    @pytest.mark.parametrize("dead_side", [0, 1])
    def test_zero_intensity_raises_like_e_step(self, rng, dead_side):
        record = make_record(rng, n=2, N=10)
        live = make_model(rng, 2)
        dead = with_mu(live, np.where(np.arange(2) == record.types[0], 0.0, 0.4))
        sides = (dead, live) if dead_side == 0 else (live, dead)
        with pytest.raises(DegenerateEventError) as exc:
            attribution_hellinger(record, *sides)
        assert exc.value.index == 0
        with pytest.raises(DegenerateEventError):
            e_step(record, dead)


class TestBackgroundQQ:
    def test_full_background_subset_is_exact(self, rng):
        record = make_record(rng, n=2, N=30, T=10.0)
        params = make_model(rng, n=2)
        points = background_qq(record, params, all_background(record), seed=0)
        assert points.shape == (record.N - 1, 2)
        assert_allclose(points[:, 0], np.sort(np.diff(record.times)), rtol=0)
        q = (np.arange(1, record.N) - 0.5) / (record.N - 1)
        assert_allclose(points[:, 1], -np.log1p(-q) / params.mu.sum(), rtol=1e-14)

    def test_columns_increase(self, rng):
        record = make_record(rng, n=2, N=50, T=20.0)
        params = make_model(rng, n=2)
        b = make_branching(rng, record, R=1)
        points = background_qq(record, params, b, seed=4)
        assert np.all(np.diff(points[:, 0]) >= 0.0)
        assert np.all(np.diff(points[:, 1]) > 0.0)

    def test_same_seed_reproduces_subset(self, rng):
        record = make_record(rng, n=2, N=40, T=15.0)
        params = make_model(rng, n=2)
        b = make_branching(rng, record, R=1)
        first = background_qq(record, params, b, seed=9)
        second = background_qq(record, params, b, seed=9)
        assert np.array_equal(first, second)

    def test_subset_sampling_follows_background_probabilities(self, rng):
        record = make_record(rng, n=2, N=40, T=15.0)
        params = make_model(rng, n=2)
        b = make_branching(rng, record, R=1)
        points = background_qq(record, params, b, seed=7)
        pick = np.random.default_rng(7).random(record.N) < b.p_background
        expected = np.sort(np.diff(record.times[pick]))
        assert_allclose(points[:, 0], expected, rtol=0)

    def test_tiny_subset_returns_none_and_warns(self, rng):
        record = make_record(rng, n=2, N=10, T=5.0)
        params = make_model(rng, n=2)
        b = BranchingStructure(record, *[np.array([], dtype=np.int64)] * 3,
                               np.array([], dtype=np.float64),
                               np.zeros(record.N), R=1)
        with pytest.warns(NumericsWarning, match="subset smaller"):
            assert background_qq(record, params, b, seed=0) is None

    def test_zero_background_rate_rejected(self, rng):
        record = make_record(rng, n=2, N=10, T=5.0)
        params = make_model(rng, n=2)
        zeroed = ModelParams(params.embedding, params.kernels, params.xi,
                             np.zeros(2))
        with pytest.raises(ValueError, match="background rate"):
            background_qq(record, zeroed, all_background(record), seed=0)

    @pytest.mark.parametrize("R", [1, 2])
    def test_probabilities_are_the_attributions(self, rng, monkeypatch, R):
        monkeypatch.setattr(model, "SCAN_BLOCK", 7)
        ticks = np.sort(rng.integers(0, 30, size=60))  # tie runs across chunks
        record = EventRecord(rng.integers(0, 3, size=60), ticks * 0.5, 3, 16.0)
        params = make_model(rng, 3, R=R)
        assert_allclose(background_probabilities(record, params),
                        e_step(record, params, floor=0.0).p_background, rtol=1e-12)

    def test_without_branching_matches_the_attribution(self):
        truth = sample_ground_truth(n=5, m=2, R=1, seed=31)
        record = simulate_thinning(truth, seed=32, target_events=300)
        params = sample_ground_truth(n=5, m=2, R=2, seed=33).params
        for p in (truth.params, params):
            for seed in range(3):
                assert np.array_equal(background_qq(record, p, seed=seed),
                                      background_qq(record, p, e_step(record, p), seed=seed))

    def test_zero_intensity_raises_like_e_step(self, rng):
        record = make_record(rng, n=2, N=10, T=5.0)
        params = make_model(rng, n=2)
        dead = with_mu(params, np.where(np.arange(2) == record.types[0], 0.0, 0.3))
        for call in (lambda: background_qq(record, dead, seed=0),
                     lambda: e_step(record, dead)):
            with pytest.raises(DegenerateEventError) as exc:
                call()
            assert exc.value.index == 0


class TestCategoricalAccuracy:
    @staticmethod
    def flat_params(n, mu):
        return ModelParams(
            EmbeddingPair(np.zeros((n, 2)), np.zeros((n, 2))),
            KernelBank(np.array([1.0]), np.array([1.0]), np.array([0.0])),
            np.ones(n),
            mu,
        )

    def test_uniform_intensity_scores_one_over_n(self, rng):
        record = make_record(rng, n=4, N=40, T=10.0)
        params = self.flat_params(4, np.full(4, 0.7))
        score, naive = categorical_accuracy(record, params, (5.0, 10.0))
        assert_allclose(score, 0.25, rtol=1e-12)
        realized = record.types[(record.times >= 5.0) & (record.times < 10.0)]
        hist = record.types[record.times < 5.0]
        share = np.bincount(hist, minlength=4) / hist.size
        assert_allclose(naive, np.exp(np.mean(np.log(share[realized]))), rtol=1e-12)

    def test_single_type_scores_one(self, rng):
        record = make_record(rng, n=1, N=20, T=10.0)
        params = self.flat_params(1, np.array([1.0]))
        score, naive = categorical_accuracy(record, params, (5.0, 10.0))
        assert score == 1.0
        assert naive == 1.0

    def test_zero_share_collapses_to_zero(self, rng):
        record = make_record(rng, n=2, N=20, T=10.0)
        params = self.flat_params(2, np.array([1.0, 0.0]))
        assert np.any(record.types[record.times >= 5.0] == 1)
        score, _ = categorical_accuracy(record, params, (5.0, 10.0))
        assert score == 0.0

    def test_empty_window_is_nan_and_warns(self, rng):
        record = EventRecord([0, 1], [1.0, 2.0], 2, 10.0)
        params = make_model(rng, n=2)
        with pytest.warns(NumericsWarning, match="no events"):
            score, naive = categorical_accuracy(record, params, (5.0, 10.0))
        assert np.isnan(score) and np.isnan(naive)

    @pytest.mark.parametrize("window", [(1.5, 0.2), (-1.0, 5.0), (5.0, 11.0), (np.nan, 5.0)])
    def test_window_is_checked_as_the_compensator_checks_it(self, rng, window):
        record = make_record(rng, n=3, N=15, T=10.0)
        params = make_model(rng, n=3)
        for score in (categorical_accuracy, compensator):
            with pytest.raises(ValueError, match="window must satisfy"):
                score(record, params, window)

    def test_event_with_zero_total_intensity_has_share_zero(self):
        # no background and nothing before the first event: its share would be 0 / 0
        record = EventRecord([0, 1, 0], [0.5, 1.0, 1.5], 2, 2.0)
        params = FullRankParams(np.full((2, 2), 0.5), [1.0], [1.0], [0.0, 0.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            score, _ = categorical_accuracy(record, params, (0.0, 2.0))
        assert score == 0.0
        assert all(w.category is NumericsWarning for w in caught)
        assert [str(w.message) for w in caught if "total" in str(w.message)] == \
            ["event 0 has zero total intensity; its share is 0"]

    def test_missing_history_warns_and_uses_window(self, rng):
        record = make_record(rng, n=3, N=15, T=10.0)
        params = make_model(rng, n=3)
        with pytest.warns(NumericsWarning, match="no pre-window history"):
            _, naive = categorical_accuracy(record, params, (0.0, 10.0))
        share = np.bincount(record.types, minlength=3) / record.N
        assert_allclose(naive, np.exp(np.mean(np.log(share[record.types]))),
                        rtol=1e-12)

    def test_matches_plain_loop_on_simulated_data(self):
        truth = sample_ground_truth(n=4, m=2, R=1, seed=21)
        record = simulate_thinning(truth, T=60.0, seed=22)
        score, _ = categorical_accuracy(record, truth.params, (30.0, 60.0))
        from conftest import brute_intensity

        logs = []
        for j in range(record.N):
            t = record.times[j]
            if not (30.0 <= t < 60.0):
                continue
            lam = np.array([brute_intensity(record, truth.params, k, t)
                            for k in range(record.n)])
            logs.append(np.log(lam[record.types[j]] / lam.sum()))
        assert_allclose(score, np.exp(np.mean(logs)), rtol=1e-9)


def scipy_tau(x, y) -> float:
    with warnings.catch_warnings():
        # scipy warns that one value is too small a sample, and returns NaN
        warnings.filterwarnings("ignore", "One or more sample arguments is too small",
                                RuntimeWarning)
        return kendalltau(x, y).statistic


def assert_tau_is_scipys(x, y):
    """``_kendall_tau_b`` equals ``kendalltau(x, y).statistic`` to the bit."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    got, want = _kendall_tau_b(x, y), scipy_tau(x, y)
    assert isinstance(got, float)
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


@st.composite
def tied_samples(draw):
    """Two samples of equal length, each on a few levels or continuous, with
    joint ties wherever both repeat, and optionally some infinite values."""
    M = draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sample():
        levels = draw(st.sampled_from([1, 2, 3, 5, M]))
        values = rng.integers(0, levels, size=M).astype(np.float64)
        if draw(st.booleans()):
            values[rng.random(M) < 0.1] = np.inf
        return values

    return sample(), sample()


class TestKendallTauB:
    @given(tied_samples())
    def test_property_is_scipys_to_the_bit(self, samples):
        assert_tau_is_scipys(*samples)

    @pytest.mark.parametrize("x, y", [
        ([0.0, 1.0], [0.0, 1.0]),                            # M = 2, concordant
        ([0.0, 1.0], [1.0, 0.0]),                            # M = 2, discordant
        ([0.0, 1.0], [3.0, 3.0]),                            # M = 2, y all ties
        ([2.0, 2.0], [0.0, 1.0]),                            # M = 2, x all ties
        ([5.0], [1.0]),                                      # one value: no pairs
        ([4.0] * 7, [4.0] * 7),                              # all equal
        ([1.0, 1.0, 2.0, 2.0, 3.0], [1.0, 1.0, 2.0, 0.0, 0.0]),  # joint ties
        ([0.0, np.inf, np.inf, 1.0], [np.inf, 2.0, 1.0, np.inf]),
    ])
    def test_hand_cases_are_scipys(self, x, y):
        assert_tau_is_scipys(x, y)

    def test_continuous_samples_are_scipys(self, rng):
        for M in (2, 3, 50, 2500):
            assert_tau_is_scipys(rng.normal(size=M), rng.normal(size=M))

    def test_large_tied_samples_are_scipys(self, rng):
        # 2,500 values on 40 and 15 levels: ties in each sample and joint ties
        x, y = rng.integers(0, 40, size=2500), rng.integers(0, 15, size=2500)
        assert_tau_is_scipys(x, y)
        assert_tau_is_scipys(x, np.where(rng.random(2500) < 0.5, x, y))

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e200])
    def test_distance_correlation_is_scipys_on_cdist(self, rng, scale):
        # at 1e200 some cross distances overflow to inf
        for _ in range(5):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 5))
            learned, truth = (EmbeddingPair(scale * rng.normal(size=(n, m)),
                                            scale * rng.normal(size=(n, m))) for _ in range(2))
            want = scipy_tau(cdist(learned.reception, learned.influence).ravel(),
                             cdist(truth.reception, truth.influence).ravel())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NumericsWarning)
                got = kendall_distance_correlation(learned, truth)
            assert np.isnan(got) if np.isnan(want) else got == want


class TestKendall:
    def test_identical_embeddings_give_one(self, rng):
        e = EmbeddingPair(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
        assert_allclose(kendall_distance_correlation(e, e), 1.0, atol=1e-12)

    def test_monotone_rescaling_preserves_order(self, rng):
        e = EmbeddingPair(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        doubled = EmbeddingPair(2.0 * e.reception, 2.0 * e.influence)
        assert_allclose(kendall_distance_correlation(e, doubled), 1.0, rtol=0)

    def test_reversed_distances_give_minus_one(self):
        # cross distances |x_k - y_l|: learned (1, 2, 9, 8), truth (9, 8, 1, 2)
        learned = EmbeddingPair(np.array([[0.0], [10.0]]),
                                np.array([[1.0], [2.0]]))
        truth = EmbeddingPair(np.array([[10.0], [0.0]]),
                              np.array([[1.0], [2.0]]))
        assert_allclose(kendall_distance_correlation(learned, truth), -1.0, rtol=0)

    def test_collapsed_embedding_gives_nan_with_a_warning(self, rng):
        collapsed = EmbeddingPair(np.zeros((4, 2)), np.zeros((4, 2)))
        truth = EmbeddingPair(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
        with pytest.warns(NumericsWarning, match="all cross distances equal"):
            assert np.isnan(kendall_distance_correlation(collapsed, truth))

    def test_size_mismatch_rejected(self, rng):
        a = EmbeddingPair(np.zeros((3, 2)), np.zeros((3, 2)))
        b = EmbeddingPair(np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            kendall_distance_correlation(a, b)


class TestPhiRmse:
    def test_equal_matrices_score_zero(self, rng):
        phi = rng.uniform(size=(3, 3))
        assert phi_rmse(phi, phi) == 0.0

    def test_identity_versus_zero(self):
        assert_allclose(phi_rmse(np.eye(2), np.zeros((2, 2))), np.sqrt(0.5),
                        rtol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            phi_rmse(np.zeros((2, 2)), np.zeros((3, 3)))
