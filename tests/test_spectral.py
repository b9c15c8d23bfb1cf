"""Spectral embedding of influence structure and the initialization protocol."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hawkesgeo import model
from hawkesgeo.model import EmbeddingPair, EventRecord, NumericsWarning
from hawkesgeo.spectral import (
    density_normalize,
    diffusion_embed,
    event_time_scale,
    init_influence_guess,
    init_params,
)

from conftest import make_record


def chunked_bincount_guess(record):
    """The influence guess as one ``bincount`` over all pairs of each 512
    receiving events: the rounding every fit without ``init`` starts from."""
    kap = 1.0 / event_time_scale(record)
    n, types = record.n, record.types
    i_idx, j_idx, dt = model.pair_indices(record)
    phi = np.zeros(n * n)
    for s in range(0, record.N, 512):
        chunk = slice(*np.searchsorted(j_idx, [s, s + 512]))  # pairs run in j order
        ii, jj = i_idx[chunk], j_idx[chunk]
        vals = kap * np.exp(-kap * dt[chunk])
        phi += np.bincount(types[jj] * n + types[ii], weights=vals, minlength=n * n)
    return phi.reshape(n, n)


class TestDensityNormalize:
    def test_alpha_zero_is_identity(self, rng):
        phi = rng.uniform(0.1, 1.0, size=(4, 4))
        assert_allclose(density_normalize(phi, 0.0), phi, rtol=1e-14)

    def test_all_ones_matrix(self):
        n = 5
        out = density_normalize(np.ones((n, n)), 1.0)
        assert_allclose(out, np.full((n, n), 1.0 / n**2), rtol=1e-12)

    def test_nonnegative(self, rng):
        phi = rng.uniform(0.0, 2.0, size=(6, 6))
        assert np.all(density_normalize(phi, 0.7) >= 0.0)

    def test_zero_column_smoothed_with_warning(self):
        phi = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.warns(NumericsWarning):
            out = density_normalize(phi, 1.0)
        assert np.all(np.isfinite(out))
        assert np.all(out > 0.0)

    @pytest.mark.parametrize("phi, msg", [
        (np.ones((2, 3)), "phi must be square"),
        (np.ones(4), "phi must be square"),
        (np.array([[1.0, -0.5], [0.5, 1.0]]), "phi entries must be nonnegative and finite"),
        (np.array([[1.0, np.inf], [0.5, 1.0]]), "phi entries must be nonnegative and finite"),
    ])
    def test_malformed_matrices_rejected(self, phi, msg):
        with pytest.raises(ValueError, match=msg):
            density_normalize(phi, 1.0)


class TestDiffusionEmbed:
    def test_output_shapes(self, rng):
        A = rng.uniform(0.1, 1.0, size=(7, 7))
        emb = diffusion_embed(A, 3)
        assert emb.reception.shape == (7, 3)
        assert emb.influence.shape == (7, 3)

    def test_dimension_must_be_positive(self, rng):
        with pytest.raises(ValueError, match="m must be >= 1"):
            diffusion_embed(rng.uniform(0.1, 1.0, size=(3, 3)), 0)

    @pytest.mark.parametrize("A, msg", [
        (np.ones((2, 3)), "A must be square"),
        (np.ones(4), "A must be square"),
        (np.array([[1.0, 1.0], [0.0, 0.0]]), "A must have positive row and column sums"),
        (np.array([[1.0, 0.0], [1.0, 0.0]]), "A must have positive row and column sums"),
    ])
    def test_malformed_affinities_rejected(self, A, msg):
        with pytest.raises(ValueError, match=msg):
            diffusion_embed(A, 1)

    def test_scale_invariance(self, rng):
        A = rng.uniform(0.1, 1.0, size=(5, 5))
        e1 = diffusion_embed(A, 2)
        e2 = diffusion_embed(3.7 * A, 2)
        assert_allclose(e1.reception, e2.reception, atol=1e-12)
        assert_allclose(e1.influence, e2.influence, atol=1e-12)

    def test_disconnected_blocks_separate(self):
        A = np.zeros((5, 5))
        A[:3, :3] = 1.0
        A[3:, 3:] = 1.0
        emb = diffusion_embed(A, 1)
        first = emb.reception[:, 0]
        assert_allclose(first[:3], first[0], atol=1e-9)
        assert_allclose(first[3:], first[3], atol=1e-9)
        assert abs(first[0] - first[3]) > 1e-3

    def test_identity_affinity_distances_deterministic(self):
        emb1 = diffusion_embed(np.eye(4), 2)
        emb2 = diffusion_embed(np.eye(4), 2)
        d1 = np.linalg.norm(emb1.reception[:, None] - emb1.reception[None, :],
                            axis=2)
        d2 = np.linalg.norm(emb2.reception[:, None] - emb2.reception[None, :],
                            axis=2)
        assert_allclose(d1, d2)

    def test_rank_deficient_padded_with_warning(self):
        A = np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 2.0])
        with pytest.warns(NumericsWarning):
            emb = diffusion_embed(A, 2)
        assert emb.reception.shape == (3, 2)
        assert_allclose(emb.reception, np.zeros((3, 2)))

    def test_sign_convention_largest_entry_positive(self, rng):
        A = rng.uniform(0.1, 1.0, size=(6, 6))
        emb = diffusion_embed(A, 2)
        for col in range(2):
            v = emb.reception[:, col]
            if np.any(v != 0.0):
                assert v[np.argmax(np.abs(v))] > 0.0


class TestTimeScale:
    def test_hand_example(self):
        record = EventRecord([0, 1, 0, 1], [0.0, 1.0, 2.0, 3.0], 2, 4.0)
        assert_allclose(event_time_scale(record), 2.0)

    def test_needs_two_events(self):
        record = EventRecord([0], [0.5], 1, 1.0)
        with pytest.raises(ValueError):
            event_time_scale(record)

    def test_simultaneous_events_rejected(self):
        record = EventRecord([0, 0], [1.0, 1.0], 1, 2.0)
        with pytest.raises(ValueError):
            event_time_scale(record)


class TestInfluenceGuess:
    def test_single_pair_same_type(self):
        record = EventRecord([0, 0], [0.0, 1.5], 1, 2.0)
        # t_hat equals the single gap, so the guess is (1/gap) e^-1
        guess = init_influence_guess(record)
        assert_allclose(guess, [[np.exp(-1.0) / 1.5]], rtol=1e-12)

    def test_never_ordered_pair_is_zero(self):
        record = EventRecord([1, 0], [0.0, 1.0], 2, 2.0)
        guess = init_influence_guess(record)
        assert guess[1, 0] == 0.0  # type 0 never precedes type 1
        assert guess[0, 1] > 0.0

    def test_matches_plain_loop(self, rng):
        record = make_record(rng, 3, N=30)
        t_hat = event_time_scale(record)
        want = np.zeros((3, 3))
        for j in range(record.N):
            for i in range(j):
                if record.times[i] < record.times[j]:
                    dt = record.times[j] - record.times[i]
                    want[record.types[j], record.types[i]] += \
                        np.exp(-dt / t_hat) / t_hat
        assert_allclose(init_influence_guess(record), want, rtol=1e-10)


    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_blocked_guess_is_the_chunked_bincount(self, rng, monkeypatch, block):
        monkeypatch.setattr(model, "PAIR_BLOCK", block)
        tied = np.sort(rng.integers(0, 300, size=1100)) * 0.5
        for record in (make_record(rng, 4, N=1100, T=5.0),
                       EventRecord(rng.integers(0, 3, size=tied.size), tied, 4, 200.0)):
            got = init_influence_guess(record)
            assert got.dtype == np.float64 and np.array_equal(got, chunked_bincount_guess(record))

    def test_memory_beyond_the_output_is_one_block(self, rng, monkeypatch):
        # late 512-event chunks hold about 800,000 pairs; blocks hold 4,096
        monkeypatch.setattr(model, "PAIR_BLOCK", 4096)
        record = make_record(rng, 3, N=2000, T=5.0)
        tracemalloc.start()
        try:
            guess = init_influence_guess(record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(guess, chunked_bincount_guess(record))
        assert peak - guess.nbytes < 32 * 8 * model.PAIR_BLOCK

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_guess_past_the_budget_is_the_chunked_bincount(self, rng, monkeypatch, request,
                                                           block):
        # past the budget the guess sums decayed counts: no pairs, the same sums to
        # rounding; tie runs cross chunk edges, and kappa T is 1,500 on the last record
        monkeypatch.setattr(model, "SCAN_BLOCK", block)
        tied = np.sort(rng.integers(0, 300, size=1100)) * 0.5
        records = (make_record(rng, 4, N=1100, T=5.0),
                   EventRecord(rng.integers(0, 3, size=tied.size), tied, 4, 200.0),
                   make_record(rng, 1, N=1501, T=5.0))
        wants = [chunked_bincount_guess(record) for record in records]
        request.getfixturevalue("no_pairs")
        monkeypatch.setattr(model, "PAIR_CACHE", 0)
        for record, want in zip(records, wants):
            got = init_influence_guess(record)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert_allclose(got, want, rtol=1e-12, atol=0.0)
            assert np.array_equal(got == 0.0, want == 0.0)

    def test_memory_past_the_budget_is_one_scan_block(self, rng, monkeypatch):
        # a few (SCAN_BLOCK, n) arrays and the record's (N,) ones: 94 KB measured, where
        # one whole-record (N, n) array takes 640 KB
        monkeypatch.setattr(model, "PAIR_CACHE", 0)
        monkeypatch.setattr(model, "SCAN_BLOCK", 64)
        record = make_record(rng, 20, N=4000, T=50.0)
        bound = 6 * 8 * model.SCAN_BLOCK * record.n + 4 * 8 * record.N
        assert 8 * record.N * record.n > 2.5 * bound
        tracemalloc.start()
        try:
            guess = init_influence_guess(record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_allclose(guess, chunked_bincount_guess(record), rtol=1e-12, atol=0.0)
        assert peak <= bound


class TestInitParams:
    def test_kernel_staggering(self, rng):
        record = make_record(rng, 3, N=40)
        t_hat = event_time_scale(record)
        params = init_params(record, R=3, m=2)
        assert_allclose(params.kernels.kappa,
                        [1.0 / t_hat, 1.0 / (2 * t_hat), 1.0 / (3 * t_hat)],
                        rtol=1e-12)
        assert_allclose(params.kernels.gamma, np.full(3, 1.0 / 3.0))

    def test_background_spreads_event_rate(self, rng):
        record = make_record(rng, 4, N=25, T=8.0)
        params = init_params(record, R=1, m=2)
        assert_allclose(params.mu.sum(), 25 / 8.0, rtol=1e-12)
        assert_allclose(params.xi, np.ones(4))

    def test_bandwidth_is_mean_dyadic_spread(self, rng):
        record = make_record(rng, 3, N=30)
        params = init_params(record, R=2, m=2)
        X = params.embedding.reception
        Y = params.embedding.influence
        d2 = np.sum((X[:, None] - Y[None, :]) ** 2, axis=2)
        assert_allclose(params.kernels.beta_sq, np.full(2, d2.mean()), rtol=1e-12)

    def test_embedding_override(self, rng):
        record = make_record(rng, 3, N=20)
        emb = EmbeddingPair(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
        params = init_params(record, R=1, m=2, embedding=emb)
        assert np.array_equal(params.embedding.reception, emb.reception)
        assert np.array_equal(params.embedding.influence, emb.influence)

    def test_embedding_override_size_checked(self, rng):
        record = make_record(rng, 3, N=20)
        emb = EmbeddingPair(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
        with pytest.raises(ValueError):
            init_params(record, R=1, m=2, embedding=emb)

    def test_collapsed_embedding_floors_the_bandwidth(self, rng):
        record = make_record(rng, 3, N=20)
        point = EmbeddingPair(np.ones((3, 2)), np.ones((3, 2)))
        with pytest.warns(NumericsWarning, match="collapsed initial embedding"):
            params = init_params(record, R=2, m=2, embedding=point)
        assert np.array_equal(params.kernels.beta_sq, [1e-12, 1e-12])
