"""Spectral embedding of influence structure and the initialization protocol."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hawkesgeo.model import EmbeddingPair, EventRecord, NumericsWarning
from hawkesgeo.spectral import (
    density_normalize,
    diffusion_embed,
    event_time_scale,
    init_influence_guess,
    init_params,
)

from conftest import make_record


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


class TestDiffusionEmbed:
    def test_output_shapes(self, rng):
        A = rng.uniform(0.1, 1.0, size=(7, 7))
        emb = diffusion_embed(A, 3)
        assert emb.reception.shape == (7, 3)
        assert emb.influence.shape == (7, 3)

    def test_dimension_must_be_positive(self, rng):
        with pytest.raises(ValueError, match="m must be >= 1"):
            diffusion_embed(rng.uniform(0.1, 1.0, size=(3, 3)), 0)

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
