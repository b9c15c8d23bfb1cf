"""Reception-point optimizers: gradient, Hessian blocks, ascent steps.

The gradient/Hessian oracles are central finite differences of the surrogate
objective from conftest (with the receptor Gaussian sum kept live, since that
is the term these derivatives carry).
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hawkesgeo import geometry
from hawkesgeo.em import FitConfig, fit
from hawkesgeo.geometry import (
    ReceptionHessian,
    embedding_inner_loop,
    hhg_a_step,
    hhg_b_step,
    reception_gradient,
    reception_hessian,
)
from hawkesgeo.model import (
    EmbeddingPair,
    EventRecord,
    KernelBank,
    ModelParams,
    NumericsWarning,
)
from hawkesgeo.simulate import sample_ground_truth, simulate_thinning

from conftest import Surrogate, make_branching, make_model


def cyclic_record(rng, n, N, T=10.0):
    times = np.sort(rng.uniform(0.0, T, size=N))
    return EventRecord(np.arange(N) % n, times, n, T)


def with_reception(params, X):
    return ModelParams(EmbeddingPair(X, params.embedding.influence),
                       params.kernels, params.xi, params.mu)


def fd_gradient(sur, params, h=1e-5):
    X = params.embedding.reception
    out = np.zeros_like(X)
    for k in range(X.shape[0]):
        for d in range(X.shape[1]):
            up = X.copy()
            up[k, d] += h
            down = X.copy()
            down[k, d] -= h
            out[k, d] = (sur.value(with_reception(params, up), receptor_sum=True)
                         - sur.value(with_reception(params, down),
                                     receptor_sum=True)) / (2.0 * h)
    return out


class TestReceptionGradient:
    def test_vanishes_without_mass_or_amplitude(self, rng):
        n = 3
        record = cyclic_record(rng, n, 6)
        params = make_model(rng, n)
        silent = ModelParams(params.embedding,
                             KernelBank(params.kernels.beta_sq,
                                        params.kernels.kappa, np.zeros(1)),
                             params.xi, params.mu)
        empty = type(make_branching(rng, record, 1))(
            record,
            np.array([], dtype=np.int64), np.array([], dtype=np.int64),
            np.array([], dtype=np.int64), np.array([]),
            np.ones(record.N), 1)
        grad = reception_gradient(record, silent, empty)
        assert_allclose(grad, np.zeros_like(grad))

    def test_matches_finite_differences(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 5))
            R = int(rng.integers(1, 3))
            record = cyclic_record(rng, n, int(rng.integers(6, 14)))
            params = make_model(rng, n, R=R)
            br = make_branching(rng, record, R)
            sur = Surrogate(record, br)
            a = reception_gradient(record, params, br)
            fd = fd_gradient(sur, params)
            assert np.linalg.norm(fd - a) < 1e-5 * max(np.linalg.norm(a), 1e-8)

    def test_symmetric_influencers_give_axial_gradient(self):
        # receptor on the symmetry axis of two mirror-image influencers:
        # the off-axis components cancel exactly
        record = EventRecord([1, 2, 0], [0.0, 0.5, 1.0], 3, 2.0)
        X = np.array([[0.0, 1.0], [3.0, 3.0], [-3.0, 3.0]])
        Y = np.array([[0.0, 9.0], [-1.0, 0.0], [1.0, 0.0]])
        params = ModelParams(EmbeddingPair(X, Y),
                             KernelBank([0.8], [1.0], [0.5]),
                             np.ones(3), np.full(3, 0.2))
        br = type(make_branching(np.random.default_rng(0), record, 1))(
            record, np.array([0, 1]), np.array([2, 2]), np.array([0, 0]),
            np.array([0.3, 0.3]), np.array([1.0, 1.0, 0.4]), 1)
        a = reception_gradient(record, params, br)
        assert a[0, 0] == 0.0
        assert a[0, 1] != 0.0


class TestReceptionHessian:
    def test_matches_finite_differences_of_gradient(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 5))
            R = int(rng.integers(1, 3))
            record = cyclic_record(rng, n, int(rng.integers(6, 14)))
            params = make_model(rng, n, R=R)
            br = make_branching(rng, record, R)
            raw = reception_hessian(record, params, br).assembled(ceiling=False)
            h = 1e-5
            X = params.embedding.reception
            for k in range(n):
                fd_block = np.zeros((params.m, params.m))
                for d in range(params.m):
                    up = X.copy()
                    up[k, d] += h
                    down = X.copy()
                    down[k, d] -= h
                    ga = reception_gradient(record, with_reception(params, up), br)
                    gb = reception_gradient(record, with_reception(params, down), br)
                    fd_block[:, d] = (ga[k] - gb[k]) / (2.0 * h)
                assert np.linalg.norm(fd_block - raw[k]) < \
                    1e-4 * max(np.linalg.norm(raw[k]), 1e-8)

    def test_ceiling_zeroes_positive_diagonal(self):
        hess = ReceptionHessian(np.array([0.7, -0.3]),
                                np.zeros((2, 2, 2)))
        post = hess.assembled(ceiling=True)
        assert_allclose(post[0], np.zeros((2, 2)))
        assert_allclose(post[1], -0.3 * np.eye(2))
        pre = hess.assembled(ceiling=False)
        assert_allclose(pre[0], 0.7 * np.eye(2))

    def test_post_ceiling_blocks_negative_semidefinite(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 5))
            record = cyclic_record(rng, n, int(rng.integers(6, 14)))
            params = make_model(rng, n, R=int(rng.integers(1, 3)))
            br = make_branching(rng, record, params.R)
            post = reception_hessian(record, params, br).assembled(ceiling=True)
            for k in range(n):
                assert np.linalg.eigvalsh(post[k]).max() <= 1e-10


class TestHHGAStep:
    def test_zero_gradient_is_fixed_point(self, rng):
        params = make_model(rng, 3)
        out = hhg_a_step(params, np.zeros((3, 2)), 0.5, 10)
        assert np.array_equal(out, params.embedding.reception)

    def test_displacement_linear_in_eps(self, rng):
        params = make_model(rng, 3)
        grad = rng.normal(size=(3, 2))
        d1 = hhg_a_step(params, grad, 0.2, 10) - params.embedding.reception
        d2 = hhg_a_step(params, grad, 0.4, 10) - params.embedding.reception
        assert_allclose(d2, 2.0 * d1, rtol=1e-12)

    def test_nonfinite_rows_skipped(self, rng):
        params = make_model(rng, 3)
        a = rng.normal(size=(3, 2))
        a[1, 0] = np.inf
        with pytest.warns(NumericsWarning):
            out = hhg_a_step(params, a, 0.5, 10)
        assert np.array_equal(out[1], params.embedding.reception[1])
        assert not np.array_equal(out[0], params.embedding.reception[0])

    @pytest.mark.parametrize("eps, N", [(0.0, 10), (-0.5, 10), (0.5, 0)])
    def test_nonpositive_rate_or_count_rejected(self, rng, eps, N):
        with pytest.raises(ValueError, match="eps and N must be positive"):
            hhg_a_step(make_model(rng, 3), np.zeros((3, 2)), eps, N)

    def test_default_learning_rate_is_n_over_N(self):
        truth = sample_ground_truth(4, seed=2)
        record = simulate_thinning(truth, target_events=80, seed=3)
        explicit = fit(record, FitConfig(mode="hhg-a", epochs=3,
                                         eps=record.n / record.N))
        default = fit(record, FitConfig(mode="hhg-a", epochs=3))
        assert np.array_equal(explicit.params_final.embedding.reception,
                              default.params_final.embedding.reception)


class TestHHGBStep:
    @pytest.mark.parametrize("N", [0, -1])
    def test_nonpositive_count_rejected(self, rng, N):
        flat = ReceptionHessian(np.zeros(3), np.zeros((3, 2, 2)))
        with pytest.raises(ValueError, match="N must be positive"):
            hhg_b_step(make_model(rng, 3), np.zeros((3, 2)), flat, None, 0.3, N)

    def test_vanishing_curvature_reduces_to_scaled_ascent(self, rng):
        params = make_model(rng, 3)
        a = rng.normal(size=(3, 2))
        flat = ReceptionHessian(np.zeros(3), np.zeros((3, 2, 2)))
        N, eps1 = 50, 0.8
        out = hhg_b_step(params, a, flat, eps1, 0.0, N)
        assert_allclose(out - params.embedding.reception,
                        (eps1 / (2.0 * N)) * a, rtol=1e-12)

    def test_origin_fixed_point_under_shrinkage(self, rng):
        params = make_model(rng, 2)
        at_origin = with_reception(params, np.zeros((2, 2)))
        flat = ReceptionHessian(np.zeros(2), np.zeros((2, 2, 2)))
        out = hhg_b_step(at_origin, np.zeros((2, 2)),
                         flat, None, 0.3, 20)
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_shrinkage_pulls_to_origin_in_one_flat_step(self, rng):
        # with zero gradient and curvature the tilt solves exactly to -x
        params = make_model(rng, 2)
        flat = ReceptionHessian(np.zeros(2), np.zeros((2, 2, 2)))
        out = hhg_b_step(params, np.zeros((2, 2)),
                         flat, None, 0.3, 20)
        assert_allclose(out, np.zeros((2, 2)), atol=1e-12)

    def test_quadratic_objective_solved_within_four_steps(self, rng):
        # ascent on f(x) = -(x-t)' Q (x-t) per type, Q positive definite
        n, m, N = 3, 2, 40
        target = rng.normal(size=(n, m))
        Qs = []
        for _ in range(n):
            A = rng.normal(size=(m, m))
            Qs.append(A @ A.T + 0.5 * np.eye(m))
        params = make_model(rng, n)
        for _ in range(4):
            X = params.embedding.reception
            a = np.stack([-2.0 * Qs[k] @ (X[k] - target[k]) for k in range(n)])
            hess = ReceptionHessian(np.zeros(n),
                                    np.stack([2.0 * Q for Q in Qs]))
            params = with_reception(
                params, hhg_b_step(params, a, hess,
                                   1e12, 0.0, N))
        assert_allclose(params.embedding.reception, target, atol=1e-8)

    def test_regularized_blocks_stay_negative_definite(self, rng):
        n = 4
        record = cyclic_record(rng, n, 12)
        params = make_model(rng, n, R=2)
        br = make_branching(rng, record, 2)
        hess = reception_hessian(record, params, br)
        N, eps1, eps2 = record.N, 2.0, 0.1
        ridge = 2.0 * N * (1.0 / eps1 + eps2)
        shifted = hess.assembled(ceiling=True) - ridge * np.eye(params.m)
        for k in range(n):
            assert np.linalg.eigvalsh(shifted[k]).max() <= -ridge + 1e-10

    def test_singular_block_skipped_with_warning(self, rng):
        params = make_model(rng, 2)
        flat = ReceptionHessian(np.zeros(2), np.zeros((2, 2, 2)))
        a = rng.normal(size=(2, 2))
        # no ridge at all: the system is exactly singular
        with pytest.warns(NumericsWarning):
            out = hhg_b_step(params, a, flat, None, 0.0, 10)
        assert np.array_equal(out, params.embedding.reception)


class TestInnerLoop:
    def test_runs_requested_number_of_steps(self, rng):
        n = 3
        record = cyclic_record(rng, n, 10)
        params = make_model(rng, n)
        br = make_branching(rng, record, 1)
        one = embedding_inner_loop(record, params, br, None, 0.2, steps=1)
        four = embedding_inner_loop(record, params, br, None, 0.2, steps=4)
        assert not np.array_equal(one.embedding.reception,
                                  four.embedding.reception)
        # influence points and kernels are left alone here
        assert np.array_equal(four.embedding.influence,
                              params.embedding.influence)
        assert four.kernels is params.kernels

    @pytest.mark.parametrize("R", [1, 2])
    def test_is_a_loop_of_the_public_derivatives(self, rng, monkeypatch, R):
        n = 4
        record = cyclic_record(rng, n, 16)
        params = make_model(rng, n, R=R)
        br = make_branching(rng, record, R)
        want = params
        for _ in range(3):
            X = hhg_b_step(want, reception_gradient(record, want, br),
                           reception_hessian(record, want, br), 0.5, 0.1, record.N)
            want = with_reception(want, X)

        calls = []
        terms = geometry._gaussian_terms
        monkeypatch.setattr(geometry, "_gaussian_terms",
                            lambda *args: calls.append(args) or terms(*args))
        got = embedding_inner_loop(record, params, br, 0.5, 0.1, steps=3)
        assert np.array_equal(got.embedding.reception, want.embedding.reception)
        assert len(calls) == 3  # one set of Gaussian terms per step

    def test_improves_surrogate_objective(self, rng):
        n = 3
        record = cyclic_record(rng, n, 12)
        params = make_model(rng, n)
        br = make_branching(rng, record, 1)
        sur = Surrogate(record, br)
        before = sur.value(params, receptor_sum=True)
        after = embedding_inner_loop(record, params, br, None, 0.05, steps=4)
        # eps2 shrinks toward the origin, so compare the tilted objective
        pen = 0.05 * record.N
        tilt_before = before - pen * np.sum(params.embedding.reception ** 2)
        tilt_after = sur.value(after, receptor_sum=True) \
            - pen * np.sum(after.embedding.reception ** 2)
        assert tilt_after >= tilt_before - 1e-9
