"""First- and second-order moves of the reception points.

The climbed objective is the attributed-data surrogate in which each
occurrence's spatial mass is the raw (unnormalized) Gaussian summed over
receptors and every clock integrates to one.  Its gradient with respect to a
reception point splits into an attraction toward the influence points that
feed it and a repulsion proportional to the Gaussian affinity itself; the
Hessian of the same surrogate is an isotropic part plus a sum of rank-one
terms, and stays block-diagonal across types.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import EmbeddingPair, EventRecord, ModelParams, NumericsWarning, _sq_distances


@dataclass(frozen=True)
class ReceptionHessian:
    """Per-type Hessian blocks in split form.

    ``c[k]`` is the isotropic (diagonal) coefficient and ``outer_sum[k]`` the
    positive-semidefinite sum of rank-one terms, so the raw block is
    ``c[k] * I - outer_sum[k]``.  Ceiling forces the isotropic part
    nonpositive, which makes every block negative semidefinite.
    """

    c: np.ndarray          # (n,)
    outer_sum: np.ndarray  # (n, m, m)

    def assembled(self, ceiling: bool = True) -> np.ndarray:
        m = self.outer_sum.shape[1]
        diag = np.minimum(self.c, 0.0) if ceiling else self.c
        return diag[:, None, None] * np.eye(m)[None, :, :] - self.outer_sum


def _gaussian_terms(record: EventRecord, params: ModelParams):
    """Shared pieces: per-basis affinities, displacement vectors, masses."""
    X = params.embedding.reception
    Y = params.embedding.influence
    m = params.m
    diff = X[:, None, :] - Y[None, :, :]          # (n, n, m), [k, l]
    d2 = _sq_distances(X, Y)
    counts = record.count_by_type()
    weights = counts * params.xi                   # occurrences weighted by exertion
    G = np.empty((params.R, record.n, record.n))
    for r in range(params.R):
        b2 = params.kernels.beta_sq[r]
        G[r] = (2.0 * np.pi * b2) ** (-m / 2.0) * np.exp(-d2 / (2.0 * b2))
    return diff, G, weights


def _reception_derivatives(record: EventRecord, params: ModelParams, branching,
                           hessian: bool = True):
    """``(gradient (n, m), ReceptionHessian or None)`` from one set of
    Gaussian terms: the repulsive part sums once per occurrence of each
    influencing type, the attractive part weighs displacement by attributed
    mass, and the Hessian blocks come in split form."""
    diff, G, weights = _gaussian_terms(record, params)
    M = branching.dyad_mass  # (R, n, n)
    n, m = params.embedding.reception.shape
    a = np.zeros_like(params.embedding.reception)
    c = np.zeros(n)
    outer = np.zeros((n, m, m))
    for r in range(params.R):
        b2 = params.kernels.beta_sq[r]
        gauss = weights[None, :] * params.kernels.gamma[r] * G[r]
        a += np.einsum("kl,klm->km", (-M[r] + gauss) / b2, diff)
        if hessian:
            c += (gauss - M[r]).sum(axis=1) / b2
            outer += np.einsum("kl,klm,kln->kmn", gauss, diff, diff) / b2**2
    return a, (ReceptionHessian(c, outer) if hessian else None)


def reception_gradient(record: EventRecord, params: ModelParams,
                       branching) -> np.ndarray:
    """Gradient of the surrogate objective in the reception points, (n, m)."""
    return _reception_derivatives(record, params, branching, hessian=False)[0]


def reception_hessian(record: EventRecord, params: ModelParams,
                      branching) -> ReceptionHessian:
    """Per-type blocks of the surrogate Hessian, in split form."""
    return _reception_derivatives(record, params, branching)[1]


def hhg_a_step(params: ModelParams, gradient: np.ndarray,
               eps: float, N: int) -> np.ndarray:
    """One plain ascent step ``x + eps * gradient / N``; non-finite rows stay put."""
    if eps <= 0.0 or N <= 0:
        raise ValueError("eps and N must be positive")
    step = (eps / N) * gradient
    ok = np.all(np.isfinite(step), axis=1)
    if not ok.all():
        warnings.warn("non-finite gradient rows skipped in ascent step", NumericsWarning)
        step = np.where(ok[:, None], step, 0.0)
    return params.embedding.reception + step


def hhg_b_step(params: ModelParams, gradient: np.ndarray,
               hessians: ReceptionHessian, eps1: float | None, eps2: float,
               N: int) -> np.ndarray:
    """One damped Newton ascent step on the reception points.

    The gradient is tilted toward the origin by ``2 N eps2 x`` and the
    (negative semidefinite, post-ceiling) Hessian blocks are shifted by
    ``-2 N (1/eps1 + eps2) I``; with ``eps1=None`` only the second shift
    applies.  Each block solves through a Cholesky factorization of the
    negated system; a block that fails retries once with a tenfold ridge and
    is skipped (with a warning) if still singular.
    """
    if N <= 0:
        raise ValueError("N must be positive")
    inv_eps1 = 0.0 if eps1 is None else 1.0 / eps1
    ridge = 2.0 * N * (inv_eps1 + eps2)
    X = params.embedding.reception
    n, m = X.shape
    atil = gradient - 2.0 * N * eps2 * X
    neg_blocks = -hessians.assembled()
    eye = np.eye(m)
    step = np.zeros_like(X)
    try:
        L = np.linalg.cholesky(neg_blocks + ridge * eye)
        z = np.linalg.solve(L, atil[:, :, None])
        step = np.linalg.solve(np.transpose(L, (0, 2, 1)), z)[:, :, 0]
    except np.linalg.LinAlgError:
        for k in range(n):  # a skipped block keeps its zero step
            for factor in (1.0, 10.0):
                try:
                    Lk = np.linalg.cholesky(neg_blocks[k] + factor * ridge * eye)
                    zk = np.linalg.solve(Lk, atil[k])
                    step[k] = np.linalg.solve(Lk.T, zk)
                    break
                except np.linalg.LinAlgError:
                    continue
            else:
                warnings.warn(f"singular Newton block for type {k}; step skipped",
                              NumericsWarning)
    return X + step


def embedding_inner_loop(record: EventRecord, params: ModelParams, branching,
                         eps1: float | None, eps2: float, steps: int = 4) -> ModelParams:
    """The damped-Newton inner loop run each M-phase, for ``record.N`` events.

    Gradient and Hessian are recomputed, from one set of Gaussian terms,
    after every step because the affinities move with the points.
    """
    for _ in range(steps):
        grad, hess = _reception_derivatives(record, params, branching)
        X_new = hhg_b_step(params, grad, hess, eps1, eps2, record.N)
        params = ModelParams(
            EmbeddingPair(X_new, params.embedding.influence),
            params.kernels, params.xi, params.mu,
        )
    return params
