"""Spectral embedding of influence matrices and the default initialization.

A density-normalized influence matrix is row-normalized into a pair of random
walks (one over receivers, one over influencers).  The left singular vectors
of each walk, scaled by their singular values, give coordinates; the top
component carries no contrast and is dropped.
"""

from __future__ import annotations

import warnings

import numpy as np

from .model import EmbeddingPair, EventRecord, KernelBank, ModelParams, NumericsWarning, \
    _decayed_counts, _pair_blocks, _sq_distances, _within_pair_cache

_SMOOTHING = 1e-12


def density_normalize(phi: np.ndarray, alpha: float) -> np.ndarray:
    """Discount row/column density: ``A = Dc^-alpha  phi  Dr^-alpha``.

    ``Dc`` holds column sums (mass received about each type as influencer)
    and ``Dr`` row sums.  A matrix with a zero row or column sum is smoothed
    uniformly first, with a warning.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise ValueError("phi must be square")
    if np.any(phi < 0.0) or not np.all(np.isfinite(phi)):
        raise ValueError("phi entries must be nonnegative and finite")
    col = phi.sum(axis=0)
    row = phi.sum(axis=1)
    if np.any(col == 0.0) or np.any(row == 0.0):
        warnings.warn("zero row or column sum; smoothing influence matrix", NumericsWarning)
        phi = phi + _SMOOTHING
        col = phi.sum(axis=0)
        row = phi.sum(axis=1)
    return (col ** -alpha)[:, None] * phi * (row ** -alpha)[None, :]


def _walk_coordinates(B: np.ndarray, m: int) -> np.ndarray:
    """Left singular vectors scaled by singular values.

    The top component is dropped by convention: it tracks the walk's leading
    (near-uniform) structure and carries little contrast.
    """
    n = B.shape[0]
    U, s, _ = np.linalg.svd(B)
    coords = U * s[None, :]
    # orient each component so its largest-magnitude entry is positive
    for c in range(coords.shape[1]):
        lead = np.argmax(np.abs(coords[:, c]))
        if coords[lead, c] < 0.0:
            coords[:, c] = -coords[:, c]
    tol = s[0] * n * np.finfo(np.float64).eps
    usable = int(np.sum(s > tol))
    out = np.zeros((n, m))
    have = max(0, min(usable, n) - 1)
    if have < m:
        warnings.warn("fewer informative spectral components than m; zero-padding",
                      NumericsWarning)
    take = min(have, m)
    out[:, :take] = coords[:, 1:1 + take]
    return out


def diffusion_embed(A: np.ndarray, m: int) -> EmbeddingPair:
    """Embed receivers and influencers in ``m`` dimensions from the two walks."""
    if m < 1:
        raise ValueError("m must be >= 1")
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    row = A.sum(axis=1)
    col = A.sum(axis=0)
    if np.any(row <= 0.0) or np.any(col <= 0.0):
        raise ValueError("A must have positive row and column sums")
    B_recv = A / row[:, None]
    At = A.T
    B_infl = At / col[:, None]
    X = _walk_coordinates(B_recv, m)
    Y = _walk_coordinates(B_infl, m)
    return EmbeddingPair(X, Y)


def event_time_scale(record: EventRecord) -> float:
    """Mean interarrival time scaled by the number of types; its reciprocal,
    the initial decay rate, must be finite."""
    if record.N < 2:
        raise ValueError("need at least two events to set a time scale")
    span = float(record.times[-1] - record.times[0])
    if span <= 0.0:
        raise ValueError("all events are simultaneous; no usable time scale")
    t_hat = record.n * span / (record.N - 1)
    if np.isinf(1.0 / t_hat):
        raise ValueError(f"events span {span:g}, too short a time for a finite decay rate")
    return t_hat


def _initial_rates(record: EventRecord, R: int):
    """Initial decay rates ``1/(r t_hat)``, even basis weights, even background rates."""
    t_hat = event_time_scale(record)
    kappa = np.array([1.0 / (r * t_hat) for r in range(1, R + 1)])
    return kappa, np.full(R, 1.0 / R), np.full(record.n, record.N / (record.horizon * record.n))


def init_influence_guess(record: EventRecord) -> np.ndarray:
    """Crude pairwise influence counts with a single exponential clock.

    Each ordered pair of types accumulates the clock value at its observed
    lags, with the clock's rate set from the mean interarrival time.  Up to
    ``model.PAIR_CACHE`` pairs, since fits under that budget depend on its rounding, it
    sums ``_pair_blocks``' pairs 512 receiving events at a time with ``np.add.at``, in
    pair order, as its ``bincount``.  Past the budget, as ``fit`` does, it builds no
    pairs: it sums ``kappa S(t_j)``, the decayed counts at each event, by the event's type.
    """
    t_hat = event_time_scale(record)
    kap = 1.0 / t_hat
    n = record.n
    if not _within_pair_cache(record):
        phi = np.zeros(n * n)
        for rows, X, fall in _decayed_counts(record, np.array([kap]), record.times):
            phi += np.bincount(((record.types[rows] * n)[:, None] + np.arange(n)).ravel(),
                               (X * fall[..., None]).ravel(), n * n)
        return kap * phi.reshape(n, n)
    phi, part = np.zeros(n * n), np.empty(n * n)
    for s in range(0, record.N, 512):
        part[:] = 0.0
        for _, _, dt, dyad in _pair_blocks(record, s, s + 512):
            np.add.at(part, dyad, kap * np.exp(-kap * dt))
        phi += part
    return phi.reshape(n, n)


def init_params(record: EventRecord, R: int = 1, m: int = 2,
                alpha: float = 1.0, embedding: EmbeddingPair | None = None) -> ModelParams:
    """Spectral initialization of the full parameter set.

    Embeds the crude influence guess, sets each basis bandwidth to the mean
    dyadic squared distance, staggers the clock rates, splits amplitude
    evenly, and spreads the empirical event rate uniformly over types.
    Passing ``embedding`` skips the spectral step and initializes around the
    given coordinates instead (the frozen-coordinate estimator relies on
    this).
    """
    kappa, gamma, mu = _initial_rates(record, R)
    if embedding is None:
        A = density_normalize(init_influence_guess(record), alpha)
        emb = diffusion_embed(A, m)
    else:
        if embedding.reception.shape[0] != record.n:
            raise ValueError("embedding size does not match number of types")
        emb = embedding
    d2 = _sq_distances(emb.reception, emb.influence)
    beta0 = float(d2.mean())
    if beta0 <= 0.0:
        warnings.warn("collapsed initial embedding; flooring bandwidth", NumericsWarning)
        beta0 = 1e-12
    kernels = KernelBank(
        beta_sq=np.full(R, beta0),
        kappa=kappa,
        gamma=gamma,
    )
    xi = np.ones(record.n)
    return ModelParams(emb, kernels, xi, mu)
