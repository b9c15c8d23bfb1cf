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
    _earlier_pairs

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
    """Mean interarrival time scaled by the number of types."""
    if record.N < 2:
        raise ValueError("need at least two events to set a time scale")
    span = float(record.times[-1] - record.times[0])
    if span <= 0.0:
        raise ValueError("all events are simultaneous; no usable time scale")
    return record.n * span / (record.N - 1)


def init_influence_guess(record: EventRecord) -> np.ndarray:
    """Crude pairwise influence counts with a single exponential clock.

    Each ordered pair of types accumulates the clock value at its observed
    lags, with the clock's rate set from the mean interarrival time.  It is a
    pair sum over 512 receiving events at a time, since fits depend on its rounding.
    """
    t_hat = event_time_scale(record)
    kap = 1.0 / t_hat
    n = record.n
    times = record.times
    types = record.types
    phi = np.zeros(n * n)
    chunk = 512
    for s in range(0, record.N, chunk):
        ii, jj = _earlier_pairs(times, s, min(s + chunk, record.N))
        vals = kap * np.exp(-kap * (times[jj] - times[ii]))
        phi += np.bincount(types[jj] * n + types[ii], weights=vals, minlength=n * n)
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
    t_hat = event_time_scale(record)
    if embedding is None:
        A = density_normalize(init_influence_guess(record), alpha)
        emb = diffusion_embed(A, m)
    else:
        if embedding.reception.shape[0] != record.n:
            raise ValueError("embedding size does not match number of types")
        emb = embedding
    d2 = np.sum((emb.reception[:, None, :] - emb.influence[None, :, :]) ** 2, axis=2)
    beta0 = float(d2.mean())
    if beta0 <= 0.0:
        warnings.warn("collapsed initial embedding; flooring bandwidth", NumericsWarning)
        beta0 = 1e-12
    kernels = KernelBank(
        beta_sq=np.full(R, beta0),
        kappa=np.array([1.0 / (r * t_hat) for r in range(1, R + 1)]),
        gamma=np.full(R, 1.0 / R),
    )
    xi = np.ones(record.n)
    mu = np.full(record.n, record.N / (record.horizon * record.n))
    return ModelParams(emb, kernels, xi, mu)
