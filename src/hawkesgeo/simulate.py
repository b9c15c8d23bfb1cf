"""Ground-truth sampling and exact simulation by thinning.

Between events every clock decays, so the total intensity just after the last
accepted event bounds the intensity until the next one.  Proposals arrive at
that bound's rate and are accepted with probability (current total / bound);
the bound tightens after every proposal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .em import BranchingStructure, NumericalError, e_step
from .model import EmbeddingPair, EventRecord, KernelBank, ModelParams, _rates, \
    horizon_past, influence_matrix


@dataclass(frozen=True)
class GroundTruth:
    """A sampled generating model plus its seed and spectral radius."""

    params: ModelParams
    seed: int
    stability_radius: float


def sample_ground_truth(n: int, m: int = 2, R: int = 1, seed: int = 0) -> GroundTruth:
    """Draw a stable generating model.

    Embeddings are uniform on the unit cube; the bandwidth is Gamma with
    shape 1/sqrt(n); decay rates and background rates are log-normal (the
    latter divided by n); exertion is uniform; the amplitude starts at
    1/sqrt(n) and is rescaled so the influence matrix has unit Frobenius
    norm.  That bounds its spectral radius (``stability_radius``) by 1 only:
    where the spatial weights are flattened to uniform, the matrix is rank one
    and its radius rounds to 1 - 4e-16, a critical process.
    """
    if n < 1 or m < 1 or R < 1:
        raise ValueError("n, m, R must be positive")
    rng = np.random.default_rng(seed)
    X = rng.random((n, m))
    Y = rng.random((n, m))
    beta_sq = rng.gamma(1.0 / np.sqrt(n), 1.0, size=R)
    kappa = rng.lognormal(0.0, 1.0, size=R)
    mu = rng.lognormal(0.0, 1.0, size=n) / n
    gamma0 = np.full(R, 1.0 / np.sqrt(n))
    params0 = ModelParams(EmbeddingPair(X, Y), KernelBank(beta_sq, kappa, gamma0),
                          np.ones(n), mu)
    fro = float(np.linalg.norm(influence_matrix(params0)))
    params = ModelParams(EmbeddingPair(X, Y), KernelBank(beta_sq, kappa, gamma0 / fro),
                         np.ones(n), mu)
    radius = float(np.max(np.abs(np.linalg.eigvals(influence_matrix(params)))))
    return GroundTruth(params, seed, radius)


def simulate_thinning(truth, T: float | None = None, seed: int = 0, *,
                      target_events: int | None = None,
                      event_cap: int = 2_000_000) -> EventRecord:
    """Simulate the process exactly by thinning.

    Stops at horizon ``T`` or after ``target_events`` accepted events
    (whichever first; at least one must be given).  In target mode the record
    horizon is placed just past the last event.  Per proposal the draws are:
    waiting time, acceptance, then (if accepted) the type.  An intensity above
    the bound at any proposal raises ``NumericalError``.  A horizon that is not
    positive and finite, or a negative ``target_events``, raises ``ValueError``
    before any draw.
    """
    params = truth.params if isinstance(truth, GroundTruth) else truth
    if T is None and target_events is None:
        raise ValueError("give a horizon T or a target event count")
    if T is not None and not (0.0 < T < np.inf):
        raise ValueError(f"horizon T must be positive and finite, got {T!r}")
    if target_events is not None and not target_events >= 0:
        raise ValueError(f"target_events must be at least 0, got {target_events!r}")
    if target_events is not None and target_events > event_cap:
        raise ValueError("target_events exceeds event_cap")
    A = params.amplitudes()
    R, n = A.shape[0], A.shape[1]
    kappa = np.asarray(params.kappa, dtype=np.float64)
    mu = np.asarray(params.mu, dtype=np.float64)
    mu_total = float(mu.sum())
    acol = A.sum(axis=1)  # (R, n) mass emitted per occurrence of each type
    if target_events is not None and mu_total <= 0.0:
        raise NumericalError("cannot reach a target event count with zero background rate")
    # the rise of the bound at a type-k event, each summed over its own column:
    # an axis-0 sum may round differently
    jump = [float(np.sum(kappa * acol[:, k])) for k in range(n)]
    decay_rate = -kappa[:, None]
    stop_after = np.inf if target_events is None else target_events
    stop_at = np.inf if T is None else float(T)

    rng = np.random.default_rng(seed)
    exponential, uniform = rng.exponential, rng.random
    S = np.zeros((R, n))
    S_flat = S.reshape(-1)  # a view: S_flat[r * n + k] is S[r, k]
    t = 0.0
    lam_bar = mu_total
    ev_types: list[int] = []
    ev_times: list[float] = []
    N = 0

    while N < stop_after:
        if lam_bar <= 0.0:
            break  # dead process: no background and no remaining excitation
        w = exponential(1.0 / lam_bar)
        t_new = t + w
        if t_new >= stop_at:
            break
        S *= np.exp(decay_rate * w)
        tot = mu_total + float(np.einsum("r,rl,rl->", kappa, acol, S))
        if tot > lam_bar * (1.0 + 1e-9):
            raise NumericalError(f"intensity {tot:.6g} over the thinning bound {lam_bar:.6g}")
        t = t_new
        if uniform() * lam_bar <= tot:
            cum = _rates(mu, kappa, A, S).cumsum()
            k = min(int(cum.searchsorted(uniform() * cum[-1], "right")), n - 1)
            ev_types.append(k)
            ev_times.append(t)
            N += 1
            for i in range(k, R * n, n):
                S_flat[i] += 1.0
            lam_bar = tot + jump[k]
            if N >= event_cap and target_events is None:  # target_events <= event_cap
                raise NumericalError(
                    f"event cap {event_cap} hit at t={t:.6g} with bound {lam_bar:.6g}; "
                    "the process may be supercritical")
        else:
            lam_bar = tot

    horizon = T if T is not None else horizon_past(ev_times)
    return EventRecord(np.array(ev_types, dtype=np.int64),
                       np.array(ev_times, dtype=np.float64), n, horizon)


def ground_truth_branching(record: EventRecord, truth) -> BranchingStructure:
    """The posterior attribution of a record under its generating model."""
    params = truth.params if isinstance(truth, GroundTruth) else truth
    return e_step(record, params)
