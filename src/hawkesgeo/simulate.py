"""Ground-truth sampling and exact simulation by thinning.

Between events every clock decays, so the total intensity just after the last
accepted event bounds the intensity until the next one.  Proposals arrive at
that bound's rate and are accepted with probability (current total / bound);
the bound tightens after every proposal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .em import BRANCHING_FLOOR, BranchingStructure, NumericalError, e_step
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
    norm, which keeps the process subcritical.
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
    the bound at any proposal raises ``NumericalError``.
    """
    params = truth.params if isinstance(truth, GroundTruth) else truth
    if T is None and target_events is None:
        raise ValueError("give a horizon T or a target event count")
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

    rng = np.random.default_rng(seed)
    S = np.zeros((R, n))
    t = 0.0
    lam_bar = mu_total
    ev_types: list[int] = []
    ev_times: list[float] = []

    while True:
        if target_events is not None and len(ev_times) >= target_events:
            break
        if lam_bar <= 0.0:
            break  # dead process: no background and no remaining excitation
        w = rng.exponential(1.0 / lam_bar)
        t_new = t + w
        if T is not None and t_new >= T:
            break
        decay = np.exp(-kappa * w)
        S *= decay[:, None]
        tot = mu_total + float(np.einsum("r,rl,rl->", kappa, acol, S))
        if tot > lam_bar * (1.0 + 1e-9):
            raise NumericalError(f"intensity {tot:.6g} over the thinning bound {lam_bar:.6g}")
        t = t_new
        u = rng.random()
        if u * lam_bar <= tot:
            cum = np.cumsum(_rates(mu, kappa, A, S))
            k = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            k = min(k, n - 1)
            ev_types.append(k)
            ev_times.append(t)
            S[:, k] += 1.0
            lam_bar = tot + float(np.sum(kappa * acol[:, k]))
            if len(ev_times) >= event_cap and (target_events is None or
                                               len(ev_times) < target_events):
                raise NumericalError(
                    f"event cap {event_cap} hit at t={t:.6g} with bound {lam_bar:.6g}; "
                    "the process may be supercritical")
        else:
            lam_bar = tot

    horizon = T if T is not None else horizon_past(ev_times)
    return EventRecord(np.array(ev_types, dtype=np.int64),
                       np.array(ev_times, dtype=np.float64), n, horizon)


def ground_truth_branching(record: EventRecord, truth,
                           floor: float = BRANCHING_FLOOR) -> BranchingStructure:
    """The posterior attribution of a record under its generating model."""
    params = truth.params if isinstance(truth, GroundTruth) else truth
    return e_step(record, params, floor=floor)
