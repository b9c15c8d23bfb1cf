"""Expectation-maximization engine for the latent-geometry excitation model.

The E-step attributes each event to a (triggering event, basis kernel) pair or
to the background, in closed form.  The M-step maximizes the attributed
("complete-data") objective: the kernel, exertion, and background updates are
closed forms; reception points move by first- or second-order steps (see
``geometry``); a spectral variant re-embeds from the current influence matrix
each epoch; and a full-rank baseline replaces the whole geometric pipeline
with a free nonnegative matrix.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import embedding_inner_loop, hhg_a_step, reception_gradient
from .model import (  # the two error types are also em's, where callers import them
    DegenerateEventError,
    EmbeddingPair,
    EventRecord,
    KernelBank,
    ModelParams,
    NumericalError,
    NumericsWarning,
    _pair_blocks,
    _pair_response,
    _sq_distances,
    _Workspace,
    _compensator,
    _check_types,
    _decayed_counts,
    _own_rates,
    _require_positive,
    _within_pair_cache,
    background_probabilities,
    compensator,
    influence_matrix,
)
from .spectral import _initial_rates, density_normalize, diffusion_embed, \
    init_influence_guess, init_params

MODES = ("hhg-a", "hhg-b", "hhg-dm", "frb", "geo")

# Attribution entries below this probability are dropped and each event's row
# renormalized, so the stored attribution keeps only pairs that carry mass.
BRANCHING_FLOOR = 1e-12


@dataclass(frozen=True)
class GammaPrior:
    """Gamma(shape alpha, rate beta) prior on each temporal decay rate.

    The default (1, 0) is uninformative: it reproduces the plain maximizer.
    """

    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0.0 or self.beta < 0.0:
            raise ValueError("prior requires alpha > 0 and beta >= 0")


@dataclass(frozen=True)
class FitConfig:
    """Estimator mode and hyperparameters for ``fit``.

    Modes: ``hhg-a`` (gradient ascent on reception points), ``hhg-b``
    (regularized Newton steps), ``hhg-dm`` (spectral re-embedding each epoch),
    ``frb`` (full-rank influence baseline), ``geo`` (embedding frozen to
    supplied coordinates).  ``eps`` defaults to n/N when unset; ``eps1=None``
    means the first-order regularizer is switched off (treated as infinite).
    ``prior_alpha`` and ``prior_beta`` are the ``GammaPrior`` on decay rates.
    """

    mode: str = "hhg-b"
    epochs: int = 500
    R: int = 1
    m: int = 2
    eps: float | None = None
    eps1: float | None = None
    eps2: float = 0.0
    dm_alpha: float = 1.0
    inner_steps: int = 4
    prior_alpha: float = 1.0
    prior_beta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "mode", str(self.mode).lower())
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.R < 1 or self.m < 1:
            raise ValueError("R and m must be >= 1")
        for name in ("eps", "eps1", "eps2", "dm_alpha", "prior_alpha", "prior_beta"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.eps is not None and self.eps <= 0.0:
            raise ValueError("eps must be positive when given")
        if self.eps1 is not None and self.eps1 <= 0.0:
            raise ValueError("eps1 must be positive when given")
        if self.eps2 < 0.0:
            raise ValueError("eps2 must be nonnegative")
        if self.inner_steps < 1:
            raise ValueError("inner_steps must be >= 1")
        if self.mode == "hhg-b" and self.eps1 is None and self.eps2 == 0.0:
            raise ValueError("hhg-b needs eps1 or eps2 set, else the Newton system is singular")
        self.prior  # GammaPrior rejects invalid parameters

    @property
    def prior(self) -> GammaPrior:
        """The Gamma prior on each decay rate."""
        return GammaPrior(self.prior_alpha, self.prior_beta)


def _weighted_counts(index, weights, size: int) -> np.ndarray:
    """``np.bincount`` with weights, float64 also when ``index`` is empty."""
    return np.bincount(index, weights=weights, minlength=size).astype(np.float64, copy=False)


@dataclass(frozen=True, eq=False, init=False)
class BranchingStructure:
    """Sparse posterior attribution of events to triggers and background.

    Entry ``e`` states that event ``j_idx[e]`` was triggered by event
    ``i_idx[e]`` through basis kernel ``r_idx[e]`` with probability ``p[e]``;
    ``p_background[j]`` is the probability event ``j`` is exogenous.  Each
    event's probabilities sum to one (entries below a floor may be dropped,
    after which the row is renormalized).

    Entries are kept as runs: basis ``r``'s for event ``j`` are ``starts[j*R + r]:
    starts[j*R + r + 1]`` of ``i_idx`` and ``p``, by trigger.  ``p`` is float64 and
    ``i_idx`` the narrowest unsigned type holding ``N - 1`` (widen it before arithmetic):
    9 bytes an entry, 10 past 256 events.  ``j_idx`` and ``r_idx`` are rebuilt from
    ``starts`` on each access.  The constructor rejects an entry outside the record, with
    ``t_i >= t_j`` or repeated, and orders the entries unless they already are.
    """

    record: EventRecord
    i_idx: np.ndarray
    p: np.ndarray
    starts: np.ndarray
    p_background: np.ndarray
    R: int

    def __init__(self, record, i_idx, j_idx, r_idx, p, p_background, R):
        N = record.N
        i_idx, j_idx, r_idx = (np.asarray(a, dtype=np.int64) for a in (i_idx, j_idx, r_idx))
        p = np.asarray(p, dtype=np.float64)
        if not (i_idx.shape == j_idx.shape == r_idx.shape == p.shape == (p.size,)):
            raise ValueError("entry arrays must share a common length")
        for name, idx, size in (("r_idx", r_idx, R), ("i_idx", i_idx, N), ("j_idx", j_idx, N)):
            if idx.size and (idx.min() < 0 or idx.max() >= size):
                raise ValueError(f"{name} entries must lie in [0, {size})")
        if np.any(record.times[i_idx] >= record.times[j_idx]):
            raise ValueError("each i_idx entry must precede its j_idx entry in time")
        key = (j_idx * R + r_idx) * N + i_idx
        if np.any(np.diff(key) < 0):
            order = np.argsort(key)
            i_idx, p, key = i_idx[order], p[order], key[order]
        if np.any(np.diff(key) == 0):
            raise ValueError("each (i_idx, j_idx, r_idx) entry may appear only once")
        self._store(record, i_idx, p, np.bincount(key // N, minlength=R * N), p_background, R)

    def _store(self, record, i_idx, p, per_run, p_background, R) -> BranchingStructure:
        """Keep entries in run order, ``per_run[j*R + r]`` of them in each run; return self."""
        p_background = np.asarray(p_background, dtype=np.float64)
        if p_background.shape != (record.N,):
            raise ValueError("p_background must have one entry per event")
        if p.size and (p.min() < 0.0 or p.max() > 1.0 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        if p_background.size and (p_background.min() < 0.0):
            raise ValueError("background probabilities must be nonnegative")
        i_idx = i_idx.astype(np.min_scalar_type(max(record.N - 1, 0)), copy=False)
        starts = np.concatenate(([0], np.cumsum(per_run)))
        for name, value in (("record", record), ("i_idx", i_idx), ("p", p), ("starts", starts),
                            ("p_background", p_background), ("R", R)):
            object.__setattr__(self, name, value)
        return self

    @property
    def j_idx(self) -> np.ndarray:
        """Each entry's receiving event, rebuilt from ``starts``."""
        return np.repeat(np.arange(self.record.N), np.diff(self.starts[::self.R]))

    @property
    def r_idx(self) -> np.ndarray:
        """Each entry's basis, rebuilt from ``starts``."""
        return np.repeat(np.tile(np.arange(self.R), self.record.N), np.diff(self.starts))

    def row_sums(self) -> np.ndarray:
        sums = self.p_background.copy()
        sums += np.bincount(self.j_idx, weights=self.p, minlength=self.record.N)
        return sums

    @cached_property
    def mass_by_r(self) -> np.ndarray:
        """Total attributed mass per basis kernel, (R,)."""
        return _weighted_counts(self.r_idx, self.p, self.R)

    @cached_property
    def lag_mass_by_r(self) -> np.ndarray:
        """Attribution-weighted time lags per basis kernel, (R,)."""
        dt = self.record.times[self.j_idx] - self.record.times[self.i_idx]
        return _weighted_counts(self.r_idx, self.p * dt, self.R)

    @cached_property
    def dyad_mass(self) -> np.ndarray:
        """Attributed mass per (basis, receiving type, influencing type), (R, n, n)."""
        n = self.record.n
        flat = (self.r_idx * n + self.record.types[self.j_idx]) * n + self.record.types[self.i_idx]
        return _weighted_counts(flat, self.p, self.R * n * n).reshape(self.R, n, n)

    @cached_property
    def background_mass_by_type(self) -> np.ndarray:
        return _weighted_counts(self.record.types, self.p_background, self.record.n)


@dataclass(frozen=True, eq=False)
class AttributionStats:
    """The four statistics the M-step reads off an attribution, named as on
    ``BranchingStructure``; ``fit`` streams them without keeping the entries."""

    mass_by_r: np.ndarray
    lag_mass_by_r: np.ndarray
    dyad_mass: np.ndarray
    background_mass_by_type: np.ndarray
    R: int


@dataclass(frozen=True)
class FullRankParams:
    """Baseline parameters: a free influence matrix with shared clocks.

    The response of ``l`` on ``k`` is ``phi[k, l]`` spread over the basis
    clocks with weights ``w`` (so ``phi`` is the time-integrated response).
    Satisfies the same amplitude interface as ``ModelParams``.
    """

    phi: np.ndarray     # (n, n) nonnegative
    kappa: np.ndarray   # (R,) positive decay rates
    w: np.ndarray       # (R,) nonnegative clock weights summing to 1
    mu: np.ndarray      # (n,) nonnegative background rates

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        kappa = np.atleast_1d(np.asarray(self.kappa, dtype=np.float64))
        w = np.atleast_1d(np.asarray(self.w, dtype=np.float64))
        mu = np.asarray(self.mu, dtype=np.float64)
        for name, val in (("phi", phi), ("kappa", kappa), ("w", w), ("mu", mu)):
            object.__setattr__(self, name, val)
        if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
            raise ValueError("phi must be square")
        n = phi.shape[0]
        if np.any(phi < 0.0) or not np.all(np.isfinite(phi)):
            raise ValueError("phi entries must be nonnegative and finite")
        if kappa.shape != w.shape or kappa.ndim != 1:
            raise ValueError("kappa and w must share shape (R,)")
        if not np.all(np.isfinite(kappa)) or np.any(kappa <= 0.0):
            raise ValueError("kappa entries must be positive and finite")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("clock weights must be nonnegative, finite and sum to 1")
        if mu.shape != (n,) or not np.all(np.isfinite(mu)) or np.any(mu < 0.0):
            raise ValueError("mu must be (n,) nonnegative and finite")

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def R(self) -> int:
        return self.kappa.size

    @cached_property
    def _amplitudes(self) -> np.ndarray:
        return self.w[:, None, None] * self.phi[None, :, :]

    def amplitudes(self) -> np.ndarray:
        return self._amplitudes


@dataclass
class FitReport:
    """Outcome of one ``fit`` run.

    ``curve[e]`` is the exact train log-likelihood of the parameters entering
    epoch ``e`` (so ``curve[0]`` scores the initialization); ``params_best``
    is the snapshot achieving the best entry, ``params_final`` the state after
    the last M-step.  ``aborted_epoch`` is set if the objective left the
    finite regime and the loop stopped early.  ``p_background`` is
    ``background_probabilities(record, params_best)``, None when no epoch
    scored finite.
    """

    mode: str
    curve: np.ndarray
    params_final: object
    params_best: object
    best_epoch: int
    p_background: np.ndarray | None
    wall_time: float
    aborted_epoch: int | None = None


# ---------------------------------------------------------------------------
# E-step


def _attributed_blocks(record, params, blocks, ws, floor):
    """``_pair_response`` and its attribution at ``floor`` over each of ``_pair_blocks``'
    blocks in turn, in the ``_Workspace`` ``ws``: yields ``(events, dt, lam, attribution)``,
    ``attribution`` being ``_branching_from_response``'s, or None from the first block with
    a non-finite intensity on.  An event with zero intensity raises ``DegenerateEventError``
    with its index in the record."""
    finite = True
    for events, rows, dt, dyad in blocks:
        H, lam = _pair_response(record, params, events, rows, dt, dyad, ws)
        _require_positive(lam, events.start)
        finite = finite and bool(np.all(np.isfinite(lam)))
        yield events, dt, lam, (_branching_from_response(record, params, events, H, lam,
                                                         floor, ws) if finite else None)


def _branching_from_response(record, params, events, H, lam, floor, ws):
    """The attribution of ``events`` from ``_pair_response``'s output ``(H, lam)`` in
    ``ws``: ``(e, cuts, rows, p, p_bg)``.  ``H`` is overwritten with ``p = H / lam[rows]``,
    and its entries at or above ``floor`` are kept basis-major, basis ``r``'s at
    ``cuts[r]:cuts[r + 1]``, each with its offset ``e`` into the block, its receiving row
    and its probability; each event's row is renormalized to sum to one after the floor
    truncation, and ``p_bg`` holds the background probabilities.  ``rows`` and ``p`` are
    views of ``ws``."""
    m = H.shape[1]
    np.multiply(H, np.take(1.0 / lam, ws.rows[:m], out=ws.t[:m], mode="clip"), out=H)
    kept = np.flatnonzero(np.greater_equal(H.ravel(), floor, out=ws.mask[:H.size]))
    cuts = np.searchsorted(kept, m * np.arange(H.shape[0] + 1))
    c = kept.size
    p = np.take(H.ravel(), kept, out=ws.kept_p[:c], mode="clip")
    for r in range(1, H.shape[0]):
        kept[cuts[r]:cuts[r + 1]] -= r * m
    rows = np.take(ws.rows[:m], kept, out=ws.kept_rows[:c], mode="clip")
    p_bg = params.mu[record.types[events]] / lam
    scale = 1.0 / (p_bg + np.bincount(rows, weights=p, minlength=lam.size))
    np.multiply(p, np.take(scale, rows, out=ws.t[:c], mode="clip"), out=p)
    return kept, cuts, rows, p, p_bg * scale


class _Columns:
    """The entries ``_branching_from_response`` keeps, added block by block to one trigger
    column ``i`` (in ``_store``'s narrow type) and one probability column ``p`` that ``resize``
    grows in place, with per-(event, basis) counts ``runs``.  At R >= 2 each of a block's
    basis-major entries is written straight to its slot in run order.  A column grows to its
    kept share of the pairs walked so far times all pairs, at most doubling; no view of a
    column outlives a resize."""

    def __init__(self, record, R):
        n_earlier = np.searchsorted(record.times, record.times, "left")
        self.first = np.concatenate(([0], np.cumsum(n_earlier)))  # where each event's pairs start
        self.i, self.p = np.empty(0, np.min_scalar_type(max(record.N - 1, 0))), np.empty(0)
        self.used, self.runs = 0, np.zeros((record.N, R), np.int64)

    def add(self, events, e, cuts, rows, p):
        base = self.first[events] - self.first[events.start]
        walked, pairs = int(self.first[events.stop]), int(self.first[-1])
        runs = self.runs[events]
        for r, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            runs[:, r] = np.bincount(rows[a:b], minlength=events.stop - events.start)
        u, v = self.used, self.used + e.size
        if v > self.i.size:
            size = max(v, min(2 * v, -(-v * pairs // walked)))
            self.i.resize(size, refcheck=False)
            self.p.resize(size, refcheck=False)
        slot = slice(u, v)
        if len(cuts) > 2:
            # an entry of basis r at row w moves from its basis-major place to its run-order
            # one: by the entries up to the end of its run in run order less in basis-major order
            shift = runs.cumsum().reshape(runs.shape) - runs.T.cumsum().reshape(runs.T.shape).T
            slot = np.repeat(shift.T.ravel(), runs.T.ravel()) + np.arange(u, v)
        self.i[slot] = np.subtract(e, base[rows], out=e)
        self.p[slot], self.used = p, v

    def branching(self, record, p_background) -> BranchingStructure:
        self.i.resize(self.used, refcheck=False)
        self.p.resize(self.used, refcheck=False)
        return BranchingStructure.__new__(BranchingStructure)._store(
            record, self.i, self.p, self.runs.ravel(), p_background, self.runs.shape[1])


def e_step(record: EventRecord, params, floor: float = BRANCHING_FLOOR) -> BranchingStructure:
    """Closed-form posterior attribution under the current parameters.

    Pair entries below ``floor`` are dropped and each event's remaining probabilities
    renormalized to sum to one exactly; ``floor=0`` keeps every pair.  Events are attributed
    in blocks of about ``model.PAIR_BLOCK`` pairs, each built when reached and its kept entries
    written into the output's columns, so the time is ``O(N^2 R)`` but the memory beyond the
    returned entries is one block's, at any R.  A non-finite intensity raises ``NumericalError``,
    and a model of another type count than the record's ``ValueError``.
    """
    _check_types(record, params)
    p_bg, ws, columns = np.empty(record.N), _Workspace(params.R), _Columns(record, params.R)
    for events, _, lam, attribution in _attributed_blocks(record, params, _pair_blocks(record),
                                                          ws, floor):
        if attribution is None:
            bad = events.start + int(np.argmin(np.isfinite(lam)))
            raise NumericalError(f"event {bad} has a non-finite intensity; no attribution exists")
        *kept, p_bg[events] = attribution
        columns.add(events, *kept)
    return columns.branching(record, p_bg)


def _fit_e_step(record, params, blocks, ws):
    """One E-step of ``fit`` in its ``_Workspace`` ``ws``: the intensities at
    the events and the M-step statistics streamed block by block as
    ``AttributionStats``; no entry is kept.

    Each statistic continues its sum through ``np.add.at`` in the order of
    the kept entries, so it is bitwise ``BranchingStructure``'s.  Once an
    intensity is not finite neither is the log-likelihood, and ``fit`` stops:
    the remaining blocks are then only checked for zero intensities, and the
    statistics are None.
    """
    n, R = record.n, params.R
    lam_all, p_bg = np.empty(record.N), np.empty(record.N)
    mass, lag, dyad_mass = np.zeros(R), np.zeros(R), np.zeros(R * n * n)
    for events, dt, lam, attribution in _attributed_blocks(record, params, blocks, ws,
                                                           BRANCHING_FLOOR):
        lam_all[events] = lam
        if attribution is None:
            continue
        e, cuts, r, p, p_bg[events] = attribution
        flat = np.take(ws.dyad[:dt.size], e, out=ws.kept_dyad[:e.size], mode="clip")
        for b in range(R):  # the rows are spent: r becomes each entry's basis
            r[cuts[b]:cuts[b + 1]] = b
            flat[cuts[b]:cuts[b + 1]] += b * (n * n)
        np.add.at(mass, r, p)
        np.add.at(dyad_mass, flat, p)
        t = np.take(dt, e, out=ws.t[:e.size], mode="clip")
        np.add.at(lag, r, np.multiply(p, t, out=t))
    if not np.all(np.isfinite(lam_all)):
        return lam_all, None
    return lam_all, AttributionStats(mass, lag, dyad_mass.reshape(R, n, n),
                                     np.bincount(record.types, weights=p_bg, minlength=n), R)


def _scan_stats(record, params):
    """``_fit_e_step``'s ``(lam, AttributionStats)`` from one decayed-count walk, with
    no event pairs, ``O(N n R)`` time and ``O(SCAN_BLOCK n R)`` memory.  Event ``j``
    reads the counts ``S_r(t_j) = X_r(t_j) fall_r(t_j)`` of the events strictly before it
    and their lag moments ``D_r(t_j) = u_j S_r(t_j) - Y_r(t_j) fall_r(t_j)``; ``lam`` is
    ``_realized_rates``', and the statistics are the unfloored attribution's:
    ``dyad_mass[r] = kappa_r A_r * W_r``, ``W_r[k_j, l]`` a ``bincount`` of ``X_rl(t_j)
    (fall_r(t_j) / lam_j)``, ``lag_mass_by_r[r] = kappa_r sum_j A_r[k_j] . D_r(t_j) /
    lam_j`` from decay-first row dots, and the background ``mu[k_j] / lam_j``.  A zero
    intensity raises ``DegenerateEventError``; after a non-finite one the statistics are
    None.  Nothing divides by either.
    """
    n, R, types = record.n, params.R, record.types
    A, kappa, mu = params.amplitudes(), params.kappa, params.mu
    lam, usable = mu[types], True
    W, lag = np.zeros((R, n * n)), np.zeros(R)  # the sums of S / lam and of A[k] . D / lam
    for rows, X, fall, u, Y in _decayed_counts(record, kappa, record.times, lagged=True):
        k = types[rows]
        own, dots, A_k = _own_rates(mu, kappa, A, X, fall, k)
        lam[rows] = own
        usable = usable and bool(np.all(np.isfinite(own) & (own > 0.0)))
        if usable:
            inv, cells = 1.0 / own, ((k * n)[:, None] + np.arange(n)).ravel()  # k_j n + l
            for r in range(R):
                W[r] += np.bincount(cells, (X[:, r] * (fall[:, r] * inv)[:, None]).ravel(), n * n)
                ydots = np.einsum("j,jl,jl->j", fall[:, r], Y[:, r], A_k[r])  # decay first
                lag[r] += (u * dots[r] - ydots) @ inv
    _require_positive(lam)
    if not usable:
        return lam, None
    dyad = kappa[:, None, None] * (A * W.reshape(R, n, n))
    lag *= kappa
    return lam, AttributionStats(dyad.sum(axis=(1, 2)), lag, dyad,
                                 _weighted_counts(types, mu[types] / lam, n), R)


def complete_data_loglik(record: EventRecord, params, branching: BranchingStructure) -> float:
    """Attributed-data objective: a lower bound on the exact log-likelihood.

    Valid for any branching whose rows sum to one.  A closed form over the
    M-step statistics: ``Σ M·log A + Σ_r (mass_r·log κ_r − κ_r·lag_r) +
    Σ_k bg_k·log μ_k − compensator``.  Positive ``dyad_mass`` on a zero
    amplitude, or background mass on a zero rate, yields ``-inf``; a kernel
    value that underflows at a long lag still adds its finite
    ``log A + log κ − κ·lag``.
    """
    sums = branching.row_sums()
    if sums.size and np.max(np.abs(sums - 1.0)) > 1e-6:
        raise ValueError("branching rows must sum to one")
    A = params.amplitudes()
    M = branching.dyad_mass
    live = M > 0.0
    if np.any(A[live] <= 0.0):
        warnings.warn("positive attribution on a zero response; bound is -inf", NumericsWarning)
        return float("-inf")
    bg = branching.background_mass_by_type
    live_b = bg > 0.0
    if np.any(params.mu[live_b] <= 0.0):
        warnings.warn("background attribution on a zero rate; bound is -inf", NumericsWarning)
        return float("-inf")
    kappa = params.kappa
    val = float(np.sum(M[live] * np.log(A[live])))
    val += float(np.sum(branching.mass_by_r * np.log(kappa) - kappa * branching.lag_mass_by_r))
    val += float(np.sum(bg[live_b] * np.log(params.mu[live_b])))
    return val - compensator(record, params)


# ---------------------------------------------------------------------------
# closed-form M-step updates


def update_kappa(stats: AttributionStats, prior: GammaPrior, current) -> np.ndarray:
    """Posterior-mode decay rate of each basis under a Gamma prior, (R,); a
    basis with no usable attributed mass keeps its ``current`` rate."""
    kappa = np.array(current, dtype=np.float64)
    for r in range(stats.R):
        num = stats.mass_by_r[r] + prior.alpha - 1.0
        den = stats.lag_mass_by_r[r] + prior.beta
        if num <= 0.0 or den <= 0.0:
            warnings.warn(f"basis {r} has no usable attributed mass; kappa kept", NumericsWarning)
            continue
        kappa[r] = num / den
    return kappa


def update_beta_sq(stats: AttributionStats, embedding: EmbeddingPair, current) -> np.ndarray:
    """Attribution-weighted mean squared reach per dimension of each basis,
    (R,); a basis with no attributed mass keeps its ``current`` value."""
    d2 = _sq_distances(embedding.reception, embedding.influence)
    beta_sq = np.array(current, dtype=np.float64)
    for r in range(stats.R):
        M = stats.dyad_mass[r]
        mass = M.sum()
        if mass <= 0.0:
            warnings.warn(f"basis {r} has no attributed mass; beta_sq kept", NumericsWarning)
            continue
        beta_sq[r] = np.sum(M * d2) / (embedding.m * mass)
        if beta_sq[r] <= 0.0:
            # every attributed dyad sits at distance zero; guard the collapse
            warnings.warn(f"basis {r} collapsed to zero reach; flooring beta_sq",
                          NumericsWarning)
            beta_sq[r] = 1e-12
    return beta_sq


def update_gamma(stats: AttributionStats, record: EventRecord, xi) -> np.ndarray:
    """Basis amplitudes (R,): attributed mass over total exertion across occurrences.

    Uses the passed (previous-iterate) exertion values; a basis with zero
    attributed mass goes dormant (gamma 0).
    """
    exertion = float(np.sum(np.asarray(xi, dtype=np.float64)[record.types]))
    gamma = np.zeros(stats.R)
    for r in range(stats.R):
        mass = stats.mass_by_r[r]
        if mass <= 0.0:
            warnings.warn(f"basis {r} is dormant this epoch (gamma 0)", NumericsWarning)
            continue
        gamma[r] = mass / exertion
    return gamma


def update_xi(branching: BranchingStructure, record: EventRecord, gamma):
    """Per-type exertion, rescaled to mean one with gamma absorbing the mean.

    Returns ``(xi, gamma_rescaled)``; every product ``xi[l] * gamma[r]`` is
    preserved exactly by the rescale.  A type with no occurrences gets the
    uninformative value 1 before rescaling (with a warning).
    """
    gamma = np.atleast_1d(np.asarray(gamma, dtype=np.float64))
    n = record.n
    counts = record.count_by_type()
    sent = branching.dyad_mass.sum(axis=(0, 1))  # mass attributed to each influencing type
    gamma_total = float(gamma.sum())
    xi_raw = np.ones(n)
    present = counts > 0.0
    if gamma_total > 0.0:
        xi_raw[present] = sent[present] / (gamma_total * counts[present])
    else:
        warnings.warn("all bases dormant; exertion left uniform", NumericsWarning)
    if not np.all(present):
        warnings.warn("types with no occurrences get exertion 1 before rescale", NumericsWarning)
    mean = float(xi_raw.mean())
    if mean <= 0.0:
        warnings.warn("zero mean exertion; exertion left uniform", NumericsWarning)
        return np.ones(n), gamma
    return xi_raw / mean, gamma * mean


def update_mu(branching: BranchingStructure, record: EventRecord) -> np.ndarray:
    """Background rates: attributed exogenous mass per type over the horizon."""
    return branching.background_mass_by_type / record.horizon


def update_influence_points(stats: AttributionStats, embedding: EmbeddingPair) -> np.ndarray:
    """Each influence point moves to the attribution-weighted mean of the
    reception points it excites; zero-mass types stay put (with a warning)."""
    X = embedding.reception
    M = stats.dyad_mass.sum(axis=0)  # (n_recv, n_infl)
    mass = M.sum(axis=0)
    Y_new = embedding.influence.copy()
    ok = mass > 0.0
    if not ok.all():
        warnings.warn("influence points with no attributed mass left unchanged", NumericsWarning)
    Y_new[ok] = (M.T[ok] @ X) / mass[ok, None]
    return Y_new


def frb_update(branching: BranchingStructure, record: EventRecord) -> np.ndarray:
    """Full-rank influence update: mass received per occurrence of the source.

    ``phi[k, l]`` becomes the total mass attributed to ``l -> k`` pairs
    divided by the number of ``l`` occurrences.
    """
    counts = record.count_by_type()
    M = branching.dyad_mass.sum(axis=0)
    phi = np.zeros_like(M)
    ok = counts > 0.0
    phi[:, ok] = M[:, ok] / counts[ok][None, :]
    return phi


def frb_kernel_weights(stats: AttributionStats, current) -> np.ndarray:
    """Per-clock share of the attributed mass; with none, a copy of ``current``."""
    mass = stats.mass_by_r
    total = mass.sum()
    if total <= 0.0:
        warnings.warn("no attributed mass; temporal weights kept", NumericsWarning)
        return np.array(current, dtype=np.float64)
    return mass / total


# ---------------------------------------------------------------------------
# fit driver


def _initial_frb(record: EventRecord, config: FitConfig):
    kappa0, w0, mu0 = _initial_rates(record, config.R)
    guess = init_influence_guess(record)
    total = guess.sum()
    if total > 0.0:
        phi0 = guess * (record.n / total)  # mean column sum one, like the geometric init
    else:
        phi0 = np.full((record.n, record.n), 1.0 / record.n)
    return FullRankParams(phi0, kappa0, w0, mu0)


def _m_step_geometric(record, params, br, config):
    kern = params.kernels
    kappa_new = update_kappa(br, config.prior, kern.kappa)
    beta_new = update_beta_sq(br, params.embedding, kern.beta_sq)
    gamma_new = update_gamma(br, record, params.xi)
    xi_new, gamma_new = update_xi(br, record, gamma_new)
    mu_new = update_mu(br, record)
    if config.mode == "geo":
        emb = params.embedding
    else:
        Y_new = update_influence_points(br, params.embedding)
        emb = EmbeddingPair(params.embedding.reception, Y_new)
    cand = ModelParams(emb, KernelBank(beta_new, kappa_new, gamma_new), xi_new, mu_new)

    if config.mode == "hhg-a":
        eps = config.eps if config.eps is not None else record.n / record.N
        grad = reception_gradient(record, cand, br)
        X_new = hhg_a_step(cand, grad, eps, record.N)
        cand = ModelParams(EmbeddingPair(X_new, cand.embedding.influence),
                           cand.kernels, cand.xi, cand.mu)
    elif config.mode == "hhg-b":
        cand = embedding_inner_loop(record, cand, br, config.eps1, config.eps2,
                                    steps=config.inner_steps)
    elif config.mode == "hhg-dm":
        A = density_normalize(influence_matrix(cand), config.dm_alpha)
        emb2 = diffusion_embed(A, cand.m)
        cand = ModelParams(emb2, cand.kernels, cand.xi, cand.mu)
    return cand


def _m_step_frb(record, params, br, config):
    kappa_new = update_kappa(br, config.prior, params.kappa)
    phi_new = frb_update(br, record)
    w_new = frb_kernel_weights(br, params.w)
    mu_new = update_mu(br, record)
    return FullRankParams(phi_new, kappa_new, w_new, mu_new)


def fit(record: EventRecord, config: FitConfig, init=None) -> FitReport:
    """Run EM for ``config.epochs`` epochs and report the trajectory.

    One E-step and one M-step per epoch.  ``init`` defaults to the spectral
    initialization; ``geo`` mode requires an ``init`` carrying the frozen
    coordinates.  The exact train log-likelihood of the parameters entering
    each epoch is recorded, and the best-scoring snapshot is kept.  If the
    objective turns non-finite the loop stops and reports the last finite
    state (``aborted_epoch`` set).  A record with at most ``model.PAIR_CACHE`` event
    pairs keeps them across epochs, and each E-step attributes pair by pair at
    ``BRANCHING_FLOOR``.  Past the budget no pair is built: each E-step reads the
    unfloored statistics off ``_scan_stats``, which differ in rounding and by the
    floor's truncation, and ``curve`` is ``log_likelihood`` to the bit; the report's
    ``p_background`` is ``mu[k_j] / lam_j`` of the best epoch's scan, which is
    ``background_probabilities`` to the bit, so the record is walked once an epoch
    and once for the initial guess.  An ``init`` of another type count than the
    record's, of another ``R`` than ``config.R`` or, outside ``frb``, of another ``m``
    than ``config.m`` raises ``ValueError`` before the first epoch.
    """
    t0 = time.perf_counter()
    if record.N == 0:
        raise ValueError("cannot fit an empty record")
    if init is None:
        if config.mode == "geo":
            raise ValueError("geo mode requires init parameters carrying the frozen embedding")
        if config.mode == "frb":
            params = _initial_frb(record, config)
        else:
            params = init_params(record, R=config.R, m=config.m, alpha=config.dm_alpha)
    else:
        params = init
        if config.mode == "frb" and not isinstance(params, FullRankParams):
            raise ValueError("frb mode init must be FullRankParams")
        if config.mode != "frb" and not isinstance(params, ModelParams):
            raise ValueError("geometric modes need ModelParams init")
        _check_types(record, params)
        if params.R != config.R:
            raise ValueError(f"config.R is {config.R} but the init has {params.R} bases")
        if config.mode != "frb" and params.m != config.m:
            raise ValueError(f"config.m is {config.m} but the init's embedding has "
                             f"{params.m} dimensions")

    pairwise = _within_pair_cache(record)
    blocks, ws = (list(_pair_blocks(record)), _Workspace(params.R)) if pairwise else (None, None)
    curve = np.empty(config.epochs)
    best_ll = -np.inf
    best_params = params
    best_epoch = -1
    best_lam = None
    aborted = None
    prev_params = params

    for epoch in range(config.epochs):
        lam, stats = (_fit_e_step(record, params, blocks, ws) if pairwise
                      else _scan_stats(record, params))
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf aborts below
            ll = float(np.sum(np.log(lam)) - _compensator(record, params, 0.0, record.horizon))
        if not np.isfinite(ll):
            warnings.warn(f"objective left the finite regime at epoch {epoch}; aborting",
                          NumericsWarning)
            aborted = epoch
            params = prev_params
            curve = curve[:epoch]
            break
        curve[epoch] = ll
        if ll > best_ll:
            best_ll, best_params, best_epoch, best_lam = ll, params, epoch, lam
        prev_params = params
        try:
            if config.mode == "frb":
                params = _m_step_frb(record, params, stats, config)
            else:
                params = _m_step_geometric(record, params, stats, config)
        except (ValueError, FloatingPointError) as exc:
            # an exploding step trips parameter validation; keep the last
            # finite snapshot instead of crashing the run
            warnings.warn(f"M-step left the valid regime at epoch {epoch}: {exc}",
                          NumericsWarning)
            aborted = epoch
            params = prev_params
            curve = curve[:epoch + 1]
            break

    return FitReport(
        mode=config.mode,
        curve=curve,
        params_final=params,
        params_best=best_params,
        best_epoch=best_epoch,
        p_background=(None if best_epoch < 0
                      else background_probabilities(record, best_params) if pairwise
                      else best_params.mu[record.types] / best_lam),
        wall_time=time.perf_counter() - t0,
        aborted_epoch=aborted,
    )
