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

from .model import (
    EmbeddingPair,
    EventRecord,
    KernelBank,
    ModelParams,
    NumericsWarning,
    _pair_blocks,
    _pair_response,
    _Workspace,
    compensator,
    influence_matrix,
)

MODES = ("hhg-a", "hhg-b", "hhg-dm", "frb", "geo")

# Attribution entries below this probability are dropped and each event's row
# renormalized, so the stored attribution keeps only pairs that carry mass.
BRANCHING_FLOOR = 1e-12


class NumericalError(RuntimeError):
    """A fit or simulation left the numerically trustworthy regime."""


class DegenerateEventError(NumericalError):
    """An event has zero intensity, so no attribution exists."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"event {index} has zero intensity and zero background rate")


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


@dataclass(frozen=True, eq=False)
class BranchingStructure:
    """Sparse posterior attribution of events to triggers and background.

    Entry ``e`` states that event ``j_idx[e]`` was triggered by event
    ``i_idx[e]`` through basis kernel ``r_idx[e]`` with probability ``p[e]``;
    ``p_background[j]`` is the probability event ``j`` is exogenous.  Each
    event's probabilities sum to one (entries below a floor may be dropped,
    after which the row is renormalized).
    """

    record: EventRecord
    i_idx: np.ndarray
    j_idx: np.ndarray
    r_idx: np.ndarray
    p: np.ndarray
    p_background: np.ndarray
    R: int

    def __post_init__(self):
        for name, dt in (("i_idx", np.int64), ("j_idx", np.int64), ("r_idx", np.int64),
                         ("p", np.float64), ("p_background", np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dt))
        if not (self.i_idx.shape == self.j_idx.shape == self.r_idx.shape == self.p.shape):
            raise ValueError("entry arrays must share a common length")
        if self.p_background.shape != (self.record.N,):
            raise ValueError("p_background must have one entry per event")
        if self.p.size and (self.p.min() < 0.0 or self.p.max() > 1.0 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.p_background.size and (self.p_background.min() < 0.0):
            raise ValueError("background probabilities must be nonnegative")

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
        n = phi.shape[0]
        if phi.ndim != 2 or phi.shape != (n, n):
            raise ValueError("phi must be square")
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


def _require_positive(lam, start=0) -> None:
    """Raise ``DegenerateEventError`` for the first event with zero intensity
    among the intensities ``lam`` of events ``start``, ``start + 1``, ..."""
    if np.any(lam <= 0.0):
        raise DegenerateEventError(start + int(np.argmax(lam <= 0.0)))


def _responses(record, params, blocks, ws):
    """``_pair_response`` over each of ``_pair_blocks``' blocks in turn, in the
    ``_Workspace`` ``ws``: yields ``(events, dt, H, lam)``.  An event with zero
    intensity raises ``DegenerateEventError`` with its index in the record."""
    for events, rows, dt, dyad in blocks:
        H, lam = _pair_response(record, params, events, rows, dt, dyad, ws)
        _require_positive(lam, events.start)
        yield events, dt, H, lam


def _branching_from_response(H, lam, rows, floor, ws):
    """Overwrite ``H`` with ``p = H / lam[rows]`` and return ``(kept, cuts)``:
    the flat offsets into ``H`` of the entries at or above ``floor``, and
    where each basis' entries start among them."""
    t = np.take(1.0 / lam, rows, out=ws.t[:rows.size], mode="clip")
    np.multiply(H, t, out=H)
    mask = np.greater_equal(H.ravel(), floor, out=ws.mask[:H.size])
    kept = np.flatnonzero(mask)
    return kept, np.searchsorted(kept, rows.size * np.arange(H.shape[0] + 1))


def _attribute(record, params, H, lam, floor, start, ws):
    """The attribution of the events ``start + arange(lam.size)`` from
    ``_pair_response``'s output in ``ws``: ``(cuts, e, rows, p, p_bg)``.  The
    entries kept by ``_branching_from_response`` are basis-major, basis ``r``'s
    at ``cuts[r]:cuts[r + 1]``, each with its offset ``e`` into the block, its
    receiving row and its probability; each event's row is renormalized to sum
    to one after the floor truncation, and ``p_bg`` holds the background
    probabilities.  ``rows`` and ``p`` are views of ``ws``."""
    m = H.shape[1]
    kept, cuts = _branching_from_response(H, lam, ws.rows[:m], floor, ws)
    c = kept.size
    p = np.take(H.ravel(), kept, out=ws.kept_p[:c], mode="clip")
    for r in range(1, H.shape[0]):
        kept[cuts[r]:cuts[r + 1]] -= r * m
    rows = np.take(ws.rows[:m], kept, out=ws.kept_rows[:c], mode="clip")
    p_bg = params.mu[record.types[start:start + lam.size]] / lam
    scale = 1.0 / (p_bg + np.bincount(rows, weights=p, minlength=lam.size))
    np.multiply(p, np.take(scale, rows, out=ws.t[:c], mode="clip"), out=p)
    return cuts, kept, rows, p, p_bg * scale


class _Entries:
    """Kept attribution entries gathered block by block, basis-major at the end.

    Per basis it keeps each block's triggers ``i`` and probabilities ``p``,
    and how many entries each event receives, from which ``j`` is rebuilt.
    """

    def __init__(self, R):
        self.parts = [([], [], []) for _ in range(R)]  # per basis: i, p, entries per event

    def add(self, cuts, i, rows, p, size):
        for part, a, b in zip(self.parts, cuts[:-1], cuts[1:]):
            for column, values in zip(part, (i[a:b], p[a:b].copy(),
                                             np.bincount(rows[a:b], minlength=size))):
                column.append(values)

    def branching(self, record, p_background) -> BranchingStructure:
        R = len(self.parts)
        columns = []
        for f in range(3):  # one column at a time, freeing its parts as it goes
            pieces = [piece for part in self.parts for piece in part[f]]
            for part in self.parts:
                part[f].clear()
            columns.append(np.concatenate(pieces) if pieces else np.zeros(0, np.int64))
            del pieces
        i_idx, p, per_event = columns
        j_idx = np.repeat(np.tile(np.arange(record.N), R), per_event)
        r_idx = np.repeat(np.arange(R), per_event.reshape(R, record.N).sum(axis=1))
        return BranchingStructure(record, i_idx, j_idx, r_idx, p, p_background, R)


def e_step(record: EventRecord, params, floor: float = BRANCHING_FLOOR) -> BranchingStructure:
    """Closed-form posterior attribution under the current parameters.

    Pair entries below ``floor`` are dropped and each event's remaining
    probabilities renormalized to sum to one exactly; ``floor=0`` keeps every
    pair.  Events are attributed in blocks of about ``model.PAIR_BLOCK``
    pairs, each built when reached, so the time is ``O(N^2 R)`` but the memory
    beyond the returned entries is one block's.
    """
    entries = _Entries(params.R)
    p_bg = np.empty(record.N)
    ws = _Workspace(params.R)
    for events, _, H, lam in _responses(record, params, _pair_blocks(record), ws):
        cuts, e, rows, p, p_bg[events] = _attribute(record, params, H, lam, floor,
                                                    events.start, ws)
        n_earlier = np.searchsorted(record.times, record.times[events], "left")
        i = e - (np.cumsum(n_earlier) - n_earlier)[rows]  # a row's pairs start at its first
        entries.add(cuts, i, rows, p, lam.size)
    return entries.branching(record, p_bg)


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
    finite = True
    for events, dt, H, lam in _responses(record, params, blocks, ws):
        lam_all[events] = lam
        finite = finite and bool(np.all(np.isfinite(lam)))
        if not finite:
            continue
        cuts, e, r, p, p_bg[events] = _attribute(record, params, H, lam, BRANCHING_FLOOR,
                                                 events.start, ws)
        flat = np.take(ws.dyad[:dt.size], e, out=ws.kept_dyad[:e.size], mode="clip")
        for b in range(R):  # the rows are spent: r becomes each entry's basis
            r[cuts[b]:cuts[b + 1]] = b
            flat[cuts[b]:cuts[b + 1]] += b * (n * n)
        np.add.at(mass, r, p)
        np.add.at(dyad_mass, flat, p)
        t = np.take(dt, e, out=ws.t[:e.size], mode="clip")
        np.add.at(lag, r, np.multiply(p, t, out=t))
    if not finite:
        return lam_all, None
    return lam_all, AttributionStats(mass, lag, dyad_mass.reshape(R, n, n),
                                     np.bincount(record.types, weights=p_bg, minlength=n), R)


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


def update_kappa(branching: BranchingStructure, record: EventRecord, prior: GammaPrior,
                 r: int, current: float | None = None) -> float:
    """Posterior-mode decay rate for basis ``r`` under a Gamma prior."""
    num = branching.mass_by_r[r] + prior.alpha - 1.0
    den = branching.lag_mass_by_r[r] + prior.beta
    if num <= 0.0 or den <= 0.0:
        warnings.warn(f"basis {r} has no usable attributed mass; kappa kept", NumericsWarning)
        if current is None:
            raise ValueError("degenerate kappa update with no previous value to keep")
        return float(current)
    return float(num / den)


def update_beta_sq(branching: BranchingStructure, embedding: EmbeddingPair, r: int,
                   current: float | None = None) -> float:
    """Attribution-weighted mean squared reach per dimension for basis ``r``."""
    X, Y = embedding.reception, embedding.influence
    with np.errstate(over="ignore"):  # runaway embeddings produce inf, caught downstream
        d2 = np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=2)
    M = branching.dyad_mass[r]
    mass = M.sum()
    if mass <= 0.0:
        warnings.warn(f"basis {r} has no attributed mass; beta_sq kept", NumericsWarning)
        if current is None:
            raise ValueError("degenerate beta_sq update with no previous value to keep")
        return float(current)
    out = float(np.sum(M * d2) / (embedding.m * mass))
    if out <= 0.0:
        # every attributed dyad sits at distance zero; guard the collapse
        warnings.warn(f"basis {r} collapsed to zero reach; flooring beta_sq",
                      NumericsWarning)
        return 1e-12
    return out


def update_gamma(branching: BranchingStructure, record: EventRecord, xi, r: int) -> float:
    """Basis amplitude: attributed mass over total exertion across occurrences.

    Uses the passed (previous-iterate) exertion values; with zero attributed
    mass the basis goes dormant (gamma 0).
    """
    xi = np.asarray(xi, dtype=np.float64)
    mass = branching.mass_by_r[r]
    if mass <= 0.0:
        warnings.warn(f"basis {r} is dormant this epoch (gamma 0)", NumericsWarning)
        return 0.0
    exertion = float(np.sum(xi[record.types]))
    return float(mass / exertion)


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


def update_influence_points(branching: BranchingStructure, record: EventRecord,
                            embedding: EmbeddingPair) -> np.ndarray:
    """Each influence point moves to the attribution-weighted mean of the
    reception points it excites; zero-mass types stay put (with a warning)."""
    X = embedding.reception
    M = branching.dyad_mass.sum(axis=0)  # (n_recv, n_infl)
    mass = M.sum(axis=0)
    Y_new = embedding.influence.copy()
    ok = mass > 0.0
    if not ok.all():
        warnings.warn("influence points with no attributed mass left unchanged", NumericsWarning)
    if ok.any():
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


def frb_kernel_weights(branching: BranchingStructure, current=None) -> np.ndarray:
    """Per-clock share of the attributed mass (uniform fallback when empty)."""
    mass = branching.mass_by_r
    total = mass.sum()
    if total <= 0.0:
        warnings.warn("no attributed mass; temporal weights kept", NumericsWarning)
        if current is not None:
            return np.asarray(current, dtype=np.float64).copy()
        return np.full(branching.R, 1.0 / branching.R)
    return mass / total


# ---------------------------------------------------------------------------
# fit driver


def _initial_frb(record: EventRecord, config: FitConfig):
    from .spectral import event_time_scale, init_influence_guess

    t_hat = event_time_scale(record)
    guess = init_influence_guess(record)
    total = guess.sum()
    if total > 0.0:
        phi0 = guess * (record.n / total)  # mean column sum one, like the geometric init
    else:
        phi0 = np.full((record.n, record.n), 1.0 / record.n)
    kappa0 = np.array([1.0 / (r * t_hat) for r in range(1, config.R + 1)])
    w0 = np.full(config.R, 1.0 / config.R)
    mu0 = np.full(record.n, record.N / (record.horizon * record.n))
    return FullRankParams(phi0, kappa0, w0, mu0)


def _m_step_geometric(record, params, br, config):
    from .geometry import embedding_inner_loop, hhg_a_step, reception_gradient
    from .spectral import density_normalize, diffusion_embed

    R = params.R
    kern = params.kernels
    kappa_new = np.array([update_kappa(br, record, config.prior, r, current=kern.kappa[r])
                          for r in range(R)])
    beta_new = np.array([update_beta_sq(br, params.embedding, r, current=kern.beta_sq[r])
                         for r in range(R)])
    gamma_new = np.array([update_gamma(br, record, params.xi, r) for r in range(R)])
    xi_new, gamma_new = update_xi(br, record, gamma_new)
    mu_new = update_mu(br, record)
    if config.mode == "geo":
        emb = params.embedding
    else:
        Y_new = update_influence_points(br, record, params.embedding)
        emb = EmbeddingPair(params.embedding.reception, Y_new)
    cand = ModelParams(emb, KernelBank(beta_new, kappa_new, gamma_new), xi_new, mu_new)

    if config.mode == "hhg-a":
        eps = config.eps if config.eps is not None else record.n / max(record.N, 1)
        grad = reception_gradient(record, cand, br)
        X_new = hhg_a_step(cand, grad, eps, record.N)
        cand = ModelParams(EmbeddingPair(X_new, cand.embedding.influence),
                           cand.kernels, cand.xi, cand.mu)
    elif config.mode == "hhg-b":
        cand = embedding_inner_loop(record, cand, br, config.eps1, config.eps2,
                                    record.N, steps=config.inner_steps)
    elif config.mode == "hhg-dm":
        A = density_normalize(influence_matrix(cand), config.dm_alpha)
        emb2 = diffusion_embed(A, cand.m)
        cand = ModelParams(emb2, cand.kernels, cand.xi, cand.mu)
    return cand


def _m_step_frb(record, params, br, config):
    kappa_new = np.array([update_kappa(br, record, config.prior, r, current=params.kappa[r])
                          for r in range(params.R)])
    phi_new = frb_update(br, record)
    w_new = frb_kernel_weights(br, current=params.w)
    mu_new = update_mu(br, record)
    return FullRankParams(phi_new, kappa_new, w_new, mu_new)


def fit(record: EventRecord, config: FitConfig, init=None) -> FitReport:
    """Run EM for ``config.epochs`` epochs and report the trajectory.

    One E-step and one M-step per epoch.  ``init`` defaults to the spectral
    initialization; ``geo`` mode requires an ``init`` carrying the frozen
    coordinates.  The exact train log-likelihood of the parameters entering
    each epoch is recorded, and the best-scoring snapshot is kept.  If the
    objective turns non-finite the loop stops and reports the last finite
    state (``aborted_epoch`` set).
    """
    from .diagnostics import background_probabilities
    from .spectral import init_params

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

    blocks, ws = list(_pair_blocks(record)), _Workspace(params.R)
    curve = np.empty(config.epochs)
    best_ll = -np.inf
    best_params = params
    best_epoch = -1
    aborted = None
    prev_params = params

    for epoch in range(config.epochs):
        lam, stats = _fit_e_step(record, params, blocks, ws)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf aborts below
            ll = float(np.sum(np.log(lam)) - compensator(record, params))
        if not np.isfinite(ll):
            warnings.warn(f"objective left the finite regime at epoch {epoch}; aborting",
                          NumericsWarning)
            aborted = epoch
            params = prev_params
            curve = curve[:epoch]
            break
        curve[epoch] = ll
        if ll > best_ll:
            best_ll, best_params, best_epoch = ll, params, epoch
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
                      else background_probabilities(record, best_params)),
        wall_time=time.perf_counter() - t0,
        aborted_epoch=aborted,
    )
