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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import (
    EmbeddingPair,
    EventRecord,
    KernelBank,
    ModelParams,
    NumericsWarning,
    _pair_response,
    compensator,
    influence_matrix,
    pair_indices,
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
    prior: GammaPrior = field(default_factory=GammaPrior)

    def __post_init__(self):
        object.__setattr__(self, "mode", str(self.mode).lower())
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.R < 1 or self.m < 1:
            raise ValueError("R and m must be >= 1")
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
        return np.bincount(self.r_idx, weights=self.p, minlength=self.R)

    @cached_property
    def lag_mass_by_r(self) -> np.ndarray:
        """Attribution-weighted time lags per basis kernel, (R,)."""
        dt = self.record.times[self.j_idx] - self.record.times[self.i_idx]
        return np.bincount(self.r_idx, weights=self.p * dt, minlength=self.R)

    @cached_property
    def dyad_mass(self) -> np.ndarray:
        """Attributed mass per (basis, receiving type, influencing type), (R, n, n)."""
        n = self.record.n
        flat = (self.r_idx * n + self.record.types[self.j_idx]) * n + self.record.types[self.i_idx]
        out = np.bincount(flat, weights=self.p, minlength=self.R * n * n)
        return out.reshape(self.R, n, n)

    @cached_property
    def background_mass_by_type(self) -> np.ndarray:
        return np.bincount(self.record.types, weights=self.p_background, minlength=self.record.n)


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
        if np.any(kappa <= 0.0):
            raise ValueError("kappa entries must be positive")
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("clock weights must be nonnegative and sum to 1")
        if mu.shape != (n,) or np.any(mu < 0.0):
            raise ValueError("mu must be (n,) nonnegative")

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
    finite regime and the loop stopped early.
    """

    mode: str
    curve: np.ndarray
    params_final: object
    params_best: object
    best_epoch: int
    branching: BranchingStructure | None
    wall_time: float
    aborted_epoch: int | None = None


# ---------------------------------------------------------------------------
# E-step


def _branching_from_response(record, H, lam, pairs, R, floor):
    i_idx, j_idx, _ = pairs
    if np.any(lam <= 0.0):
        raise DegenerateEventError(int(np.argmax(lam <= 0.0)))
    inv = 1.0 / lam
    P = i_idx.size
    i_all = np.tile(i_idx, R)
    j_all = np.tile(j_idx, R)
    r_all = np.repeat(np.arange(R, dtype=np.int64), P)
    p_all = (H * inv[j_idx][None, :]).ravel()
    keep = p_all >= floor
    i_all, j_all, r_all, p_all = i_all[keep], j_all[keep], r_all[keep], p_all[keep]
    return i_all, j_all, r_all, p_all


def _attribute(record, params, H, lam, pairs, floor) -> BranchingStructure:
    """The posterior attribution from ``_pair_response``'s output."""
    R = H.shape[0]
    i_all, j_all, r_all, p_all = _branching_from_response(record, H, lam, pairs, R, floor)
    p_bg = params.mu[record.types] / lam
    # renormalize so each row sums to one after the floor truncation
    scale = 1.0 / (p_bg + np.bincount(j_all, weights=p_all, minlength=record.N))
    return BranchingStructure(record, i_all, j_all, r_all, p_all * scale[j_all],
                              p_bg * scale, R)


def e_step(record: EventRecord, params, floor: float = BRANCHING_FLOOR) -> BranchingStructure:
    """Closed-form posterior attribution under the current parameters.

    Pair entries below ``floor`` are dropped and each event's remaining
    probabilities renormalized to sum to one exactly; ``floor=0`` keeps every
    pair.
    """
    H, lam, pairs = _pair_response(record, params)
    return _attribute(record, params, H, lam, pairs, floor)


def complete_data_loglik(record: EventRecord, params, branching: BranchingStructure) -> float:
    """Attributed-data objective: a lower bound on the exact log-likelihood.

    Valid for any branching whose rows sum to one, not just the E-step's.
    Zero-probability entries contribute nothing; a positive-probability entry
    on a zero response (or background weight on a zero rate) yields ``-inf``.
    """
    sums = branching.row_sums()
    if sums.size and np.max(np.abs(sums - 1.0)) > 1e-6:
        raise ValueError("branching rows must sum to one")
    A = params.amplitudes()
    n = record.n
    dt = record.times[branching.j_idx] - record.times[branching.i_idx]
    dyad = record.types[branching.j_idx] * n + record.types[branching.i_idx]
    kap = params.kappa[branching.r_idx]
    amp = A.reshape(branching.R, -1)[branching.r_idx, dyad]
    h = amp * kap * np.exp(-kap * dt)
    live = branching.p > 0.0
    if np.any(h[live] <= 0.0):
        warnings.warn("positive attribution on a zero response; bound is -inf", NumericsWarning)
        return float("-inf")
    mu_j = params.mu[record.types]
    live_b = branching.p_background > 0.0
    if np.any(mu_j[live_b] <= 0.0):
        warnings.warn("background attribution on a zero rate; bound is -inf", NumericsWarning)
        return float("-inf")
    val = float(np.sum(branching.p[live] * np.log(h[live])))
    val += float(np.sum(branching.p_background[live_b] * np.log(mu_j[live_b])))
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

    pairs = pair_indices(record)
    curve = np.empty(config.epochs)
    best_ll = -np.inf
    best_params = params
    best_epoch = -1
    branching = None
    aborted = None
    prev_params = params

    for epoch in range(config.epochs):
        H, lam, _ = _pair_response(record, params, pairs=pairs)
        if np.any(lam <= 0.0):
            raise DegenerateEventError(int(np.argmax(lam <= 0.0)))
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
        branching = _attribute(record, params, H, lam, pairs, BRANCHING_FLOOR)
        prev_params = params
        try:
            if config.mode == "frb":
                params = _m_step_frb(record, params, branching, config)
            else:
                params = _m_step_geometric(record, params, branching, config)
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
        branching=branching,
        wall_time=time.perf_counter() - t0,
        aborted_epoch=aborted,
    )
