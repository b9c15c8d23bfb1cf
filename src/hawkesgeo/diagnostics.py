"""Held-out scoring, attribution divergence, and residual checks."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .em import BranchingStructure
from .model import (  # background_probabilities is also diagnostics', where callers import it
    EmbeddingPair,
    EventRecord,
    NumericsWarning,
    _decayed_counts,
    _event_blocks,
    _own_rates,
    _realized_rates,
    _require_positive,
    _scored_events,
    _sq_distances,
    _window,
    background_probabilities,
    log_likelihood,
)


@dataclass(frozen=True)
class EvalSplit:
    """A time split: train on ``[0, split_time)``, test on ``[split_time, T)``."""

    split_time: float

    def __post_init__(self):
        if self.split_time < 0.0:
            raise ValueError("split_time must be nonnegative")


def split_eval(record: EventRecord, params, split: EvalSplit):
    """Per-event log-likelihood on the two sides of a time split.

    Test events condition on the full history, including earlier test events.
    An empty side is reported as None with a warning.
    """
    t_s = split.split_time
    if t_s > record.horizon:
        raise ValueError("split_time lies beyond the record horizon")
    n_train = int(np.sum(record.times < t_s))
    n_test = record.N - n_train
    train = test = None
    if n_train > 0:
        train = log_likelihood(record, params, (0.0, t_s)) / n_train
    else:
        warnings.warn("empty train window", NumericsWarning)
    if n_test > 0:
        test = log_likelihood(record, params, (t_s, record.horizon)) / n_test
    else:
        warnings.warn("empty test window", NumericsWarning)
    return train, test


def hellinger_divergence(estimated: BranchingStructure, truth: BranchingStructure) -> float:
    """Mean per-event Hellinger distance between two attributions.

    Each event's attribution is a distribution over (trigger, basis) pairs plus background;
    entries absent from one side count as zero.  An event's squared distance is half the sum of
    ``(sqrt(a) - sqrt(b))**2`` over its background and common entries plus the entries only one
    side holds, which unlike ``1 - BC`` does not cancel: identical attributions score 0.  Events
    are compared in blocks of about ``model.PAIR_BLOCK`` entries read off each side's runs.
    """
    if estimated.record is not truth.record and estimated.record != truth.record:
        raise ValueError("attributions describe different records")
    N, R = estimated.record.N, max(estimated.R, truth.R)
    if N == 0:
        raise ValueError("empty record")

    def block(b, s, e):  # events s..e-1's keys (j R + r) N + i, ascending, and probabilities
        j, r = np.divmod(np.arange(s * b.R, e * b.R), b.R)
        lo, hi = b.starts[s * b.R], b.starts[e * b.R]
        keys = np.repeat((j * R + r) * N, np.diff(b.starts[s * b.R:e * b.R + 1]))
        return keys + b.i_idx[lo:hi], b.p[lo:hi]

    sq = np.square(np.sqrt(estimated.p_background) - np.sqrt(truth.p_background))
    for s, e in _event_blocks(estimated.starts[::estimated.R] + truth.starts[::truth.R]):
        (ka, pa), (kb, pb) = block(estimated, s, e), block(truth, s, e)
        at = np.searchsorted(kb, ka)
        ia = np.flatnonzero(np.append(kb, -1)[at] == ka)  # -1 matches no key
        terms = np.concatenate((pa, pb))  # one-sided entries add themselves, b's common ones 0
        terms[ia], terms[pa.size + at[ia]] = np.square(np.sqrt(pa[ia]) - np.sqrt(pb[at[ia]])), 0.0
        sq[s:e] += np.bincount(np.concatenate((ka, kb)) // (N * R) - s, terms, e - s)
    return float(np.sqrt(0.5 * sq).mean())


def attribution_hellinger(record: EventRecord, estimated, truth) -> float:
    """Mean per-event Hellinger distance between the attributions of a record
    under two parameter sets, built from decayed counts instead of event pairs.

    Under one set, event ``j`` of type ``k`` is background with probability
    ``mu[k] / lam_j`` and triggered by ``i`` through basis ``r`` with
    ``kappa_r A_r[k, k_i] exp(-kappa_r (t_j - t_i)) / lam_j``.  Over the common
    bases ``r < min(R, R')`` each event's Bhattacharyya sum is therefore
    ``(sqrt(mu mu')[k] + sum_r sum_l sqrt(kappa_r kappa'_r A_r A'_r)[k, l]
    S_rl(t_j)) / sqrt(lam_j lam'_j)``, with ``S`` the counts decayed at the mean
    clock ``(kappa_r + kappa'_r) / 2``.  One ``_decayed_counts`` scan over both
    sets' clocks and their means yields ``lam``, ``lam'`` and that sum, each a
    dot of the event's own rows with its counts (``model._own_rates``), in ``O(N n
    R)`` time past the ``O(n^2 R)`` amplitudes.  Equals, up to rounding,
    ``hellinger_divergence`` of the two unfloored ``e_step`` attributions, whose sum of
    squares it cannot form without per-pair terms: its ``1 - BC`` cancels where the two
    nearly agree.  An event with zero intensity under either set raises ``DegenerateEventError``;
    where either set's intensities overflow, the distance is nan, with a ``NumericsWarning``.
    """
    if record.N == 0:
        raise ValueError("empty record")
    if not estimated.n == truth.n == record.n:
        raise ValueError("parameter sets must cover the record's types")
    Ra, Rb, c = estimated.R, truth.R, min(estimated.R, truth.R)
    ka, kb = estimated.kappa, truth.kappa
    Aa, Ab = estimated.amplitudes(), truth.amplitudes()
    with np.errstate(over="ignore"):  # a sum that overflows makes the distance nan, below
        A_bar = np.sqrt((ka[:c] * kb[:c])[:, None, None] * Aa[:c] * Ab[:c])
    clocks = np.concatenate([ka, kb, 0.5 * (ka[:c] + kb[:c])])
    types = record.types
    lam_a, lam_b, common = estimated.mu[types], truth.mu[types], np.zeros(record.N)
    for rows, S in _decayed_counts(record, clocks, record.times):
        k = types[rows]
        lam_a[rows] = _own_rates(estimated.mu, ka, Aa, S[:, :Ra], k)[0]
        lam_b[rows] = _own_rates(truth.mu, kb, Ab, S[:, Ra:Ra + Rb], k)[0]
        common[rows] = _own_rates(np.zeros(record.n), np.ones(c), A_bar, S[:, Ra + Rb:], k)[0]
    _require_positive(lam_a)
    _require_positive(lam_b)
    if not all(np.all(np.isfinite(v)) for v in (lam_a, lam_b, common)):
        warnings.warn("intensities overflow; the Hellinger distance is nan", NumericsWarning)
        return float("nan")
    # the background term as the pairwise divergence forms it, exactly 1 for
    # an event that nothing precedes under both sets
    bc = np.sqrt(estimated.mu[types] / lam_a * (truth.mu[types] / lam_b))
    bc += common / (np.sqrt(lam_a) * np.sqrt(lam_b))
    return float(np.sqrt(np.maximum(0.0, 1.0 - bc)).mean())


def background_qq(record: EventRecord, params, branching: BranchingStructure | None = None,
                  seed: int = 0):
    """QQ pairs for the interarrivals of a sampled background subset.

    Each event joins the subset with its background probability, read off
    ``branching`` when given and from ``background_probabilities`` otherwise;
    the subset's interarrivals are matched against exponential quantiles at
    the total background rate, with plotting positions (i - 1/2) / count.
    Returns an array of (empirical, theoretical) rows, or None when the subset
    has fewer than two events.
    """
    p_background = (background_probabilities(record, params) if branching is None
                    else branching.p_background)
    rng = np.random.default_rng(seed)
    pick = rng.random(record.N) < p_background
    sub = record.times[pick]
    if sub.size < 2:
        warnings.warn("background subset smaller than two events; no QQ points",
                      NumericsWarning)
        return None
    inter = np.sort(np.diff(sub))
    rate = float(np.sum(params.mu))
    if rate <= 0.0:
        raise ValueError("total background rate must be positive for QQ quantiles")
    q = (np.arange(1, inter.size + 1) - 0.5) / inter.size
    theo = -np.log1p(-q) / rate
    return np.column_stack([inter, theo])


def categorical_accuracy(record: EventRecord, params, window):
    """Geometric-mean share of intensity on the realized types in a window.

    Returns ``(score, naive)`` where the naive reference replaces the model
    intensity by the empirical per-type rates of the pre-window history (or of
    the window itself when nothing precedes it).  A realized type with zero
    share drives the geometric mean to zero; an event with zero total
    intensity (no background and nothing before it) has share zero, with a
    ``NumericsWarning`` naming it.  The window is checked as ``compensator``
    checks it; where the model's intensities overflow, the score is nan, with
    a ``NumericsWarning``.
    """
    t_a, t_b = _window(record, window)
    events = _scored_events(record, (t_a, t_b))
    realized = record.types[events]
    if realized.size == 0:
        warnings.warn("no events in the scored window", NumericsWarning)
        return float("nan"), float("nan")
    lam, total = _realized_rates(record, params, events, totals=True)
    if not np.all(np.isfinite(total)):
        warnings.warn("intensities overflow; accuracy is nan", NumericsWarning)
        shares = np.full(lam.size, np.nan)
    else:
        live = total > 0.0
        if not np.all(live):
            bad = events.start + int(np.argmin(live))
            warnings.warn(f"event {bad} has zero total intensity; its share is 0",
                          NumericsWarning)
        shares = np.divide(lam, total, out=np.zeros(lam.size), where=live)

    ref = record.types[record.times < t_a]
    if ref.size == 0:
        ref = realized
        warnings.warn("no pre-window history; naive rates use the window itself",
                      NumericsWarning)
    rate_share = np.bincount(ref, minlength=record.n) / ref.size
    naive_shares = rate_share[realized]

    def geo(values):
        if np.any(values <= 0.0):
            return 0.0
        return float(np.exp(np.mean(np.log(values))))

    return geo(shares), geo(naive_shares)


def _tied_pairs(starts: np.ndarray) -> int:
    """Tied pairs of a sorted sample, given ``starts``, true where a new value begins."""
    runs = np.diff(np.flatnonzero(np.append(starts, True)))
    return int(np.sum(runs * (runs - 1) // 2))


def _inversions(a: np.ndarray) -> int:
    """Pairs ``i < j`` with ``a[i] > a[j]``, for integers ``0 <= a < a.size``.

    Bottom-up merging: while blocks of width ``w`` are each sorted, a stable
    argsort by (block pair, ``a``) merges each pair (timsort merges the runs it
    finds).  Only a right block's elements move left, each past the elements
    above it in its left block, so the level counts the leftward moves.
    """
    M = a.size
    idx = np.arange(M)
    count, w = 0, 1
    while w < M:
        order = np.argsort(idx // (2 * w) * M + a, kind="stable")
        count += int(np.sum(np.maximum(order - idx, 0)))
        a = a[order]
        w *= 2
    return count


def _kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b of two equal-length samples, formed as
    ``scipy.stats.kendalltau(x, y).statistic`` forms it, and so equal to it to
    the bit: ties in ``x``, in ``y`` and in both, and discordant pairs, counted
    as integers.  NaN when either sample is all ties."""
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    tot = x.size * (x.size - 1) // 2
    x_new = np.r_[True, x[1:] != x[:-1]]
    xtie = _tied_pairs(x_new)
    ntie = _tied_pairs(x_new | np.r_[True, y[1:] != y[:-1]])
    y_sorted = np.sort(y)
    ytie = _tied_pairs(np.r_[True, y_sorted[1:] != y_sorted[:-1]])
    if xtie == tot or ytie == tot:
        return float("nan")
    # discordant: y falls while x rises; within a tie in x, y is sorted
    dis = _inversions(np.searchsorted(y_sorted, y))
    con_minus_dis = tot - xtie - ytie + ntie - 2 * dis
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(np.minimum(1.0, max(-1.0, tau)))


def kendall_distance_correlation(learned: EmbeddingPair, truth: EmbeddingPair) -> float:
    """Kendall tau-b between all n^2 cross dyad distances of two embeddings.

    NaN, with a ``NumericsWarning``, when either embedding has all its cross
    distances equal (for instance every point collapsed onto one), since such
    an embedding ranks no dyad above another.
    """
    if learned.n != truth.n:
        raise ValueError("embeddings must cover the same types")
    d_learned, d_truth = (np.sqrt(_sq_distances(e.reception, e.influence)).ravel()
                          for e in (learned, truth))
    tau = _kendall_tau_b(d_learned, d_truth)
    if np.isnan(tau):
        warnings.warn("an embedding has all cross distances equal; kendall tau is nan",
                      NumericsWarning)
    return tau


def phi_rmse(estimated: np.ndarray, truth: np.ndarray) -> float:
    """Root-mean-square entrywise error between two influence matrices; inf,
    with a ``NumericsWarning``, where the squared errors overflow."""
    a = np.asarray(estimated, dtype=np.float64)
    b = np.asarray(truth, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("influence matrices must share a shape")
    with np.errstate(over="ignore"):
        rmse = float(np.sqrt(np.mean((a - b) ** 2)))
    if not np.isfinite(rmse):
        warnings.warn(f"squared influence errors overflow; phi RMSE is {rmse}", NumericsWarning)
    return rmse
