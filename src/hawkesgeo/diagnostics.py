"""Held-out scoring, attribution divergence, and residual checks."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import model
from .em import BranchingStructure, _require_positive
from .model import (
    EmbeddingPair,
    EventRecord,
    NumericsWarning,
    _decayed_counts,
    _event_blocks,
    _rates,
    _realized_rates,
    _scored_events,
    _sq_distances,
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


def _event_runs(b: BranchingStructure):
    """``b``'s entries ordered by basis, then receiving event, then trigger, as
    ``(r_idx, j_idx, i_idx, p)`` with ``first[r][j]``, the offset of event
    ``j``'s first entry of basis ``r``.  ``e_step`` stores them in this order,
    which a scan in blocks confirms; other entries are sorted once."""
    N = b.record.N
    order = (b.r_idx, b.j_idx, b.i_idx, b.p)

    def key(sl):
        return (b.r_idx[sl] * N + b.j_idx[sl]) * N + b.i_idx[sl]

    for a in range(0, b.p.size, model.PAIR_BLOCK):
        k = key(slice(a, a + model.PAIR_BLOCK + 1))
        if np.any(k[1:] < k[:-1]):
            perm = np.argsort(key(slice(None)), kind="stable")
            order = tuple(arr[perm] for arr in order)
            break
    r_idx, j_idx = order[:2]
    bounds = np.searchsorted(r_idx, np.arange(b.R + 1))
    first = [lo + np.searchsorted(j_idx[lo:hi], np.arange(N + 1))
             for lo, hi in zip(bounds[:-1], bounds[1:])]
    return order, first


def hellinger_divergence(estimated: BranchingStructure, truth: BranchingStructure) -> float:
    """Mean per-event Hellinger distance between two attributions.

    Each event's attribution is a distribution over (trigger, basis) pairs
    plus background; entries absent from one side count as zero.  Events are
    compared in blocks of about ``model.PAIR_BLOCK`` entries, each event's
    common terms summed in ``(trigger, basis)`` order.
    """
    if estimated.record is not truth.record and estimated.record != truth.record:
        raise ValueError("attributions describe different records")
    N = estimated.record.N
    if N == 0:
        raise ValueError("empty record")
    R = max(estimated.R, truth.R)
    sides = [_event_runs(b) for b in (estimated, truth)]

    def block(side, s, e):
        (r_idx, j_idx, i_idx, p), first = side
        sl = [slice(f[s], f[e]) for f in first]
        keys = np.concatenate([(j_idx[x] * N + i_idx[x]) * R + r_idx[x] for x in sl])
        return keys, np.concatenate([p[x] for x in sl])

    bc = np.sqrt(estimated.p_background * truth.p_background)
    for s, e in _event_blocks(sum(f for side in sides for f in side[1])):
        (ka, pa), (kb, pb) = block(sides[0], s, e), block(sides[1], s, e)
        common, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
        if common.size:
            bc[s:e] += np.bincount(common // (N * R) - s, weights=np.sqrt(pa[ia] * pb[ib]),
                                   minlength=e - s)
    h = np.sqrt(np.maximum(0.0, 1.0 - bc))
    return float(h.mean())


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
    sets' clocks and their means yields ``lam``, ``lam'`` and that sum, in
    ``O(N n R + N n^2 R)`` time.  Equals, up to rounding,
    ``hellinger_divergence`` of the two unfloored ``e_step`` attributions; an
    event with zero intensity under either set raises ``DegenerateEventError``.
    """
    if record.N == 0:
        raise ValueError("empty record")
    if not estimated.n == truth.n == record.n:
        raise ValueError("parameter sets must cover the record's types")
    Ra, Rb, c = estimated.R, truth.R, min(estimated.R, truth.R)
    ka, kb = estimated.kappa, truth.kappa
    Aa, Ab = estimated.amplitudes(), truth.amplitudes()
    A_bar = np.sqrt((ka[:c] * kb[:c])[:, None, None] * Aa[:c] * Ab[:c])
    clocks = np.concatenate([ka, kb, 0.5 * (ka[:c] + kb[:c])])
    types = record.types
    lam_a, lam_b, common = estimated.mu[types], truth.mu[types], np.zeros(record.N)
    for rows, S in _decayed_counts(record, clocks, record.times):
        realized = (np.arange(S.shape[0]), types[rows])
        lam_a[rows] = _rates(estimated.mu, ka, Aa, S[:, :Ra])[realized]
        lam_b[rows] = _rates(truth.mu, kb, Ab, S[:, Ra:Ra + Rb])[realized]
        common[rows] = _rates(np.zeros(record.n), np.ones(c), A_bar, S[:, Ra + Rb:])[realized]
    _require_positive(lam_a)
    _require_positive(lam_b)
    # the background term as the pairwise divergence forms it, exactly 1 for
    # an event that nothing precedes under both sets
    bc = np.sqrt(estimated.mu[types] / lam_a * (truth.mu[types] / lam_b))
    bc += common / (np.sqrt(lam_a) * np.sqrt(lam_b))
    return float(np.sqrt(np.maximum(0.0, 1.0 - bc)).mean())


def background_probabilities(record: EventRecord, params) -> np.ndarray:
    """Each event's probability of being background, ``mu[k_j] / lam_j``, from
    the decayed-count scan; an event with zero intensity raises
    ``DegenerateEventError``, as in ``e_step``."""
    lam, _ = _realized_rates(record, params, slice(None))
    _require_positive(lam)
    return params.mu[record.types] / lam


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
    share drives the geometric mean to zero.
    """
    t_a, t_b = window
    events = _scored_events(record, (t_a, t_b))
    realized = record.types[events]
    if realized.size == 0:
        warnings.warn("no events in the scored window", NumericsWarning)
        return float("nan"), float("nan")
    lam, total = _realized_rates(record, params, events, totals=True)
    shares = lam / total

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

    Bottom-up merging: while blocks of width ``w`` are each sorted, every
    element of a right block counts the elements above it in its left block
    with one ``searchsorted`` over all left blocks, keyed by block pair.
    ``O(M log^2 M)``.
    """
    M = a.size
    idx = np.arange(M)
    count, w = 0, 1
    while w < M:
        pair = idx // (2 * w)
        key = pair * M + a
        right = (idx // w) % 2 == 1
        not_above = np.searchsorted(key[~right], key[right], side="right") - pair[right] * w
        count += int(np.sum(w - not_above))
        a = np.sort(key) - pair * M
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
    """Root-mean-square entrywise error between two influence matrices."""
    a = np.asarray(estimated, dtype=np.float64)
    b = np.asarray(truth, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("influence matrices must share a shape")
    return float(np.sqrt(np.mean((a - b) ** 2)))
