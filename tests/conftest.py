"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive everything from scratch (plain loops,
quadrature, finite differences) instead of calling back into the package, so
a bug in the library cannot hide behind itself.
"""

import csv
import sys
import warnings

import numpy as np
import pytest
from hypothesis import settings
from scipy.optimize import brentq

from hawkesgeo import model
from hawkesgeo.em import BranchingStructure, FullRankParams, NumericalError
from hawkesgeo.model import EmbeddingPair, EventRecord, KernelBank, ModelParams, \
    NumericsWarning, horizon_past

# Property tests replay the same examples on every run and never time out, so
# the suite stays reproducible and its runtime bounded.
settings.register_profile("hawkesgeo", derandomize=True, deadline=None, max_examples=40,
                          database=None)
settings.load_profile("hawkesgeo")


# ---------------------------------------------------------------------------
# random instance builders


def make_record(rng, n, N, T=10.0):
    times = np.sort(rng.uniform(0.0, T, size=N))
    types = rng.integers(0, n, size=N)
    return EventRecord(types, times, n, T)


def make_model(rng, n, m=2, R=1):
    X = rng.normal(size=(n, m))
    Y = rng.normal(size=(n, m))
    xi = rng.uniform(0.5, 1.5, size=n)
    xi = xi / xi.mean()
    return ModelParams(
        EmbeddingPair(X, Y),
        KernelBank(
            beta_sq=rng.uniform(0.3, 2.0, size=R),
            kappa=rng.uniform(0.3, 3.0, size=R),
            gamma=rng.uniform(0.2, 1.0, size=R) / R,
        ),
        xi,
        rng.uniform(0.05, 0.5, size=n),
    )


def overflowing():
    """A five-event record and a full-rank model (phi = 1e308) whose intensities
    overflow from the third event on, and whose compensator overflows."""
    record = EventRecord([0, 1, 2, 1, 0], [0.1, 0.1001, 0.1002, 0.1003, 0.1004], 3, 2.0)
    return record, FullRankParams(np.full((3, 3), 1e308), [1.0], [1.0], [0.1, 0.2, 0.3])


def strict_pairs(record):
    """All (i, j) with t_i < t_j, by plain loops (ties never pair)."""
    out = []
    for j in range(record.N):
        for i in range(j):
            if record.times[i] < record.times[j]:
                out.append((i, j))
    return out


def unblocked_response(record, params):
    """``model._pair_response`` over all of ``model.pair_indices`` as one block,
    the whole-record pass the blocked attribution is held to: ``(H, lam, pairs,
    ws)``, where ``H`` is a view of the workspace ``ws``."""
    pairs = model.pair_indices(record)
    dyad = record.types[pairs[1]] * record.n + record.types[pairs[0]]
    ws = model._Workspace(params.R)
    H, lam = model._pair_response(record, params, slice(None), pairs[1], pairs[2], dyad, ws)
    return H, lam, pairs, ws


def make_branching(rng, record, R):
    """Random row-normalized attributions over the full strict-order support."""
    pairs = strict_pairs(record)
    i_idx, j_idx, r_idx, p = [], [], [], []
    raw_bg = rng.uniform(0.1, 1.0, size=record.N)
    raw_rows = [[] for _ in range(record.N)]
    for (i, j) in pairs:
        for r in range(R):
            raw_rows[j].append((i, r, rng.uniform(0.0, 1.0)))
    p_background = np.empty(record.N)
    for j in range(record.N):
        total = raw_bg[j] + sum(w for (_, _, w) in raw_rows[j])
        p_background[j] = raw_bg[j] / total
        for (i, r, w) in raw_rows[j]:
            i_idx.append(i)
            j_idx.append(j)
            r_idx.append(r)
            p.append(w / total)
    return BranchingStructure(
        record,
        np.array(i_idx, dtype=np.int64),
        np.array(j_idx, dtype=np.int64),
        np.array(r_idx, dtype=np.int64),
        np.array(p, dtype=np.float64),
        p_background,
        R,
    )


def shuffled(rng, b: BranchingStructure) -> BranchingStructure:
    """``b``'s entries passed to the constructor in a random order."""
    perm = rng.permutation(b.p.size)
    return BranchingStructure(b.record, b.i_idx[perm], b.j_idx[perm], b.r_idx[perm],
                              b.p[perm], b.p_background, b.R)


# ---------------------------------------------------------------------------
# independent likelihood oracle (loops + quadrature)


def brute_normalized_g(params, r, k, l):
    """softmax-normalized Gaussian weight of receptor k for influencer l."""
    X = params.embedding.reception
    Y = params.embedding.influence
    m = X.shape[1]
    b2 = params.kernels.beta_sq[r]
    pref = (2.0 * np.pi * b2) ** (-m / 2.0)
    raw = [pref * np.exp(-np.sum((X[q] - Y[l]) ** 2) / (2.0 * b2))
           for q in range(X.shape[0])]
    return raw[k] / sum(raw)


def brute_response(params, k_to, k_from, tau, r=None):
    """Response at lag tau summed over the bases, or basis ``r``'s term alone."""
    if tau <= 0.0:
        return 0.0
    bases = range(params.R) if r is None else (r,)
    if isinstance(params, FullRankParams):
        return sum(params.phi[k_to, k_from] * params.w[b] * params.kappa[b]
                   * np.exp(-params.kappa[b] * tau) for b in bases)
    kb = params.kernels
    total = 0.0
    for b in bases:
        total += (params.xi[k_from] * kb.gamma[b]
                  * brute_normalized_g(params, b, k_to, k_from)
                  * kb.kappa[b] * np.exp(-kb.kappa[b] * tau))
    return total


def brute_intensity(record, params, k, t):
    lam = params.mu[k]
    for i in range(record.N):
        if record.times[i] < t:
            lam += brute_response(params, k, record.types[i], t - record.times[i])
    return lam


def brute_decayed_moments(record, kappa, ts):
    """``(S, D)``, each ``(q, R, n)``: at each query ``t``, the sums over earlier
    type-``l`` events of ``exp(-kappa_r (t - t_i))`` and of ``(t - t_i)`` times it,
    by loops."""
    S = np.zeros((len(ts), len(kappa), record.n))
    D = np.zeros_like(S)
    for q, t in enumerate(ts):
        for i in range(record.N):
            if record.times[i] < t:
                lag = t - record.times[i]
                for r, kap in enumerate(kappa):
                    S[q, r, record.types[i]] += np.exp(-kap * lag)
                    D[q, r, record.types[i]] += lag * np.exp(-kap * lag)
    return S, D


def brute_loglik(record, params, quad_order=50):
    """Event terms by loops, compensator by Gauss-Legendre between events."""
    ll = 0.0
    for j in range(record.N):
        ll += np.log(brute_intensity(record, params, record.types[j],
                                     record.times[j]))
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    knots = np.concatenate([[0.0], record.times, [record.horizon]])
    comp = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        if b <= a:
            continue
        ts = 0.5 * (b - a) * nodes + 0.5 * (b + a)
        vals = [sum(brute_intensity(record, params, k, t)
                    for k in range(record.n)) for t in ts]
        comp += 0.5 * (b - a) * np.dot(weights, vals)
    return ll - comp


def brute_branching(record, params, floor):
    """E-step attribution by loops, as ``(i, j, r, p)`` tuples and ``p_background``.

    Entries come event by event, then basis by basis, then trigger by trigger
    in ``strict_pairs`` order; those below ``floor`` (relative to the full
    intensity) are dropped and each event's remaining probabilities
    renormalized to sum to one.
    """
    pairs = strict_pairs(record)
    h = [[brute_response(params, record.types[j], record.types[i],
                         record.times[j] - record.times[i], r) for (i, j) in pairs]
         for r in range(params.R)]
    lam = [params.mu[record.types[j]] for j in range(record.N)]
    for r in range(params.R):
        for (i, j), v in zip(pairs, h[r]):
            lam[j] += v
    entries = sorted([(i, j, r, v / lam[j]) for r in range(params.R)
                      for (i, j), v in zip(pairs, h[r]) if v / lam[j] >= floor],
                     key=lambda e: (e[1], e[2]))  # stable: triggers stay in order
    row = [params.mu[record.types[j]] / lam[j] for j in range(record.N)]
    p_background = list(row)
    for (_, j, _, p) in entries:
        row[j] += p
    return ([(i, j, r, p / row[j]) for (i, j, r, p) in entries],
            np.array([pb / row[j] for j, pb in enumerate(p_background)]))


# ---------------------------------------------------------------------------
# the decayed-count walk with no chunk skipped


def reference_decayed_counts(record, kappa, ts, lagged=False):
    """``model._decayed_counts`` with every chunk's exclusive cumsums built whole, read or
    not, by a plain float ``np.cumsum``, at ``model.SCAN_BLOCK`` and ``model.SCAN_SPAN`` as
    they are at call time: the walker must yield these bytes."""
    def cumsums(first, types, weights):
        C = np.zeros((types.size + 1,) + first.shape)
        C[0] = first
        C[np.arange(1, types.size + 1), :, types] = weights
        return np.cumsum(C, axis=0, out=C)

    times, types, block = record.times, record.types, model.SCAN_BLOCK
    g = np.searchsorted(times, ts, side="left")
    stop = int(g[-1]) if g.size else 0
    S_c = D_c = np.zeros((kappa.size, record.n))
    a, q = 0, int(np.searchsorted(g, 1))
    while a < stop:
        t_a = times[a]
        b = min(a + block, stop, times.searchsorted(t_a + model.SCAN_SPAN / kappa.max(), "right"))
        u = times[a:b] - t_a
        grow = np.exp(np.outer(u, kappa))
        X = cumsums(S_c, types[a:b], grow)
        Y = cumsums(-D_c, types[a:b], u[:, None] * grow) if lagged else None
        q1 = int(np.searchsorted(g, b))
        for lo in range(q, q1, block):
            rows = slice(lo, min(lo + block, q1))
            i, u_q = g[rows] - a, ts[rows] - t_a
            fall = np.exp(np.outer(-u_q, kappa))
            if np.array_equal(i, np.arange(i[0], i[0] + i.size)):
                i = slice(i[0], i[0] + i.size)
            yield (rows, X[i], fall, u_q, Y[i]) if lagged else (rows, X[i], fall)
        fall = np.exp(-kappa * u[-1])[:, None]
        S_e = X[-1] * fall
        D_e = u[-1] * S_e - Y[-1] * fall if lagged else None
        q2 = max(q1, int(np.searchsorted(ts, times[b]))) if b < stop else ts.size
        for lo in range(q1, q2, block):
            rows = slice(lo, min(lo + block, q2))
            d = ts[rows] - times[b - 1]
            end, decay = np.broadcast_to(S_e, (d.size,) + S_e.shape), np.exp(np.outer(-d, kappa))
            yield (rows, end, decay, d, np.broadcast_to(-D_e, end.shape)) if lagged else \
                (rows, end, decay)
        if b < stop:
            d = times[b] - times[b - 1]
            S_c = S_e * np.exp(-kappa * d)[:, None]
            D_c = D_e * np.exp(-kappa * d)[:, None] + d * S_c if lagged else D_c
        a, q = b, q2


def walked_moments(walk, q, R, n):
    """The decayed counts ``S`` and lag moments ``D``, ``(q, R, n)`` each, that a lagged
    walk's yields ``(rows, X, fall, u, Y)`` stand for: ``S = X fall`` and ``D = u S - Y
    fall``."""
    S, D = np.zeros((2, q, R, n))
    for rows, X, fall, u, Y in walk:
        S[rows] = X * fall[..., None]
        D[rows] = u[:, None, None] * S[rows] - Y * fall[..., None]
    return S, D


# ---------------------------------------------------------------------------
# per-event loops of the simulator, the count discretizer and the events CSV
# writer; the package's vectorized forms must reproduce them byte for byte


def reference_thinning(params, T=None, seed=0, *, target_events=None, event_cap=2_000_000):
    """``simulate_thinning`` as one loop over proposals, rates from ``np.tile``."""
    if T is None and target_events is None:
        raise ValueError("give a horizon T or a target event count")
    if target_events is not None and target_events > event_cap:
        raise ValueError("target_events exceeds event_cap")
    A = params.amplitudes()
    R, n = A.shape[0], A.shape[1]
    kappa = np.asarray(params.kappa, dtype=np.float64)
    mu = np.asarray(params.mu, dtype=np.float64)
    mu_total = float(mu.sum())
    acol = A.sum(axis=1)
    if target_events is not None and mu_total <= 0.0:
        raise NumericalError("cannot reach a target event count with zero background rate")

    rng = np.random.default_rng(seed)
    S = np.zeros((R, n))
    t = 0.0
    lam_bar = mu_total
    ev_types, ev_times = [], []
    while True:
        if target_events is not None and len(ev_times) >= target_events:
            break
        if lam_bar <= 0.0:
            break
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
            lam = np.tile(mu, S.shape[:-2] + (1,))
            for r in range(R):
                lam += kappa[r] * (S[..., r, :] @ A[r].T)
            cum = np.cumsum(lam)
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


def reference_discretize(series, threshold):
    """``discretize_counts`` stepping one level at a time through each segment."""
    ev_types, ev_times = [], []
    for loc, (days, cum) in enumerate(zip(series.days, series.cumulative)):
        q = int(cum[0] // threshold) + 1
        emitted = 0
        for s in range(days.size - 1):
            d0, d1 = days[s], days[s + 1]
            c0, c1 = cum[s], cum[s + 1]
            while q * threshold <= c1:
                level = q * threshold
                if level <= c0:
                    q += 1
                    continue
                if 0.0 < c0 and c1 <= 2.0 * c0:
                    frac = np.log1p((level - c0) / c0) / np.log1p((c1 - c0) / c0)
                elif c0 > 0.0:
                    frac = (np.log(level) - np.log(c0)) / (np.log(c1) - np.log(c0))
                else:
                    frac = (level - c0) / (c1 - c0)
                ev_types.append(loc)
                ev_times.append(float(d0 + (d1 - d0) * frac))
                emitted += 1
                q += 1
        if emitted == 0:
            warnings.warn(
                f"location {series.labels[loc]} never crosses the threshold; no events",
                NumericsWarning)
    types_arr = np.asarray(ev_types, dtype=np.int64)
    times_arr = np.asarray(ev_times, dtype=np.float64)
    order = np.argsort(times_arr, kind="stable")
    types_arr, times_arr = types_arr[order], times_arr[order]
    horizon = float(max(d[-1] for d in series.days))
    if times_arr.size and horizon <= times_arr[-1]:
        horizon = horizon_past(times_arr)
    return EventRecord(types_arr, times_arr, len(series.labels), horizon, series.labels)


def reference_events_csv(record, path):
    """``save_events_csv`` one ``writerow`` per event."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["type", "time"])
        for k, t in zip(record.types, record.times):
            label = record.labels[k] if record.labels else str(int(k))
            writer.writerow([label, repr(float(t))])


def reference_embedding_csv(params, labels, path):
    """``write_embedding_csv`` one ``writerow`` per point."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["type_label", "role"] + [f"coord_{d + 1}" for d in range(params.m)])
        for role, pts in (("reception", params.embedding.reception),
                          ("influence", params.embedding.influence)):
            for k in range(params.n):
                label = labels[k] if labels is not None else str(k)
                writer.writerow([label, role] + [repr(float(v)) for v in pts[k]])


def reference_curve_csv(report_doc, path):
    """``write_curve_csv`` one ``writerow`` per epoch."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "train_log_likelihood"])
        for e, v in enumerate(report_doc["curve"]):
            writer.writerow([str(e), repr(float(v))])


def reference_qq_csv(points, path):
    """``write_qq_csv`` one ``writerow`` per point."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["empirical_quantile", "theoretical_quantile"])
        for emp, theo in points:
            writer.writerow([repr(float(emp)), repr(float(theo))])


# ---------------------------------------------------------------------------
# surrogate objective the M-step maximizes (softmax denominators and the
# temporal integral both treated as unit mass; optionally keeping the
# receptor Gaussian sum, which is what the embedding gradient differentiates)


class Surrogate:
    def __init__(self, record, branching, prior=None):
        self.record = record
        self.i = branching.i_idx
        self.j = branching.j_idx
        self.r = branching.r_idx
        self.p = branching.p
        self.pb = branching.p_background
        self.ki = record.types[self.i]
        self.kj = record.types[self.j]
        self.dt = record.times[self.j] - record.times[self.i]
        self.R = branching.R
        self.prior = prior

    def value(self, params, receptor_sum=False):
        X = params.embedding.reception
        Y = params.embedding.influence
        kb = params.kernels
        m = X.shape[1]
        b2 = kb.beta_sq[self.r]
        d2 = np.sum((X[self.kj] - Y[self.ki]) ** 2, axis=1)
        log_g = -0.5 * m * np.log(2.0 * np.pi * b2) - d2 / (2.0 * b2)
        log_f = np.log(kb.kappa[self.r]) - kb.kappa[self.r] * self.dt
        total = np.sum(self.p * (np.log(params.xi[self.ki])
                                 + np.log(kb.gamma[self.r]) + log_g + log_f))
        total += np.sum(np.where(self.pb > 0.0,
                                 self.pb * np.log(params.mu[self.record.types]),
                                 0.0))
        total -= self.record.horizon * params.mu.sum()
        occ = self.record.types
        if receptor_sum:
            # sum_k g_r(x_k, y_l) kept live instead of approximated away
            for r in range(self.R):
                pref = (2.0 * np.pi * kb.beta_sq[r]) ** (-m / 2.0)
                dists = np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=2)
                gsum = pref * np.exp(-dists / (2.0 * kb.beta_sq[r])).sum(axis=0)
                total -= np.sum(params.xi[occ] * kb.gamma[r] * gsum[occ])
        else:
            total -= np.sum(params.xi[occ]) * kb.gamma.sum()
        if self.prior is not None:
            total += np.sum((self.prior.alpha - 1.0) * np.log(kb.kappa)
                            - self.prior.beta * kb.kappa)
        return float(total)


def argmax_scalar(fn, lo, hi):
    """High-precision 1-D argmax of a smooth concave fn via its FD derivative."""
    def deriv(v):
        h = 1e-6 * max(abs(v), 1e-3)
        return (fn(v + h) - fn(v - h)) / (2.0 * h)
    assert deriv(lo) > 0.0 and deriv(hi) < 0.0, "bracket does not straddle the maximum"
    return brentq(deriv, lo, hi, xtol=1e-13, rtol=8.9e-16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def no_pairs(monkeypatch):
    """Make the event-pair builders raise wherever the package holds them, so
    a test passes only if the code it runs builds no pairs."""
    def refuse(*args, **kwargs):
        raise AssertionError("event pairs were built")

    for builder in (model._pair_blocks, model.pair_indices):
        for name, module in list(sys.modules.items()):
            if name == "hawkesgeo" or name.startswith("hawkesgeo."):
                for key, value in list(vars(module).items()):
                    if value is builder:
                        monkeypatch.setattr(module, key, refuse)
