"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive everything from scratch (plain loops,
quadrature, finite differences) instead of calling back into the package, so
a bug in the library cannot hide behind itself.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from hawkesgeo.em import BranchingStructure, FullRankParams
from hawkesgeo.model import EmbeddingPair, EventRecord, KernelBank, ModelParams


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


def strict_pairs(record):
    """All (i, j) with t_i < t_j, by plain loops (ties never pair)."""
    out = []
    for j in range(record.N):
        for i in range(j):
            if record.times[i] < record.times[j]:
                out.append((i, j))
    return out


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


def brute_response(params, k_to, k_from, tau):
    if tau <= 0.0:
        return 0.0
    if isinstance(params, FullRankParams):
        return sum(params.phi[k_to, k_from] * w * kap * np.exp(-kap * tau)
                   for w, kap in zip(params.w, params.kappa))
    kb = params.kernels
    total = 0.0
    for r in range(kb.R):
        total += (params.xi[k_from] * kb.gamma[r]
                  * brute_normalized_g(params, r, k_to, k_from)
                  * kb.kappa[r] * np.exp(-kb.kappa[r] * tau))
    return total


def brute_intensity(record, params, k, t):
    lam = params.mu[k]
    for i in range(record.N):
        if record.times[i] < t:
            lam += brute_response(params, k, record.types[i], t - record.times[i])
    return lam


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
