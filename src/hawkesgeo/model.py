"""Event records, model parameters, and exact intensity/likelihood machinery.

The excitation a type ``l`` event exerts on type ``k`` factorizes into a
spatial weight between latent Euclidean points and an exponential clock in
time.  Spatial weights are renormalized over the finite set of reception
points, so each occurrence distributes exactly one unit of time-integrated
mass (per basis kernel, before the ``xi * gamma`` amplitude) across the
receiving types.  That normalization is what makes the compensator below
exact rather than approximate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Squared distances are clamped at SQDIST_CLAMP * beta_sq inside the Gaussian
# exponent so the receptor normalization can never underflow to an all-zero
# denominator, whatever the embedding scale.
SQDIST_CLAMP = 700.0

# decayed-count scan: events per chunk, queries per block, chunk span in decay lengths
SCAN_BLOCK = 4096
SCAN_SPAN = 500.0
# attribution: stored event pairs per block of receiving events
PAIR_BLOCK = 1 << 16


class NumericsWarning(UserWarning):
    """Raised when a computation hits a guarded degenerate branch."""


# ---------------------------------------------------------------------------
# event records


@dataclass(frozen=True, eq=False)
class EventRecord:
    """A finite, time-sorted record of typed events on ``[0, horizon)``.

    ``types`` holds dense integer ids in ``[0, n)``; ``labels``, when given,
    maps each id back to its external name.  Ties in time are legal and are
    kept in stable input order; tied events do not excite one another.
    """

    types: np.ndarray
    times: np.ndarray
    n: int
    horizon: float
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        types = np.asarray(self.types, dtype=np.int64)
        times = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "horizon", float(self.horizon))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        if types.ndim != 1 or times.ndim != 1 or types.shape != times.shape:
            raise ValueError("types and times must be 1-d arrays of equal length")
        if self.n < 0 or (self.n == 0 and types.size > 0):
            raise ValueError("n must be positive when events are present")
        if self.horizon <= 0.0 or not np.isfinite(self.horizon):
            raise ValueError("horizon must be positive and finite")
        if times.size:
            if not np.all(np.isfinite(times)):
                raise ValueError("event times must be finite")
            if np.any(np.diff(times) < 0.0):
                raise ValueError("event times must be nondecreasing")
            if times[0] < 0.0:
                raise ValueError("event times must be nonnegative")
            if times[-1] >= self.horizon:
                raise ValueError("event times must lie strictly before horizon")
            if types.min() < 0 or types.max() >= self.n:
                raise ValueError("type ids must lie in [0, n)")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels must have length n")

    @property
    def N(self) -> int:
        return self.times.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventRecord):
            return NotImplemented
        return (
            self.n == other.n
            and self.horizon == other.horizon
            and self.labels == other.labels
            and np.array_equal(self.types, other.types)
            and np.array_equal(self.times, other.times)
        )

    def count_by_type(self) -> np.ndarray:
        """Occurrence count of each type, shape ``(n,)``."""
        return np.bincount(self.types, minlength=self.n).astype(np.float64)

    def truncated(self, t_end: float) -> "EventRecord":
        """The sub-record of events with ``t < t_end``, with horizon ``t_end``."""
        keep = self.times < t_end
        return EventRecord(self.types[keep], self.times[keep], self.n, t_end, self.labels)


def horizon_past(times) -> float:
    """A horizon just past the last of the sorted ``times``; 1.0 when empty."""
    if len(times) == 0:
        return 1.0
    horizon = float(times[-1]) * (1.0 + 1e-9)  # a Python float overflows silently
    return horizon if horizon > times[-1] else times[-1] + 1e-9  # no pad at time zero


def _earlier_pairs(times, start: int, stop: int):
    """Flat ``(i_idx, j_idx)`` of every ``i`` with ``t_i < t_j``, ``j`` in ``[start, stop)``.

    In sorted ``times`` the events before ``j`` are the first
    ``searchsorted(times, t_j, "left")``, so tied events never pair.
    """
    n_earlier = np.searchsorted(times, times[start:stop], side="left")
    total = int(n_earlier.sum())
    j_idx = np.repeat(np.arange(start, stop, dtype=np.int64), n_earlier)
    starts = np.cumsum(n_earlier) - n_earlier
    i_idx = np.arange(total, dtype=np.int64) - np.repeat(starts, n_earlier)
    return i_idx, j_idx


def pair_indices(record: EventRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All ordered pairs ``(i, j)`` with ``t_i < t_j`` in a sorted record.

    Returns flat arrays ``(i_idx, j_idx, dt)``; events with tied times never
    pair with each other.  The package builds its pairs block by block in
    ``_pair_blocks``; this whole-record form is the reference they are held to.
    """
    i_idx, j_idx = _earlier_pairs(record.times, 0, record.N)
    return i_idx, j_idx, record.times[j_idx] - record.times[i_idx]


def _event_blocks(first):
    """Runs ``[s, e)`` of events whose items number about ``PAIR_BLOCK``, where
    event ``j``'s items start at ``first[j]`` (nondecreasing, one entry per
    event plus the end); an event with more items forms a run of its own."""
    blocks, s = [], 0
    while s < first.size - 1:
        e = max(s + 1, int(np.searchsorted(first, first[s] + PAIR_BLOCK, "right")) - 1)
        blocks.append((s, e))
        s = e
    return blocks


def _pair_blocks(record: EventRecord):
    """``pair_indices`` in blocks of receiving events, for attribution.

    Yields ``(events, rows, dt, dyad)``: ``events`` a slice of the record and,
    for the pairs its events receive, about ``PAIR_BLOCK`` of them, the
    receiving event ``j - events.start`` (int32), the lag and the flat type
    pair ``types[j] * n + types[i]`` (int32 while ``n * n < 2**31``).  Each
    block is built when reached, so a caller that walks the generator holds
    one block, and one that keeps the list (``fit``) 16 bytes per pair.
    """
    first = np.concatenate(([0], np.cumsum(np.searchsorted(record.times, record.times, "left"))))
    dyad_type = np.int32 if record.n * record.n < 2**31 else np.int64
    for s, e in _event_blocks(first):
        i, j = _earlier_pairs(record.times, s, e)
        dyad = (record.types[j] * record.n + record.types[i]).astype(dyad_type)
        yield slice(s, e), (j - s).astype(np.int32), record.times[j] - record.times[i], dyad


class _Workspace:
    """Buffers that ``_pair_response`` and the attribution after it write into,
    reused block after block and regrown only for a block larger than all
    before it.  ``rows`` and ``dyad`` hold the last block's as ``intp``, the
    index type ``np.take`` and ``np.add.at`` read without a copy."""

    def __init__(self, R: int):
        self.R, self.size = R, -1

    def reserve(self, m: int) -> None:
        if m > self.size:
            self.size, size = m, self.R * m
            self.rows, self.dyad = np.empty(m, np.intp), np.empty(m, np.intp)
            self.H, self.t, self.kept_p = np.empty(size), np.empty(size), np.empty(size)
            self.kept_rows, self.kept_dyad = np.empty(size, np.intp), np.empty(size, np.intp)
            self.mask = np.empty(size, bool)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class KernelBank:
    """Per-basis spatial bandwidths and temporal decay/amplitude triples."""

    beta_sq: np.ndarray  # (R,) spatial variances, > 0
    kappa: np.ndarray    # (R,) temporal decay rates, > 0
    gamma: np.ndarray    # (R,) basis amplitudes, >= 0 (a dormant basis has 0)

    def __post_init__(self):
        for name in ("beta_sq", "kappa", "gamma"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64))
            object.__setattr__(self, name, arr)
        if not (self.beta_sq.shape == self.kappa.shape == self.gamma.shape):
            raise ValueError("beta_sq, kappa, gamma must share shape (R,)")
        if self.beta_sq.ndim != 1 or self.beta_sq.size == 0:
            raise ValueError("kernel bank must hold at least one basis kernel")
        if not np.all(np.isfinite(self.beta_sq)) or np.any(self.beta_sq <= 0.0):
            raise ValueError("beta_sq entries must be positive and finite")
        if not np.all(np.isfinite(self.kappa)) or np.any(self.kappa <= 0.0):
            raise ValueError("kappa entries must be positive and finite")
        if not np.all(np.isfinite(self.gamma)) or np.any(self.gamma < 0.0):
            raise ValueError("gamma entries must be nonnegative and finite")

    @property
    def R(self) -> int:
        return self.beta_sq.size


@dataclass(frozen=True)
class EmbeddingPair:
    """Latent reception points ``X`` and influence points ``Y``, both (n, m)."""

    reception: np.ndarray
    influence: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.reception, dtype=np.float64)
        Y = np.asarray(self.influence, dtype=np.float64)
        object.__setattr__(self, "reception", X)
        object.__setattr__(self, "influence", Y)
        if X.ndim != 2 or Y.ndim != 2 or X.shape != Y.shape:
            raise ValueError("reception and influence must be (n, m) arrays of equal shape")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("embedding coordinates must be finite")

    @property
    def n(self) -> int:
        return self.reception.shape[0]

    @property
    def m(self) -> int:
        return self.reception.shape[1]


def _sq_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances ``[k, l]`` between the rows of ``X`` and
    ``Y``, summed from zero one coordinate at a time: the running sum that
    ``scipy.spatial.distance.cdist(X, Y, "sqeuclidean")`` forms, so equal to it
    to the bit.  A distance beyond the float range is inf, without a warning."""
    d2 = np.zeros((X.shape[0], Y.shape[0]))
    with np.errstate(over="ignore"):
        for c in range(X.shape[1]):
            d = X[:, c, None] - Y[:, c]
            d2 += np.square(d, out=d)
    return d2


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the latent-geometry excitation model."""

    embedding: EmbeddingPair
    kernels: KernelBank
    xi: np.ndarray  # (n,) per-type exertion, >= 0, mean held at 1 by the fit
    mu: np.ndarray  # (n,) background rates, >= 0

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=np.float64)
        mu = np.asarray(self.mu, dtype=np.float64)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "mu", mu)
        n = self.embedding.n
        if xi.shape != (n,) or mu.shape != (n,):
            raise ValueError("xi and mu must have shape (n,)")
        if not np.all(np.isfinite(xi)) or np.any(xi < 0.0):
            raise ValueError("xi entries must be nonnegative and finite")
        if not np.all(np.isfinite(mu)) or np.any(mu < 0.0):
            raise ValueError("mu entries must be nonnegative and finite")

    @property
    def n(self) -> int:
        return self.embedding.n

    @property
    def m(self) -> int:
        return self.embedding.m

    @property
    def R(self) -> int:
        return self.kernels.R

    @property
    def kappa(self) -> np.ndarray:
        return self.kernels.kappa

    @cached_property
    def _amplitudes(self) -> np.ndarray:
        X = self.embedding.reception
        Y = self.embedding.influence
        d2 = _sq_distances(X, Y)  # [k, l]
        A = np.empty((self.R, self.n, self.n))
        for r in range(self.R):
            b2 = self.kernels.beta_sq[r]
            w = np.exp(-np.minimum(d2, SQDIST_CLAMP * b2) / (2.0 * b2))
            w /= w.sum(axis=0, keepdims=True)  # receptor-normalized per column
            A[r] = w * (self.xi * self.kernels.gamma[r])[np.newaxis, :]
        return A

    def amplitudes(self) -> np.ndarray:
        """Time-integrated response mass per basis, shape ``(R, n, n)``.

        ``A[r, k, l]`` multiplies the unit-mass temporal kernel ``f_r`` in the
        response of an ``l`` occurrence on type ``k``.
        """
        return self._amplitudes


# ---------------------------------------------------------------------------
# kernels


def response(k_to: int, k_from: int, tau: float, params, r: int | None = None) -> float:
    """Excitation of a type ``k_from`` occurrence on type ``k_to`` at lag tau.

    Zero at and before lag zero.  With ``r`` given, only that basis kernel's
    term is returned.
    """
    if tau <= 0.0:
        return 0.0
    A = params.amplitudes()
    kappa = params.kappa
    rs = range(A.shape[0]) if r is None else (r,)
    val = 0.0
    for rr in rs:
        val += A[rr, k_to, k_from] * kappa[rr] * np.exp(-kappa[rr] * tau)
    return float(val)


# ---------------------------------------------------------------------------
# intensity and likelihood


def _pair_response(record: EventRecord, params, events: slice, rows, dt, dyad, ws):
    """Per-pair response values and the intensities at their receiving events.

    ``events``, ``rows``, ``dt`` and ``dyad`` are one block of ``_pair_blocks``:
    every pair the events of the slice receive.  Returns ``(H, lam)`` where
    ``H[r, e]``, a view of the ``_Workspace`` ``ws``, is the basis-``r``
    response along pair ``e`` and ``lam`` the intensity at each event of
    ``events``.
    """
    A = params.amplitudes()
    start, stop, _ = events.indices(record.N)
    lam = params.mu[record.types[start:stop]].astype(np.float64, copy=True)
    m = dt.size
    ws.reserve(m)
    np.copyto(ws.rows[:m], rows)
    np.copyto(ws.dyad[:m], dyad)
    H, t = ws.H[:A.shape[0] * m].reshape(A.shape[0], m), ws.t[:m]
    for r in range(A.shape[0]):
        kap = params.kappa[r]
        np.multiply(-kap, dt, out=t)
        np.multiply(kap, np.exp(t, out=t), out=t)
        np.multiply(np.take(A[r].ravel(), ws.dyad[:m], out=H[r], mode="clip"), t, out=H[r])
        lam += np.bincount(ws.rows[:m], weights=H[r], minlength=lam.size)
    return H, lam


def _rates(mu, kappa, A, S) -> np.ndarray:
    """Intensity of every type, ``mu + sum_r kappa_r A_r S_r``, from the counts
    ``S[..., r, l]`` of past type-``l`` events decayed by the basis-``r`` clock;
    ``q`` leading query states cost one ``O(q n^2 R)`` product per basis."""
    lam = mu + kappa[0] * (S[..., 0, :] @ A[0].T)
    for r in range(1, A.shape[0]):
        lam += kappa[r] * (S[..., r, :] @ A[r].T)
    return lam


def _decayed_counts(record: EventRecord, kappa, ts):
    """Yield ``(rows, S)`` over the sorted queries ``ts`` that follow an event:
    ``S[q, r, l]`` sums ``exp(-kappa_r (t_q - t_i))`` over type-``l`` events
    before ``t_q``.  This is the Ozaki (1979) recursion as cumsums of
    ``exp(kappa (t_i - t_s))`` over chunks that start at ``t_s`` and span at
    most ``SCAN_SPAN / max(kappa)``, so none overflows.  With the carried state
    added and scaled by ``exp(-kappa (t_j - t_s))``, row ``j`` holds the counts
    just after event ``j``; a query scales the row of its last earlier event."""
    times, types, R, n = record.times, record.types, kappa.size, record.n
    g = np.searchsorted(times, ts, side="left")  # events strictly before each query
    stop = int(g[-1]) if g.size else 0  # later events precede no query
    carry, a = np.zeros((R, n)), 0
    while a < stop:
        t_s = times[a]
        b = min(a + SCAN_BLOCK, stop, times.searchsorted(t_s + SCAN_SPAN / kappa.max(), "right"))
        C = np.zeros((b - a, R, n))
        C[np.arange(b - a), :, types[a:b]] = np.exp(np.outer(times[a:b] - t_s, kappa))
        C = (np.cumsum(C, axis=0) + carry) * np.exp(np.outer(t_s - times[a:b], kappa))[..., None]
        q0, q1 = np.searchsorted(g, [a + 1, b + 1], side="left")
        for lo in range(q0, q1, SCAN_BLOCK):
            rows = slice(lo, min(lo + SCAN_BLOCK, q1))
            last = g[rows] - 1
            yield rows, C[last - a] * np.exp(np.outer(times[last] - ts[rows], kappa))[..., None]
        if b < stop:
            carry = C[-1] * np.exp(kappa * (times[b - 1] - times[b]))[:, None]
        a = b


def intensity(k: int, t: float, record: EventRecord, params) -> float:
    """Conditional intensity of type ``k`` at time ``t``.

    Conditions on all record events strictly before ``t``; an event exactly at
    ``t`` contributes nothing.
    """
    if t < 0.0 or t > record.horizon:
        raise ValueError("t must lie in [0, horizon]")
    return float(intensities_at(record, params, [t])[0, k])


def intensities_at(record: EventRecord, params, times) -> np.ndarray:
    """Conditional intensities of every type at each query time, ``(q, n)``.

    Each query sees the events strictly before it.  Costs ``O((N + q) n R)`` for
    the counts, ``O(q n^2 R)`` for the rates and ``O(SCAN_BLOCK n R)`` extra memory.
    """
    ts = np.asarray(times, dtype=np.float64)
    order = np.argsort(ts, kind="stable")
    out = np.tile(params.mu, (ts.size, 1))  # the rates before the first event
    for rows, rates in _rate_blocks(record, params, ts[order]):
        out[order[rows]] = rates
    return out


def _rate_blocks(record: EventRecord, params, ts):
    """Yield ``(rows, rates)``: the ``(b, n)`` intensities at the sorted queries
    ``ts[rows]`` that follow an event, one ``_decayed_counts`` block at a time."""
    A = params.amplitudes()
    for rows, S in _decayed_counts(record, params.kappa, ts):
        yield rows, _rates(params.mu, params.kappa, A, S)


def _scored_events(record: EventRecord, window) -> slice:
    """The events in ``[t_a, t_b)``, a slice of the sorted record."""
    return slice(*(int(v) for v in np.searchsorted(record.times, window, side="left")))


def _realized_rates(record: EventRecord, params, events: slice, totals: bool = False):
    """Each event's intensity at its own type, over the slice ``events``, read
    off ``intensities_at``'s rates block by block without building its table;
    with ``totals`` also the intensity summed over types."""
    types = record.types[events]
    lam = params.mu[types]
    total = np.full(types.size, params.mu.sum()) if totals else None
    for rows, rates in _rate_blocks(record, params, record.times[events]):
        lam[rows] = rates[np.arange(rates.shape[0]), types[rows]]
        if totals:
            total[rows] = rates.sum(axis=1)
    return lam, total


def compensator(record: EventRecord, params, window=None) -> float:
    """Integral of the total intensity over ``[t_a, t_b]``, in closed form.

    Exact for this model: each occurrence's spatial mass sums to one over the
    receptor set, so only the exponential clocks need integrating.
    """
    t_a, t_b = (0.0, record.horizon) if window is None else window
    if not (0.0 <= t_a <= t_b <= record.horizon):
        raise ValueError("window must satisfy 0 <= t_a <= t_b <= horizon")
    A = params.amplitudes()
    total = (t_b - t_a) * float(np.sum(params.mu))
    live = int(np.searchsorted(record.times, t_b, side="left"))  # the events before t_b
    if live:
        acol = A.sum(axis=1)  # (R, n): total mass an occurrence of each type emits
        terms = np.empty(live)  # one event's share, filled SCAN_BLOCK events at a time
        for r in range(A.shape[0]):
            kap = params.kappa[r]
            for a in range(0, live, SCAN_BLOCK):
                t_i = record.times[a:min(a + SCAN_BLOCK, live)]
                left = np.exp(-kap * np.maximum(0.0, t_a - t_i))
                right = np.exp(-kap * (t_b - t_i))
                terms[a:a + t_i.size] = acol[r, record.types[a:a + t_i.size]] * (left - right)
            total += float(np.sum(terms))
    return total


def log_likelihood(record: EventRecord, params, window=None) -> float:
    """Exact log-likelihood of the events falling in ``[t_a, t_b)``.

    Each scored event's intensity conditions on the full record history before
    it, including events outside the window; by ``intensities_at``'s scan, ``q``
    scored events cost ``O((N + q) n R + q n^2 R)``, build no event pairs and
    need ``O(q)`` memory.  A scored event with zero intensity yields ``-inf``
    (with a warning naming the event).
    """
    t_a, t_b = (0.0, record.horizon) if window is None else window
    events = _scored_events(record, (t_a, t_b))
    lam, _ = _realized_rates(record, params, events)
    if np.any(lam <= 0.0):
        bad = events.start + int(np.argmax(lam <= 0.0))
        warnings.warn(
            f"zero intensity at scored event {bad}; log-likelihood is -inf",
            NumericsWarning,
        )
        return float("-inf")
    return float(np.sum(np.log(lam)) - compensator(record, params, (t_a, t_b)))


def influence_matrix(params) -> np.ndarray:
    """Time-integrated pairwise response mass, ``phi[k, l]`` for l -> k."""
    return params.amplitudes().sum(axis=0)

