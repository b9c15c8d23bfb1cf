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
SCAN_BLOCK = 512
SCAN_SPAN = 500.0
# attribution: stored event pairs per block of receiving events
PAIR_BLOCK = 1 << 16
# fit and its initial guess sum over a record's event pairs, kept across epochs, up to
# this many pairs (about 46 MB at 11 bytes a pair) and over its decayed counts past it
PAIR_CACHE = 1 << 22


class NumericsWarning(UserWarning):
    """Raised when a computation hits a guarded degenerate branch."""


class NumericalError(RuntimeError):
    """A fit or simulation left the numerically trustworthy regime."""


class DegenerateEventError(NumericalError):
    """An event has zero intensity, so no attribution exists."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"event {index} has zero intensity and zero background rate")


def _require_positive(lam, start=0) -> None:
    """Raise ``DegenerateEventError`` for the first event with zero intensity
    among the intensities ``lam`` of events ``start``, ``start + 1``, ..."""
    if np.any(lam <= 0.0):
        raise DegenerateEventError(start + int(np.argmax(lam <= 0.0)))


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
        """The sub-record of events with ``t < t_end``, with horizon ``t_end``.
        ``t_end`` may not pass ``horizon``: time past it was never observed."""
        if t_end > self.horizon:
            raise ValueError(f"t_end {t_end:.6g} is past the record horizon {self.horizon:.6g}")
        keep = self.times < t_end
        return EventRecord(self.types[keep], self.times[keep], self.n, t_end, self.labels)


def horizon_past(times) -> float:
    """A horizon just past the last of the sorted ``times``; 1.0 when empty."""
    if len(times) == 0:
        return 1.0
    horizon = float(times[-1]) * (1.0 + 1e-9)  # a Python float overflows silently
    return horizon if horizon > times[-1] else times[-1] + 1e-9  # no pad at time zero


def pair_indices(record: EventRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All ordered pairs ``(i, j)`` with ``t_i < t_j`` in a sorted record.

    Returns flat arrays ``(i_idx, j_idx, dt)``: the events before ``j`` are the first
    ``searchsorted(times, t_j, "left")``, so tied events never pair.  The package builds
    its pairs block by block in ``_pair_blocks``; this whole-record form is the reference
    they are held to.
    """
    n_earlier = np.searchsorted(record.times, record.times, side="left")
    j_idx = np.repeat(np.arange(record.N, dtype=np.int64), n_earlier)
    starts = np.cumsum(n_earlier) - n_earlier
    i_idx = np.arange(j_idx.size, dtype=np.int64) - np.repeat(starts, n_earlier)
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


def _pair_blocks(record: EventRecord, start: int = 0, stop: int | None = None):
    """``pair_indices`` in blocks of the receiving events ``start..stop-1`` (all by default).

    Yields ``(events, rows, dt, dyad)``: ``events`` a slice of the record and, for the
    pairs its events receive, about ``PAIR_BLOCK`` of them, the receiving event
    ``j - events.start``, the lag and the flat type pair ``types[j] * n + types[i]``.
    Event ``j``'s triggers, the events before its time, are a prefix of the sorted record, so
    both come from concatenated prefixes without index arrays or gathers.  Rows and type
    pairs take the narrowest unsigned type that holds the block's last row and
    ``n * n - 1``, so at ``n <= 256`` with at most 256 events in a block a pair takes
    11 bytes.  Each block is built when reached: ``e_step`` and the initial guess walk
    the generator, holding one block, and ``fit`` keeps the list up to ``PAIR_CACHE``
    pairs and builds none past.
    """
    times, types = record.times, record.types
    n_earlier = np.searchsorted(times, times, "left")
    dyad_type = np.min_scalar_type(record.n * record.n - 1)
    first = np.concatenate(([0], np.cumsum(n_earlier)))
    for a, b in _event_blocks(first[start:None if stop is None else stop + 1]):
        s, e = start + a, start + b
        c = n_earlier[s:e]
        prefixes = c.tolist()
        rows = np.repeat(np.arange(e - s, dtype=np.min_scalar_type(e - s - 1)), c)
        dt = np.repeat(times[s:e], c)
        dt -= np.concatenate([times[:k] for k in prefixes])
        dyad = np.concatenate([types[:k] for k in prefixes])
        dyad += np.repeat(types[s:e] * record.n, c)
        yield slice(s, e), rows, dt, dyad.astype(dyad_type, copy=False)


def _within_pair_cache(record: EventRecord) -> bool:
    """Whether ``record`` has at most ``PAIR_CACHE`` event pairs, read at call time: up
    to there ``fit`` and ``spectral.init_influence_guess`` sum over the pairs, past it
    over the decayed counts."""
    return int(np.searchsorted(record.times, record.times, "left").sum()) <= PAIR_CACHE


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
    lam = params.mu[record.types[events]]  # a copy, as the index is an array
    m = dt.size
    ws.reserve(m)
    np.copyto(ws.rows[:m], rows)
    np.copyto(ws.dyad[:m], dyad)
    H, t = ws.H[:A.shape[0] * m].reshape(A.shape[0], m), ws.t[:m]
    for r in range(A.shape[0]):
        kap = params.kappa[r]
        np.multiply(-kap, dt, out=t)
        np.multiply(kap, np.exp(t, out=t), out=t)
        with np.errstate(over="ignore"):  # the callers report an infinite intensity
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


def _own_rates(mu, kappa, A, S, k):
    """``(lam, dots, rows)``: each query's own-type intensity ``mu[k_j] + sum_r kappa_r
    dots[r, j]`` with ``dots[r, j] = rows[r, j] . S[j, r]``, ``rows = A[:, k]``, in ``O(c n
    R)`` from decayed counts ``S``; an overflow is inf or nan, without a numpy warning."""
    rows, dots, lam = A[:, k], np.empty((A.shape[0], k.size)), mu[k]
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(A.shape[0]):
            np.einsum("jl,jl->j", rows[r], S[:, r], out=dots[r])
            lam += kappa[r] * dots[r]
    return lam, dots, rows


def _decayed_counts(record: EventRecord, kappa, ts, lagged: bool = False):
    """Yield ``(rows, S)`` over the sorted queries ``ts`` that follow an event:
    ``S[q, r, l]`` sums ``exp(-kappa_r (t_q - t_i))`` over type-``l`` events
    before ``t_q``.  This is the Ozaki (1979) recursion as cumsums over chunks
    ``[a, b)`` of at most ``SCAN_BLOCK`` events spanning at most ``SCAN_SPAN /
    max(kappa)``, so no ``exp(kappa u)``, ``u = t - t_a``, overflows.  A chunk
    keeps the exclusive cumsums ``X[i] = S_c + sum_{a <= e < a + i} onehot(k_e)
    exp(kappa u_e)``, ``S_c`` the state carried to ``t_a``.  A query with ``g``
    events strictly before it and ``a <= g < b`` reads ``S = X[g - a] exp(-kappa
    u_q)``: one decay, and a slice of ``X`` at untied events.  One after the
    chunk's last event (in a gap, or at the horizon) decays the chunk's end state,
    which is all a chunk that no query reads keeps (``_chunk_sums``).
    As each query is read by the chunk of its last earlier event, a chunk edge
    may fall inside a tie run.

    With ``lagged`` it yields ``(rows, S, u, Yf)``: the sums ``D`` of ``(t_q - t_i)
    exp(-kappa_r (t_q - t_i))`` are ``u S - Yf``, never formed.  In a chunk ``u = u_q``,
    ``Yf = Y[g - a] exp(-kappa u_q)``, ``Y[i] = -D_c + sum_{a <= e < a + i} onehot(k_e) u_e
    exp(kappa u_e)``; after its last event ``u = d``, the gap, and ``Yf = -D_e exp(-kappa d)``."""
    times, types = record.times, record.types
    g = np.searchsorted(times, ts, side="left")  # events strictly before each query
    stop = int(g[-1]) if g.size else 0  # later events precede no query
    S_c = D_c = np.zeros((kappa.size, record.n))
    a, q = 0, int(np.searchsorted(g, 1))
    while a < stop:
        t_a = times[a]
        b = min(a + SCAN_BLOCK, stop, times.searchsorted(t_a + SCAN_SPAN / kappa.max(), "right"))
        u = times[a:b] - t_a
        grow = np.exp(np.outer(u, kappa))
        q1 = int(np.searchsorted(g, b))
        # a chunk that no query reads needs only the cumsums' last rows
        sums = _exclusive_cumsums if q1 > q else _chunk_sums
        X = sums(S_c, types[a:b], grow)
        Y = sums(-D_c, types[a:b], u[:, None] * grow) if lagged else None
        for lo in range(q, q1, SCAN_BLOCK):
            rows = slice(lo, min(lo + SCAN_BLOCK, q1))
            i, u_q = g[rows] - a, ts[rows] - t_a
            fall = np.exp(np.outer(-u_q, kappa))[..., None]
            if np.array_equal(i, np.arange(i[0], i[0] + i.size)):
                i = slice(i[0], i[0] + i.size)
            S = X[i] * fall
            yield (rows, S, u_q, Y[i] * fall) if lagged else (rows, S)
        fall = np.exp(-kappa * u[-1])[:, None]
        S_e = X[-1] * fall  # the state just after event b - 1
        D_e = u[-1] * S_e - Y[-1] * fall if lagged else None
        q2 = max(q1, int(np.searchsorted(ts, times[b]))) if b < stop else ts.size
        for lo in range(q1, q2, SCAN_BLOCK):
            rows = slice(lo, min(lo + SCAN_BLOCK, q2))
            d = ts[rows] - times[b - 1]
            decay = np.exp(np.outer(-d, kappa))[..., None]
            S = S_e * decay
            yield (rows, S, d, -D_e * decay) if lagged else (rows, S)
        if b < stop:
            d = times[b] - times[b - 1]
            S_c = S_e * np.exp(-kappa * d)[:, None]
            D_c = D_e * np.exp(-kappa * d)[:, None] + d * S_c if lagged else D_c
        a, q = b, q2


def _exclusive_cumsums(first, types, weights):
    """``(types.size + 1, R, n)``: ``first``, then its running sums with row ``i``
    of ``weights`` added at type ``types[i]`` of each basis."""
    C = np.zeros((types.size + 1,) + first.shape)
    C[0] = first
    C[np.arange(1, types.size + 1), :, types] = weights
    return np.cumsum(C, axis=0, out=C)


def _chunk_sums(first, types, weights):
    """``_exclusive_cumsums``' last row alone, ``(1, R, n)``: the cumsums add each column's
    weights in order and zeros elsewhere, which change no value."""
    last = first.copy()
    for r in range(first.shape[0]):
        np.add.at(last[r], types, weights[:, r])
    return last[None]


def intensities_at(record: EventRecord, params, times) -> np.ndarray:
    """Conditional intensities of every type at each query time, ``(q, n)``.

    Each query sees the events strictly before it, so an event at a query time
    contributes nothing.  Costs ``O((N + q) n R)`` for the counts, ``O(q n^2 R)``
    for the rates and ``O(SCAN_BLOCK n R)`` extra memory.  A query time outside
    ``[0, horizon]`` (so also nan or inf) raises ``ValueError``, as does a model
    of another type count than the record's.  Where a model's intensities
    overflow, their entries are inf, with a ``NumericsWarning``.
    """
    _check_types(record, params)
    ts = np.asarray(times, dtype=np.float64)
    if not np.all((ts >= 0.0) & (ts <= record.horizon)):
        raise ValueError("query times must lie in [0, horizon]")
    order = np.argsort(ts, kind="stable")
    out = np.tile(params.mu, (ts.size, 1))  # the rates before the first event
    for rows, S in _decayed_counts(record, params.kappa, ts[order]):
        with np.errstate(over="ignore"):
            out[order[rows]] = _rates(params.mu, params.kappa, params.amplitudes(), S)
    if not np.all(np.isfinite(out)):
        warnings.warn("intensities overflow; their entries are inf", NumericsWarning)
    return out


def _check_types(record: EventRecord, params) -> None:
    """``ValueError`` unless ``params`` models the record's ``n`` types."""
    if params.n != record.n:
        raise ValueError(f"the record has {record.n} event types but the model {params.n}")


def _window(record: EventRecord, window) -> tuple[float, float]:
    """``window`` as ``(t_a, t_b)``, the whole record when None; ``ValueError``
    unless ``0 <= t_a <= t_b <= horizon``."""
    t_a, t_b = (0.0, record.horizon) if window is None else window
    if not (0.0 <= t_a <= t_b <= record.horizon):
        raise ValueError("window must satisfy 0 <= t_a <= t_b <= horizon")
    return t_a, t_b


def _scored_events(record: EventRecord, window) -> slice:
    """The events in ``[t_a, t_b)``, a slice of the sorted record."""
    return slice(*(int(v) for v in np.searchsorted(record.times, window, side="left")))


def _realized_rates(record: EventRecord, params, events: slice, totals: bool = False):
    """Each event's intensity at its own type over the slice ``events`` by ``_own_rates``,
    and with ``totals`` the sum over types, ``sum(mu) + sum_r kappa_r S_r . acol_r``, ``acol
    = A.sum(axis=1)``: ``O((N + q) n R)``, no ``(q, n)`` table; an overflow is inf, silently."""
    _check_types(record, params)
    A, kappa, types = params.amplitudes(), params.kappa, record.types[events]
    lam = params.mu[types]
    total = np.full(types.size, params.mu.sum()) if totals else None
    with np.errstate(over="ignore", invalid="ignore"):
        emitted = kappa[:, None] * A.sum(axis=1)  # (R, n): kappa_r acol_r
    for rows, S in _decayed_counts(record, kappa, record.times[events]):
        lam[rows] = _own_rates(params.mu, kappa, A, S, types[rows])[0]
        if totals:
            total[rows] += np.einsum("jrl,rl->j", S, emitted)
    return lam, total


def background_probabilities(record: EventRecord, params) -> np.ndarray:
    """Each event's probability of being background, ``mu[k_j] / lam_j``, from
    the decayed-count scan; an event with zero intensity raises
    ``DegenerateEventError``, as in ``e_step``, and one whose intensity
    overflows gets 0, the limit."""
    lam, _ = _realized_rates(record, params, slice(None))
    _require_positive(lam)
    return params.mu[record.types] / lam


def compensator(record: EventRecord, params, window=None) -> float:
    """Integral of the total intensity over ``[t_a, t_b]``, in closed form.

    Exact for this model: each occurrence's spatial mass sums to one over the
    receptor set, so only the exponential clocks need integrating.  Where a
    model's response mass overflows the result is not finite, with a
    ``NumericsWarning``; a model of another type count than the record's
    raises ``ValueError``.
    """
    _check_types(record, params)
    total = _compensator(record, params, *_window(record, window))
    if not np.isfinite(total):
        warnings.warn(f"compensator is {total}: the response mass overflows", NumericsWarning)
    return total


def _compensator(record: EventRecord, params, t_a: float, t_b: float) -> float:
    """``compensator`` over ``[t_a, t_b]``, inf or nan where the response mass
    overflows, without a warning."""
    A = params.amplitudes()
    total = (t_b - t_a) * float(np.sum(params.mu))
    live = int(np.searchsorted(record.times, t_b, side="left"))  # the events before t_b
    if live:
        with np.errstate(over="ignore", invalid="ignore"):
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
    (with a warning naming the event); where a model's intensities or its
    compensator overflow, the result is inf or nan, with a ``NumericsWarning``.
    """
    t_a, t_b = _window(record, window)
    events = _scored_events(record, (t_a, t_b))
    lam, _ = _realized_rates(record, params, events)
    if np.any(lam <= 0.0):
        bad = events.start + int(np.argmax(lam <= 0.0))
        warnings.warn(
            f"zero intensity at scored event {bad}; log-likelihood is -inf",
            NumericsWarning,
        )
        return float("-inf")
    with np.errstate(invalid="ignore"):  # inf - inf
        ll = float(np.sum(np.log(lam)) - _compensator(record, params, t_a, t_b))
    if not np.isfinite(ll):
        warnings.warn(f"log-likelihood is {ll}: the intensities or the compensator overflow",
                      NumericsWarning)
    return ll


def influence_matrix(params) -> np.ndarray:
    """Time-integrated pairwise response mass, ``phi[k, l]`` for l -> k."""
    return params.amplitudes().sum(axis=0)

