"""On-disk artifacts: event CSVs, count series, model and report documents.

Files are read through ``_open_input`` and written through ``atomic_write``
(temp file plus rename, so an interrupted run never leaves a truncated
artifact); both raise ``DataFormatError`` naming a file they cannot use.
Floats are serialized at full precision, so a saved model reloads exactly.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .em import FitReport, FullRankParams
from .model import EmbeddingPair, EventRecord, KernelBank, ModelParams, NumericsWarning, \
    horizon_past

SCHEMA_VERSION = 1

# discretize_counts refuses more events than this (about 1.3 GB of lists)
MAX_DISCRETIZED_EVENTS = 10**7

_MODEL_FIELDS = {"schema_version", "n", "m", "R", "reception_X", "influence_Y",
                 "beta_sq", "kappa", "gamma", "xi", "mu", "type_labels"}
_FULL_RANK_FIELDS = {"schema_version", "kind", "n", "R", "phi", "kappa", "w", "mu",
                     "type_labels"}


class DataFormatError(ValueError):
    """An input file does not satisfy its documented format."""


@contextmanager
def atomic_write(path):
    """Write text to a sibling temp file and rename into place on success; an
    ``OSError`` on the way raises ``DataFormatError`` naming ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w", newline="") as f:
                yield f
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise DataFormatError(f"cannot write {path}: {exc.strerror or exc}") from None


def check_writable(path) -> None:
    """Raise now the ``DataFormatError`` that ``atomic_write(path)`` would."""
    if os.path.isdir(path):
        raise DataFormatError(f"cannot write {path}: Is a directory")
    try:
        tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))).close()
    except OSError as exc:
        raise DataFormatError(f"cannot write {path}: {exc.strerror or exc}") from None


@contextmanager
def _open_input(path):
    """Open UTF-8 text (an optional BOM skipped); a missing, unreadable or
    undecodable file, or an over-long CSV field met while reading, raises
    ``DataFormatError`` naming ``path``."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as f:
            yield f
    except FileNotFoundError:
        raise DataFormatError(f"file not found: {path}") from None
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from None


@contextmanager
def _csv_rows(path):
    """Open a CSV file as its first row (``None`` if empty) and a stream of
    ``(line, fields)`` over the non-blank rows after it."""
    with _open_input(path) as f:
        reader = csv.reader(f)
        yield next(reader, None), filter(itemgetter(1), enumerate(reader, start=2))


def _write_csv(path, header, rows) -> None:
    """Write a header and rows atomically; a Python float field is written as
    its ``repr``, so it reads back exactly."""
    with atomic_write(path) as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _type_labels(labels, n: int) -> list[str]:
    """The given type labels, or ``"0" .. "n-1"``; there must be ``n`` distinct ones, as
    written, or reading the file back would merge the types that share one."""
    labels = list(labels) if labels is not None else [str(k) for k in range(n)]
    if len(labels) != n:
        raise ValueError("labels must have length n")
    if len(set(map(str, labels))) < n:
        raise ValueError("labels must be distinct")
    return labels


def write_json(doc: dict, path=None) -> None:
    """Write a JSON object atomically to ``path``, or to standard output when None: one
    sorted top-level key per line, indented by 2, its value by ``json.dumps(value,
    sort_keys=True)`` (the C encoder, which ``indent`` bypasses), and a trailing newline."""
    items = ",\n".join(f"  {json.dumps(key)}: {json.dumps(doc[key], sort_keys=True)}"
                        for key in sorted(doc))
    text = "{\n" + items + "\n}\n" if doc else "{}\n"
    if path is None:
        sys.stdout.write(text)
        return
    with atomic_write(path) as f:
        f.write(text)


def read_json(path) -> dict:
    """Read a JSON document whose top level must be an object."""
    with _open_input(path) as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
            raise DataFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: expected a JSON object")
    return doc


def _read_document(path) -> dict:
    """Read a JSON document of this package's ``SCHEMA_VERSION``."""
    doc = read_json(path)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataFormatError(f"{path}: unsupported schema_version {version!r}")
    return doc


# ---------------------------------------------------------------------------
# event records


def load_events_csv(path, horizon: float | None = None) -> EventRecord:
    """Read a ``type,time`` CSV into a sorted record.

    Type labels map to dense ids in order of first appearance in the file;
    events then sort stably by time.  The horizon defaults to just past the
    last event unless overridden.  An empty file gives an empty record.
    """
    ids: dict[str, int] = {}
    types: list[int] = []
    times: list[float] = []
    with _csv_rows(path) as (header, rows):
        if header is not None and [h.strip() for h in header] != ["type", "time"]:
            raise DataFormatError(f"expected header 'type,time', got {header!r}")
        for lineno, row in rows:
            if len(row) != 2:
                raise DataFormatError(f"line {lineno}: expected two fields, got {len(row)}")
            label = row[0].strip()
            try:
                t = float(row[1])
            except ValueError:
                raise DataFormatError(f"line {lineno}: unparseable time {row[1]!r}") from None
            if not math.isfinite(t) or t < 0.0:
                raise DataFormatError(f"line {lineno}: time must be finite and nonnegative")
            types.append(ids.setdefault(label, len(ids)))
            times.append(t)

    types_arr = np.asarray(types, dtype=np.int64)
    times_arr = np.asarray(times, dtype=np.float64)
    order = np.argsort(times_arr, kind="stable")
    types_arr, times_arr = types_arr[order], times_arr[order]
    if horizon is None:
        horizon = horizon_past(times_arr)
    elif times_arr.size and horizon <= times_arr[-1]:
        raise DataFormatError("horizon must lie strictly after the last event")
    try:  # the padded horizon of a time near the float maximum is infinite
        return EventRecord(types_arr, times_arr, len(ids), horizon,
                           tuple(ids) if ids else None)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None


def save_events_csv(record: EventRecord, path) -> None:
    names = _type_labels(record.labels, record.n)
    _write_csv(path, ["type", "time"], zip(map(names.__getitem__, record.types.tolist()),
                                           record.times.tolist()))


# ---------------------------------------------------------------------------
# count series


@dataclass(frozen=True)
class CountSeries:
    """Per-location cumulative counts on a shared day clock."""

    labels: tuple[str, ...]
    days: tuple[np.ndarray, ...]
    cumulative: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "days",
                           tuple(np.asarray(d, dtype=np.float64) for d in self.days))
        object.__setattr__(self, "cumulative",
                           tuple(np.asarray(c, dtype=np.float64) for c in self.cumulative))
        if not (len(self.labels) == len(self.days) == len(self.cumulative)):
            raise ValueError("labels, days, cumulative must align")
        if not self.labels:
            raise ValueError("count series needs at least one location")
        for lab, d, c in zip(self.labels, self.days, self.cumulative):
            if d.shape != c.shape or d.ndim != 1 or d.size == 0:
                raise ValueError(f"location {lab}: days and counts must be matched 1-d arrays")
            if not (np.all(np.isfinite(d)) and np.all(np.isfinite(c))):
                raise ValueError(f"location {lab}: days and counts must be finite")
            if np.any(np.diff(d) <= 0.0):
                raise ValueError(f"location {lab}: days must be strictly increasing")
            if np.any(np.diff(c) < 0.0) or c[0] < 0.0:
                raise ValueError(f"location {lab}: cumulative counts must be nondecreasing")


def load_counts_csv(path) -> CountSeries:
    """Read a ``location,day,cumulative_count`` CSV."""
    per_loc: dict[str, list[tuple[float, float]]] = {}
    with _csv_rows(path) as (header, rows):
        if header is None:
            raise DataFormatError("empty counts file")
        if [h.strip() for h in header] != ["location", "day", "cumulative_count"]:
            raise DataFormatError(
                f"expected header 'location,day,cumulative_count', got {header!r}")
        for lineno, row in rows:
            if len(row) != 3:
                raise DataFormatError(f"line {lineno}: expected three fields")
            lab = row[0].strip()
            try:
                day, cum = float(row[1]), float(row[2])
            except ValueError:
                raise DataFormatError(f"line {lineno}: unparseable number") from None
            per_loc.setdefault(lab, []).append((day, cum))
    try:
        return CountSeries(
            tuple(per_loc),
            tuple(np.array([d for d, _ in obs]) for obs in per_loc.values()),
            tuple(np.array([c for _, c in obs]) for obs in per_loc.values()),
        )
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None


def discretize_counts(series: CountSeries, threshold: float = 10.0) -> EventRecord:
    """Turn cumulative count curves into threshold-crossing events.

    Counts are interpolated log-linearly between observation days (linearly
    while still at zero), and an event fires at each exact crossing of the
    levels ``threshold, 2*threshold, ...``.  Locations never reaching the
    threshold contribute no events (with a warning).  More than
    ``MAX_DISCRETIZED_EVENTS`` crossings, or a count of ``2**53`` thresholds
    or more (where adjacent levels round to the same float), raise
    ``ValueError``.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    # Python floats, so a huge count over a tiny threshold gives inf (or nan)
    # without a numpy overflow warning
    crossings = sum(float(c[-1]) // threshold - float(c[0]) // threshold
                    for c in series.cumulative)
    if not crossings <= MAX_DISCRETIZED_EVENTS:
        raise ValueError(f"threshold {threshold:g} gives {crossings:.4g} events, over the "
                         f"limit of {MAX_DISCRETIZED_EVENTS:.0e}; use a larger threshold")
    for lab, c in zip(series.labels, series.cumulative):
        if float(c[-1]) // threshold >= 2.0**53:
            raise ValueError(f"location {lab}: count {c[-1]:g} is 2^53 or more thresholds of "
                             f"{threshold:g}, where levels cannot be told apart; use a "
                             "larger threshold")
    ev_times: list[np.ndarray] = []
    for loc, (days, cum) in enumerate(zip(series.days, series.cumulative)):
        # level q * threshold fires in the first segment s with cum[s] < level <= cum[s + 1];
        # q runs two past the last floor quotient, so no rounding drops a level
        q0 = int(cum[0] // threshold) + 1
        levels = (q0 + np.arange(max(int(cum[-1] // threshold) + 3 - q0, 0))) * threshold
        levels = levels[(levels > cum[0]) & (levels <= cum[-1])]
        s = np.searchsorted(cum, levels, side="left") - 1
        c0, c1 = cum[s], cum[s + 1]  # c0 < level <= c1
        frac = (levels - c0) / (c1 - c0)
        # log-linear once the count has left zero.  Within a factor of two, where the logs can
        # round to one float, as log1p of the relative rises: their differences are exact and
        # the denominator is positive.  Further apart, where a relative rise can overflow, as
        # differences of logs.
        near = np.flatnonzero((c0 > 0.0) & (c1 <= 2.0 * c0))
        far = np.flatnonzero((c0 > 0.0) & (c1 > 2.0 * c0))
        b0 = c0[near]
        frac[near] = np.log1p((levels[near] - b0) / b0) / np.log1p((c1[near] - b0) / b0)
        log0 = np.log(c0[far])
        frac[far] = (np.log(levels[far]) - log0) / (np.log(c1[far]) - log0)
        ev_times.append(days[s] + (days[s + 1] - days[s]) * frac)
        if levels.size == 0:
            warnings.warn(
                f"location {series.labels[loc]} never crosses the threshold; no events",
                NumericsWarning)

    types_arr = np.repeat(np.arange(len(ev_times), dtype=np.int64), [t.size for t in ev_times])
    times_arr = np.concatenate(ev_times)
    order = np.argsort(times_arr, kind="stable")
    types_arr, times_arr = types_arr[order], times_arr[order]
    horizon = float(max(d[-1] for d in series.days))
    if times_arr.size and horizon <= times_arr[-1]:
        horizon = horizon_past(times_arr)
    return EventRecord(types_arr, times_arr, len(series.labels), horizon, series.labels)


# ---------------------------------------------------------------------------
# models


def save_model(params, path, labels=None) -> None:
    """Serialize a fitted or sampled model as a structured JSON document."""
    if not isinstance(params, (ModelParams, FullRankParams)):
        raise TypeError("params must be ModelParams or FullRankParams")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": params.n,
        "R": params.R,
        "kappa": params.kappa.tolist(),
        "mu": params.mu.tolist(),
        "type_labels": _type_labels(labels, params.n),
    }
    if isinstance(params, ModelParams):
        doc.update({
            "m": params.m,
            "reception_X": params.embedding.reception.tolist(),
            "influence_Y": params.embedding.influence.tolist(),
            "beta_sq": params.kernels.beta_sq.tolist(),
            "gamma": params.kernels.gamma.tolist(),
            "xi": params.xi.tolist(),
        })
    else:
        doc.update({
            "kind": "full_rank",
            "phi": params.phi.tolist(),
            "w": params.w.tolist(),
        })
    write_json(doc, path)


def _require(doc: dict, fields: set, path) -> None:
    missing = fields - doc.keys()
    if missing:
        raise DataFormatError(f"{path}: missing model field(s) {sorted(missing)}")
    unknown = doc.keys() - fields
    if unknown:
        raise DataFormatError(f"{path}: unknown model field(s) {sorted(unknown)}")


def load_model(path, with_labels: bool = False):
    """Load a model document; rejects unknown versions and unknown fields."""
    doc = _read_document(path)
    try:
        if doc.get("kind") == "full_rank":
            _require(doc, _FULL_RANK_FIELDS, path)
            params = FullRankParams(doc["phi"], doc["kappa"], doc["w"], doc["mu"])
        elif "kind" in doc:
            raise DataFormatError(f"{path}: unknown model kind {doc['kind']!r}")
        else:
            _require(doc, _MODEL_FIELDS, path)
            params = ModelParams(
                EmbeddingPair(doc["reception_X"], doc["influence_Y"]),
                KernelBank(doc["beta_sq"], doc["kappa"], doc["gamma"]),
                doc["xi"],
                doc["mu"],
            )
    except (ValueError, TypeError) as exc:
        raise DataFormatError(f"{path}: inconsistent model document ({exc})") from None
    if not isinstance(doc["type_labels"], list):
        raise DataFormatError(f"{path}: type_labels must be a list of one label per type")
    labels = tuple(str(x) for x in doc["type_labels"])
    if len(labels) != params.n:
        raise DataFormatError(f"{path}: type_labels length disagrees with n")
    if doc["n"] != params.n or doc["R"] != params.R:
        raise DataFormatError(f"{path}: declared sizes disagree with array shapes")
    if isinstance(params, ModelParams) and doc["m"] != params.m:
        raise DataFormatError(f"{path}: declared m disagrees with coordinates")
    return (params, labels) if with_labels else params


def reorder_to_labels(params, labels, target_labels):
    """Permute a model's per-type quantities onto a target label order."""
    labels = list(labels)
    target = list(target_labels)
    if sorted(labels) != sorted(target):
        raise DataFormatError("model and record type labels disagree")
    perm = np.array([labels.index(lab) for lab in target], dtype=np.int64)
    if isinstance(params, ModelParams):
        emb = EmbeddingPair(params.embedding.reception[perm],
                            params.embedding.influence[perm])
        return ModelParams(emb, params.kernels, params.xi[perm], params.mu[perm])
    if isinstance(params, FullRankParams):
        return FullRankParams(params.phi[np.ix_(perm, perm)], params.kappa,
                              params.w, params.mu[perm])
    raise TypeError("params must be ModelParams or FullRankParams")


# ---------------------------------------------------------------------------
# fit reports


def save_report(report: FitReport, path, config: dict | None = None) -> None:
    """Serialize a fit report (without wall time, which is run-dependent)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "mode": report.mode,
        "epochs_run": int(report.curve.size),
        "curve": report.curve.tolist(),
        "best_epoch": int(report.best_epoch),
        "aborted_epoch": None if report.aborted_epoch is None else int(report.aborted_epoch),
        "p_background": ([] if report.p_background is None
                         else report.p_background.tolist()),
        "config": config or {},
    }
    write_json(doc, path)


def load_report(path) -> dict:
    """Load a fit report document; its ``curve`` must be a list of numbers."""
    doc = _read_document(path)
    curve = doc.get("curve")
    # by type: JSON's true and false load as bool, an int subclass
    if not (isinstance(curve, list) and all(type(v) in (int, float) for v in curve)):
        raise DataFormatError(f"{path}: report lacks a numeric curve")
    return doc


# ---------------------------------------------------------------------------
# plot-ready exports


def write_embedding_csv(params: ModelParams, labels, path) -> None:
    labels = _type_labels(labels, params.n)
    _write_csv(path, ["type_label", "role"] + [f"coord_{d + 1}" for d in range(params.m)],
               ([label, role, *coords]
                for role, pts in (("reception", params.embedding.reception),
                                  ("influence", params.embedding.influence))
                for label, coords in zip(labels, pts.tolist())))


def load_embedding_csv(path):
    """Read coordinates for each type, for runs with a frozen embedding.

    Accepts either ``type_label,coord_1,...`` (one point per type, used for
    both roles) or the exported ``type_label,role,coord_1,...`` layout.
    Returns ``(labels, X, Y)`` with ``Y`` equal to ``X`` in the single-role
    layout.
    """
    points: dict[tuple[str, str], list[float]] = {}
    with _csv_rows(path) as (header, rows):
        if header is None:
            raise DataFormatError("empty embedding file")
        header = [h.strip() for h in header]
        with_role = len(header) > 1 and header[1] == "role"
        coord_names = header[2:] if with_role else header[1:]
        if (not coord_names or header[0] not in ("type_label", "type")
                or coord_names != [f"coord_{d + 1}" for d in range(len(coord_names))]):
            raise DataFormatError(f"unexpected embedding header {header!r}")
        m = len(coord_names)
        for lineno, row in rows:
            if len(row) != len(header):
                raise DataFormatError(f"line {lineno}: wrong field count")
            label = row[0].strip()
            role = row[1].strip() if with_role else "reception"
            if with_role and role not in ("reception", "influence"):
                raise DataFormatError(f"line {lineno}: unknown role {role!r}")
            try:
                coords = [float(v) for v in (row[2:] if with_role else row[1:])]
            except ValueError:
                raise DataFormatError(f"line {lineno}: unparseable coordinate") from None
            if not np.all(np.isfinite(coords)):
                raise DataFormatError(f"line {lineno}: coordinates must be finite")
            if (label, role) in points:
                raise DataFormatError(f"line {lineno}: duplicate entry for {label!r}")
            points[(label, role)] = coords
    order = tuple(dict.fromkeys(label for label, _ in points))
    stacked = {}
    for role in ("reception", "influence") if with_role else ("reception",):
        stacked[role] = np.empty((len(order), m))
        for k, lab in enumerate(order):
            if (lab, role) not in points:
                raise DataFormatError(f"missing {role} coordinates for {lab!r}")
            stacked[role][k] = points[(lab, role)]
    return order, stacked["reception"], stacked.get("influence")


def write_curve_csv(report_doc: dict, path) -> None:
    _write_csv(path, ["epoch", "train_log_likelihood"],
               enumerate(map(float, report_doc["curve"])))


def write_qq_csv(points: np.ndarray, path) -> None:
    _write_csv(path, ["empirical_quantile", "theoretical_quantile"],
               np.asarray(points, dtype=np.float64).tolist())
