"""EM engine: attribution, objective bounds, closed-form updates, fit loop.

Every closed-form update is checked against a 1-D numeric argmax of the
surrogate objective (conftest.Surrogate), which re-derives the objective
independently of the package.
"""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hawkesgeo import diagnostics, em, geometry, model, spectral
from hawkesgeo.diagnostics import background_probabilities, hellinger_divergence
from hawkesgeo.em import (
    BRANCHING_FLOOR,
    BranchingStructure,
    DegenerateEventError,
    FitConfig,
    FullRankParams,
    GammaPrior,
    NumericalError,
    _branching_from_response,
    _fit_e_step,
    _initial_frb,
    _scan_stats,
    complete_data_loglik,
    e_step,
    fit,
    frb_kernel_weights,
    frb_update,
    update_beta_sq,
    update_gamma,
    update_influence_points,
    update_kappa,
    update_mu,
    update_xi,
)
from hawkesgeo.model import (
    EmbeddingPair,
    EventRecord,
    KernelBank,
    ModelParams,
    NumericsWarning,
    _pair_blocks,
    _realized_rates,
    compensator,
    influence_matrix,
    log_likelihood,
)
from hawkesgeo.simulate import ground_truth_branching, sample_ground_truth, simulate_thinning
from hawkesgeo.spectral import init_influence_guess, init_params

from conftest import (
    Surrogate,
    argmax_scalar,
    brute_branching,
    brute_intensity,
    brute_response,
    make_branching,
    make_model,
    make_record,
    shuffled,
    strict_pairs,
    unblocked_response,
)


def cyclic_record(rng, n, N, T=10.0):
    """A record where every type occurs early enough to act as influencer."""
    times = np.sort(rng.uniform(0.0, T, size=N))
    types = np.arange(N) % n
    return EventRecord(types, times, n, T)


def with_kernels(params, **changes):
    kb = params.kernels
    fields = {"beta_sq": kb.beta_sq, "kappa": kb.kappa, "gamma": kb.gamma}
    fields.update(changes)
    return ModelParams(params.embedding, KernelBank(**fields), params.xi, params.mu)


def set_entry(arr, idx, value):
    out = arr.copy()
    out[idx] = value
    return out


class TestEStep:
    @pytest.mark.parametrize("n", [2, 4])
    def test_a_model_of_other_types_raises_naming_both_counts(self, rng, monkeypatch, n):
        # before any pair is built: a record of fewer types would index the model's
        # amplitudes with the wrong stride, and one of more types past their rows
        def no_pairs(record):
            raise AssertionError("built pairs for a model of other types")
        monkeypatch.setattr(em, "_pair_blocks", no_pairs)
        record = EventRecord(np.arange(3) % n, [0.1, 0.2, 0.3], n, 1.0)
        msg = f"the record has {n} event types but the model 3"
        for params in (random_full_rank(rng, 3, 2), make_model(rng, 3)):
            mode = "frb" if isinstance(params, FullRankParams) else "geo"
            for run in (lambda: e_step(record, params),
                        lambda: fit(record, FitConfig(mode=mode, epochs=1), init=params)):
                with pytest.raises(ValueError, match=msg):
                    run()

    def test_single_event_is_background(self, rng):
        record = EventRecord([0], [0.5], 1, 1.0)
        br = e_step(record, make_model(rng, 1))
        assert br.p.size == 0
        assert_allclose(br.p_background, [1.0])

    @pytest.mark.parametrize("R", [1, 2])
    def test_statistics_without_entries_are_float_zeros(self, rng, R):
        record = EventRecord([1], [0.5], 2, 1.0)
        params = make_model(rng, 2, R=R)
        br = e_step(record, params)
        assert br.p.size == 0
        for name, want in (("mass_by_r", np.zeros(R)), ("lag_mass_by_r", np.zeros(R)),
                           ("dyad_mass", np.zeros((R, 2, 2))),
                           ("background_mass_by_type", np.array([0.0, 1.0]))):
            assert_same_array(getattr(br, name), want, name)
        assert_streamed_statistics_are_e_steps(record, params)

    def test_two_event_ratio(self):
        # engineered so the pair response is 0.3 against background 0.1
        record = EventRecord([0, 0], [0.0, np.log(2.0)], 1, 1.0 + np.log(2.0))
        params = ModelParams(
            EmbeddingPair(np.zeros((1, 2)), np.zeros((1, 2))),
            KernelBank([1.0], [1.0], [0.6]),
            np.ones(1), np.array([0.1]))
        h = brute_response(params, 0, 0, np.log(2.0))
        assert_allclose(h, 0.3, rtol=1e-12)
        br = e_step(record, params)
        assert_allclose(br.p, [0.75], rtol=1e-12)
        assert_allclose(br.p_background, [1.0, 0.25], rtol=1e-12)

    def test_rows_sum_to_one(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            record = make_record(rng, n, N=int(rng.integers(5, 25)))
            br = e_step(record, make_model(rng, n, R=2))
            assert_allclose(br.row_sums(), np.ones(record.N), atol=1e-12)

    def test_floor_drops_negligible_entries(self, rng):
        # second event is so far in time that its attribution underflows
        record = EventRecord([0, 0], [0.0, 5000.0], 1, 6000.0)
        params = make_model(rng, 1)
        br = e_step(record, params, floor=1e-12)
        assert br.p.size == 0
        assert_allclose(br.row_sums(), [1.0, 1.0])

    def test_degenerate_event_raises(self, rng):
        record = EventRecord([0], [0.5], 1, 1.0)
        params = make_model(rng, 1)
        dead = ModelParams(params.embedding, params.kernels,
                           params.xi, np.zeros(1))
        with pytest.raises(DegenerateEventError) as exc:
            e_step(record, dead)
        assert exc.value.index == 0

    @pytest.mark.parametrize("attribute", [e_step, ground_truth_branching])
    def test_infinite_intensity_raises(self, attribute):
        # the fourth event's three predecessors excite it past the float range;
        # attributing it would divide by an infinite intensity
        record = EventRecord([0, 1, 0, 1, 0], [0.0, 0.1, 0.2, 0.3, 0.4], 2, 1.0)
        params = FullRankParams(np.full((2, 2), 1e308), [1.0], [1.0], [0.5, 0.5])
        with pytest.raises(NumericalError, match="event 3 has a non-finite intensity"):
            attribute(record, params)

    def test_error_order_across_blocks(self, monkeypatch):
        # blocks of two pairs put event 2 (intensity inf) and event 3 (type 1, no
        # background, nothing excites it: intensity 0) in blocks of their own
        monkeypatch.setattr(model, "PAIR_BLOCK", 2)
        record = EventRecord([0, 0, 0, 1], [0.1, 0.1001, 0.1002, 0.2], 2, 1.0)
        params = FullRankParams([[1e308, 0.0], [0.0, 0.0]], [1.0], [1.0], [0.1, 0.0])
        assert [b[0] for b in _pair_blocks(record)] == [slice(0, 2), slice(2, 3), slice(3, 4)]
        # e_step stops at the first non-finite block; fit walks on and finds the zero
        with pytest.raises(NumericalError, match="event 2 has a non-finite intensity"):
            e_step(record, params)
        with pytest.raises(DegenerateEventError) as exc:
            fit(record, FitConfig(mode="frb", epochs=2), init=params)
        assert exc.value.index == 3


def assert_matches_oracle(record, params, floor):
    """``e_step`` keeps the oracle's entries, in its order, with its probabilities."""
    br = e_step(record, params, floor=floor)
    entries, p_background = brute_branching(record, params, floor)
    assert br.i_idx.tolist() == [e[0] for e in entries]
    assert br.j_idx.tolist() == [e[1] for e in entries]
    assert br.r_idx.tolist() == [e[2] for e in entries]
    assert_allclose(br.p, [e[3] for e in entries], rtol=1e-12, atol=0.0)
    assert_allclose(br.p_background, p_background, rtol=1e-12, atol=0.0)
    return br


def tied_record(rng, n, N):
    """Times on a coarse grid, so runs of events share a time."""
    times = np.sort(rng.integers(0, N // 3 + 1, size=N)) * 0.5
    return EventRecord(rng.integers(0, n, size=N), times, n, times[-1] + 1.0)


def clustered_record(rng, n):
    """Three bursts 600 time units apart: lags inside a burst stay below one."""
    times = np.sort(np.concatenate([c + rng.uniform(0.0, 1.0, size=4)
                                    for c in (0.0, 600.0, 1200.0)]))
    return EventRecord(rng.integers(0, n, size=times.size), times, n, 1202.0)


class TestRunLayout:
    """A ``BranchingStructure`` stores ``i_idx``, ``p`` and ``starts`` in
    (event, basis, trigger) order; ``j_idx`` and ``r_idx`` derive from ``starts``."""

    @pytest.mark.parametrize("R", [1, 2])
    def test_indices_round_trip(self, rng, R):
        record = tied_record(rng, 3, N=15)
        # (i, j, r, p) of every strictly ordered pair, event by event, the bases interleaved
        entries = [(i, j, r, rng.uniform(0.0, 0.1)) for (i, j) in strict_pairs(record)
                   for r in range(R)]
        b = BranchingStructure(record, *(np.array(c) for c in zip(*entries)),
                               rng.uniform(0.0, 0.1, size=record.N), R)
        want = sorted(entries, key=lambda e: (e[1], e[2], e[0]))
        dtypes = {"i_idx": np.uint8, "j_idx": np.int64, "r_idx": np.int64, "p": np.float64}
        for name, f in (("i_idx", 0), ("j_idx", 1), ("r_idx", 2), ("p", 3)):
            got = getattr(b, name)
            assert got.dtype == dtypes[name]
            assert got.tolist() == [e[f] for e in want], name
        runs = np.bincount([e[1] * R + e[2] for e in entries], minlength=R * record.N)
        assert_same_array(b.starts, np.concatenate([[0], np.cumsum(runs)]))
        again = BranchingStructure(record, b.i_idx, b.j_idx, b.r_idx, b.p, b.p_background, R)
        assert_same_branching(again, b)

    def test_make_branching_comes_out_event_major(self, rng):
        record = make_record(rng, 3, N=10)
        b = make_branching(rng, record, R=2)
        key = (b.j_idx * 2 + b.r_idx) * record.N + b.i_idx
        assert np.all(np.diff(key) > 0)
        assert b.p.size == 2 * len(strict_pairs(record))
        # each event's two runs, one per basis, hold all its strictly earlier events
        earlier = np.bincount([j for _, j in strict_pairs(record)], minlength=record.N)
        assert_same_array(np.diff(b.starts), np.repeat(earlier, 2))
        assert np.all(b.r_idx == np.repeat(np.tile([0, 1], record.N), np.repeat(earlier, 2)))
        assert_allclose(b.row_sums(), np.ones(record.N), rtol=1e-12)
        assert_allclose(b.row_sums(), np.ones(record.N), rtol=1e-12)

    def test_shuffled_copy_is_the_original(self, rng):
        record = tied_record(rng, 3, N=30)
        for b in (make_branching(rng, record, R=2), e_step(record, make_model(rng, 3, R=2))):
            assert_same_branching(shuffled(rng, b), b)

    def test_structure_holds_no_derived_array(self, rng):
        record = make_record(rng, 3, N=10)
        b = e_step(record, make_model(rng, 3, R=2))
        assert [f.name for f in dataclasses.fields(b)] == \
            ["record", "i_idx", "p", "starts", "p_background", "R"]
        assert b.j_idx is not b.j_idx and b.r_idx is not b.r_idx  # rebuilt, not cached
        assert not {"j_idx", "r_idx"} & set(vars(b))
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.p = b.p

    @pytest.mark.parametrize("R", [1, 2])
    def test_empty_attribution(self, R):
        record = EventRecord([0, 1, 1], [0.0, 1.0, 2.0], 2, 3.0)
        empty = np.array([], dtype=np.int64)
        b = BranchingStructure(record, empty, empty, empty, [], np.ones(3), R)
        assert_same_array(b.starts, np.zeros(R * 3 + 1, dtype=np.int64))
        assert_same_array(b.j_idx, empty)
        assert_same_array(b.r_idx, empty)
        assert_same_array(b.p, np.zeros(0))
        assert_same_array(b.mass_by_r, np.zeros(R))
        assert_same_array(b.dyad_mass, np.zeros((R, 2, 2)))
        assert_same_array(b.row_sums(), np.ones(3))

    @pytest.mark.parametrize("R", [1, 2])
    def test_one_event_record(self, rng, R):
        record = EventRecord([0], [0.5], 1, 1.0)
        b = e_step(record, make_model(rng, 1, R=R))
        assert_same_array(b.starts, np.zeros(R + 1, dtype=np.int64))
        assert b.j_idx.size == b.r_idx.size == 0
        assert_same_array(b.row_sums(), np.ones(1))

    @pytest.mark.parametrize("field, i, j, r, R", [
        ("r_idx", 0, 1, 3, 1),    # made mass_by_r 4 long
        ("r_idx", 0, 1, -1, 2),
        ("i_idx", -1, 1, 0, 1),   # made lag_mass_by_r negative
        ("i_idx", 3, 1, 0, 1),
        ("j_idx", 0, 5, 0, 1),    # broke row_sums with a broadcast error
        ("j_idx", 0, -1, 0, 1),
    ])
    def test_entries_outside_the_record_are_rejected(self, field, i, j, r, R):
        record = EventRecord([0, 0, 0], [0.0, 1.0, 1.0], 1, 2.0)
        with pytest.raises(ValueError, match=field):
            BranchingStructure(record, [i], [j], [r], [0.5], [1.0, 0.5, 1.0], R)

    @pytest.mark.parametrize("i, j", [(1, 2), (2, 1), (1, 0), (1, 1)])
    def test_a_trigger_must_precede_its_event(self, i, j):
        record = EventRecord([0, 0, 0], [0.0, 1.0, 1.0], 1, 2.0)  # events 1 and 2 tie
        with pytest.raises(ValueError, match="i_idx .* precede"):
            BranchingStructure(record, [i], [j], [0], [0.5], [1.0, 0.5, 0.5], 1)

    # a repeat counted twice in row_sums, and hellinger_divergence, which
    # assumes one key per entry, ended in an IndexError
    @pytest.mark.parametrize("i, j", [([0, 0], [1, 1]), ([0, 1, 0], [2, 2, 2])])
    def test_a_repeated_entry_is_rejected(self, i, j):
        record = EventRecord([0, 0, 0], [0.0, 1.0, 2.0], 1, 3.0)
        with pytest.raises(ValueError, match="may appear only once"):
            BranchingStructure(record, i, j, [0] * len(i), [0.25] * len(i),
                               [1.0, 0.5, 0.25], 1)

    @pytest.mark.parametrize("field, value, msg", [
        ("i_idx", [0, 0], "entry arrays must share a common length"),
        ("p", [[0.5]], "entry arrays must share a common length"),
        ("p", [1.5], "probabilities must lie in [0, 1]"),
        ("p", [-0.5], "probabilities must lie in [0, 1]"),
        ("p_background", [1.0, 0.5], "p_background must have one entry per event"),
        ("p_background", [[1.0, 0.5, 1.0]], "p_background must have one entry per event"),
        ("p_background", [1.0, -0.5, 1.0], "background probabilities must be nonnegative"),
    ])
    def test_malformed_entries_are_rejected(self, field, value, msg):
        record = EventRecord([0, 0, 0], [0.0, 1.0, 2.0], 1, 3.0)
        entries = {"i_idx": [0], "j_idx": [1], "r_idx": [0], "p": [0.5],
                   "p_background": [1.0, 0.5, 1.0]}
        with pytest.raises(ValueError, match=re.escape(msg)):
            BranchingStructure(record, R=1, **dict(entries, **{field: value}))

    @pytest.mark.parametrize("N, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_i_idx_takes_the_narrowest_unsigned_type(self, rng, N, dtype):
        # at N = 257 and R = 2, hellinger_divergence's keys (j N + i) R + r pass
        # 65,535, which arithmetic in i_idx's own type would wrap
        record = make_record(rng, 3, N=N, T=5.0)
        params = make_model(rng, 3, R=2)
        b, other = e_step(record, params), e_step(record, make_model(rng, 3, R=2))
        again = BranchingStructure(record, b.i_idx, b.j_idx, b.r_idx, b.p, b.p_background, 2)
        assert b.i_idx.dtype == again.i_idx.dtype == dtype
        wide = widened(b)
        assert hellinger_divergence(b, other) == hellinger_divergence(wide, widened(other))
        for name in ("mass_by_r", "lag_mass_by_r", "dyad_mass"):
            assert_same_array(getattr(b, name), getattr(wide, name), name)
        assert complete_data_loglik(record, params, b) == \
            complete_data_loglik(record, params, wide)


@st.composite
def small_problems(draw):
    n = draw(st.integers(1, 4))
    ticks = sorted(draw(st.lists(st.integers(0, 40), min_size=1, max_size=12)))
    # types draw from at most n - 1 labels when n > 1, so some types never occur
    types = draw(st.lists(st.integers(0, max(n - 2, 0)), min_size=len(ticks),
                          max_size=len(ticks)))
    record = EventRecord(types, np.array(ticks, dtype=np.float64) * 0.5, n,
                         ticks[-1] * 0.5 + 1.0)
    params = make_model(np.random.default_rng(draw(st.integers(0, 2**16))), n,
                        R=draw(st.integers(1, 2)))
    return record, params, draw(st.sampled_from([0.0, 1e-12]))


class TestAttributionOracle:
    @pytest.mark.parametrize("R", [1, 2])
    @pytest.mark.parametrize("floor", [0.0, 1e-12])
    def test_random_and_tied_records(self, rng, R, floor):
        for _ in range(3):
            n = int(rng.integers(2, 5))
            params = make_model(rng, n, R=R)
            assert_matches_oracle(make_record(rng, n, N=int(rng.integers(5, 30))), params, floor)
            br = assert_matches_oracle(tied_record(rng, n, N=24), params, floor)
            assert np.all(br.record.times[br.i_idx] < br.record.times[br.j_idx])

    @pytest.mark.parametrize("R", [1, 2])
    def test_entries_below_the_floor_are_dropped(self, rng, R):
        # across bursts kappa * lag is at least 1.5 * 599, so those kernel values
        # underflow to zero: floor 0 keeps them, floor 1e-12 drops them
        record = clustered_record(rng, 3)
        params = with_kernels(make_model(rng, 3, R=R), kappa=np.full(R, 1.5))
        pairs = int(np.sum(record.times[:, None] < record.times[None, :]))
        assert assert_matches_oracle(record, params, 0.0).p.size == R * pairs
        assert assert_matches_oracle(record, params, 1e-12).p.size < R * pairs

    @given(small_problems())
    def test_property_matches_oracle(self, problem):
        assert_matches_oracle(*problem)


def unblocked_attribution(record, params, floor):
    """The attribution from one ``_pair_response`` over all of ``pair_indices``,
    as a single block: the reference the blocked ``e_step`` must equal."""
    return attribution_of(record, params, unblocked_response(record, params), floor)


def attribution_of(record, params, response, floor):
    """``_branching_from_response`` of ``unblocked_response``'s output, as a
    ``BranchingStructure``."""
    H, lam, pairs, ws = response
    e, cuts, _, p, p_bg = _branching_from_response(record, params, slice(None), H, lam,
                                                   floor, ws)
    r = np.repeat(np.arange(H.shape[0]), np.diff(cuts))
    return BranchingStructure(record, pairs[0][e], pairs[1][e], r, p.copy(), p_bg, H.shape[0])


BRANCHING_FIELDS = ("i_idx", "p", "starts", "p_background")  # what a structure stores


def widened(b):
    """``b`` with its ``i_idx`` widened to int64, which ``_store`` would narrow."""
    wide = BranchingStructure.__new__(BranchingStructure)._store(
        b.record, b.i_idx, b.p, np.diff(b.starts), b.p_background, b.R)
    object.__setattr__(wide, "i_idx", b.i_idx.astype(np.int64))
    return wide


def assert_same_array(got, want, name=None):
    """Equal to the bit, dtype and shape included."""
    assert got.dtype == want.dtype and np.array_equal(got, want), name


def assert_same_branching(got, want):
    """All four stored arrays equal to the bit, dtypes included, and so the
    derived ``j_idx`` and ``r_idx`` too."""
    assert got.R == want.R
    for name in BRANCHING_FIELDS:
        assert_same_array(getattr(got, name), getattr(want, name), name)


def param_arrays(q):
    if isinstance(q, FullRankParams):
        return q.phi, q.kappa, q.w, q.mu
    return (q.embedding.reception, q.embedding.influence, q.kernels.beta_sq, q.kernels.kappa,
            q.kernels.gamma, q.xi, q.mu)


def assert_same_params(got, want):
    assert type(got) is type(want)
    for a, b in zip(param_arrays(got), param_arrays(want)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def silent_type_record(rng, n, N):
    """Tie runs over types ``0..n-3`` only, so two types never occur; the first
    tie run is all type 0."""
    times = np.sort(rng.integers(0, N // 2, size=N)) * 0.25
    types = np.where(times == times[0], 0, rng.integers(0, n - 2, size=N))
    return EventRecord(types, times, n, times[-1] + 1.0)


def receivers(blocks):
    """The receiving event ``j`` of every pair in ``_pair_blocks``' blocks;
    the rows are widened first, since a uint8 row plus its block's start can
    pass 255."""
    return np.concatenate([b[0].start + b[1].astype(np.int64) for b in blocks])


def blocked_cases(rng):
    """Records and parameters for the blocked attribution: tie runs that
    cross block edges, silent and ``mu = 0`` types, R = 2 and 3, full-rank
    parameters and an empty record."""
    cases = []
    for R in (1, 2, 3):
        n = 4
        cases.append((tied_record(rng, n, N=40), make_model(rng, n, R=R)))
        cases.append((make_record(rng, n, N=30), random_full_rank(rng, n, R)))
    # every type but 0 has mu = 0, so only excitation explains the later events
    params = make_model(rng, 6, R=2)
    mu = np.where(np.arange(6) == 0, params.mu, 0.0)
    cases.append((silent_type_record(rng, 6, 36),
                  ModelParams(params.embedding, params.kernels, params.xi, mu)))
    cases.append((clustered_record(rng, 3), with_kernels(make_model(rng, 3), kappa=[1.5])))
    cases.append((EventRecord([], [], 3, 1.0), make_model(rng, 3, R=2)))
    return cases


class TestBlockedAttribution:
    @pytest.mark.parametrize("block", [1, 7, model.PAIR_BLOCK])
    @pytest.mark.parametrize("floor", [0.0, 1e-12, 1e-3])
    def test_matches_unblocked_pass_and_oracle(self, rng, monkeypatch, block, floor):
        monkeypatch.setattr(model, "PAIR_BLOCK", block)
        for record, params in blocked_cases(rng):
            br = e_step(record, params, floor=floor)
            assert_same_branching(br, unblocked_attribution(record, params, floor))
            if record.N:
                assert_matches_oracle(record, params, floor)

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_blocks_cover_every_pair_once(self, rng, monkeypatch, block):
        # a 300-event tie run at time 0 receives no pair, so a block that starts
        # there spans more than 256 events and its rows go uint16; at 2^16 that
        # block holds all 420 events and all their pairs
        monkeypatch.setattr(model, "PAIR_BLOCK", block)
        burst = np.concatenate((np.zeros(300), np.sort(rng.integers(1, 40, size=120)) * 0.25))
        for record in (tied_record(rng, 3, N=40), silent_type_record(rng, 6, 36),
                       EventRecord(rng.integers(0, 4, size=burst.size), burst, 5, 11.0)):
            i_idx, j_idx, dt = model.pair_indices(record)
            blocks = list(_pair_blocks(record))
            assert [b[0].start for b in blocks] == [0] + [b[0].stop for b in blocks[:-1]]
            assert blocks[-1][0].stop == record.N
            for events, rows, lags, dyad in blocks:
                # the narrowest unsigned types; at n <= 16 a type pair fits a byte
                assert rows.dtype == np.min_scalar_type(events.stop - events.start - 1)
                assert dyad.dtype == np.uint8 and lags.dtype == np.float64
                assert rows.size <= block or events.stop - events.start == 1
                assert np.all(rows < events.stop - events.start)
            assert np.array_equal(receivers(blocks), j_idx)
            assert_same_array(np.concatenate([b[2] for b in blocks]), dt)
            assert np.array_equal(np.concatenate([b[3] for b in blocks]),
                                  record.types[j_idx] * record.n + record.types[i_idx])
        assert blocks[0][1].dtype == np.uint16
        assert blocks[0][1].size == (dt.size if block == 1 << 16 else 0)

    @pytest.mark.parametrize("n, dtype", [(16, np.uint8), (17, np.uint16), (256, np.uint16),
                                          (257, np.uint32), (65_536, np.uint32),
                                          (65_537, np.uint64)])
    def test_dyad_takes_the_narrowest_unsigned_type(self, n, dtype):
        # the last type pair n^2 - 1 is 255, 65,535 and 2^32 - 1 at n = 16, 256, 65,536
        record = EventRecord([n - 1, 0, n - 1, n - 1], [0.0, 1.0, 2.0, 2.0], n, 3.0)
        blocks = list(_pair_blocks(record))
        dyad = np.concatenate([b[3] for b in blocks])
        assert dyad.dtype == dtype
        assert np.array_equal(dyad, [n - 1, (n - 1) * n + n - 1, (n - 1) * n, (n - 1) * n + n - 1,
                                     (n - 1) * n])
        assert all(b[1].dtype == np.uint8 for b in blocks)

    @pytest.mark.parametrize("block", [1, 7, model.PAIR_BLOCK])
    def test_degenerate_event_keeps_its_record_index(self, rng, monkeypatch, block):
        # with no excitation, the first type-1 event (index 9) has zero intensity
        monkeypatch.setattr(model, "PAIR_BLOCK", block)
        record = EventRecord([0] * 9 + [1, 0], np.arange(11.0), 2, 12.0)
        params = make_model(rng, 2)
        dead = ModelParams(params.embedding,
                           KernelBank(params.kernels.beta_sq, params.kernels.kappa, [0.0]),
                           params.xi, np.array([0.3, 0.0]))

        def scan_fit():
            monkeypatch.setattr(model, "PAIR_CACHE", 0)
            return fit(record, FitConfig(mode="geo", epochs=2), init=dead)

        for run in (lambda: e_step(record, dead),
                    lambda: fit(record, FitConfig(mode="geo", epochs=2), init=dead), scan_fit):
            with pytest.raises(DegenerateEventError) as exc:
                run()
            assert exc.value.index == 9

    @pytest.mark.parametrize("block", [1, 7, model.PAIR_BLOCK])
    def test_streamed_statistics_are_the_cached_ones(self, rng, monkeypatch, block):
        monkeypatch.setattr(model, "PAIR_BLOCK", block)
        for record, params in blocked_cases(rng)[:-1]:
            assert_streamed_statistics_are_e_steps(record, params)

    @given(small_problems(), st.sampled_from([1, 2, 7, 4096]), st.booleans())
    def test_property_streamed_statistics_are_e_steps(self, problem, block, full_rank):
        record, params, _ = problem
        if full_rank:
            rng = np.random.default_rng(record.N)
            params = random_full_rank(rng, record.n, params.R)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "PAIR_BLOCK", block)
            assert_streamed_statistics_are_e_steps(record, params)

    @given(small_problems(), st.sampled_from([1, 2, 7, model.PAIR_BLOCK]))
    def test_property_matches_unblocked_pass(self, problem, block):
        record, params, floor = problem
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "PAIR_BLOCK", block)
            br = e_step(record, params, floor=floor)
        assert_same_branching(br, unblocked_attribution(record, params, floor))

    @pytest.mark.parametrize("R", [1, 2])
    def test_memory_beyond_the_output_is_one_block(self, rng, monkeypatch, R):
        # 180k pairs, every one kept at floor 0 for each basis, against blocks of 4,096
        monkeypatch.setattr(model, "PAIR_BLOCK", 4096)
        record = make_record(rng, 3, N=600, T=5.0)
        params = make_model(rng, 3, R=R)
        params.amplitudes()
        tracemalloc.start()
        try:
            br = e_step(record, params, floor=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sum(getattr(br, name).nbytes for name in BRANCHING_FIELDS)
        # the output fills 55 blocks of float64 per basis at 10 bytes an entry,
        # which an unblocked pass adds 225 more to; the blocked pass writes every
        # basis' entries straight into one pair of output columns, and adds its
        # workspace (7 blocks per basis) and the block's temporaries
        assert out > R * 50 * 8 * model.PAIR_BLOCK
        assert peak - out < (12 + 8 * R) * 8 * model.PAIR_BLOCK

    @pytest.mark.parametrize("R", [1, 2])
    def test_output_holds_10_bytes_per_entry(self, rng, R):
        # i_idx and p per entry, the runs' starts and p_background; i_idx takes
        # uint16 at 600 events and uint8 at 256, and j_idx and r_idx would add
        # 16 bytes an entry, 2.9 MB at R = 1 here
        for N, entry in ((600, 10), (256, 9)):
            record = make_record(rng, 3, N=N, T=5.0)
            params = make_model(rng, 3, R=R)
            params.amplitudes()
            tracemalloc.start()
            try:
                br = e_step(record, params, floor=0.0)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert br.p.size == R * record.N * (record.N - 1) // 2
            assert br.i_idx.itemsize + br.p.itemsize == entry
            assert held <= entry * br.p.size + 8 * (R * N + 1) + 8 * N + 64 * 1024

    def test_fit_keeps_10_bytes_per_pair(self, rng, monkeypatch):
        # 319,600 pairs in blocks of 4,096, none of more than 256 events: fit
        # keeps the receiving row, the lag and the type pair of each, in
        # 1 + 8 + 1 bytes at n = 3; whole-record temporaries would add 8 bytes
        # a pair each
        monkeypatch.setattr(model, "PAIR_BLOCK", 4096)
        record = make_record(rng, 3, N=800, T=5.0)
        pairs = record.N * (record.N - 1) // 2
        assert model.pair_indices(record)[0].size == pairs
        init = init_params(record, R=1, m=2)
        init.amplitudes()
        tracemalloc.start()
        try:
            fit(record, FitConfig(mode="geo", epochs=1), init=init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * pairs + 32 * 8 * model.PAIR_BLOCK

    def test_fit_past_the_budget_holds_one_scan_block(self, rng, monkeypatch):
        # past the budget fit walks the decayed counts SCAN_BLOCK events at a time, so
        # its peak is about 12 (block, R, n) arrays and 8 of the record's (N,) ones;
        # one whole-record (N, R, n) array alone takes 1.3 MB here, and the pairs 64 MB
        monkeypatch.setattr(model, "PAIR_CACHE", 0)
        monkeypatch.setattr(model, "SCAN_BLOCK", 64)
        n, R = 20, 2
        record = make_record(rng, n, N=4000, T=50.0)
        block = 8 * model.SCAN_BLOCK * n * R
        bound = 16 * block + 12 * 8 * record.N
        assert 8 * record.N * n * R > 1.5 * bound
        init = init_params(record, R=R, m=2)
        init.amplitudes()
        for mode in ("geo", "frb"):  # frb's initial guess walks the counts too
            tracemalloc.start()
            try:
                fit(record, FitConfig(mode=mode, epochs=2, R=R),
                    init=init if mode == "geo" else None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, mode

    def test_fit_builds_pairs_once_under_the_budget_and_never_above(
            self, rng, monkeypatch, request):
        builds = []

        def counted(record):
            builds.append(record.N)
            return _pair_blocks(record)
        monkeypatch.setattr(em, "_pair_blocks", counted)
        record = make_record(rng, 3, N=100, T=5.0)
        pairs = model.pair_indices(record)[0].size
        monkeypatch.setattr(model, "PAIR_CACHE", pairs)
        report = fit(record, FitConfig(mode="frb", epochs=4))
        assert report.curve.size == 4 and builds == [record.N]
        # at one pair less neither the initial guess nor any epoch builds a pair
        request.getfixturevalue("no_pairs")
        monkeypatch.setattr(model, "PAIR_CACHE", pairs - 1)
        for mode, kwargs in (("hhg-a", {}), ("hhg-b", {"eps2": 0.1}), ("hhg-dm", {}),
                             ("frb", {"R": 2})):
            report = fit(record, FitConfig(mode=mode, epochs=4, **kwargs))
            assert report.curve.size == 4 and builds == [record.N]

    def test_scan_fit_walks_the_record_once_an_epoch_and_once_for_its_guess(
            self, rng, monkeypatch):
        # the background probabilities come from the best epoch's walk, not a walk of their own
        walks, walk = [], model._decayed_counts

        def counted(*args, **kwargs):
            walks.append(args[0].N)
            return walk(*args, **kwargs)
        for module in (model, em, spectral, diagnostics):
            monkeypatch.setattr(module, "_decayed_counts", counted)
        monkeypatch.setattr(model, "PAIR_CACHE", 0)
        record = make_record(rng, 3, N=100, T=5.0)
        for mode, kwargs in (("hhg-b", {"eps2": 0.1}), ("frb", {"R": 2})):
            walks.clear()
            report = fit(record, FitConfig(mode=mode, epochs=4, **kwargs))
            assert report.curve.size == 4 and walks == [record.N] * 5, mode

    @pytest.mark.parametrize("mode", ["geo", "frb"])
    def test_fit_holds_nothing_but_its_report(self, rng, monkeypatch, mode):
        # the workspace is the fit's own: one kept past the call would hold
        # about 96 bytes per pair of the largest block at R = 2, 400 KB here
        monkeypatch.setattr(model, "PAIR_BLOCK", 4096)
        small = make_record(rng, 3, N=20, T=5.0)  # its fit makes the imports fit needs
        fit(small, FitConfig(mode=mode, epochs=1),
            init=init_params(small, R=1, m=2) if mode == "geo" else None)
        record = make_record(rng, 3, N=300, T=5.0)
        init = init_params(record, R=2, m=2) if mode == "geo" else None
        config = FitConfig(mode=mode, epochs=2, R=2)
        tracemalloc.start()
        try:
            report = fit(record, config, init=init)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arrays = [report.curve, report.p_background]
        for q in {id(report.params_final): report.params_final,
                  id(report.params_best): report.params_best}.values():
            if q is not init:
                arrays += list(param_arrays(q)) + [vars(q).get("_amplitudes")]
        own = sum(a.nbytes for a in arrays if a is not None)
        assert held <= own + 64 * 1024  # the objects around the arrays take under 8 KB

def unblocked_fit(record, config, init=None):
    """``fit``'s loop on one ``_pair_response`` over all pairs per epoch, with
    the M-step on the full ``BranchingStructure``: the reference ``fit`` must
    equal.  Returns ``(curve, params_final, best_epoch, params_best,
    aborted)``."""
    if init is not None:
        params = init
    elif config.mode == "frb":
        params = _initial_frb(record, config)
    else:
        params = init_params(record, R=config.R, m=config.m, alpha=config.dm_alpha)
    curve, best, aborted, prev = [], (-np.inf, -1, params), None, params
    for epoch in range(config.epochs):
        response = unblocked_response(record, params)
        ll = float(np.sum(np.log(response[1])) - compensator(record, params))
        if not np.isfinite(ll):
            aborted, params = epoch, prev
            break
        curve.append(ll)
        if ll > best[0]:
            best = (ll, epoch, params)
        branching = attribution_of(record, params, response, BRANCHING_FLOOR)
        prev = params
        try:
            step = em._m_step_frb if config.mode == "frb" else em._m_step_geometric
            params = step(record, params, branching, config)
        except (ValueError, FloatingPointError):
            aborted, params = epoch, prev
            break
    return np.array(curve), params, best[1], best[2], aborted


# the scan fit against the pairwise one over these tests' six-epoch fits: the curve
# agreed to 5.5e-12 and the parameters to 4.2e-10 of each array's largest entry
SCAN_CURVE_RTOL, SCAN_PARAMS_RTOL = 1e-10, 1e-8


def entering_params(mp):
    """Wrap both M-steps, as installed now, through ``mp`` so that each records the
    parameters its epoch entered with; returns the list they fill."""
    seen = []
    for name in ("_m_step_frb", "_m_step_geometric"):
        def recorded(record, params, br, config, step=getattr(em, name)):
            seen.append(params)
            return step(record, params, br, config)
        mp.setattr(em, name, recorded)
    return seen


def assert_close_params(got, want):
    assert type(got) is type(want)
    for a, b in zip(param_arrays(got), param_arrays(want)):
        assert_allclose(a, b, rtol=SCAN_PARAMS_RTOL, atol=SCAN_PARAMS_RTOL * np.abs(b).max())


def assert_fit_reproduces_unblocked(record, config, init=None, arm=lambda: None):
    """``fit`` with its pairs kept (the default budget) and ``unblocked_fit`` agree to
    the bit.  Past the budget (0) the scan fit ends alike (``best_epoch``,
    ``aborted_epoch``, background probabilities or None), holds the curve and the
    parameters to ``SCAN_CURVE_RTOL`` and ``SCAN_PARAMS_RTOL``, and its curve is the
    ``log_likelihood`` of each epoch's parameters to the bit.  ``arm()`` runs before
    each fit.  The reported background probabilities are ``params_best``'s."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        arm()
        report = fit(record, config, init=init)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "PAIR_CACHE", 0)
            arm()
            entered = entering_params(mp)
            scan = fit(record, config, init=init)
        arm()
        curve, final, best_epoch, best, aborted = unblocked_fit(record, config, init)
        scores = [log_likelihood(record, params) for params in entered[:scan.curve.size]]
    assert np.array_equal(report.curve, curve)
    assert_same_params(report.params_final, final)
    assert_same_params(report.params_best, best)
    assert np.array_equal(scan.curve, scores)
    assert_allclose(scan.curve, curve, rtol=SCAN_CURVE_RTOL, atol=0.0)
    assert_close_params(scan.params_final, final)
    assert_close_params(scan.params_best, best)
    for got in (report, scan):
        assert (got.best_epoch, got.aborted_epoch) == (best_epoch, aborted)
        if best_epoch < 0:
            assert got.p_background is None
        else:
            assert_same_array(got.p_background, background_probabilities(record, got.params_best))
    return report


def exploding_frb_step(at_call, step=em._m_step_frb):
    """``_m_step_frb`` whose ``at_call``-th step returns an influence of 1e308:
    valid parameters whose log-likelihood is infinite."""
    calls = [0]

    def wrapped(record, params, br, config):
        calls[0] += 1
        out = step(record, params, br, config)
        if calls[0] == at_call:
            return FullRankParams(np.full_like(out.phi, 1e308), out.kappa, out.w, out.mu)
        return out
    return wrapped


def per_entry_bound(record, params, br):
    """``Σ p·log h + Σ p_bg·log μ − compensator`` entry by entry."""
    total = 0.0
    for i, j, r, p in zip(br.i_idx, br.j_idx, br.r_idx, br.p):
        if p > 0.0:
            h = brute_response(params, record.types[j], record.types[i],
                               record.times[j] - record.times[i], r)
            total += p * np.log(h)
    for pb, k in zip(br.p_background, record.types):
        if pb > 0.0:
            total += pb * np.log(params.mu[k])
    return total - compensator(record, params)


STATISTICS = ("mass_by_r", "lag_mass_by_r", "dyad_mass", "background_mass_by_type")


def assert_streamed_statistics_are_e_steps(record, params):
    """``_fit_e_step``'s ``lam`` and four statistics equal, to the bit, the
    unblocked pass's intensities and those of ``e_step``'s entries."""
    ws = model._Workspace(params.R)
    lam, stats = _fit_e_step(record, params, list(_pair_blocks(record)), ws)
    assert_same_array(lam, unblocked_response(record, params)[1])
    br = e_step(record, params)
    assert stats.R == br.R
    for name in STATISTICS:
        assert_same_array(getattr(stats, name), getattr(br, name), name)


def random_full_rank(rng, n, R):
    return FullRankParams(rng.uniform(0.0, 0.5, size=(n, n)), rng.uniform(0.3, 3.0, size=R),
                          np.full(R, 1.0 / R), rng.uniform(0.05, 0.5, size=n))


def brute_statistics(record, params):
    """The four statistics of ``brute_branching``'s unfloored attribution, by loops."""
    entries, p_background = brute_branching(record, params, 0.0)
    n, R = record.n, params.R
    mass, lag, dyad = np.zeros(R), np.zeros(R), np.zeros((R, n, n))
    for i, j, r, p in entries:
        mass[r] += p
        lag[r] += p * (record.times[j] - record.times[i])
        dyad[r, record.types[j], record.types[i]] += p
    background = np.bincount(record.types, weights=p_background, minlength=n).astype(float)
    return dict(zip(STATISTICS, (mass, lag, dyad, background)))


def assert_scan_stats_hold(record, params):
    """``_scan_stats``' intensities are ``_realized_rates``' to the bit, and its
    statistics those of the floor-0 ``e_step`` and of ``brute_statistics``, to 1e-10
    of each entry (or of the statistic's largest, where an entry rounds to zero)."""
    lam, stats = _scan_stats(record, params)
    assert_same_array(lam, _realized_rates(record, params, slice(None))[0])
    if record.N:
        assert_allclose(lam, unblocked_response(record, params)[1], rtol=1e-12)
    br, brute = e_step(record, params, floor=0.0), brute_statistics(record, params)
    assert stats.R == params.R
    for name in STATISTICS:
        got = getattr(stats, name)
        for want in (getattr(br, name), brute[name]):
            assert got.shape == want.shape and got.dtype == np.float64, name
            assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max(initial=0.0),
                            err_msg=name)


class TestScanStatistics:
    @pytest.mark.parametrize("block", [1, 7, model.SCAN_BLOCK, 4096])
    def test_matches_the_unfloored_attribution_and_oracle(self, rng, monkeypatch, block):
        # blocked_cases: tie runs across chunk edges, silent and mu = 0 types, R = 2
        # and 3, full-rank parameters, kappa T = 1800, and an empty record
        monkeypatch.setattr(model, "SCAN_BLOCK", block)
        for record, params in blocked_cases(rng):
            assert_scan_stats_hold(record, params)
        # kappa T of 2,000 and 5,000 over chunks that their span cuts short
        times = np.cumsum(rng.exponential(20.0, 100))
        record = EventRecord(rng.integers(0, 3, size=100), times, 3, times[-1] + 1.0)
        assert_scan_stats_hold(record, with_kernels(make_model(rng, 3, R=2), kappa=[1.0, 2.5]))

    @given(small_problems(), st.sampled_from([1, 2, 7, 4096]), st.booleans())
    def test_property_matches_the_unfloored_attribution(self, problem, block, full_rank):
        record, params, _ = problem
        if full_rank:
            params = random_full_rank(np.random.default_rng(record.N), record.n, params.R)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "SCAN_BLOCK", block)
            assert_scan_stats_hold(record, params)

    def test_decay_then_contract_keeps_huge_amplitudes_finite(self, rng):
        # one chunk whose clock runs to kappa u = 490 of SCAN_SPAN = 500: its cumsums reach
        # e^490 ~ 1e212, so an amplitude of 1e100 dotted with an undecayed count overflows,
        # while A S, the intensities and the statistics are finite
        times = np.sort(rng.uniform(0.0, 490.0, 40))
        times[0], times[-3:] = 0.0, [489.0, 489.5, 490.0]  # 489 e^489 1e100 / 2 > 1e308
        record = EventRecord(rng.integers(0, 3, size=40), times, 3, 491.0)
        params = FullRankParams(np.full((3, 3), 1e100), [1.0, 0.5], [0.5, 0.5], [0.5, 0.2, 0.3])
        assert params.kappa.max() * times[-1] > 0.95 * model.SCAN_SPAN
        lam, stats = _scan_stats(record, params)
        want = [brute_intensity(record, params, k, t) for k, t in zip(record.types, times)]
        assert np.all(np.isfinite(lam))
        assert_allclose(lam, want, rtol=1e-12, atol=0.0)
        brute = brute_statistics(record, params)
        for name in STATISTICS:
            got = getattr(stats, name)
            assert np.all(np.isfinite(got)), name
            assert_allclose(got, brute[name], rtol=1e-12,
                            atol=1e-12 * np.abs(brute[name]).max(), err_msg=name)

    def test_infinite_and_zero_intensities_are_checked_before_dividing(self):
        # event 3's predecessors excite it past the float range, and the type-2
        # event has neither a background rate nor an excitation
        record = EventRecord([0, 1, 0, 1, 0, 2], [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], 3, 1.0)
        phi = np.full((3, 3), 1e308)
        phi[2] = 0.0
        params = FullRankParams(phi, [1.0], [1.0], [0.5, 0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, stats = _scan_stats(record, params)
            assert stats is None and np.isinf(lam[3]) and np.all(lam[4:] > 0.0)
            dead = FullRankParams(phi, [1.0], [1.0], [0.5, 0.5, 0.0])
            for run in (lambda: _scan_stats(record, dead),
                        lambda: _fit_e_step(record, dead, list(_pair_blocks(record)),
                                            model._Workspace(1))):
                with pytest.raises(DegenerateEventError) as exc:
                    run()
                assert exc.value.index == 5


class TestObjectiveBounds:
    @pytest.mark.parametrize("R", [1, 2])
    def test_closed_form_matches_per_entry_sum(self, rng, R):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            record = make_record(rng, n, N=int(rng.integers(4, 15)))
            for params in (make_model(rng, n, R=R), random_full_rank(rng, n, R)):
                for br in (make_branching(rng, record, R), e_step(record, params)):
                    assert_allclose(complete_data_loglik(record, params, br),
                                    per_entry_bound(record, params, br), rtol=1e-10)

    def test_underflowed_kernel_keeps_its_finite_term(self, rng):
        # kappa * lag = 800: the kernel value exp(-800) rounds to zero, but its
        # log is finite, so the bound is too
        record = EventRecord([0, 0], [0.0, 400.0], 1, 401.0)
        params = with_kernels(make_model(rng, 1), kappa=np.array([2.0]))
        assert brute_response(params, 0, 0, 400.0) == 0.0
        expected = (np.log(params.amplitudes()[0, 0, 0]) + np.log(2.0) - 800.0
                    + np.log(params.mu[0]) - compensator(record, params))
        assert_allclose(complete_data_loglik(record, params, one_pair_branching(record)),
                        expected, rtol=1e-12)

    def test_lower_bound_at_estep_branching(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            record = make_record(rng, n, N=int(rng.integers(4, 20)))
            params = make_model(rng, n, R=int(rng.integers(1, 3)))
            ll = log_likelihood(record, params)
            lc = complete_data_loglik(record, params, e_step(record, params))
            assert lc <= ll + 1e-9

    def test_lower_bound_at_random_branchings(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            R = int(rng.integers(1, 3))
            record = make_record(rng, n, N=int(rng.integers(4, 15)))
            params = make_model(rng, n, R=R)
            ll = log_likelihood(record, params)
            for _ in range(30):
                br = make_branching(rng, record, R)
                assert complete_data_loglik(record, params, br) <= ll + 1e-9

    def test_estep_branching_is_the_argmax(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            R = int(rng.integers(1, 3))
            record = make_record(rng, n, N=int(rng.integers(4, 15)))
            params = make_model(rng, n, R=R)
            best = complete_data_loglik(record, params,
                                        e_step(record, params, floor=0.0))
            for _ in range(10):
                other = complete_data_loglik(record, params,
                                             make_branching(rng, record, R))
                assert other <= best + 1e-9

    def test_entropy_gap_identity(self, rng):
        # log L = complete-data value + total attribution entropy
        for _ in range(10):
            n = int(rng.integers(2, 5))
            record = make_record(rng, n, N=int(rng.integers(4, 15)))
            params = make_model(rng, n, R=2)
            br = e_step(record, params, floor=0.0)
            ll = log_likelihood(record, params)
            lc = complete_data_loglik(record, params, br)
            ps = np.concatenate([br.p, br.p_background])
            entropy = -np.sum(np.where(ps > 0.0, ps * np.log(np.maximum(ps, 1e-300)),
                                       0.0))
            assert_allclose(lc + entropy, ll, rtol=1e-8)

    def test_poisson_collapse(self, rng):
        record = make_record(rng, 2, N=10)
        params = make_model(rng, 2)
        poisson = with_kernels(params, gamma=np.zeros(1))
        br = e_step(record, poisson)
        assert_allclose(br.p_background, np.ones(record.N))
        assert_allclose(complete_data_loglik(record, poisson, br),
                        log_likelihood(record, poisson), rtol=1e-12)

    def test_positive_mass_on_zero_response_is_minus_inf(self, rng):
        record = EventRecord([0, 0], [0.0, 1.0], 1, 2.0)
        params = make_model(rng, 1)
        poisson = with_kernels(params, gamma=np.zeros(1))
        br = BranchingStructure(record, np.array([0]), np.array([1]),
                                np.array([0]), np.array([0.4]),
                                np.array([1.0, 0.6]), 1)
        with pytest.warns(NumericsWarning):
            assert complete_data_loglik(record, poisson, br) == -np.inf

    def test_background_mass_on_a_zero_rate_is_minus_inf(self, rng):
        record = EventRecord([0, 1], [0.0, 1.0], 2, 2.0)
        params = make_model(rng, 2)
        silent = ModelParams(params.embedding, params.kernels, params.xi, np.array([0.0, 0.3]))
        br = BranchingStructure(record, [0], [1], [0], [0.5], [1.0, 0.5], 1)
        with pytest.warns(NumericsWarning, match="background attribution on a zero rate"):
            assert complete_data_loglik(record, silent, br) == -np.inf

    def test_row_sum_violation_rejected(self, rng):
        record = EventRecord([0, 0], [0.0, 1.0], 1, 2.0)
        params = make_model(rng, 1)
        bad = BranchingStructure(record, np.array([0]), np.array([1]),
                                 np.array([0]), np.array([0.4]),
                                 np.array([1.0, 0.9]), 1)
        with pytest.raises(ValueError):
            complete_data_loglik(record, params, bad)


def one_pair_branching(record, p=1.0, r=0):
    return BranchingStructure(record, np.array([0]), np.array([1]),
                              np.array([r]), np.array([p]),
                              np.array([1.0, 1.0 - p]), r + 1)


class TestKappaUpdate:
    def test_hand_example_flat_prior(self):
        record = EventRecord([0, 0], [0.0, 2.0], 1, 3.0)
        br = one_pair_branching(record)
        assert_allclose(update_kappa(br, GammaPrior(1.0, 0.0), [1.0]), [0.5])

    def test_hand_example_informative_prior(self):
        record = EventRecord([0, 0], [0.0, 2.0], 1, 3.0)
        br = one_pair_branching(record)
        assert_allclose(update_kappa(br, GammaPrior(2.0, 1.0), [1.0]), [2.0 / 3.0])

    def test_zero_mass_keeps_current(self, rng):
        record = EventRecord([0, 0], [0.0, 2.0], 1, 3.0)
        br = BranchingStructure(record, np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([]), np.array([1.0, 1.0]), 1)
        with pytest.warns(NumericsWarning):
            out = update_kappa(br, GammaPrior(1.0, 0.0), [0.7])
        assert out == [0.7]

    def test_matches_numeric_argmax(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 5))
            R = int(rng.integers(1, 3))
            record = cyclic_record(rng, n, int(rng.integers(6, 14)))
            params = make_model(rng, n, R=R)
            br = make_branching(rng, record, R)
            prior = GammaPrior(float(rng.uniform(1.0, 3.0)),
                               float(rng.uniform(0.0, 1.0)))
            sur = Surrogate(record, br, prior=prior)
            got = update_kappa(br, prior, params.kernels.kappa)
            for r in range(R):
                want = argmax_scalar(
                    lambda v: sur.value(with_kernels(
                        params, kappa=set_entry(params.kernels.kappa, r, v))),
                    1e-3, 200.0)
                assert_allclose(got[r], want, rtol=1e-6)


class TestBetaUpdate:
    def test_hand_example(self):
        record = EventRecord([0, 0], [0.0, 1.0], 1, 2.0)
        br = one_pair_branching(record)
        emb = EmbeddingPair(np.array([[2.0, 0.0]]), np.array([[0.0, 0.0]]))
        assert_allclose(update_beta_sq(br, emb, [1.0]), [2.0])

    def test_coincident_points_floored(self):
        record = EventRecord([0, 0], [0.0, 1.0], 1, 2.0)
        br = one_pair_branching(record)
        emb = EmbeddingPair(np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.warns(NumericsWarning):
            assert update_beta_sq(br, emb, [1.0]) == [1e-12]

    def test_zero_mass_keeps_current(self, rng):
        record = EventRecord([0, 0], [0.0, 1.0], 1, 2.0)
        br = BranchingStructure(record, np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([]), np.array([1.0, 1.0]), 1)
        emb = EmbeddingPair(np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.warns(NumericsWarning):
            assert update_beta_sq(br, emb, [0.3]) == [0.3]

    def test_matches_numeric_argmax(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 5))
            R = int(rng.integers(1, 3))
            record = cyclic_record(rng, n, int(rng.integers(6, 14)))
            params = make_model(rng, n, R=R)
            br = make_branching(rng, record, R)
            sur = Surrogate(record, br)
            got = update_beta_sq(br, params.embedding, params.kernels.beta_sq)
            for r in range(R):
                want = argmax_scalar(
                    lambda v: sur.value(with_kernels(
                        params, beta_sq=set_entry(params.kernels.beta_sq, r, v))),
                    1e-4, 500.0)
                assert_allclose(got[r], want, rtol=1e-6)


class TestGammaUpdate:
    def test_unit_xi_gives_mass_over_count(self, rng):
        n, R = 3, 2
        record = cyclic_record(rng, n, 9)
        br = make_branching(rng, record, R)
        for r in range(R):
            mass = br.p[br.r_idx == r].sum()
            assert_allclose(update_gamma(br, record, np.ones(n))[r],
                            mass / record.N, rtol=1e-12)

    def test_zero_mass_means_dormant(self, rng):
        record = EventRecord([0, 0], [0.0, 1.0], 1, 2.0)
        br = BranchingStructure(record, np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([]), np.array([1.0, 1.0]), 1)
        with pytest.warns(NumericsWarning):
            assert update_gamma(br, record, np.ones(1)) == [0.0]

    def test_matches_numeric_argmax(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 5))
            R = int(rng.integers(1, 3))
            record = cyclic_record(rng, n, int(rng.integers(6, 14)))
            params = make_model(rng, n, R=R)
            br = make_branching(rng, record, R)
            sur = Surrogate(record, br)
            got = update_gamma(br, record, params.xi)
            for r in range(R):
                want = argmax_scalar(
                    lambda v: sur.value(with_kernels(
                        params, gamma=set_entry(params.kernels.gamma, r, v))),
                    1e-6, 50.0)
                assert_allclose(got[r], want, rtol=1e-6)


class TestUpdatesOverBases:
    """Each closed-form update returns every basis' value from one call."""

    def test_a_basis_without_mass_keeps_current_and_warns_once(self, rng):
        n = 3
        record = cyclic_record(rng, n, 9)
        one = make_branching(rng, record, 1)
        br = BranchingStructure(record, one.i_idx, one.j_idx, one.r_idx, one.p,
                                one.p_background, 2)  # basis 1 receives no entry
        params = make_model(rng, n, R=2)
        kern, emb, xi = params.kernels, params.embedding, params.xi
        prior = GammaPrior(1.0, 0.0)
        M = br.dyad_mass[0]
        d2 = np.sum((emb.reception[:, None, :] - emb.influence[None, :, :]) ** 2, axis=2)
        cases = (  # the update, basis 0 by the per-basis formula, basis 1, the warning
            (lambda: update_kappa(br, prior, kern.kappa),
             (br.mass_by_r[0] + prior.alpha - 1.0) / (br.lag_mass_by_r[0] + prior.beta),
             kern.kappa[1], "basis 1 has no usable attributed mass; kappa kept"),
            (lambda: update_beta_sq(br, emb, kern.beta_sq),
             np.sum(M * d2) / (emb.m * M.sum()),
             kern.beta_sq[1], "basis 1 has no attributed mass; beta_sq kept"),
            (lambda: update_gamma(br, record, xi),
             br.mass_by_r[0] / float(np.sum(xi[record.types])),
             0.0, "basis 1 is dormant this epoch (gamma 0)"),
        )
        for update, want0, want1, message in cases:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = update()
            assert [str(w.message) for w in caught] == [message]
            assert got.shape == (2,) and got[0] == want0 and got[1] == want1

    @pytest.mark.parametrize("m", [2, 9])
    def test_every_squared_distance_is_sq_distances(self, rng, m):
        # the running sum the amplitudes use; np.sum over the coordinates adds
        # in another order from 8 of them on
        n, R = 5, 2
        record = cyclic_record(rng, n, 12)
        X, Y = rng.normal(size=(n, m)), rng.normal(size=(n, m))
        d2 = model._sq_distances(X, Y)
        params = init_params(record, R=R, m=m, embedding=EmbeddingPair(X, Y))
        assert params.kernels.beta_sq.tolist() == [float(d2.mean())] * R
        br = make_branching(rng, record, R)
        M = br.dyad_mass
        assert update_beta_sq(br, params.embedding, params.kernels.beta_sq).tolist() == \
            [np.sum(M[r] * d2) / (m * M[r].sum()) for r in range(R)]
        _, G, _ = geometry._gaussian_terms(record, params)
        for r in range(R):
            b2 = params.kernels.beta_sq[r]
            assert_same_array(G[r], (2.0 * np.pi * b2) ** (-m / 2.0) * np.exp(-d2 / (2.0 * b2)))


class TestXiUpdate:
    def test_single_type_pinned_at_one(self, rng):
        record = cyclic_record(rng, 1, 6)
        br = make_branching(rng, record, 1)
        xi, _ = update_xi(br, record, np.array([0.3]))
        assert_allclose(xi, [1.0])

    def test_rescale_arithmetic(self):
        # raw solution lands on (1, 3); the mean rescale moves it to
        # (0.5, 1.5) and doubles gamma, keeping all products intact
        types = [0] * 5 + [1] * 5
        record = EventRecord(types, np.arange(10.0), 2, 10.0)
        i_idx = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8])
        j_idx = np.array([5, 6, 7, 8, 9, 6, 7, 8, 9])
        p = np.array([0.2] * 5 + [0.75] * 4)
        r_idx = np.zeros(9, dtype=np.int64)
        p_bg = np.ones(10)
        for j, mass in zip(j_idx, p):
            p_bg[j] -= mass
        br = BranchingStructure(record, i_idx, j_idx, r_idx, p, p_bg, 1)
        xi, gamma = update_xi(br, record, np.array([0.2]))
        assert_allclose(xi, [0.5, 1.5], rtol=1e-12)
        assert_allclose(gamma, [0.4], rtol=1e-12)

    def test_products_preserved_and_mean_one(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 5))
            R = int(rng.integers(1, 3))
            record = cyclic_record(rng, n, int(rng.integers(8, 16)))
            br = make_branching(rng, record, R)
            gamma = rng.uniform(0.1, 1.0, size=R)
            xi, gamma2 = update_xi(br, record, gamma)
            assert_allclose(xi.mean(), 1.0, rtol=1e-12)
            raw = xi * (gamma2[0] / gamma[0])
            assert_allclose(np.outer(xi, gamma2), np.outer(raw, gamma), rtol=1e-13)

    def test_absent_type_defaults_with_warning(self, rng):
        record = EventRecord([0, 1, 0], [0.0, 1.0, 2.0], 3, 3.0)
        br = e_step(record, make_model(rng, 3))
        with pytest.warns(NumericsWarning):
            xi, gamma = update_xi(br, record, np.array([0.5]))
        assert xi.shape == (3,)
        assert_allclose(xi.mean(), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("gamma, msg", [
        ([0.0, 0.0], "all bases dormant; exertion left uniform"),
        ([0.5, 0.5], "zero mean exertion; exertion left uniform"),  # nothing attributed
    ])
    def test_degenerate_exertion_stays_uniform_with_a_warning(self, gamma, msg):
        record = EventRecord([0, 1, 0], [0.0, 1.0, 2.0], 2, 3.0)
        background_only = BranchingStructure(record, [], [], [], [], np.ones(3), 2)
        with pytest.warns(NumericsWarning, match=msg):
            xi, gamma_out = update_xi(background_only, record, np.array(gamma))
        assert np.array_equal(xi, np.ones(2)) and np.array_equal(gamma_out, gamma)

    def test_matches_numeric_argmax(self, rng):
        for _ in range(4):
            n = int(rng.integers(2, 4))
            R = int(rng.integers(1, 3))
            record = cyclic_record(rng, n, int(rng.integers(9, 15)))
            params = make_model(rng, n, R=R)
            br = make_branching(rng, record, R)
            sur = Surrogate(record, br)
            xi_new, gamma_new = update_xi(br, record, params.kernels.gamma)
            for l in range(n):
                def slice_fn(v):
                    trial = ModelParams(params.embedding, params.kernels,
                                        set_entry(params.xi, l, v), params.mu)
                    return sur.value(trial)
                xi_opt = argmax_scalar(slice_fn, 1e-6, 50.0)
                # compare through the rescale-invariant products
                assert_allclose(xi_new[l] * gamma_new,
                                xi_opt * params.kernels.gamma, rtol=1e-6)


class TestMuUpdate:
    def test_poisson_rate(self):
        record = EventRecord([0] * 7, np.linspace(0.0, 3.0, 7), 1, 3.5)
        br = BranchingStructure(record, np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([]), np.ones(7), 1)
        assert_allclose(update_mu(br, record), [7 / 3.5])

    def test_mass_conservation(self, rng):
        record = make_record(rng, 3, N=14)
        br = make_branching(rng, record, 2)
        mu = update_mu(br, record)
        assert_allclose(mu.sum() * record.horizon, br.p_background.sum(),
                        rtol=1e-12)

    def test_matches_numeric_argmax(self, rng):
        n = 3
        record = cyclic_record(rng, n, 12)
        params = make_model(rng, n)
        br = make_branching(rng, record, 1)
        sur = Surrogate(record, br)
        mu_new = update_mu(br, record)
        for k in range(n):
            def slice_fn(v):
                trial = ModelParams(params.embedding, params.kernels,
                                    params.xi, set_entry(params.mu, k, v))
                return sur.value(trial)
            assert_allclose(mu_new[k], argmax_scalar(slice_fn, 1e-8, 50.0),
                            rtol=1e-6)


class TestInfluencePointUpdate:
    def test_weighted_mean_example(self):
        record = EventRecord([0, 0, 1], [0.0, 1.0, 2.0], 2, 3.0)
        emb = EmbeddingPair(np.array([[0.0, 0.0], [1.0, 0.0]]),
                            np.array([[5.0, 5.0], [6.0, 6.0]]))
        br = BranchingStructure(record, np.array([0, 0]), np.array([1, 2]),
                                np.array([0, 0]), np.array([0.2, 0.6]),
                                np.array([1.0, 0.8, 0.4]), 1)
        with pytest.warns(NumericsWarning):  # type 1 has no outgoing mass
            Y = update_influence_points(br, emb)
        assert_allclose(Y[0], [0.75, 0.0], rtol=1e-12)
        assert_allclose(Y[1], [6.0, 6.0])  # unchanged

    def test_all_mass_on_one_receptor(self, rng):
        record = EventRecord([0, 1], [0.0, 1.0], 2, 2.0)
        emb = EmbeddingPair(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        br = BranchingStructure(record, np.array([0]), np.array([1]),
                                np.array([0]), np.array([0.9]),
                                np.array([1.0, 0.1]), 1)
        with pytest.warns(NumericsWarning):
            Y = update_influence_points(br, emb)
        assert_allclose(Y[0], emb.reception[1], rtol=1e-12)

    def test_gradient_vanishes_at_solution(self, rng):
        # with one basis the weighted mean is the exact stationary point
        for _ in range(6):
            n = int(rng.integers(2, 5))
            record = cyclic_record(rng, n, int(rng.integers(8, 14)))
            params = make_model(rng, n, R=1)
            br = make_branching(rng, record, 1)
            Y = update_influence_points(br, params.embedding)
            X = params.embedding.reception
            for l in range(n):
                sel = record.types[br.i_idx] == l
                w = br.p[sel]
                if w.sum() == 0.0:
                    continue
                grad = np.sum(w[:, None] * (X[record.types[br.j_idx[sel]]] - Y[l]),
                              axis=0) / params.kernels.beta_sq[0]
                assert np.all(np.abs(grad) < 1e-8 * max(1.0, w.sum()))


class TestFullRankUpdate:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_params_reject_non_finite_entries(self, value):
        good = {"phi": np.full((2, 2), 0.1), "kappa": [0.5, 2.0], "w": [0.25, 0.75],
                "mu": [0.2, 0.3]}
        FullRankParams(**good)
        for name, match in (("kappa", "kappa entries"), ("w", "clock weights"), ("mu", "mu")):
            bad = dict(good, **{name: np.array(good[name]) * value})
            with pytest.raises(ValueError, match=f"{match} .*finite"):
                FullRankParams(**bad)

    @pytest.mark.parametrize("kappa, w", [([0.5, 2.0], [1.0]), ([[0.5]], [[1.0]])])
    def test_params_reject_clocks_of_other_shapes(self, kappa, w):
        with pytest.raises(ValueError, match=re.escape("kappa and w must share shape (R,)")):
            FullRankParams(np.full((2, 2), 0.1), kappa, w, [0.2, 0.3])

    def test_single_type_mass_over_count(self, rng):
        record = cyclic_record(rng, 1, 8)
        br = make_branching(rng, record, 1)
        phi = frb_update(br, record)
        assert_allclose(phi, [[br.p.sum() / 8.0]], rtol=1e-12)

    def test_zero_mass_zero_matrix(self):
        record = EventRecord([0, 1], [0.0, 1.0], 2, 2.0)
        br = BranchingStructure(record, np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([]), np.array([1.0, 1.0]), 1)
        assert_allclose(frb_update(br, record), np.zeros((2, 2)))

    def test_matches_per_entry_numeric_argmax(self, rng):
        n = 3
        record = cyclic_record(rng, n, 12)
        br = make_branching(rng, record, 2)
        kappa = rng.uniform(0.4, 2.0, size=2)
        mu = rng.uniform(0.1, 0.4, size=n)
        w = frb_kernel_weights(br, np.full(2, 0.5))
        counts = record.count_by_type()
        phi = frb_update(br, record)
        ki = record.types[br.i_idx]
        kj = record.types[br.j_idx]
        dt = record.times[br.j_idx] - record.times[br.i_idx]

        def value(phi_try):
            pair = np.sum(br.p * (np.log(phi_try[kj, ki]) + np.log(w[br.r_idx])
                                  + np.log(kappa[br.r_idx])
                                  - kappa[br.r_idx] * dt))
            bg = np.sum(br.p_background * np.log(mu[record.types]))
            comp = record.horizon * mu.sum() + phi_try.sum(axis=0) @ counts
            return pair + bg - comp

        for k in range(n):
            for l in range(n):
                def slice_fn(v):
                    trial = phi.copy()
                    trial[k, l] = v
                    return value(trial)
                assert_allclose(phi[k, l], argmax_scalar(slice_fn, 1e-8, 50.0),
                                rtol=1e-6)

    def test_kernel_weights_are_mass_ratios(self, rng):
        record = cyclic_record(rng, 2, 10)
        br = make_branching(rng, record, 3)
        w = frb_kernel_weights(br, np.full(3, 1.0 / 3.0))
        assert_allclose(w.sum(), 1.0, rtol=1e-12)
        for r in range(3):
            assert_allclose(w[r], br.p[br.r_idx == r].sum() / br.p.sum(),
                            rtol=1e-12)

    def test_kernel_weights_degenerate_keeps_current(self):
        record = EventRecord([0, 0], [0.0, 1.0], 1, 2.0)
        br = BranchingStructure(record, np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([]), np.array([1.0, 1.0]), 2)
        current = np.array([0.7, 0.3])
        with pytest.warns(NumericsWarning):
            w = frb_kernel_weights(br, current)
        assert_allclose(w, [0.7, 0.3])
        assert not np.shares_memory(w, current)  # a copy, not the caller's array


@pytest.fixture(scope="module")
def sim_record():
    truth = sample_ground_truth(5, m=2, R=1, seed=11)
    return simulate_thinning(truth, target_events=150, seed=5)


class TestFit:
    @pytest.mark.parametrize("mode,kwargs", [
        ("hhg-a", {}),
        ("hhg-b", {"eps2": 0.1}),
        ("hhg-dm", {}),
        ("frb", {}),
    ])
    def test_modes_run_and_report(self, sim_record, mode, kwargs):
        config = FitConfig(mode=mode, epochs=8, **kwargs)
        report = fit(sim_record, config)
        assert report.mode == mode
        assert report.curve.shape == (8,)
        assert np.all(np.isfinite(report.curve))
        assert report.best_epoch == int(np.argmax(report.curve))
        assert report.aborted_epoch is None
        assert report.curve[-1] > report.curve[0]
        assert_allclose(log_likelihood(sim_record, report.params_best),
                        report.curve[report.best_epoch], rtol=1e-10)
        assert_same_array(report.p_background,
                          background_probabilities(sim_record, report.params_best))

    def test_curve_starts_at_init_score(self, sim_record):
        init = init_params(sim_record, R=1, m=2)
        report = fit(sim_record, FitConfig(mode="hhg-a", epochs=3), init=init)
        assert_allclose(report.curve[0], log_likelihood(sim_record, init),
                        rtol=1e-12)

    def test_geo_mode_freezes_coordinates(self, sim_record):
        init = init_params(sim_record, R=1, m=2)
        report = fit(sim_record, FitConfig(mode="geo", epochs=6), init=init)
        assert np.array_equal(report.params_final.embedding.reception,
                              init.embedding.reception)
        assert np.array_equal(report.params_final.embedding.influence,
                              init.embedding.influence)
        # everything else still moves
        assert not np.allclose(report.params_final.mu, init.mu)

    def test_geo_mode_requires_init(self, sim_record):
        with pytest.raises(ValueError):
            fit(sim_record, FitConfig(mode="geo", epochs=2))

    def test_frb_returns_full_rank_params(self, sim_record):
        report = fit(sim_record, FitConfig(mode="frb", epochs=5))
        assert isinstance(report.params_final, FullRankParams)
        assert np.all(report.params_final.phi >= 0.0)

    def test_exploding_step_aborts_with_last_finite_snapshot(self, sim_record):
        config = FitConfig(mode="hhg-a", epochs=6, eps=1e290)
        with pytest.warns(NumericsWarning):
            report = fit(sim_record, config)
        assert report.aborted_epoch is not None
        assert report.curve.size <= 6
        assert np.all(np.isfinite(report.curve))
        # the surviving snapshot must still be a usable model
        assert np.isfinite(log_likelihood(sim_record, report.params_final))

    def test_hhg_b_requires_a_regularizer(self):
        with pytest.raises(ValueError):
            FitConfig(mode="hhg-b", epochs=5)

    @pytest.mark.parametrize("kwargs, msg", [
        ({"mode": "hhg-c"}, "mode must be one of"),
        ({"R": 0}, "R and m must be >= 1"),
        ({"m": 0}, "R and m must be >= 1"),
        ({"eps": 0.0}, "eps must be positive when given"),
        ({"eps1": -1.0}, "eps1 must be positive when given"),
        ({"eps2": -0.1}, "eps2 must be nonnegative"),
        ({"inner_steps": 0}, "inner_steps must be >= 1"),
    ])
    def test_config_rejects_values_out_of_range(self, kwargs, msg):
        with pytest.raises(ValueError, match=re.escape(msg)):
            FitConfig(**{"eps2": 0.1, **kwargs})

    @pytest.mark.parametrize("mode, msg", [
        ("frb", "frb mode init must be FullRankParams"),
        ("hhg-a", "geometric modes need ModelParams init"),
        ("geo", "geometric modes need ModelParams init"),
    ])
    def test_init_of_the_other_family_is_rejected(self, rng, sim_record, mode, msg):
        init = make_model(rng, 5) if mode == "frb" else random_full_rank(rng, 5, 1)
        with pytest.raises(ValueError, match=msg):
            fit(sim_record, FitConfig(mode=mode, epochs=1), init=init)

    def test_frb_starts_uniform_where_the_guess_underflows(self):
        # two tie clumps a unit apart: the guess's clock rate is (N - 1) / n = 799.5,
        # so every pair's clock value underflows to zero
        record = EventRecord(np.arange(1600) % 2, np.repeat([0.0, 1.0], 800), 2, 2.0)
        assert not init_influence_guess(record).any()
        assert np.array_equal(_initial_frb(record, FitConfig(mode="frb")).phi,
                              np.full((2, 2), 0.5))

    def test_prior_fields_build_a_checked_prior(self):
        config = FitConfig(mode="frb", prior_alpha=2.0, prior_beta=0.5)
        assert config.prior == GammaPrior(2.0, 0.5)
        for alpha, beta in ((0.0, 0.0), (1.0, -1.0)):
            with pytest.raises(ValueError, match="prior requires"):
                FitConfig(mode="frb", prior_alpha=alpha, prior_beta=beta)

    @pytest.mark.parametrize("block", [7, model.PAIR_BLOCK])
    @pytest.mark.parametrize("mode,kwargs", [
        ("hhg-a", {}),
        ("hhg-b", {"eps2": 0.1}),
        ("hhg-dm", {}),
        ("frb", {"R": 2}),
        ("geo", {}),
    ])
    def test_reproduces_the_unblocked_fit(self, sim_record, monkeypatch, block, mode, kwargs):
        monkeypatch.setattr(model, "PAIR_BLOCK", block)
        config = FitConfig(mode=mode, epochs=6, **kwargs)
        init = init_params(sim_record, R=1, m=2) if mode == "geo" else None
        assert_fit_reproduces_unblocked(sim_record, config, init)

    @pytest.mark.parametrize("block", [7, model.PAIR_BLOCK])
    def test_reproduces_the_unblocked_fit_on_every_abort_path(self, sim_record, rng,
                                                              monkeypatch, block):
        monkeypatch.setattr(model, "PAIR_BLOCK", block)
        tied = tied_record(rng, 4, N=60)
        # an M-step that leaves the valid regime
        report = assert_fit_reproduces_unblocked(
            sim_record, FitConfig(mode="hhg-a", epochs=6, eps=1e290))
        assert report.aborted_epoch is not None
        # an objective that turns infinite after three M-steps
        for record in (sim_record, tied):
            report = assert_fit_reproduces_unblocked(
                record, FitConfig(mode="frb", epochs=8),
                arm=lambda: monkeypatch.setattr(em, "_m_step_frb", exploding_frb_step(3)))
            assert report.aborted_epoch == 3
        # and one infinite from the start: no background probabilities at all
        init = _initial_frb(sim_record, FitConfig(mode="frb"))
        init = FullRankParams(np.full_like(init.phi, 1e308), init.kappa, init.w, init.mu)
        report = assert_fit_reproduces_unblocked(sim_record, FitConfig(mode="frb", epochs=4),
                                                 init)
        assert report.aborted_epoch == 0 and report.p_background is None

    @pytest.mark.parametrize("mode", ["geo", "frb"])
    def test_background_is_the_best_models_on_silent_and_zero_rate_types(self, rng, mode):
        # two types never occur and only type 0 has a background rate
        record = silent_type_record(rng, 6, 36)
        params = make_model(rng, 6, R=2)
        mu = np.where(np.arange(6) == 0, params.mu, 0.0)
        if mode == "frb":
            init = FullRankParams(influence_matrix(params), params.kappa, [0.5, 0.5], mu)
        else:
            init = ModelParams(params.embedding, params.kernels, params.xi, mu)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericsWarning)
            report = fit(record, FitConfig(mode=mode, epochs=5, R=2), init=init)
        assert report.aborted_epoch is None
        assert_same_array(report.p_background,
                          background_probabilities(record, report.params_best))
        assert np.all(report.p_background[record.types != 0] == 0.0)

    def test_infinite_objective_warns_only_numerics(self, sim_record, monkeypatch):
        for budget in (model.PAIR_CACHE, 0):  # the kept pairs, then the scan
            monkeypatch.setattr(model, "PAIR_CACHE", budget)
            monkeypatch.setattr(em, "_m_step_frb", exploding_frb_step(3))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.warns(NumericsWarning, match="objective left the finite regime"):
                    report = fit(sim_record, FitConfig(mode="frb", epochs=8))
            assert report.aborted_epoch == 3

    def test_overflow_at_two_bases_warns_only_numerics(self, sim_record, monkeypatch):
        # the second basis' responses added to an intensity already past half
        # the float range raised a raw "overflow encountered in add"
        n = sim_record.n
        start = FullRankParams(np.full((n, n), 1e308), [1.0, 1.0], [0.5, 0.5], np.full(n, 0.1))
        for budget in (model.PAIR_CACHE, 0):  # the kept pairs, then the scan
            monkeypatch.setattr(model, "PAIR_CACHE", budget)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                warnings.simplefilter("error", RuntimeWarning)
                report = fit(sim_record, FitConfig(mode="frb", epochs=3, R=2), init=start)
                with pytest.raises(NumericalError, match="non-finite intensity"):
                    e_step(sim_record, start)
            assert report.aborted_epoch == 0 and report.curve.size == 0
            assert [w.category for w in caught] == [NumericsWarning]

    def test_fit_keeps_no_attribution_entries(self, sim_record, rng, monkeypatch):
        def no_entries(*args, **kwargs):
            raise AssertionError("fit gathered attribution entries")

        monkeypatch.setattr(em, "_Columns", no_entries)
        init = init_params(sim_record, R=1, m=2)
        for mode, kwargs in (("hhg-a", {}), ("hhg-b", {"eps2": 0.1}), ("hhg-dm", {}),
                             ("frb", {"R": 2}), ("geo", {})):
            report = fit(sim_record, FitConfig(mode=mode, epochs=3, **kwargs),
                         init=init if mode == "geo" else None)
            assert report.curve.size == 3 and report.p_background.shape == (sim_record.N,)
        with pytest.warns(NumericsWarning, match="M-step left the valid regime"):
            report = fit(sim_record, FitConfig(mode="hhg-a", epochs=6, eps=1e290))
        assert report.aborted_epoch is not None and report.p_background is not None
        monkeypatch.setattr(em, "_m_step_frb", exploding_frb_step(3))
        with pytest.warns(NumericsWarning, match="objective left the finite regime"):
            report = fit(tied_record(rng, 4, N=60), FitConfig(mode="frb", epochs=8))
        assert report.aborted_epoch == 3 and report.p_background.shape == (60,)
        with pytest.raises(AssertionError, match="gathered"):
            e_step(sim_record, init)

    @pytest.mark.parametrize("name", ["eps", "eps1", "eps2", "dm_alpha",
                                      "prior_alpha", "prior_beta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_hyperparameters_rejected(self, name, value):
        for mode in ("hhg-a", "hhg-b", "hhg-dm", "frb"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                FitConfig(**{"mode": mode, "eps2": 0.1, name: value})
        # an unset eps or eps1 is not a value: n/N, and off
        assert FitConfig(mode="hhg-b", eps=None, eps1=None, eps2=0.1).eps1 is None

    def test_empty_record_rejected(self):
        record = EventRecord([], [], 0, 1.0)
        with pytest.raises(ValueError):
            fit(record, FitConfig(mode="hhg-a", epochs=2))
