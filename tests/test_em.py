"""EM engine: attribution, objective bounds, closed-form updates, fit loop.

Every closed-form update is checked against a 1-D numeric argmax of the
surrogate objective (conftest.Surrogate), which re-derives the objective
independently of the package.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hawkesgeo import em, model
from hawkesgeo.diagnostics import background_probabilities
from hawkesgeo.em import (
    BRANCHING_FLOOR,
    BranchingStructure,
    DegenerateEventError,
    FitConfig,
    FullRankParams,
    GammaPrior,
    _attribute,
    _fit_e_step,
    _initial_frb,
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
    compensator,
    influence_matrix,
    log_likelihood,
    response,
)
from hawkesgeo.simulate import sample_ground_truth, simulate_thinning
from hawkesgeo.spectral import init_params

from conftest import (
    Surrogate,
    argmax_scalar,
    brute_branching,
    brute_response,
    make_branching,
    make_model,
    make_record,
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
        h = response(0, 0, np.log(2.0), params)
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
    """``_attribute`` of ``unblocked_response``'s output, as a ``BranchingStructure``."""
    H, lam, pairs, ws = response
    cuts, e, _, p, p_bg = _attribute(record, params, H, lam, floor, 0, ws)
    r = np.repeat(np.arange(H.shape[0]), np.diff(cuts))
    return BranchingStructure(record, pairs[0][e], pairs[1][e], r, p.copy(), p_bg, H.shape[0])


BRANCHING_FIELDS = ("i_idx", "j_idx", "r_idx", "p", "p_background")


def assert_same_array(got, want, name=None):
    """Equal to the bit, dtype and shape included."""
    assert got.dtype == want.dtype and np.array_equal(got, want), name


def assert_same_branching(got, want):
    """All five arrays equal to the bit, dtypes included."""
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


def blocked_cases(rng):
    """Records and parameters for the blocked attribution: tie runs that
    cross block edges, silent and ``mu = 0`` types, R = 2, full-rank
    parameters and an empty record."""
    cases = []
    for R in (1, 2):
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

    @pytest.mark.parametrize("block", [1, 7])
    def test_blocks_cover_every_pair_once(self, rng, monkeypatch, block):
        monkeypatch.setattr(model, "PAIR_BLOCK", block)
        record = tied_record(rng, 3, N=40)
        i_idx, j_idx, dt = model.pair_indices(record)
        blocks = list(_pair_blocks(record))
        assert [b[0].start for b in blocks] == [0] + [b[0].stop for b in blocks[:-1]]
        assert blocks[-1][0].stop == record.N
        for events, rows, lags, dyad in blocks:
            assert rows.dtype == dyad.dtype == np.int32 and lags.dtype == np.float64
            assert rows.size <= block or events.stop - events.start == 1
            assert np.all((rows >= 0) & (rows < events.stop - events.start))
        assert np.array_equal(np.concatenate([b[1] + b[0].start for b in blocks]), j_idx)
        assert np.array_equal(np.concatenate([b[2] for b in blocks]), dt)
        assert np.array_equal(np.concatenate([b[3] for b in blocks]),
                              record.types[j_idx] * record.n + record.types[i_idx])

    @pytest.mark.parametrize("n, wide", [(46_340, False), (50_000, True)])
    def test_dyad_widens_once_type_pairs_pass_int32(self, n, wide):
        # 46,340^2 < 2^31 <= 50,000^2: the last type pair n^2 - 1 fits int32 only below
        record = EventRecord([n - 1, 0, n - 1, n - 1], [0.0, 1.0, 2.0, 2.0], n, 3.0)
        blocks = list(_pair_blocks(record))
        dyad = np.concatenate([b[3] for b in blocks])
        assert dyad.dtype == (np.int64 if wide else np.int32)
        assert np.array_equal(dyad, [n - 1, (n - 1) * n + n - 1, (n - 1) * n, (n - 1) * n + n - 1,
                                     (n - 1) * n])
        assert all(b[1].dtype == np.int32 for b in blocks)

    @pytest.mark.parametrize("block", [1, 7, model.PAIR_BLOCK])
    def test_degenerate_event_keeps_its_record_index(self, rng, monkeypatch, block):
        # with no excitation, the first type-1 event (index 9) has zero intensity
        monkeypatch.setattr(model, "PAIR_BLOCK", block)
        record = EventRecord([0] * 9 + [1, 0], np.arange(11.0), 2, 12.0)
        params = make_model(rng, 2)
        dead = ModelParams(params.embedding,
                           KernelBank(params.kernels.beta_sq, params.kernels.kappa, [0.0]),
                           params.xi, np.array([0.3, 0.0]))
        for run in (lambda: e_step(record, dead),
                    lambda: fit(record, FitConfig(mode="geo", epochs=2), init=dead)):
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

    def test_memory_beyond_the_output_is_one_block(self, rng, monkeypatch):
        # 180k pairs, every one kept at floor 0, against blocks of 4,096
        monkeypatch.setattr(model, "PAIR_BLOCK", 4096)
        record = make_record(rng, 3, N=600, T=5.0)
        params = make_model(rng, 3)
        params.amplitudes()
        tracemalloc.start()
        try:
            br = e_step(record, params, floor=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sum(getattr(br, name).nbytes for name in BRANCHING_FIELDS)
        # the output fills 175 blocks of float64, which an unblocked pass adds
        # 225 more to; the blocked pass adds under 3
        assert out > 150 * 8 * model.PAIR_BLOCK
        assert peak - out < 32 * 8 * model.PAIR_BLOCK

    def test_fit_keeps_16_bytes_per_pair(self, rng, monkeypatch):
        # 319,600 pairs in blocks of 4,096: fit keeps the receiving row, the
        # lag and the type pair of each, in 4 + 8 + 4 bytes; whole-record
        # temporaries would add 8 bytes a pair each
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
        assert peak <= 16 * pairs + 32 * 8 * model.PAIR_BLOCK

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


def assert_fit_reproduces_unblocked(record, config, init=None, arm=lambda: None):
    """``fit`` and ``unblocked_fit`` agree to the bit; ``arm()`` runs before each.
    The reported background probabilities are ``params_best``'s."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        arm()
        report = fit(record, config, init=init)
        arm()
        curve, final, best_epoch, best, aborted = unblocked_fit(record, config, init)
    assert np.array_equal(report.curve, curve)
    assert_same_params(report.params_final, final)
    assert_same_params(report.params_best, best)
    assert (report.best_epoch, report.aborted_epoch) == (best_epoch, aborted)
    if best_epoch < 0:
        assert report.p_background is None
    else:
        assert_same_array(report.p_background, background_probabilities(record, best))
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


def assert_streamed_statistics_are_e_steps(record, params):
    """``_fit_e_step``'s ``lam`` and four statistics equal, to the bit, the
    unblocked pass's intensities and those of ``e_step``'s entries."""
    ws = model._Workspace(params.R)
    lam, stats = _fit_e_step(record, params, list(_pair_blocks(record)), ws)
    assert_same_array(lam, unblocked_response(record, params)[1])
    br = e_step(record, params)
    assert stats.R == br.R
    for name in ("mass_by_r", "lag_mass_by_r", "dyad_mass", "background_mass_by_type"):
        assert_same_array(getattr(stats, name), getattr(br, name), name)


def random_full_rank(rng, n, R):
    return FullRankParams(rng.uniform(0.0, 0.5, size=(n, n)), rng.uniform(0.3, 3.0, size=R),
                          np.full(R, 1.0 / R), rng.uniform(0.05, 0.5, size=n))


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
        assert response(0, 0, 400.0, params) == 0.0
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
        assert_allclose(update_kappa(br, record, GammaPrior(1.0, 0.0), 0), 0.5)

    def test_hand_example_informative_prior(self):
        record = EventRecord([0, 0], [0.0, 2.0], 1, 3.0)
        br = one_pair_branching(record)
        assert_allclose(update_kappa(br, record, GammaPrior(2.0, 1.0), 0), 2.0 / 3.0)

    def test_zero_mass_keeps_current(self, rng):
        record = EventRecord([0, 0], [0.0, 2.0], 1, 3.0)
        br = BranchingStructure(record, np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([]), np.array([1.0, 1.0]), 1)
        with pytest.warns(NumericsWarning):
            out = update_kappa(br, record, GammaPrior(1.0, 0.0), 0, current=0.7)
        assert out == 0.7

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
            for r in range(R):
                got = update_kappa(br, record, prior, r)
                want = argmax_scalar(
                    lambda v: sur.value(with_kernels(
                        params, kappa=set_entry(params.kernels.kappa, r, v))),
                    1e-3, 200.0)
                assert_allclose(got, want, rtol=1e-6)


class TestBetaUpdate:
    def test_hand_example(self):
        record = EventRecord([0, 0], [0.0, 1.0], 1, 2.0)
        br = one_pair_branching(record)
        emb = EmbeddingPair(np.array([[2.0, 0.0]]), np.array([[0.0, 0.0]]))
        assert_allclose(update_beta_sq(br, emb, 0), 2.0)

    def test_coincident_points_floored(self):
        record = EventRecord([0, 0], [0.0, 1.0], 1, 2.0)
        br = one_pair_branching(record)
        emb = EmbeddingPair(np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.warns(NumericsWarning):
            assert update_beta_sq(br, emb, 0) == 1e-12

    def test_zero_mass_keeps_current(self, rng):
        record = EventRecord([0, 0], [0.0, 1.0], 1, 2.0)
        br = BranchingStructure(record, np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([]), np.array([1.0, 1.0]), 1)
        emb = EmbeddingPair(np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.warns(NumericsWarning):
            assert update_beta_sq(br, emb, 0, current=0.3) == 0.3

    def test_matches_numeric_argmax(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 5))
            R = int(rng.integers(1, 3))
            record = cyclic_record(rng, n, int(rng.integers(6, 14)))
            params = make_model(rng, n, R=R)
            br = make_branching(rng, record, R)
            sur = Surrogate(record, br)
            for r in range(R):
                got = update_beta_sq(br, params.embedding, r)
                want = argmax_scalar(
                    lambda v: sur.value(with_kernels(
                        params, beta_sq=set_entry(params.kernels.beta_sq, r, v))),
                    1e-4, 500.0)
                assert_allclose(got, want, rtol=1e-6)


class TestGammaUpdate:
    def test_unit_xi_gives_mass_over_count(self, rng):
        n, R = 3, 2
        record = cyclic_record(rng, n, 9)
        br = make_branching(rng, record, R)
        for r in range(R):
            mass = br.p[br.r_idx == r].sum()
            assert_allclose(update_gamma(br, record, np.ones(n), r),
                            mass / record.N, rtol=1e-12)

    def test_zero_mass_means_dormant(self, rng):
        record = EventRecord([0, 0], [0.0, 1.0], 1, 2.0)
        br = BranchingStructure(record, np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64),
                                np.array([]), np.array([1.0, 1.0]), 1)
        with pytest.warns(NumericsWarning):
            assert update_gamma(br, record, np.ones(1), 0) == 0.0

    def test_matches_numeric_argmax(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 5))
            R = int(rng.integers(1, 3))
            record = cyclic_record(rng, n, int(rng.integers(6, 14)))
            params = make_model(rng, n, R=R)
            br = make_branching(rng, record, R)
            sur = Surrogate(record, br)
            for r in range(R):
                got = update_gamma(br, record, params.xi, r)
                want = argmax_scalar(
                    lambda v: sur.value(with_kernels(
                        params, gamma=set_entry(params.kernels.gamma, r, v))),
                    1e-6, 50.0)
                assert_allclose(got, want, rtol=1e-6)


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
            Y = update_influence_points(br, record, emb)
        assert_allclose(Y[0], [0.75, 0.0], rtol=1e-12)
        assert_allclose(Y[1], [6.0, 6.0])  # unchanged

    def test_all_mass_on_one_receptor(self, rng):
        record = EventRecord([0, 1], [0.0, 1.0], 2, 2.0)
        emb = EmbeddingPair(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        br = BranchingStructure(record, np.array([0]), np.array([1]),
                                np.array([0]), np.array([0.9]),
                                np.array([1.0, 0.1]), 1)
        with pytest.warns(NumericsWarning):
            Y = update_influence_points(br, record, emb)
        assert_allclose(Y[0], emb.reception[1], rtol=1e-12)

    def test_gradient_vanishes_at_solution(self, rng):
        # with one basis the weighted mean is the exact stationary point
        for _ in range(6):
            n = int(rng.integers(2, 5))
            record = cyclic_record(rng, n, int(rng.integers(8, 14)))
            params = make_model(rng, n, R=1)
            br = make_branching(rng, record, 1)
            Y = update_influence_points(br, record, params.embedding)
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
        w = frb_kernel_weights(br)
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
        w = frb_kernel_weights(br)
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
        with pytest.warns(NumericsWarning):
            w = frb_kernel_weights(br, current=np.array([0.7, 0.3]))
        assert_allclose(w, [0.7, 0.3])


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
        monkeypatch.setattr(em, "_m_step_frb", exploding_frb_step(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.warns(NumericsWarning, match="objective left the finite regime"):
                report = fit(sim_record, FitConfig(mode="frb", epochs=8))
        assert report.aborted_epoch == 3

    def test_fit_keeps_no_attribution_entries(self, sim_record, rng, monkeypatch):
        def no_entries(*args, **kwargs):
            raise AssertionError("fit gathered attribution entries")

        monkeypatch.setattr(em, "_Entries", no_entries)
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
            e_step(sim_record, report.params_final)

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
