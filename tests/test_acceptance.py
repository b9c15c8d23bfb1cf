"""Release gate: every operating guarantee is checked end to end.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line per
criterion as it completes.  The synthetic recovery block (criteria 5 through 8
plus the determinism rerun) shares a single batch of fits and takes a few
minutes; everything else finishes in seconds.

The recovery checks are statistical by nature.  Their seeds were fixed before
the suite was ever run and are disjoint from every seed used while developing
the estimators, so a pass here is evidence, not calibration.
"""

import json
import time
import warnings

import numpy as np
import pytest
from scipy import stats

from conftest import Surrogate, argmax_scalar, make_model
from hawkesgeo.diagnostics import (
    EvalSplit,
    background_qq,
    hellinger_divergence,
    kendall_distance_correlation,
    phi_rmse,
    split_eval,
)
from hawkesgeo.em import (
    BranchingStructure,
    FitConfig,
    GammaPrior,
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
from hawkesgeo.geometry import reception_gradient, reception_hessian
from hawkesgeo.io import load_events_csv, save_model
from hawkesgeo.model import (
    EmbeddingPair,
    EventRecord,
    KernelBank,
    ModelParams,
    compensator,
    influence_matrix,
    log_likelihood,
)
from hawkesgeo.simulate import (
    ground_truth_branching,
    sample_ground_truth,
    simulate_thinning,
)


def verdict(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def rel_err(got, want, floor=1e-12):
    return abs(got - want) / max(abs(want), floor)


def with_kernels(params, **changes):
    kb = params.kernels
    fields = {"beta_sq": kb.beta_sq, "kappa": kb.kappa, "gamma": kb.gamma}
    fields.update(changes)
    return ModelParams(params.embedding, KernelBank(**fields), params.xi, params.mu)


def with_reception(params, X):
    emb = EmbeddingPair(X, params.embedding.influence)
    return ModelParams(emb, params.kernels, params.xi, params.mu)


def set_at(vec, idx, value):
    out = np.array(vec, dtype=float)
    out[idx] = value
    return out


# ---------------------------------------------------------------------------
# criterion 1: the attributed-data objective never exceeds the exact
# log-likelihood, at the posterior branching and at random ones


def _tied_record(rng, n, N, T):
    times = np.sort(rng.uniform(0.0, T, size=N))
    if N >= 3 and rng.random() < 0.15:
        times[2] = times[1]  # exercise the tie rule: equal times never pair
    return EventRecord(rng.integers(0, n, size=N), np.sort(times), n, T)


def test_criterion_01_complete_data_bound():
    rng = np.random.default_rng(7001)
    t0 = time.perf_counter()
    draws = 1000
    worst = -np.inf
    checked = 0
    for inst in range(200):
        n = int(rng.integers(1, 11))
        N = int(rng.integers(4, 51))
        R = int(rng.integers(1, 3))
        T = float(rng.uniform(5.0, 15.0))
        record = _tied_record(rng, n, N, T)
        params = make_model(rng, n, R=R)
        ll = log_likelihood(record, params)

        posterior = complete_data_loglik(record, params, e_step(record, params))
        worst = max(worst, posterior - ll)
        checked += 1

        # every strictly ordered (trigger, target, clock) triple
        ii, jj = np.triu_indices(N, k=1)
        keep = record.times[ii] < record.times[jj]
        i_e = np.tile(ii[keep], R)
        j_e = np.tile(jj[keep], R)
        r_e = np.repeat(np.arange(R), int(keep.sum()))
        A = params.amplitudes()
        dt = record.times[j_e] - record.times[i_e]
        kap = params.kernels.kappa[r_e]
        logw = (np.log(A[r_e, record.types[j_e], record.types[i_e]])
                + np.log(kap) - kap * dt)
        E = logw.size

        # 1000 random row-normalized branchings, evaluated in one shot:
        # value = sum_e p_e log h_e + sum_j pb_j log mu_j - compensator
        cols = np.concatenate([j_e, np.arange(N)])
        onehot = np.zeros((E + N, N))
        onehot[np.arange(E + N), cols] = 1.0
        raw = rng.uniform(0.05, 1.0, size=(draws, E + N))
        P = raw / (raw @ onehot)[:, cols]
        gains = np.concatenate([logw, np.log(params.mu[record.types])])
        values = P @ gains - compensator(record, params)
        worst = max(worst, float((values - ll).max()))
        checked += draws

        # the vectorized evaluator must agree with the library's own
        for d in (0, draws // 2):
            br = BranchingStructure(record, i_e, j_e, r_e, P[d, :E], P[d, E:], R)
            assert abs(complete_data_loglik(record, params, br) - values[d]) < 1e-8

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    verdict(1, ok, f"max bound violation {worst:+.2e} over {checked} branchings "
                   f"(slack 1e-9), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: each closed-form update matches a numeric argmax of the
# surrogate objective


def test_criterion_02_m_step_argmax_equivalence():
    rng = np.random.default_rng(7002)
    t0 = time.perf_counter()
    worst = 0.0

    def track(lib, oracle):
        nonlocal worst
        worst = max(worst, rel_err(lib, oracle))

    for inst in range(50):
        n = int(rng.integers(2, 7))
        N = int(rng.integers(20, 61))
        R = int(rng.integers(1, 3))
        T = float(rng.uniform(8.0, 14.0))
        record = EventRecord(rng.integers(0, n, size=N),
                             np.sort(rng.uniform(0.0, T, size=N)), n, T)
        params = make_model(rng, n, R=R)
        prior = GammaPrior(alpha=float(rng.uniform(1.2, 2.0)),
                           beta=float(rng.uniform(0.05, 0.5)))
        br = e_step(record, params)
        surr = Surrogate(record, br, prior=prior)

        kappa_lib = update_kappa(br, prior, params.kernels.kappa)
        beta_lib = update_beta_sq(br, params.embedding, params.kernels.beta_sq)
        gamma_lib = update_gamma(br, record, params.xi)
        for r in range(R):
            lib = kappa_lib[r]
            track(lib, argmax_scalar(
                lambda v: surr.value(with_kernels(
                    params, kappa=set_at(params.kernels.kappa, r, v))),
                lib / 6.0, lib * 6.0))

            lib = beta_lib[r]
            track(lib, argmax_scalar(
                lambda v: surr.value(with_kernels(
                    params, beta_sq=set_at(params.kernels.beta_sq, r, v))),
                lib / 6.0, lib * 6.0))

            lib = gamma_lib[r]
            track(lib, argmax_scalar(
                lambda v: surr.value(with_kernels(
                    params, gamma=set_at(params.kernels.gamma, r, v))),
                lib / 6.0, lib * 6.0))

        k = int(np.argmax(br.background_mass_by_type))
        lib = update_mu(br, record)[k]
        track(lib, argmax_scalar(
            lambda v: surr.value(ModelParams(params.embedding, params.kernels,
                                             params.xi, set_at(params.mu, k, v))),
            lib / 6.0, lib * 6.0))

        # exertion: the rescale may move xi and gamma separately, but their
        # products must match the raw per-type argmax taken at the new gamma
        gamma_new = update_gamma(br, record, params.xi)
        xi_new, gamma_res = update_xi(br, record, gamma_new)
        l = int(record.types[0])  # the first event always sends mass
        params_g = with_kernels(params, gamma=gamma_new)
        xi_hat = argmax_scalar(
            lambda v: surr.value(ModelParams(params_g.embedding, params_g.kernels,
                                             set_at(params.xi, l, v), params.mu)),
            0.05, 40.0)
        for r in range(R):
            track(xi_new[l] * gamma_res[r], xi_hat * gamma_new[r])

        # influence point: attribution-weighted mean of excited receptors,
        # restated with plain loops (exact surrogate argmax when R = 1)
        if R == 1:
            lib_Y = update_influence_points(br, params.embedding)
            num = np.zeros(params.embedding.reception.shape[1])
            den = 0.0
            for e in range(br.p.size):
                if record.types[br.i_idx[e]] == l:
                    num += br.p[e] * params.embedding.reception[record.types[br.j_idx[e]]]
                    den += br.p[e]
            worst = max(worst, float(np.linalg.norm(lib_Y[l] - num / den)
                                     / max(np.linalg.norm(num / den), 1e-12)))

        # full-rank baseline: per-dyad rate and per-clock share
        counts = record.count_by_type()
        phi = frb_update(br, record)
        k_to, l_from = int(record.types[-1]), int(record.types[0])
        mass_kl = float(br.dyad_mass.sum(axis=0)[k_to, l_from])
        lib = phi[k_to, l_from]
        track(lib, argmax_scalar(
            lambda v: mass_kl * np.log(v) - counts[l_from] * v,
            lib / 6.0, lib * 6.0))
        w = frb_kernel_weights(br, np.full(R, 1.0 / R))
        mass_r = np.zeros(R)
        for e in range(br.p.size):
            mass_r[br.r_idx[e]] += br.p[e]
        for r in range(R):
            track(w[r], mass_r[r] / mass_r.sum())

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    verdict(2, ok, f"max relative gap to numeric argmax {worst:.2e} "
                   f"(tol 1e-6) over 50 instances, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: reception-point derivatives against finite differences


def test_criterion_03_geometry_derivatives():
    rng = np.random.default_rng(7003)
    t0 = time.perf_counter()
    worst_grad = 0.0
    worst_hess = 0.0
    for inst in range(50):
        n = int(rng.integers(2, 7))
        N = int(rng.integers(15, 41))
        R = int(rng.integers(1, 3))
        T = 10.0
        record = EventRecord(rng.integers(0, n, size=N),
                             np.sort(rng.uniform(0.0, T, size=N)), n, T)
        params = make_model(rng, n, R=R)
        br = e_step(record, params)
        surr = Surrogate(record, br)
        X = params.embedding.reception
        m = X.shape[1]
        scale = max(1.0, float(np.abs(X).max()))

        grad = reception_gradient(record, params, br)
        h = 1e-6 * scale
        fd = np.empty_like(grad)
        for k in range(n):
            for d in range(m):
                up, down = X.copy(), X.copy()
                up[k, d] += h
                down[k, d] -= h
                fd[k, d] = (surr.value(with_reception(params, up), receptor_sum=True)
                            - surr.value(with_reception(params, down), receptor_sum=True)
                            ) / (2.0 * h)
        worst_grad = max(worst_grad,
                         float(np.abs(grad - fd).max() / np.abs(fd).max()))

        blocks = reception_hessian(record, params, br).assembled(ceiling=False)
        h2 = 1e-5 * scale
        fd_blocks = np.empty_like(blocks)
        for k in range(n):
            for d in range(m):
                up, down = X.copy(), X.copy()
                up[k, d] += h2
                down[k, d] -= h2
                ga = reception_gradient(record, with_reception(params, up), br)
                gb = reception_gradient(record, with_reception(params, down), br)
                fd_blocks[k, :, d] = (ga[k] - gb[k]) / (2.0 * h2)
        worst_hess = max(worst_hess,
                         float(np.linalg.norm(blocks - fd_blocks)
                               / np.linalg.norm(fd_blocks)))

    elapsed = time.perf_counter() - t0
    ok = worst_grad < 1e-5 and worst_hess < 1e-4 and elapsed < 60.0
    verdict(3, ok, f"gradient rel err {worst_grad:.2e} (tol 1e-5), pre-ceiling "
                   f"Hessian rel err {worst_hess:.2e} (tol 1e-4), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: simulator exactness


def test_criterion_04_simulator_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7004)
    coords = rng.random((3, 2))
    mu = np.array([0.7, 0.4, 0.2])
    poisson = ModelParams(EmbeddingPair(coords, coords.copy()),
                          KernelBank(beta_sq=np.array([1.0]),
                                     kappa=np.array([1.0]),
                                     gamma=np.array([0.0])),
                          np.ones(3), mu)
    record = simulate_thinning(poisson, seed=44, target_events=10_000)
    inter = np.diff(record.times, prepend=0.0)
    ks = stats.kstest(inter, "expon", args=(0.0, 1.0 / mu.sum()))

    # unit-norm rescaling of the influence matrix can land arbitrarily close
    # to critical at n=3, where the long-run average mixes too slowly to
    # settle; this draw sits at spectral radius 0.61 with rate ~4 per unit
    truth = sample_ground_truth(3, seed=66)
    T = 10000.0
    long_run = simulate_thinning(truth, T=T, seed=46)
    phi = influence_matrix(truth.params)
    expected = np.linalg.solve(np.eye(3) - phi, truth.params.mu)
    empirical = long_run.count_by_type() / T
    rate_err = float(np.linalg.norm(empirical - expected) / np.linalg.norm(expected))

    elapsed = time.perf_counter() - t0
    ok = ks.pvalue > 0.01 and rate_err <= 0.05 and elapsed < 120.0
    verdict(4, ok, f"pure-Poisson KS p={ks.pvalue:.3f} (level 0.01), long-run "
                   f"rate error {rate_err:.3f} (tol 0.05), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 5-8 and 10 share one batch of synthetic recovery fits


SIZE_A = {"n": 15, "N": 300, "eps2": 0.1, "truth_seed": 71000, "sim_seed": 72000}
SIZE_B = {"n": 30, "N": 900, "eps2": 1.0, "truth_seed": 81000, "sim_seed": 82000}
TRIALS = 20
EPOCHS = 500


def _run_trial(size, t):
    """Fit both estimators on one simulated draw and report every metric."""
    truth = sample_ground_truth(size["n"], m=2, R=1, seed=size["truth_seed"] + t)
    record = simulate_thinning(truth, seed=size["sim_seed"] + t,
                               target_events=size["N"])
    t_split = 0.75 * record.horizon
    train = record.truncated(t_split)
    phi_true = influence_matrix(truth.params)
    row = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for mode in ("hhg-b", "frb"):
            config = (FitConfig(mode="hhg-b", epochs=EPOCHS, eps2=size["eps2"])
                      if mode == "hhg-b" else FitConfig(mode="frb", epochs=EPOCHS))
            params = fit(train, config).params_best
            tr, te = split_eval(record, params, EvalSplit(t_split))
            br = e_step(train, params)
            metrics = {
                "train": float(tr),
                "test": float(te),
                "gap": float(tr - te),
                "hellinger": float(hellinger_divergence(
                    br, ground_truth_branching(train, truth))),
                "phi_rmse": float(phi_rmse(influence_matrix(params), phi_true)),
            }
            if mode == "hhg-b":
                metrics["kendall"] = float(kendall_distance_correlation(
                    params.embedding, truth.params.embedding))
                qq = background_qq(train, params, br, seed=size["sim_seed"] + t)
                metrics["ks"] = float(stats.kstest(
                    qq[:, 0], "expon",
                    args=(0.0, 1.0 / params.mu.sum())).statistic) \
                    if qq is not None else float("inf")
                metrics["ks_crit"] = (1.3581 / np.sqrt(qq.shape[0])
                                      if qq is not None else 0.0)
            row[mode] = metrics
    return row


@pytest.fixture(scope="session")
def recovery_suite():
    out = {}
    t_all = time.perf_counter()
    for key, size in (("A", SIZE_A), ("B", SIZE_B)):
        t0 = time.perf_counter()
        out[key] = [_run_trial(size, t) for t in range(TRIALS)]
        print(f"\n[recovery suite {key}] {TRIALS} trials of "
              f"(n={size['n']}, N={size['N']}) in {time.perf_counter() - t0:.0f}s")
    out["elapsed"] = time.perf_counter() - t_all
    return out


def _mean(rows, mode, key):
    return float(np.mean([row[mode][key] for row in rows]))


def test_criterion_05_recovery_pattern(recovery_suite):
    hell = {k: (_mean(recovery_suite[k], "hhg-b", "hellinger"),
                _mean(recovery_suite[k], "frb", "hellinger")) for k in ("A", "B")}
    test_b = (_mean(recovery_suite["B"], "hhg-b", "test"),
              _mean(recovery_suite["B"], "frb", "test"))
    gap_b = (_mean(recovery_suite["B"], "hhg-b", "gap"),
             _mean(recovery_suite["B"], "frb", "gap"))
    ok = (hell["A"][0] <= hell["A"][1] and hell["B"][0] <= hell["B"][1]
          and test_b[0] >= test_b[1] and gap_b[1] > gap_b[0]
          and recovery_suite["elapsed"] < 1800.0)
    verdict(5, ok,
            f"hellinger A {hell['A'][0]:.3f}<= {hell['A'][1]:.3f}, "
            f"B {hell['B'][0]:.3f}<= {hell['B'][1]:.3f}; "
            f"test LL B {test_b[0]:.3f}>= {test_b[1]:.3f}; "
            f"overfit gap B {gap_b[1]:.3f}> {gap_b[0]:.3f}; "
            f"suite {recovery_suite['elapsed']:.0f}s")


def test_criterion_06_influence_matrix_recovery(recovery_suite):
    ours = _mean(recovery_suite["B"], "hhg-b", "phi_rmse")
    base = _mean(recovery_suite["B"], "frb", "phi_rmse")
    verdict(6, ours < base,
            f"mean phi_rmse {ours:.4f} < baseline {base:.4f} at (30, 900)")


def test_criterion_07_background_qq(recovery_suite):
    passes = sum(row["hhg-b"]["ks"] < row["hhg-b"]["ks_crit"]
                 for row in recovery_suite["A"])
    verdict(7, passes >= 0.8 * TRIALS,
            f"background KS under the 5% critical value in {passes}/{TRIALS} trials "
            f"(need {int(0.8 * TRIALS)})")


def test_criterion_08_embedding_geometry(recovery_suite):
    taus = np.array([row["hhg-b"]["kendall"] for row in recovery_suite["A"]])
    res = stats.ttest_1samp(taus, 0.0, alternative="greater")
    ok = bool(res.pvalue <= 0.05)
    verdict(8, ok, f"mean distance-rank tau {taus.mean():+.4f} over {TRIALS} trials, "
                   f"one-sided p={res.pvalue:.4f} (need <= 0.05)")


# ---------------------------------------------------------------------------
# criterion 9: a conforming counts table drives the full pipeline


def test_criterion_09_fixture_dataset_pipeline(tmp_path, capsys):
    from hawkesgeo.cli import cli_dispatch

    t0 = time.perf_counter()
    days = np.arange(91)
    rows = ["location,day,cumulative_count"]
    for name, (cap, mid, pace) in (("north", (400, 30, 6)), ("south", (300, 45, 8)),
                                   ("east", (600, 38, 5)), ("west", (250, 55, 9))):
        curve = np.floor(cap / (1.0 + np.exp(-(days - mid) / pace))).astype(int)
        rows += [f"{name},{d},{curve[d]}" for d in days]
    counts = tmp_path / "counts.csv"
    counts.write_text("\n".join(rows) + "\n")

    events = tmp_path / "events.csv"
    model = tmp_path / "model.json"
    final = tmp_path / "final.json"
    report = tmp_path / "report.json"
    steps = [
        ["discretize", "--counts", str(counts), "--threshold", "10",
         "--out", str(events)],
        ["fit", "--events", str(events), "--mode", "hhg-b", "--epochs", "500",
         "--eps2", "0.1", "--out", str(model), "--out-final", str(final),
         "--report", str(report)],
        ["evaluate", "--events", str(events), "--model", str(model),
         "--test-days", "30", "--out", str(tmp_path / "eval.json")],
        ["diagnose", "--events", str(events), "--model", str(model),
         "--test-days", "30", "--out", str(tmp_path / "diag.json")],
        ["export", "--what", "embedding", "--model", str(model),
         "--out", str(tmp_path / "embedding.csv")],
        ["export", "--what", "curve", "--report", str(report),
         "--out", str(tmp_path / "curve.csv")],
        ["export", "--what", "qq", "--diagnostics", str(tmp_path / "diag.json"),
         "--out", str(tmp_path / "qq.csv")],
    ]
    codes = [cli_dispatch(argv) for argv in steps]
    capsys.readouterr()

    record = load_events_csv(events)
    scores = json.loads((tmp_path / "eval.json").read_text())
    diag = json.loads((tmp_path / "diag.json").read_text())
    curve_rows = (tmp_path / "curve.csv").read_text().splitlines()
    elapsed = time.perf_counter() - t0
    ok = (codes == [0] * len(steps)
          and record.n == 4 and record.N > 100
          and np.isfinite(scores["train_ll_per_event"])
          and np.isfinite(scores["test_ll_per_event"])
          and scores["n_test"] > 0
          and len(diag["qq_points"]) > 2
          and len(curve_rows) == 1 + 500
          and elapsed < 60.0)
    verdict(9, ok, f"discretize/fit/evaluate/diagnose/export all rc 0 on a "
                   f"{record.N}-event fixture ({record.n} locations), "
                   f"{scores['n_test']} held-out events, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 10: identical seeds reproduce the recovery numbers byte for byte


def test_criterion_10_determinism(recovery_suite, tmp_path):
    t0 = time.perf_counter()
    reruns = [("A", SIZE_A, 0), ("A", SIZE_A, 7), ("B", SIZE_B, 3)]
    same_rows = all(
        json.dumps(_run_trial(size, t), sort_keys=True)
        == json.dumps(recovery_suite[key][t], sort_keys=True)
        for key, size, t in reruns)

    truth = sample_ground_truth(SIZE_A["n"], seed=SIZE_A["truth_seed"])
    record = simulate_thinning(truth, seed=SIZE_A["sim_seed"],
                               target_events=SIZE_A["N"])
    train = record.truncated(0.75 * record.horizon)
    config = FitConfig(mode="hhg-b", epochs=EPOCHS, eps2=SIZE_A["eps2"])
    paths = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for tag in ("one", "two"):
            rep = fit(train, config)
            path = str(tmp_path / f"refit_{tag}.json")
            save_model(rep.params_best, path)
            paths.append(path)
    with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
        same_bytes = fa.read() == fb.read()

    elapsed = time.perf_counter() - t0
    verdict(10, same_rows and same_bytes,
            f"3 rerun trials reproduced every metric byte-identically and two "
            f"fresh fits serialized to identical files, {elapsed:.0f}s")
