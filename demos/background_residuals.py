"""Goodness of fit without a ground truth: background residuals.

If the model is right, the events it attributes to the background form a
Poisson stream at the total background rate, so their interarrival times are
exponential.  We sample a background subset from the fitted attribution, QQ
its interarrivals against that exponential, and read off a KS statistic,
the same check one would run on a real dataset where no truth exists.

Also prints the categorical accuracy: the geometric-mean share of intensity
the model places on the types that actually occurred, next to a naive
rate-frequency reference.

Writes ``out/background_qq.csv`` (empirical vs theoretical quantiles).
"""

import os

import numpy as np

from hawkesgeo import (
    FitConfig,
    background_probabilities,
    background_qq,
    categorical_accuracy,
    fit,
    sample_ground_truth,
    simulate_thinning,
    write_qq_csv,
)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def main():
    os.makedirs(OUT, exist_ok=True)
    truth = sample_ground_truth(10, m=2, R=1, seed=35)
    record = simulate_thinning(truth, seed=36, target_events=600)
    print(f"{record.N} events of {record.n} types")

    report = fit(record, FitConfig(mode="hhg-b", epochs=300, eps2=0.1))
    params = report.params_best
    share = float(np.mean(background_probabilities(record, params)))
    print(f"fitted background rate {params.mu.sum():.3f} "
          f"(truth {truth.params.mu.sum():.3f}), "
          f"mean background attribution {share:.2f}")

    qq = background_qq(record, params, seed=33)
    gaps = np.abs(qq[:, 0] - qq[:, 1]) * params.mu.sum()
    count = qq.shape[0]
    critical = 1.3581 / np.sqrt(count)
    # KS on the sampled subset's interarrivals vs Exp(total background rate)
    sorted_x = np.sort(qq[:, 0])
    cdf = 1.0 - np.exp(-params.mu.sum() * sorted_x)
    steps = np.arange(1, count + 1) / count
    ks = float(np.max(np.maximum(np.abs(cdf - steps), np.abs(cdf - steps + 1.0 / count))))
    print(f"background subset: {count} events, KS {ks:.3f} "
          f"vs 5% critical {critical:.3f} -> "
          f"{'consistent with Poisson' if ks < critical else 'misfit'}")

    window = (0.5 * record.horizon, record.horizon)
    score, naive = categorical_accuracy(record, params, window)
    print(f"categorical accuracy on the second half: {score:.3f} "
          f"(naive rate model {naive:.3f}, uniform would be {1 / record.n:.3f})")

    write_qq_csv(qq, os.path.join(OUT, "background_qq.csv"))
    print(f"wrote {OUT}/background_qq.csv, max rescaled quantile gap {gaps.max():.3f}")


if __name__ == "__main__":
    main()
