#!/usr/bin/env python3
"""Recovery experiment: how well does the two-step estimator find a planted
uplift across seeds?

For each planted uplift value the script generates independent panels,
runs the full pipeline and reports the estimate distribution, confidence
interval coverage and the share of SKUs flagged significantly positive.

Usage:
    python3 scripts/recovery_experiment.py --seeds 100 --days 1000
"""
from __future__ import annotations

import argparse

import numpy as np

from discount_uplift.ols import UPLIFT_LABELS, t_critical
from discount_uplift.synth import DgpConfig, generate_panel
from discount_uplift.two_step import estimate_sku


def run(gamma: float, seeds: int, days: int, discount_prob: float) -> dict:
    estimates, covered, significant = [], 0, 0
    for seed in range(seeds):
        config = DgpConfig(seed=seed, n_days=days, gamma_true=gamma,
                           discount_probability=discount_prob)
        report = estimate_sku(generate_panel(config, sku_id=1))
        if not report.ok:
            continue
        estimates.append(report.gamma10)
        dof = report.n_disc - len(UPLIFT_LABELS)  # stage 2's
        halfwidth = t_critical(0.05, dof) * report.gamma10_se
        covered += (report.gamma10 - halfwidth <= gamma
                    <= report.gamma10 + halfwidth)
        significant += report.significant_positive
    if not estimates:
        return {"gamma": gamma, "n": 0}
    est = np.array(estimates)
    return {"gamma": gamma, "n": len(est), "mean": est.mean(),
            "sd": est.std(), "coverage": covered / len(est),
            "significant": significant / len(est)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--days", type=int, default=1000)
    parser.add_argument("--discount-prob", type=float, default=0.3)
    parser.add_argument("--gammas", type=float, nargs="+",
                        default=[0.0, 0.3, 0.6, 1.0])
    args = parser.parse_args()

    print(f"{'gamma':>6} {'n':>5} {'mean':>8} {'sd':>7} {'coverage':>9} "
          f"{'signif':>7}")
    for gamma in args.gammas:
        row = run(gamma, args.seeds, args.days, args.discount_prob)
        if not row["n"]:
            print(f"{row['gamma']:>6.2f} {0:>5}  no SKU estimated")
            continue
        print(f"{row['gamma']:>6.2f} {row['n']:>5} {row['mean']:>8.4f} "
              f"{row['sd']:>7.4f} {row['coverage']:>9.2%} "
              f"{row['significant']:>7.2%}")


if __name__ == "__main__":
    main()
