#!/usr/bin/env python3
"""Feedback-loop experiment: what happens to stock and spoilage when the
forecaster counts too much of the discounted sales as regular demand?

Runs paired simulations (same seeds, same true regular share) across a grid
of assumed shares and prints last-half averages. The assumed share equal to
the true share is the calibrated reference; larger values feed the
excess-inventory -> discount -> inflated-forecast loop.

Usage:
    python3 scripts/cycle_experiment.py --seeds 20 --days 365
"""
from __future__ import annotations

import argparse

import numpy as np

from discount_uplift.synth import CycleConfig, cycle_summary, simulate_cycle


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--days", type=int, default=365)
    parser.add_argument("--true-share", type=float, default=0.3)
    parser.add_argument("--assumed-shares", type=float, nargs="+",
                        default=[0.0, 0.3, 0.6, 1.0])
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    print(f"true regular share: {args.true_share}")
    print(f"{'assumed':>8} {'mean stock':>11} {'mean spoilage':>14} "
          f"{'mean disc sales':>16}")
    for assumed in args.assumed_shares:
        stocks, spoilages, discounted = [], [], []
        for seed in range(args.seeds):
            config = CycleConfig(seed=seed, n_days=args.days,
                                 true_regular_share=args.true_share,
                                 assumed_share=assumed)
            summary = cycle_summary(simulate_cycle(config))["last_half"]
            stocks.append(summary["mean_stock"])
            spoilages.append(summary["mean_spoilage"])
            discounted.append(summary["mean_discounted_sales"])
        print(f"{assumed:>8.2f} {np.mean(stocks):>11.2f} "
              f"{np.mean(spoilages):>14.3f} {np.mean(discounted):>16.3f}")


if __name__ == "__main__":
    main()
