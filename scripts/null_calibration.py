#!/usr/bin/env python3
"""Null calibration of the independence test.

Simulates independent continuous pairs, computes the simplified rank
coefficient under a power kernel, and reports (a) the empirical variance of
sqrt(n) * xi against the closed-form limit and (b) the rejection rate of
the one-sided test at a few nominal levels.

Example:
    python scripts/null_calibration.py --n 1000 --reps 2000 --gamma 1
"""

import argparse
import math
import sys

import numpy as np

from xifamily import (
    PairedSample,
    make_kernel,
    rep_seed,
    sigma2_power_closed_form,
    std_normal_cdf,
    xi_simplified,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--reps", type=int, default=2000)
    parser.add_argument("--gamma", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=20240)
    args = parser.parse_args()

    kernel = make_kernel("power", gamma=args.gamma)
    target = sigma2_power_closed_form(args.gamma)
    scaled = np.empty(args.reps)
    for rep in range(args.reps):
        rng = np.random.default_rng(rep_seed(args.seed, rep))
        s = PairedSample(xs=rng.random(args.n), ys=rng.random(args.n))
        scaled[rep] = math.sqrt(args.n) * xi_simplified(s, kernel).xi

    variance = float(np.var(scaled, ddof=1))
    p_values = std_normal_cdf(-scaled / math.sqrt(target))
    print(f"kernel power:{args.gamma:g}, n={args.n}, reps={args.reps}")
    print(f"closed-form null variance: {target:.6f}")
    print(f"empirical var(sqrt(n) xi): {variance:.6f}")
    print(f"mean xi: {np.mean(scaled) / math.sqrt(args.n):+.5f}")
    for alpha in (0.01, 0.05, 0.10):
        rate = float(np.mean(p_values < alpha))
        se = math.sqrt(alpha * (1 - alpha) / args.reps)
        print(f"rejection rate at {alpha:.2f}: {rate:.4f} (binomial se {se:.4f})")
    if abs(variance - target) > 0.15 * target:
        print("warning: empirical variance is far from the closed form",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
