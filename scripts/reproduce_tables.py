#!/usr/bin/env python3
"""Desk-scale reproduction of the simulation tables.

Rows are (method, kernel) pairs: the plugin coefficient with F the standard
normal CDF and the simplified rank coefficient, each under the five study
kernels, plus Pearson and Spearman baselines. Columns are (sigma, n) cells
of "mean (100*sd)" over seeded replications; the full grid runs through
``xifamily simulate``, which draws each replication once for all rows.

The published h5 row matches 1 - exp(-|y-z|) (the exp:1 kernel), not the
literal 1 - exp(|y-z|) printed alongside it, so exp:1 is what runs here;
see the README for the comparison. dCorr / LH / MIC rows are emitted blank:
those baselines live in external packages (dcor, minepy).

Examples:
    python scripts/reproduce_tables.py --table 2 --mode golden
    python scripts/reproduce_tables.py --table 1 --mode full --reps 100
"""

import argparse
import contextlib
import csv
import sys
import time

from xifamily import ModelSpec, cli, parse_method_spec, replicate

STUDY_KERNELS = ["power:1", "power:2", "power:3", "expsq", "exp:1"]

GOLDEN = {
    1: [
        ("plugin,power:1,std-normal", 0.0, 500, 0.989),
        ("plugin,power:2,std-normal", 0.1, 2000, 0.893),
        ("plugin,power:3,std-normal", 0.5, 500, 0.332),
    ],
    2: [
        ("simplified,power:1", 0.1, 2000, 0.837),
        ("simplified,power:3", 0.0, 500, 1.000),
        ("pearson", 0.0, 2000, -0.391),
    ],
}

EXTERNAL_BASELINES = ["dcorr", "lh", "mic"]


def run_golden(model, table, reps, seed, writer):
    writer.writerow(["method", "sigma", "n", "mean", "sd_x100", "published"])
    for spec, sigma, n, published in GOLDEN[table]:
        summary = replicate(
            ModelSpec(model=model, sigma=sigma, n=n, seed=0),
            parse_method_spec(spec),
            reps=reps,
            base_seed=seed,
        )
        writer.writerow([
            spec, sigma, n, f"{summary.mean:.4f}",
            f"{100 * summary.sd:.2f}" if summary.sd is not None else "",
            published,
        ])
        print(f"  {spec} sigma={sigma} n={n}: {summary.mean:.4f} "
              f"(published {published})", file=sys.stderr)


def run_full(model, args):
    methods = [f"plugin,{k},std-normal" for k in STUDY_KERNELS]
    methods += [f"simplified,{k}" for k in STUDY_KERNELS] + ["pearson", "spearman"]
    argv = ["simulate", "--model", model, "--sigma", args.sigma, "--n", args.n,
            "--reps", str(args.reps), "--seed", str(args.seed), "--out", args.out or "-"]
    started = time.perf_counter()
    if code := cli.main(argv + [arg for m in methods for arg in ("--method", m)]):
        return code
    print(f"  {len(methods)} methods: {time.perf_counter() - started:.1f}s", file=sys.stderr)
    blank = [""] * (len(args.sigma.split(",")) * len(args.n.split(",")))
    with open(args.out, "a", newline="") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        csv.writer(fh).writerows([name, ""] + blank for name in EXTERNAL_BASELINES)
    print("note: dcorr/lh/mic rows left blank; compute them with the dcor and "
          "minepy packages if needed", file=sys.stderr)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", type=int, choices=[1, 2], required=True,
                        help="1 = quadratic model, 2 = sinusoidal model")
    parser.add_argument("--mode", choices=["golden", "full"], default="golden")
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--sigma", default="0,0.1,0.5,inf")
    parser.add_argument("--n", default="100,500,2000")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    model = {1: "quadratic", 2: "sinusoidal"}[args.table]
    print(f"table {args.table} ({model}), mode={args.mode}, reps={args.reps}",
          file=sys.stderr)
    if args.mode == "full":
        return run_full(model, args)
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        run_golden(model, args.table, args.reps, args.seed, csv.writer(fh))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
