#!/usr/bin/env python3
"""Multi-seed proposer comparison under a fixed oracle budget.

Runs every proposer over a seed range against one trained pipeline and
prints mean/std final HVI plus a one-sided bootstrap comparison of
guided-flow against the random baseline. Writes a per-run CSV.
"""

import argparse
import csv
import sys

import numpy as np

from flowopt import harness, toyset
from flowopt.config import PROFILES
from flowopt.rng import Rng


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ckpt", required=True, help="checkpoint directory")
    ap.add_argument("--profile", default="toy-default", choices=sorted(PROFILES))
    ap.add_argument("--seeds", type=int, default=20, help="number of run seeds")
    ap.add_argument("--out", default=None, help="optional CSV output path")
    args = ap.parse_args(argv)

    cfg = PROFILES[args.profile]()
    ds = toyset.generate_dataset(cfg.data.seed, cfg.data.count,
                                 cfg.data.min_len, cfg.data.max_len)
    models = harness.Pipeline.load(args.ckpt)

    rows = []
    finals = {}
    for proposer in harness.PROPOSERS:
        vals = []
        for seed in range(args.seeds):
            result = harness.budgeted_run(models, ds, cfg, proposer, seed)
            vals.append(result.final_hvi)
            rows.append({"proposer": proposer, "seed": seed,
                         "calls": result.calls, "final_hvi": result.final_hvi,
                         "uniqueness": result.report.uniqueness,
                         "skeleton_diversity": result.report.skeleton_diversity})
        finals[proposer] = np.array(vals)
        print(f"{proposer:<16} mean={finals[proposer].mean():.4f} "
              f"std={finals[proposer].std():.4f} n={args.seeds}")

    gen = Rng(0).split("comparison-boot").gen
    n = args.seeds
    diffs = np.array([finals["guided-flow"][gen.integers(0, n, n)].mean()
                      - finals["random"][gen.integers(0, n, n)].mean()
                      for _ in range(2000)])
    print(f"guided-flow vs random: bootstrap 10th pct of mean difference "
          f"= {np.quantile(diffs, 0.10):.4f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    sys.exit(main())
