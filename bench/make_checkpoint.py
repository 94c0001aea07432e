#!/usr/bin/env python3
"""Train the benchmark's fixed evaluation checkpoint and record its hashes.

From the root of a checkout:

    python3 bench/make_checkpoint.py

Runs the full ``toy-default`` schedule with run seed 0 on one BLAS thread
(about 85 s on a 2-core Xeon) and writes ``bench/ckpt/vae_finetune.ckpt``,
``bench/ckpt/flow.ckpt`` and ``bench/ckpt/manifest.json`` (their SHA-256 and
the vocabulary hash). The sweep and budgeted work of the benchmark loads
this checkpoint, so a change to training numerics cannot change its inputs;
rerun this only on purpose, and say so where the change is recorded. A new
checkpoint moves the HVI guards, so record ``bench/ckpt/guards.json`` again
from the seed-0 samples of a run (its ``result.json``).
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(BENCH.parent / "src"))
    sys.path.insert(0, str(BENCH))
    import json

    from flowopt import config, harness, toyset

    import workloads

    cfg = config.toy_default(workloads.REFERENCE_SEED)
    d = cfg.data
    dataset = toyset.generate_dataset(d.seed, d.count, d.min_len, d.max_len)
    ckpt = BENCH / "ckpt"
    paths = harness.pipeline_train(cfg, dataset, ckpt)
    os.remove(paths["vae"])
    manifest = workloads.checkpoint_manifest(ckpt)
    manifest["note"] = (
        "Fixed evaluation checkpoint: toy-default profile, full training schedule, run seed 0, "
        "data seed 7, one BLAS thread. Written by bench/make_checkpoint.py.")
    with open(ckpt / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
