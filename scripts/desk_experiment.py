"""Paired-seed cross-validation study on the synthetic thermal corpus.

Generates (or reuses) a seeded corpus, then runs 5-fold cross-validation
for each requested polynomial order across several paired seeds through
`selfonn_kit.cli.paired_cv_study`: every seed trains one model per order
on identical folds, so the per-seed accuracy differences isolate the
effect of the order alone. Prints the per-seed paired accuracies and a
small aggregate table.

Usage:
    python3 scripts/desk_experiment.py --out runs/desk --seeds 5 --epochs 3
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from selfonn_kit.cli import paired_cv_study
from selfonn_kit.data import (CLASS_NAMES, load_dataset, make_cv_splits,
                              stratified_ordered_kfold)
from selfonn_kit.model import ModelConfig
from selfonn_kit.synth import SynthConfig, synth_generate
from selfonn_kit.training import TrainConfig


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="runs/desk", help="corpus/work directory")
    p.add_argument("--per-class", type=int, default=SynthConfig.per_class)
    p.add_argument("--corpus-seed", type=int, default=11)
    p.add_argument("--seeds", type=int, default=5, help="paired seeds to run")
    p.add_argument("--orders", default="1,2",
                   help="comma-separated polynomial orders")
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--k", type=int, default=5)
    return p.parse_args()


def corpus_manifest(args) -> Path:
    out = Path(args.out) / "corpus"
    manifest = out / "manifest.tsv"
    if manifest.exists():
        print(f"reusing corpus at {out}")
        return manifest
    print(f"generating {len(CLASS_NAMES) * args.per_class} images under {out} ...")
    return synth_generate(out, SynthConfig(per_class=args.per_class,
                                           height=128, width=160,
                                           seed=args.corpus_seed))


def main():
    args = parse_args()
    orders = [int(v) for v in args.orders.split(",")]
    manifest = corpus_manifest(args)
    dataset = load_dataset(manifest, half_resolution=True)
    print(f"{len(dataset)} images at {dataset.images[0].shape[1]}x"
          f"{dataset.images[0].shape[2]} after halving")
    splits = make_cv_splits(stratified_ordered_kfold(dataset.labels, args.k))

    config = ModelConfig(input_shape=tuple(dataset.images[0].shape),
                         block_filters=(4, 4, 4), kernel_sizes=(5, 3, 2),
                         dense_units=16, classes=len(CLASS_NAMES))
    start = time.perf_counter()
    # (seed, q) -> fold accuracies
    results = paired_cv_study(config, dataset, splits, range(args.seeds),
                              orders, epochs=args.epochs, batch=args.batch,
                              lr=args.lr)
    for (seed, q), accs in results.items():
        print(f"seed {seed} q={q}: mean {np.mean(accs):.4f} "
              f"folds {[f'{a:.3f}' for a in accs]}")

    print(f"\ntotal {time.perf_counter() - start:.0f}s")
    print(f"\n{'q':>2}  {'mean':>7}  {'std':>7}  per-seed means")
    for q in orders:
        seed_means = [float(np.mean(results[(s, q)]))
                      for s in range(args.seeds)]
        print(f"{q:>2}  {np.mean(seed_means):>7.4f}  "
              f"{np.std(seed_means):>7.4f}  "
              + "  ".join(f"{v:.4f}" for v in seed_means))
    if len(orders) == 2:
        lo, hi = orders
        wins = sum(np.mean(results[(s, hi)]) >= np.mean(results[(s, lo)])
                   for s in range(args.seeds))
        print(f"\nq={hi} matched or beat q={lo} in {wins}/{args.seeds} seeds")


if __name__ == "__main__":
    main()
