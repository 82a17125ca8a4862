#!/usr/bin/env python3
"""End-to-end demo: generate data, train both phases, evaluate, infer.

Writes everything under --workdir (default: a fresh temp directory) and
prints the held-out metrics for the coarse and refined outputs.
"""

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from weakbox_kit.config import RunConfig
from weakbox_kit.pipeline import evaluate, split_dataset, train_refine, train_weak
from weakbox_kit.synth import DatasetSpec, generate_dataset, load_dataset, save_dataset


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    root = args.workdir or tempfile.mkdtemp(prefix="weakbox_demo_")
    data_dir = os.path.join(root, "data")
    spec = DatasetSpec(count=args.count, size=64, n_objects_min=1, n_objects_max=1, shapes=("ellipse", "fused", "annulus"), noise=0.3, seed=args.seed)
    save_dataset(generate_dataset(spec), spec, data_dir)
    print(f"dataset: {data_dir}")

    refine_ckpt = os.path.join(root, "refine.ckpt")
    rcfg = RunConfig(phase="refine", epochs=40, batch_size=4, learning_rate=2e-3, dataset_dir=data_dir, seed=args.seed, refine_label_fraction=0.1, checkpoint_out=refine_ckpt)
    rres = train_refine(rcfg)
    print(f"refine: loss {rres.epoch_losses[0]:.4f} -> {rres.epoch_losses[-1]:.4f}")

    weak_ckpt = os.path.join(root, "weak.ckpt")
    wcfg = RunConfig(phase="weak", epochs=args.epochs, batch_size=8, learning_rate=1e-3, dataset_dir=data_dir, seed=args.seed, refine_checkpoint=refine_ckpt, checkpoint_out=weak_ckpt)
    wres = train_weak(wcfg)
    print(f"weak: loss {wres.epoch_losses[0]:.4f} -> {wres.epoch_losses[-1]:.4f}")

    _, samples = load_dataset(data_dir)
    _, holdout = split_dataset(samples, wcfg.holdout_fraction)
    _, coarse, gap = evaluate(wcfg, wres.params, holdout)
    _, refined, _ = evaluate(wcfg, wres.params, holdout, use_refine=True)
    print(f"holdout coarse : dsc {coarse['dsc']:.4f}  miou {coarse['miou']:.4f}  hd95 {coarse['hd95']:.3f}")
    print(f"holdout refined: dsc {refined['dsc']:.4f}  miou {refined['miou']:.4f}  hd95 {refined['hd95']:.3f}")
    print(f"in-box scale gap: {gap:.4f}")
    print(f"checkpoints: {refine_ckpt}, {weak_ckpt}")


if __name__ == "__main__":
    main()
