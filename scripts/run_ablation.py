#!/usr/bin/env python3
"""Multi-seed trend study (`weakbox_kit.study`): gated CNN fusion, frozen
refiner, scale consistency, and box-transform supervision vs a naive
full-box baseline. Prints one row per seed and the aggregate verdicts.
"""

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from weakbox_kit.study import format_row, run_seeds, verdicts


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10, help="run seeds 1..N, as the acceptance trend criteria do")
    ap.add_argument("--epochs", type=int, default=25)
    ap.add_argument("--refine-epochs", type=int, default=40)
    ap.add_argument("--workdir", default=None)
    args = ap.parse_args()

    root = args.workdir or tempfile.mkdtemp(prefix="weakbox_ablation_")
    rows = []
    for row in run_seeds(range(1, args.seeds + 1), root, args.epochs, args.refine_epochs):
        print(format_row(row), flush=True)
        rows.append(row)

    n = len(rows)
    v = verdicts(rows)
    print(f"\ncnn+gate does not reduce dsc: {v['gate_wins']}/{n} seeds")
    print(f"refiner lowers hd95 without dsc loss: {v['refine_wins']}/{n} seeds")
    print(f"sc loss lowers in-box scale gap: {v['sc_wins']}/{n} seeds")
    print(f"multi-object dsc margin (mm2b - fullbox): {v['multi_margin']:+.3f}")


if __name__ == "__main__":
    main()
