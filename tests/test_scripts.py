"""Smoke runs of the experiment scripts at their smallest settings."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args], capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_ablation_prints_verdicts(tmp_path):
    out = run_script("run_ablation.py", "--seeds", "1", "--epochs", "1", "--refine-epochs", "1", "--workdir", str(tmp_path))
    assert "seed 0: dsc full" in out
    assert "cnn+gate does not reduce dsc: " in out and "/1 seeds" in out
    assert "refiner lowers hd95 without dsc loss: " in out
    assert "sc loss lowers in-box scale gap: " in out
    assert "multi-object dsc margin (mm2b - fullbox): " in out


def test_train_demo_prints_metrics(tmp_path):
    out = run_script("train_demo.py", "--count", "20", "--epochs", "1", "--workdir", str(tmp_path))
    assert "holdout coarse : dsc" in out
    assert "holdout refined: dsc" in out
    assert "in-box scale gap: " in out
