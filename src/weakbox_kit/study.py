"""Multi-seed trend study: gated CNN fusion, frozen refiner, scale
consistency, and box-transform supervision vs a naive full-box baseline.

Per seed, four weak-phase variants and a refiner train on single-object
data; they are scored on the held-out split and on a separate two-object
dataset. `run_seed` returns one row per seed, `run_seeds` runs several in
worker processes, `verdicts` aggregates rows.
"""

import contextlib
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import RunConfig
from .pipeline import evaluate, split_dataset, train_refine, train_weak
from .synth import DatasetSpec, generate_dataset, load_dataset, save_dataset


def _dataset(root, name, spec):
    out = os.path.join(root, name)
    save_dataset(generate_dataset(spec), spec, out)
    _, samples = load_dataset(out)
    return out, samples


def run_seed(seed, root, epochs, refine_epochs):
    """Train every variant for one seed under `root`; returns the row dict."""
    train_dir, samples = _dataset(
        root,
        f"s{seed}_train",
        DatasetSpec(count=80, size=64, n_objects_min=1, n_objects_max=1, shapes=("ellipse", "fused", "annulus"), noise=0.3, seed=1000 + seed),
    )
    _, holdout = split_dataset(samples, 0.2)
    _, multi = _dataset(
        root,
        f"s{seed}_multi",
        DatasetSpec(count=24, size=64, n_objects_min=2, n_objects_max=2, shapes=("ellipse",), noise=0.3, seed=2000 + seed),
    )

    rcfg = RunConfig(
        phase="refine",
        epochs=refine_epochs,
        batch_size=4,
        learning_rate=2e-3,
        dataset_dir=train_dir,
        seed=seed,
        refine_label_fraction=0.15,
        checkpoint_out=os.path.join(root, f"s{seed}_refine.ckpt"),
    )
    train_refine(rcfg)

    def weak(**kw):
        cfg = RunConfig(phase="weak", epochs=epochs, batch_size=8, learning_rate=1e-3, dataset_dir=train_dir, seed=seed, **kw)
        return cfg, train_weak(cfg)

    # the refiner is frozen, so the full variant trains the same with it as without
    cfg_full, full = weak(refine_checkpoint=rcfg.checkpoint_out)
    cfg_enc, enc = weak(use_cnn_gate=False)
    cfg_nosc, nosc = weak(use_sc=False)
    cfg_box, fullbox = weak(supervision="fullbox")

    # each model is scored with its own config: gate-off scored gate-on blends in an untrained CNN block
    _, m_full, gap_sc = evaluate(cfg_full, full.params, holdout)
    _, m_enc, _ = evaluate(cfg_enc, enc.params, holdout)
    _, _, gap_nosc = evaluate(cfg_nosc, nosc.params, holdout)
    _, m_refined, _ = evaluate(cfg_full, full.params, holdout, use_refine=True)
    _, m_multi, _ = evaluate(cfg_full, full.params, multi)
    _, m_multi_box, _ = evaluate(cfg_box, fullbox.params, multi)
    return {
        "seed": seed,
        "dsc_full": m_full["dsc"],
        "dsc_enc": m_enc["dsc"],
        "hd95_coarse": m_full["hd95"],
        "dsc_refined": m_refined["dsc"],
        "hd95_refined": m_refined["hd95"],
        "gap_sc": gap_sc,
        "gap_nosc": gap_nosc,
        "dsc_multi_mm2b": m_multi["dsc"],
        "dsc_multi_fullbox": m_multi_box["dsc"],
    }


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _single_threaded_children():
    """Pin BLAS to one thread in processes spawned inside the block; the
    variables must be set before a worker first imports numpy."""
    saved = {name: os.environ.get(name) for name in _THREAD_VARS}
    os.environ.update({name: "1" for name in _THREAD_VARS})
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def run_seeds(seeds, root, epochs, refine_epochs):
    """Yield the row of `run_seed` for each seed, in seed order, as it is ready.

    Seeds run in min(os.cpu_count(), len(seeds)) spawned worker processes,
    each with single-threaded BLAS; with one worker they run in this process.
    A seed shares no state with another, so the rows equal a serial loop's.
    """
    seeds = list(seeds)
    job = functools.partial(run_seed, root=root, epochs=epochs, refine_epochs=refine_epochs)
    workers = min(os.cpu_count() or 1, len(seeds))
    if workers <= 1:
        yield from map(job, seeds)
        return
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        with _single_threaded_children():
            rows = pool.map(job, seeds)
        yield from rows


def format_row(row):
    return (
        f"seed {row['seed']}: dsc full {row['dsc_full']:.3f} enc {row['dsc_enc']:.3f} | "
        f"refined dsc {row['dsc_refined']:.3f} hd95 {row['hd95_refined']:.2f} (coarse {row['hd95_coarse']:.2f}) | "
        f"gap sc {row['gap_sc']:.4f} nosc {row['gap_nosc']:.4f} | "
        f"multi mm2b {row['dsc_multi_mm2b']:.3f} fullbox {row['dsc_multi_fullbox']:.3f}"
    )


def verdicts(rows):
    """Seed counts where each ablation goes the paper's way, plus the mean
    multi-object Dice margin of box-transform over full-box supervision."""
    return {
        "gate_wins": sum(r["dsc_full"] >= r["dsc_enc"] for r in rows),
        "refine_wins": sum(r["hd95_refined"] < r["hd95_coarse"] and r["dsc_refined"] >= r["dsc_full"] for r in rows),
        "sc_wins": sum(r["gap_sc"] < r["gap_nosc"] for r in rows),
        "multi_margin": float(np.mean([r["dsc_multi_mm2b"] for r in rows]) - np.mean([r["dsc_multi_fullbox"] for r in rows])),
    }
