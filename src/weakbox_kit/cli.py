"""Command-line entry points.

Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric failure.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .boxes import EmptyMaskError, box_coords, mask_to_box
from .checkpoint import CheckpointError
from .config import load_run_config
from .gradcheck import run_gradcheck
from .kvcfg import from_kv, parse_kv_file
from .pgm import PgmError, read_pgm, write_pgm
from .pipeline import NumericError, evaluate, has_refine, load_model, net_config, predict_batch, split_dataset, train_refine, train_weak
from .reports import write_metrics_report
from .synth import DatasetSpec, generate_dataset, load_dataset, save_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser():
    p = _Parser(prog="weakbox-kit", description="Box-supervised binary segmentation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("synth-gen", help="generate a synthetic dataset directory")
    g.add_argument("--config", required=True, help="dataset spec (key = value)")
    g.add_argument("--out", required=True, help="output dataset directory")
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(run=_cmd_synth_gen)

    m = sub.add_parser("mm2b", help="mask-to-box transform of one mask file")
    m.add_argument("--in", dest="mask_in", required=True, help="input mask (PGM)")
    m.add_argument("--out", dest="mask_out", required=True, help="output box mask (PGM)")
    m.add_argument("--coords", required=True, help="output coords (JSON)")
    m.set_defaults(run=_cmd_mm2b)

    for phase in ("refine", "weak"):
        t = sub.add_parser(f"train-{phase}", help=f"train {phase} phase")
        t.add_argument("--config", required=True)
        t.add_argument("--seed", type=int, default=None)
        t.add_argument("--out", default=None, help="directory for the output checkpoint")
        t.set_defaults(run=_cmd_train, phase=phase)

    i = sub.add_parser("infer", help="predict masks for image files")
    i.add_argument("--config", required=True)
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--images", nargs="+", required=True)
    i.add_argument("--out", required=True)
    i.set_defaults(run=_cmd_infer)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--config", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--out", required=True, help="directory for the metrics report")
    e.add_argument("--split", choices=("all", "train", "holdout"), default="all")
    e.add_argument("--refined", action="store_true", help="evaluate the refined output")
    e.add_argument("--format", dest="fmt", choices=("csv", "jsonl"), default="csv")
    e.set_defaults(run=_cmd_eval)

    c = sub.add_parser("gradcheck", help="finite-difference check of all primitives and losses")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--instances", type=int, default=20)
    c.set_defaults(run=_cmd_gradcheck)
    return p


def _coords_payload(coords):
    return None if coords is None else dataclasses.asdict(coords)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(obj, sort_keys=True))
        f.write("\n")


def _cmd_synth_gen(args):
    spec = from_kv(DatasetSpec, parse_kv_file(args.config), "dataset spec")
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    samples = generate_dataset(spec)
    save_dataset(samples, spec, args.out)
    print(f"wrote {spec.count} samples to {args.out}")
    return EXIT_OK


def _cmd_mm2b(args):
    mask = read_pgm(args.mask_in)
    box, status = mask_to_box(mask)
    write_pgm(args.mask_out, box)
    payload = _coords_payload(box_coords(box))
    payload["status"] = status.status.value
    payload["centroid"] = list(status.centroid)
    _write_json(args.coords, payload)
    print(f"{args.mask_in}: {status.status.value} path, box {payload['row_min']},{payload['col_min']}..{payload['row_max']},{payload['col_max']}")
    return EXIT_OK


def _cmd_train(args):
    overrides = {"phase": args.phase}
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = load_run_config(args.config, overrides)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        if not cfg.checkpoint_out:
            cfg.checkpoint_out = os.path.join(args.out, f"{args.phase}.ckpt")
    result = train_refine(cfg) if args.phase == "refine" else train_weak(cfg)
    for epoch, value in enumerate(result.epoch_losses):
        print(f"epoch {epoch:3d}  loss {value:.6f}")
    if result.checkpoint_path:
        print(f"checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _cmd_infer(args):
    cfg = load_run_config(args.config, {})
    params = load_model(args.checkpoint, cfg)
    use_refine = has_refine(params)
    os.makedirs(args.out, exist_ok=True)
    ncfg = net_config(cfg)
    for path in args.images:
        image = read_pgm(path)
        stem = os.path.splitext(os.path.basename(path))[0]
        batch = image[None, None].astype(np.float32)
        coarse, refined, prompts, _ = predict_batch(params, batch, cfg, ncfg, use_refine)
        write_pgm(os.path.join(args.out, f"{stem}_coarse.pgm"), coarse[0, 0])
        if refined is not None:
            write_pgm(os.path.join(args.out, f"{stem}_refined.pgm"), refined[0, 0])
        _write_json(os.path.join(args.out, f"{stem}_coords.json"), {"prompt": _coords_payload(prompts[0])})
        print(f"{path} -> {stem}_coarse.pgm" + (f", {stem}_refined.pgm" if refined is not None else ""))
    return EXIT_OK


def _cmd_eval(args):
    cfg = load_run_config(args.config, {})
    params = load_model(args.checkpoint, cfg)
    _, samples = load_dataset(cfg.dataset_dir)
    base = 0
    if args.split != "all":
        train_part, holdout = split_dataset(samples, cfg.holdout_fraction)
        if args.split == "holdout":
            base = len(train_part)
            samples = holdout
        else:
            samples = train_part
    ids = list(range(base, base + len(samples)))
    rows, means, gap = evaluate(cfg, params, samples, use_refine=args.refined, sample_ids=ids)
    os.makedirs(args.out, exist_ok=True)
    report = os.path.join(args.out, f"metrics.{args.fmt}")
    write_metrics_report(rows, report, args.fmt)
    print(f"report: {report}")
    for name, value in means.items():
        print(f"mean {name}: {value:.6f}")
    print(f"mean in-box scale gap: {gap:.6f}")
    return EXIT_OK


def _cmd_gradcheck(args):
    results = run_gradcheck(seed=args.seed, instances=args.instances)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name:24s} max_rel_err {r.max_err:.3e}  ({r.instances} instances)")
    failed = [r.name for r in results if not r.ok]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return EXIT_NUMERIC
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PgmError, CheckpointError, EmptyMaskError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
