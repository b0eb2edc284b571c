"""Command-line surface: gen, train, predict, eval, ablate, export.

Every command is driven by a JSON run config and is deterministic given
(config, seed). Reports are plain structured text. Exit codes: 0 success,
2 config error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ABLATION_SWITCHES, RunConfig, load_config
from .datagen import TEMPLATE_NAMES, generate_dataset, generate_shape, load_dataset, make_sequence
from .errors import ConfigError, DataError, NumericError, exit_code_for
from .geom import MobilitySpec
from .nets import PredictionNode, ShapePrediction, recursive_predict
from .plyio import read_ply, write_ply
from .training import (
    EvalResult,
    evaluate_model,
    evaluate_oracle,
    load_pipeline,
    prepare_instances,
    run_training,
)

DEFAULT_ABLATION_ROWS = ("full", "no_rnn", "no_disp", "no_seg", "no_mob_net", "no_p0")


# ---------------------------------------------------------------------------
# report formatting


def _fmt_vec(v: Optional[np.ndarray]) -> str:
    if v is None:
        return "-"
    return ",".join(f"{x:.6f}" for x in np.asarray(v, dtype=float))


def format_spec(spec: Optional[MobilitySpec]) -> str:
    if spec is None:
        return "none"
    parts = [
        f"type {spec.tau}",
        f"direction {_fmt_vec(spec.direction)}",
        f"position {_fmt_vec(spec.position)}",
        f"range {spec.range_[0]:.6f},{spec.range_[1]:.6f}",
    ]
    if spec.slide_range is not None:
        parts.append(f"slide {spec.slide_range[0]:.6f},{spec.slide_range[1]:.6f}")
    return " ".join(parts)


def format_prediction(pred: ShapePrediction, theta_stop: float, indent: str = "") -> list[str]:
    steps = np.linalg.norm(pred.maps, axis=2).mean(axis=1)
    n_ref = int(np.sum(pred.labels == 0))
    lines = [
        f"{indent}points {pred.labels.size}",
        f"{indent}mean_step {pred.mean_step:.6f}",
        f"{indent}motion_complete {str(pred.mean_step < theta_stop).lower()}",
        f"{indent}step_magnitudes " + " ".join(f"{s:.6f}" for s in steps),
        f"{indent}segmentation reference {n_ref} moving_parts {len(pred.mobilities)}",
    ]
    for part in sorted(pred.mobilities):
        size = int(np.sum(pred.labels == part))
        conf = pred.confidences.get(part)
        conf_text = "-" if conf is None else f"{conf:.4f}"
        lines.append(f"{indent}part {part} size {size} confidence {conf_text}")
        lines.append(f"{indent}part {part} mobility {format_spec(pred.mobilities[part])}")
        lines.append(f"{indent}part {part} mobfit {format_spec(pred.fits.get(part))}")
    return lines


def format_tree(node: PredictionNode, theta_stop: float, level: int = 1) -> list[str]:
    indent = "  " * (level - 1)
    lines = [f"{indent}node level {level} points {node.indices.size}"]
    lines += format_prediction(node.prediction, theta_stop, indent)
    for child in node.children:
        lines += format_tree(child, theta_stop, level + 1)
    return lines


def format_metrics(result: EvalResult) -> list[str]:
    lines = ["metrics report"]
    for name, report in (("model", result.report), ("mobfit", result.fit_report)):
        r = report.as_dict()
        e_dist = "-" if r["e_dist"] is None else f"{r['e_dist']:.6f}"
        lines.append(
            f"{name} e_type {r['e_type']:.6f} e_angle {r['e_angle']:.6f} "
            f"e_dist {e_dist} e_seg {r['e_seg']:.6f} "
            f"parts {r['n_parts']} shapes {r['n_shapes']}"
        )
    for shape in result.shapes:
        ious = " ".join(f"{iou:.3f}" for _, iou in shape.ap_record.matched) or "-"
        lines.append(f"shape {shape.shape_id} gt_parts {shape.ap_record.n_gt} pred_iou {ious}")
    return lines


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    config = load_config(args.config)
    out = Path(args.out or config.dataset_dir)
    if out.exists() and any(out.iterdir()):
        if not args.force:
            raise DataError(f"{out} already exists; pass --force to regenerate")
        shutil.rmtree(out)
    manifest = generate_dataset(
        out,
        categories=config.categories,
        shapes_per_category=config.shapes_per_category,
        n_points=config.n_points,
        n_frames=config.n_frames,
        seed=config.seed,
        scan_sigma=config.scan_sigma,
        scan_fraction=config.scan_fraction,
        workers=args.workers,
    )
    config.echo_into(out)
    n_shapes = len(manifest["shapes"])
    print(f"wrote {n_shapes} shapes ({n_shapes * config.n_frames} instances) to {out}")
    return 0


def _check_dataset_matches(config: RunConfig, dataset: Path) -> None:
    manifest_path = dataset / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"no manifest.json under {dataset}")
    manifest = json.loads(manifest_path.read_text())
    for key, value in (("n_points", config.n_points), ("n_frames", config.n_frames)):
        if manifest.get(key) != value:
            raise DataError(
                f"dataset {key}={manifest.get(key)} does not match config {key}={value}"
            )


def cmd_train(args) -> int:
    config = load_config(args.config)
    dataset = Path(args.dataset or config.dataset_dir)
    out = Path(args.out or config.out_dir)
    _check_dataset_matches(config, dataset)
    records = load_dataset(dataset, split="train")
    run_training(config, records, out_dir=out, log=print if args.verbose else None)
    print(f"checkpoint written to {out}")
    return 0


def _load_input_points(path: Path, config: RunConfig) -> tuple[np.ndarray, bool]:
    points, _ = read_ply(path)
    if points.shape[0] == 0:
        raise DataError(f"{path}: no points to predict on")
    if points.shape[0] == config.n_points:
        return points, False
    # off-size input: resample it to the configured point count
    rng = np.random.default_rng(config.seed)
    n = points.shape[0]
    if n >= config.n_points:
        idx = np.sort(rng.choice(n, size=config.n_points, replace=False))
    else:
        idx = np.sort(rng.choice(n, size=config.n_points, replace=True))
    return points[idx], True


def cmd_predict(args) -> int:
    if args.recursive < 0:
        raise ConfigError(f"--recursive must be a depth of at least 0, got {args.recursive}")
    pipeline = load_pipeline(args.run)
    config = pipeline.config
    points, resampled = _load_input_points(Path(args.input), config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["prediction report", f"input {args.input}", f"resampled {str(resampled).lower()}"]
    if args.recursive > 1:
        node = recursive_predict(
            points, pipeline.predict, depth=args.recursive, stop_threshold=config.theta_stop
        )
        lines += format_tree(node, config.theta_stop)
        pred = node.prediction
    else:
        pred = pipeline.predict(points)
        lines += format_prediction(pred, config.theta_stop)
    cloud = points.copy()
    for t in range(pred.maps.shape[0]):
        cloud = cloud + pred.maps[t]
        write_ply(out / f"pred_{t + 1:03d}.ply", cloud, pred.labels)
    report = out / "report.txt"
    report.write_text("".join(line + "\n" for line in lines))
    print("\n".join(lines))
    print(f"report and {pred.maps.shape[0]} frames written to {out}")
    return 0


def cmd_eval(args) -> int:
    records = None
    if args.oracle:
        dataset = Path(args.dataset)
        records = load_dataset(dataset, split=args.split)
        result = evaluate_oracle(records)
    else:
        pipeline = load_pipeline(args.run)
        dataset = Path(args.dataset or pipeline.config.dataset_dir)
        records = load_dataset(dataset, split=args.split)
        result = evaluate_model(records, pipeline)
    lines = format_metrics(result)
    text = "".join(line + "\n" for line in lines)
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def cmd_ablate(args) -> int:
    base = load_config(args.config)
    if base.ablation_tags:
        raise ConfigError("ablation base config must have all switches off")
    rows = args.rows or list(DEFAULT_ABLATION_ROWS)
    for row in rows:
        if row != "full" and row not in ABLATION_SWITCHES:
            raise ConfigError(f"unknown ablation row {row!r}")
    dataset = Path(args.dataset or base.dataset_dir)
    _check_dataset_matches(base, dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_records = load_dataset(dataset, split="train")
    test_records = load_dataset(dataset, split="test")
    # plans depend only on geometry, so all rows share one prepared pass
    instances = prepare_instances(train_records, base)
    table = ["ablation table"]
    for row in rows:
        config = base if row == "full" else base.replaced(**{row: True})
        pipeline = run_training(config, train_records, out_dir=out / row, instances=instances)
        result = evaluate_model(test_records, pipeline)
        r = result.report.as_dict()
        e_dist = "-" if r["e_dist"] is None else f"{r['e_dist']:.6f}"
        table.append(
            f"row {row} e_type {r['e_type']:.6f} e_angle {r['e_angle']:.6f} "
            f"e_dist {e_dist} e_seg {r['e_seg']:.6f}"
        )
        print(table[-1])
    (out / "table.txt").write_text("".join(line + "\n" for line in table))
    print(f"table written to {out / 'table.txt'}")
    return 0


def cmd_export(args) -> int:
    dataset = Path(args.dataset)
    shape_dir = dataset / args.shape
    meta_path = shape_dir / "shape.json"
    if not meta_path.exists():
        raise DataError(f"no shape {args.shape!r} under {dataset}")
    try:
        meta = json.loads(meta_path.read_text())
        seed_path, category, n_frames = meta["seed_path"], meta["category"], meta["n_frames"]
        if (type(seed_path) is not list or not all(type(s) is int and s >= 0 for s in seed_path)
                or category not in TEMPLATE_NAMES or type(n_frames) is not int or n_frames < 1):
            raise ValueError(
                f"need a list of non-negative ints seed_path, a known category and a positive int n_frames, "
                f"got {seed_path!r}, {category!r}, {n_frames!r}"
            )
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise DataError(f"{meta_path}: malformed shape.json ({exc!r})") from exc
    # same seed path, denser sampling: templates draw all shape parameters
    # before any point sampling, so the geometry matches the stored shape
    sample = generate_shape(category, np.random.default_rng(seed_path), args.points)
    seq = make_sequence(sample, n_frames)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k in range(seq.n_frames):
        write_ply(out / f"frame_{k + 1:02d}.ply", seq.frames[k], seq.labels)
    print(f"wrote {seq.n_frames} frames of {args.shape} at {args.points} points to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partmotion",
        description="Motion hallucination and part-mobility prediction for point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate the synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory (default: config dataset_dir)")
    p.add_argument("--force", action="store_true", help="replace an existing dataset")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train the configured model")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", default=None)
    p.add_argument("--out", default=None, help="run directory (default: config out_dir)")
    p.add_argument("--verbose", action="store_true", help="stream loss log lines")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="predict motion for one input cloud")
    p.add_argument("--run", required=True, help="run directory with checkpoints")
    p.add_argument("--input", required=True, help="input PLY")
    p.add_argument("--out", required=True)
    p.add_argument("--recursive", type=int, default=0, metavar="DEPTH")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("eval", help="score a checkpoint on a test split")
    p.add_argument("--run", default=None, help="run directory (omit with --oracle)")
    p.add_argument("--dataset", default=None)
    p.add_argument("--split", default="test")
    p.add_argument("--oracle", action="store_true",
                   help="feed ground truth as predictions (identity check)")
    p.add_argument("--out", default=None, help="also write the report to this file")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train and score a row of ablations")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--rows", nargs="*", default=None,
                   help=f"rows to run (default: {' '.join(DEFAULT_ABLATION_ROWS)})")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("export", help="re-render a dataset shape at a new point count")
    p.add_argument("--dataset", required=True)
    p.add_argument("--shape", required=True, help="shape id, e.g. laptop_003")
    p.add_argument("--points", type=int, default=2048)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval" and not args.oracle and not args.run:
        parser.error("eval requires --run unless --oracle is set")
    if args.command == "eval" and args.oracle and not args.dataset:
        parser.error("eval --oracle requires --dataset")
    try:
        return args.fn(args)
    except (ConfigError, DataError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
