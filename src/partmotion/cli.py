"""Command-line surface: gen, train, predict, eval, ablate.

Every command is driven by a JSON run config and is deterministic given
(config, seed); with OpenBLAS the bytes are the same at any thread count
(checked at 1-4), though the package pins one by default. Reports are plain
structured text. Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ABLATION_SWITCHES, RunConfig, load_config
from .datagen import generate_dataset, load_dataset
from .datagen.dataset import foreign_entries
from .errors import EXIT_OK, ConfigError, DataError, NumericError, exit_code_for
from .geom import MobilitySpec
from .metrics import MetricsReport
from .nets import PredictionNode, ShapePrediction
from .plyio import read_ply, write_ply
from .training import (
    EvalResult,
    check_dataset_matches,
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


def format_errors(report: MetricsReport) -> str:
    e_dist = "-" if report.e_dist is None else f"{report.e_dist:.6f}"
    return f"e_type {report.e_type:.6f} e_angle {report.e_angle:.6f} e_dist {e_dist} e_seg {report.e_seg:.6f}"


def format_metrics(result: EvalResult) -> list[str]:
    lines = ["metrics report"]
    for name, report in (("model", result.report), ("mobfit", result.fit_report)):
        lines.append(f"{name} {format_errors(report)} parts {report.n_parts} shapes {report.n_shapes}")
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
        if foreign := foreign_entries(out):
            raise DataError(f"{out} holds {foreign[:3]}, which gen does not write; --force replaces only a dataset")
        shutil.rmtree(out)
    manifest = generate_dataset(
        out,
        categories=config.categories,
        shapes_per_category=config.shapes_per_category,
        n_points=config.n_points,
        n_frames=config.n_frames,
        seed=config.seed,
    )
    config.save(out / "config.json")
    n_shapes = len(manifest["shapes"])
    print(f"wrote {n_shapes} shapes ({n_shapes * config.n_frames} instances) to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = load_config(args.config)
    dataset = Path(args.dataset or config.dataset_dir)
    out = Path(args.out or config.out_dir)
    records = load_dataset(dataset, split="train")
    run_training(config, records, out_dir=out, log=print if args.verbose else None)
    print(f"checkpoint written to {out}")
    return EXIT_OK


def _load_input_points(path: Path, config: RunConfig) -> tuple[np.ndarray, bool]:
    points, _ = read_ply(path)
    if points.shape[0] == 0:
        raise DataError(f"{path}: no points to predict on")
    if points.shape[0] == config.n_points:
        return points, False
    # off-size input: resample it to the configured point count
    rng = np.random.default_rng(config.seed)
    n = points.shape[0]
    idx = np.sort(rng.choice(n, size=config.n_points, replace=n < config.n_points))
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
    node = pipeline.predict_tree(points, max(args.recursive, 1))
    pred = node.prediction
    if args.recursive > 1:
        lines += format_tree(node, config.theta_stop)
    else:
        lines += format_prediction(pred, config.theta_stop)
    cloud = points.copy()
    for t in range(pred.maps.shape[0]):
        cloud = cloud + pred.maps[t]
        write_ply(out / f"pred_{t + 1:03d}.ply", cloud, pred.labels)
    report = out / "report.txt"
    report.write_text("".join(line + "\n" for line in lines))
    print("\n".join(lines))
    print(f"report and {pred.maps.shape[0]} frames written to {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    pipeline = None if args.oracle else load_pipeline(args.run)
    records = load_dataset(Path(args.dataset or pipeline.config.dataset_dir), split=args.split)
    result = evaluate_oracle(records) if pipeline is None else evaluate_model(records, pipeline)
    text = "".join(line + "\n" for line in format_metrics(result))
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return EXIT_OK


def cmd_ablate(args) -> int:
    base = load_config(args.config)
    if base.ablation_tags:
        raise ConfigError("ablation base config must have all switches off")
    for row in args.rows:
        if row != "full" and row not in ABLATION_SWITCHES:
            raise ConfigError(f"unknown ablation row {row!r}")
    dataset = Path(args.dataset or base.dataset_dir)
    train_records = load_dataset(dataset, split="train")
    test_records = load_dataset(dataset, split="test")
    check_dataset_matches(base, test_records)
    # plans depend only on geometry, so all rows share one prepared pass
    instances = prepare_instances(train_records, base)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = ["ablation table"]
    for row in args.rows:
        config = base if row == "full" else dataclasses.replace(base, **{row: True})
        pipeline = run_training(config, train_records, out_dir=out / row, instances=instances)
        result = evaluate_model(test_records, pipeline)
        table.append(f"row {row} {format_errors(result.report)}")
        print(table[-1])
    (out / "table.txt").write_text("".join(line + "\n" for line in table))
    print(f"table written to {out / 'table.txt'}")
    return EXIT_OK


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
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train the configured model", description=(
        "Train the configured model. The bytes it writes depend on the config and its seed; with OpenBLAS they "
        "are the same at any thread count (checked at 1-4). BLAS runs 1 thread unless OPENBLAS_NUM_THREADS, "
        "OMP_NUM_THREADS or MKL_NUM_THREADS sets another."))
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
    p.add_argument("--rows", nargs="+", default=list(DEFAULT_ABLATION_ROWS),
                   help=f"rows to run (default: {' '.join(DEFAULT_ABLATION_ROWS)})")
    p.set_defaults(fn=cmd_ablate)
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
    except (ConfigError, DataError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
