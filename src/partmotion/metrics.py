"""Evaluation metrics for predicted segmentation and mobility.

Mobility errors are sign-free: the angle error folds opposite axes
together and the position error measures how far the true axis point sits
from the predicted axis line, clipped at 1. Position error only applies
when both sides have a rotational component. Unmatched or unfitted ground
truth parts score worst case.

Segmentation quality is pooled average precision over a whole test set at
IoU thresholds 0.50..0.95 in steps of 0.05. Walking the thresholds from
0.95 down, each adds (its recall - the next lower threshold's recall) times
its precision; below 0.50 the recall counts as 0. Where IoUs tie, the
predicted or ground truth part with the lowest id wins.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .geom import TYPE_T, MobilitySpec, unit

ANGLE_WORST = float(np.pi / 2.0)
DIST_WORST = 1.0
AP_THRESHOLDS = tuple(0.50 + 0.05 * i for i in range(10))


def angle_error(d_pred: np.ndarray, d_gt: np.ndarray) -> float:
    """Angle between axis lines in radians, in [0, pi/2]."""
    dot = abs(float(np.dot(unit(np.asarray(d_pred, float)), unit(np.asarray(d_gt, float)))))
    return float(np.arccos(np.clip(dot, -1.0, 1.0)))


def position_error(x_pred: np.ndarray, d_pred: np.ndarray, x_gt: np.ndarray) -> float:
    """Distance from the true axis point to the predicted axis line, max 1."""
    d = unit(np.asarray(d_pred, dtype=np.float64))
    rel = np.asarray(x_gt, dtype=np.float64) - np.asarray(x_pred, dtype=np.float64)
    perp = rel - np.dot(rel, d) * d
    return float(min(np.linalg.norm(perp), DIST_WORST))


@dataclass
class MobilityEval:
    e_type: float
    e_angle: float
    e_dist: Optional[float]    # None when either side is a pure translation


def evaluate_mobility(pred: Optional[MobilitySpec], gt: MobilitySpec) -> MobilityEval:
    if pred is None:
        return MobilityEval(1.0, ANGLE_WORST, DIST_WORST if gt.tau != TYPE_T else None)
    e_dist = None
    if gt.tau != TYPE_T and pred.tau != TYPE_T:
        e_dist = position_error(pred.position, pred.direction, gt.position)
    return MobilityEval(
        float(pred.tau != gt.tau),
        angle_error(pred.direction, gt.direction),
        e_dist,
    )


# ---------------------------------------------------------------------------
# segmentation


def iou_table(pred_labels: np.ndarray, gt_labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moving part ids of each side and their (predicted, ground truth) IoUs."""
    pred_labels = np.asarray(pred_labels)
    gt_labels = np.asarray(gt_labels)
    if pred_labels.shape != gt_labels.shape:
        raise ConfigError("label arrays must align")
    pred_ids, pred_inv = np.unique(pred_labels, return_inverse=True)
    gt_ids, gt_inv = np.unique(gt_labels, return_inverse=True)
    shared = np.bincount(
        pred_inv.ravel() * gt_ids.size + gt_inv.ravel(), minlength=pred_ids.size * gt_ids.size
    ).reshape(pred_ids.size, gt_ids.size)
    union = shared.sum(axis=1)[:, None] + shared.sum(axis=0)[None, :] - shared
    moving_pred, moving_gt = pred_ids != 0, gt_ids != 0
    table = (shared / union)[moving_pred][:, moving_gt]
    return pred_ids[moving_pred], gt_ids[moving_gt], table


@dataclass
class PartMatch:
    gt_part: int
    pred_part: Optional[int]
    iou: float


def match_moving_parts(pred_labels: np.ndarray, gt_labels: np.ndarray) -> list[PartMatch]:
    """Best-IoU predicted part for every ground truth moving part."""
    pred_ids, gt_ids, table = iou_table(pred_labels, gt_labels)
    matches = []
    for g, column in zip(gt_ids.tolist(), table.T):
        best = max(range(column.size), key=column.__getitem__, default=None)
        value = 0.0 if best is None else float(column[best])
        matches.append(PartMatch(g, int(pred_ids[best]) if value > 0.0 else None, value))
    return matches


def cluster_confidence(dist_submatrix: np.ndarray) -> float:
    """Feature-compactness confidence: 1 / (1 + mean pairwise distance)."""
    d = np.asarray(dist_submatrix, dtype=np.float64)
    n = d.shape[0]
    if n <= 1:
        return 1.0
    # past the first entry, each run of n + 1 entries ends on a diagonal entry
    off = d.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].ravel()
    return float(1.0 / (1.0 + off.mean()))


@dataclass
class ShapeAPRecord:
    """Per-shape AP input: one (confidence, iou) per predicted part.

    Matching is one-to-one, so at most n_gt entries may carry a positive
    IoU; every extra prediction must appear with IoU 0.
    """

    matched: list[tuple[float, float]]
    n_gt: int

    def __post_init__(self) -> None:
        if self.n_gt < 0:
            raise ConfigError("n_gt must be nonnegative")
        positives = sum(1 for _, iou_val in self.matched if iou_val > 0.0)
        if positives > self.n_gt:
            raise ConfigError(
                f"{positives} positive-IoU matches exceed {self.n_gt} ground truth parts"
            )


def prediction_matches(
    pred_labels: np.ndarray, gt_labels: np.ndarray, confidences: dict[int, float]
) -> ShapeAPRecord:
    """Greedy one-to-one matching of predicted parts against gt parts.

    Predictions claim ground truth parts in decreasing confidence order,
    each taking the unclaimed part with the highest IoU; leftovers score 0.
    """
    pred_ids, gt_ids, table = iou_table(pred_labels, gt_labels)
    free = list(range(gt_ids.size))
    matched = []
    for p, row in sorted(zip(pred_ids.tolist(), table), key=lambda pr: (-confidences[pr[0]], pr[0])):
        best = max(free, key=row.__getitem__, default=None)
        value = 0.0 if best is None else float(row[best])
        if value > 0.0:
            free.remove(best)
        matched.append((float(confidences[p]), value))
    return ShapeAPRecord(matched, len(gt_ids))


def pooled_average_precision(records: Sequence[ShapeAPRecord]) -> float:
    if not records:
        raise ConfigError("cannot pool average precision over an empty test set")
    preds = [pair for rec in records for pair in rec.matched]
    n_gt = sum(rec.n_gt for rec in records)
    steps = []  # (precision, recall) from the highest threshold down
    for thr in reversed(AP_THRESHOLDS):
        tp = sum(1 for _, value in preds if value >= thr)
        steps.append((tp / len(preds) if preds else 0.0, tp / n_gt if n_gt else 0.0))
    lower_recalls = [recall for _, recall in steps[1:]] + [0.0]
    return float(sum((recall - lower) * precision for (precision, recall), lower in zip(steps, lower_recalls)))


# ---------------------------------------------------------------------------
# whole-set summary


@dataclass
class MetricsReport:
    e_type: float
    e_angle: float
    e_dist: Optional[float]
    e_seg: float
    n_parts: int
    n_shapes: int


def summarize(
    mobility_evals: Sequence[MobilityEval], ap_records: Sequence[ShapeAPRecord]
) -> MetricsReport:
    """Average mobility errors over parts, pool segmentation over shapes."""
    dists = [e.e_dist for e in mobility_evals if e.e_dist is not None]
    return MetricsReport(
        e_type=float(np.mean([e.e_type for e in mobility_evals])) if mobility_evals else 0.0,
        e_angle=float(np.mean([e.e_angle for e in mobility_evals])) if mobility_evals else 0.0,
        e_dist=float(np.mean(dists)) if dists else None,
        e_seg=1.0 - pooled_average_precision(ap_records),
        n_parts=len(mobility_evals),
        n_shapes=len(ap_records),
    )
