"""Evaluation metrics for predicted segmentation and mobility.

Mobility errors are sign-free: the angle error folds opposite axes
together and the position error measures how far the true axis point sits
from the predicted axis line, clipped at 1. Position error only applies
when both sides have a rotational component. Unmatched or unfitted ground
truth parts score worst case.

Segmentation quality is pooled average precision over a whole test set at
IoU thresholds 0.50..0.95 in steps of 0.05: pair k of the sum uses the
threshold with index 11-k from that ascending grid and pair 11 is pinned
at precision 1, recall 0. Pooling means precision and recall stay
proportional, so this pairing and the usual area reading coincide.
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


def type_error(tau_pred: str, tau_gt: str) -> int:
    return int(tau_pred != tau_gt)


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
        float(type_error(pred.tau, gt.tau)),
        angle_error(pred.direction, gt.direction),
        e_dist,
    )


# ---------------------------------------------------------------------------
# segmentation


def iou(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    union = np.logical_or(mask_a, mask_b).sum()
    if union == 0:
        return 0.0
    return float(np.logical_and(mask_a, mask_b).sum() / union)


@dataclass
class PartMatch:
    gt_part: int
    pred_part: Optional[int]
    iou: float


def match_moving_parts(pred_labels: np.ndarray, gt_labels: np.ndarray) -> list[PartMatch]:
    """Best-IoU predicted part for every ground truth moving part."""
    pred_labels = np.asarray(pred_labels)
    gt_labels = np.asarray(gt_labels)
    if pred_labels.shape != gt_labels.shape:
        raise ConfigError("label arrays must align")
    matches = []
    pred_parts = [p for p in np.unique(pred_labels) if p != 0]
    for g in np.unique(gt_labels):
        if g == 0:
            continue
        gt_mask = gt_labels == g
        best_part, best_iou = None, 0.0
        for p in pred_parts:
            value = iou(pred_labels == p, gt_mask)
            if value > best_iou:
                best_part, best_iou = int(p), value
        matches.append(PartMatch(int(g), best_part, best_iou))
    return matches


def cluster_confidence(dist_submatrix: np.ndarray) -> float:
    """Feature-compactness confidence: 1 / (1 + mean pairwise distance)."""
    d = np.asarray(dist_submatrix, dtype=np.float64)
    n = d.shape[0]
    if n <= 1:
        return 1.0
    off = d[~np.eye(n, dtype=bool)]
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
    pred_labels: np.ndarray,
    gt_labels: np.ndarray,
    confidences: Optional[dict[int, float]] = None,
) -> ShapeAPRecord:
    """Greedy one-to-one matching of predicted parts against gt parts.

    Predictions claim ground truth parts in decreasing confidence order,
    each taking the unclaimed part with the highest IoU; leftovers score 0.
    """
    pred_labels = np.asarray(pred_labels)
    gt_labels = np.asarray(gt_labels)
    pred_parts = [int(p) for p in np.unique(pred_labels) if p != 0]
    gt_parts = [int(g) for g in np.unique(gt_labels) if g != 0]
    if confidences is None:
        confidences = {p: 1.0 for p in pred_parts}
    order = sorted(pred_parts, key=lambda p: (-confidences[p], p))
    free = set(gt_parts)
    matched = []
    for p in order:
        best_g, best_iou = None, 0.0
        for g in free:
            value = iou(pred_labels == p, gt_labels == g)
            if value > best_iou:
                best_g, best_iou = g, value
        if best_g is not None:
            free.discard(best_g)
        matched.append((float(confidences[p]), best_iou))
    return ShapeAPRecord(matched, len(gt_parts))


def pooled_average_precision(records: Sequence[ShapeAPRecord]) -> float:
    if not records:
        raise ConfigError("cannot pool average precision over an empty test set")
    preds = [pair for rec in records for pair in rec.matched]
    n_gt = sum(rec.n_gt for rec in records)
    pr = {}
    for k in range(1, 11):
        thr = AP_THRESHOLDS[(11 - k) - 1]
        tp = sum(1 for _, value in preds if value >= thr)
        precision = tp / len(preds) if preds else 0.0
        recall = tp / n_gt if n_gt else 0.0
        pr[k] = (precision, recall)
    pr[11] = (1.0, 0.0)
    return float(sum((pr[k][1] - pr[k + 1][1]) * pr[k][0] for k in range(1, 11)))


def segmentation_error(records: Sequence[ShapeAPRecord]) -> float:
    return 1.0 - pooled_average_precision(records)


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
        e_seg=segmentation_error(ap_records),
        n_parts=len(mobility_evals),
        n_shapes=len(ap_records),
    )
