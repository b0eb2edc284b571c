"""Training objectives for motion hallucination and mobility regression.

All losses are differentiable scalars built from diffcore ops. Nearest
neighbor matching inside the moving-part shape term is computed on values
and treated as a fixed correspondence; gradients flow through the matched
distances. Sums run over points where the objective is a per-point sum,
and cross entropies are means over points.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import Node
from .errors import ConfigError

__all__ = [
    "LossWeights",
    "LossBreakdown",
    "l_ref",
    "l_mov",
    "l_disp",
    "l_mot",
    "l_seg_obj",
    "l_seg_mov",
    "l_mob",
    "total_motion_loss",
    "baseline_loss",
]


@dataclass
class LossWeights:
    """Weights and constants of the combined objective."""

    w_ref: float = 10.0
    w_mov: float = 5.0
    w_seg_obj: float = 2.0
    w_seg_mov: float = 0.2
    margin: float = 80.0
    k_density: int = 8
    include_padded_motion: bool = False


@dataclass
class LossBreakdown:
    """Total loss node plus per-term values for logging."""

    total: Node
    terms: dict = field(default_factory=dict)


def _abs(x: Node) -> Node:
    return dc.add(dc.relu(x), dc.relu(dc.neg(x)))


def l_ref(cloud: Node, origin: np.ndarray, ref_idx: np.ndarray) -> Node:
    """Reference points must stay put: sum of distances to their frame-0 positions."""
    ref_idx = np.asarray(ref_idx, dtype=np.int64)
    if ref_idx.size == 0:
        return dc.constant(0.0)
    diff = dc.sub(dc.gather_rows(cloud, ref_idx), np.asarray(origin)[ref_idx])
    return dc.reduce_sum(dc.l2_norm_rows(diff))


def _neighbor_distances(points: np.ndarray) -> np.ndarray:
    """Pairwise distances within one set, infinite on the diagonal."""
    d = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    return d


def knn_radii(points: np.ndarray, k: int) -> np.ndarray:
    """Mean distance of each point to its k nearest neighbors."""
    return np.sort(_neighbor_distances(points), axis=1)[:, :k].mean(axis=1)


def l_mov(pred: Node, gt: np.ndarray, k_density: int = 8) -> Node:
    """Moving-part resemblance: symmetric Chamfer plus a local density term.

    pred holds the predicted moving points, gt the ground-truth moving
    points of the same frame. The density term compares each predicted
    point's mean k-NN radius with that of its matched ground-truth point
    and is skipped when either set is smaller than k + 1.
    """
    gt = np.asarray(gt, dtype=np.float64)
    pv = pred.value
    if pv.ndim != 2 or pv.shape[1] != 3 or gt.ndim != 2 or gt.shape[1] != 3:
        raise ConfigError("l_mov expects (N, 3) point sets")
    if pv.shape[0] == 0 or gt.shape[0] == 0:
        return dc.constant(0.0)
    cross = np.linalg.norm(pv[:, None] - gt[None, :], axis=2)
    nearest_gt = np.argmin(cross, axis=1)
    nearest_pred = np.argmin(cross, axis=0)
    fwd = dc.l2_norm_rows(dc.sub(pred, gt[nearest_gt]))
    bwd = dc.l2_norm_rows(dc.sub(dc.gather_rows(pred, nearest_pred), gt))
    pooled = dc.concat([fwd, bwd], axis=0)
    shape_term = dc.reduce_mean(pooled)
    k = int(k_density)
    if pv.shape[0] <= k or gt.shape[0] <= k:
        return shape_term
    nbr = np.argsort(_neighbor_distances(pv), axis=1)[:, :k]
    n = pv.shape[0]
    anchors = np.repeat(np.arange(n), k)
    diffs = dc.sub(dc.gather_rows(pred, anchors), dc.gather_rows(pred, nbr.ravel()))
    radii = dc.reduce_mean(dc.reshape(dc.l2_norm_rows(diffs), (n, k)), axis=1)
    gt_radii = knn_radii(gt, k)[nearest_gt]
    density_term = dc.reduce_mean(_abs(dc.sub(radii, gt_radii)))
    return dc.add(shape_term, density_term)


def l_disp(disp: Node, gt_disp: np.ndarray, mov_idx: np.ndarray) -> Node:
    """Per-point displacement supervision summed over moving points."""
    mov_idx = np.asarray(mov_idx, dtype=np.int64)
    if mov_idx.size == 0:
        return dc.constant(0.0)
    diff = dc.sub(dc.gather_rows(disp, mov_idx), np.asarray(gt_disp)[mov_idx])
    return dc.reduce_sum(dc.l2_norm_rows(diff))


def l_mot(maps: Sequence[Node], mov_idx: np.ndarray, n_true: int) -> Node:
    """Rigidity proxy: variance over frames of each moving point's step length.

    Only the first n_true maps (the non-padded prefix) enter the variance.
    """
    mov_idx = np.asarray(mov_idx, dtype=np.int64)
    n_true = int(n_true)
    if n_true > len(maps):
        raise ConfigError(f"n_true={n_true} exceeds {len(maps)} maps")
    if mov_idx.size == 0 or n_true < 2:
        return dc.constant(0.0)
    rows = [
        dc.reshape(dc.l2_norm_rows(dc.gather_rows(m, mov_idx)), (1, mov_idx.size))
        for m in maps[:n_true]
    ]
    stacked = dc.concat(rows, axis=0)
    return dc.reduce_sum(dc.variance_along_axis(stacked, axis=0))


def l_seg_obj(logits: Node, labels: np.ndarray) -> Node:
    """Object-level segmentation cross entropy (moving vs reference)."""
    return dc.softmax_cross_entropy(logits, np.asarray(labels, dtype=np.int64))


def l_seg_mov(dist_matrix: Node, same_part: np.ndarray, margin: float = 80.0) -> Node:
    """Contrastive part loss over the moving-point distance matrix.

    same_part is 0 where two points share a part and 1 otherwise. Same-part
    pairs are pulled together by their distance; different-part pairs are
    pushed past the margin by a hinge.
    """
    same_part = np.asarray(same_part, dtype=np.float64)
    if dist_matrix.value.shape != same_part.shape:
        raise ConfigError(
            f"distance matrix {dist_matrix.value.shape} and part matrix {same_part.shape} disagree"
        )
    pull = dc.reduce_sum(dc.mul(dist_matrix, 1.0 - same_part))
    push = dc.reduce_sum(dc.mul(dc.relu(dc.sub(float(margin), dist_matrix)), same_part))
    return dc.add(pull, push)


def l_mob(
    type_logits: Node,
    axis_out: Node,
    gt_type: int,
    gt_direction: np.ndarray,
    gt_position: Optional[np.ndarray],
) -> Node:
    """Mobility regression: type cross entropy plus axis direction and position."""
    if type_logits.value.shape != (1, 3) or axis_out.value.shape != (1, 6):
        raise ConfigError("l_mob expects (1, 3) type logits and (1, 6) axis output")
    gt_type = int(gt_type)
    type_term = dc.softmax_cross_entropy(type_logits, np.array([gt_type]))
    axis_t = dc.transpose(axis_out)
    d_pred = dc.transpose(dc.gather_rows(axis_t, np.arange(3)))
    norm = dc.l2_norm_rows(d_pred)
    d_unit = dc.div(d_pred, dc.reshape(norm, (1, 1)))
    d_term = dc.reduce_sum(dc.l2_norm_rows(dc.sub(d_unit, np.asarray(gt_direction)[None, :])))
    out = dc.add(type_term, d_term)
    if gt_type != 0:
        if gt_position is None:
            raise ConfigError("rotational ground truth requires an axis position")
        x_pred = dc.transpose(dc.gather_rows(axis_t, np.arange(3, 6)))
        x_term = dc.reduce_sum(dc.l2_norm_rows(dc.sub(x_pred, np.asarray(gt_position)[None, :])))
        out = dc.add(out, x_term)
    return out


def total_motion_loss(
    maps: Sequence[Node],
    gt_maps: np.ndarray,
    p0: np.ndarray,
    seg_labels: np.ndarray,
    dist_mov: Optional[Node],
    seg_logits: Optional[Node],
    same_mov: Optional[np.ndarray],
    n_true: int,
    weights: LossWeights,
    no_geom: bool = False,
    no_disp: bool = False,
    no_mot: bool = False,
    no_seg: bool = False,
) -> LossBreakdown:
    """Combined objective over one training instance.

    maps are the predicted displacement maps; gt_maps the padded targets.
    Per-frame terms are averaged over frames; the motion and segmentation
    terms enter once. Ablation flags drop whole terms.
    """
    n = len(maps)
    if n == 0:
        raise ConfigError("total_motion_loss needs at least one map")
    gt_maps = np.asarray(gt_maps, dtype=np.float64)
    if gt_maps.shape != (n,) + maps[0].value.shape:
        raise ConfigError(f"gt maps shape {gt_maps.shape} does not match predictions")
    p0 = np.asarray(p0, dtype=np.float64)
    seg_labels = np.asarray(seg_labels, dtype=np.int64)
    mov_idx = np.flatnonzero(seg_labels > 0)
    ref_idx = np.flatnonzero(seg_labels == 0)
    terms: dict[str, float] = {}
    pieces: list[Node] = []

    per_frame: list[Node] = []
    cloud = dc.constant(p0)
    gt_cloud = p0.copy()
    for t in range(n):
        cloud = dc.add(cloud, maps[t])
        gt_cloud = gt_cloud + gt_maps[t]
        frame_terms: list[Node] = []
        if not no_geom:
            ref_term = l_ref(cloud, p0, ref_idx)
            mov_term = l_mov(
                dc.gather_rows(cloud, mov_idx), gt_cloud[mov_idx], weights.k_density
            ) if mov_idx.size else dc.constant(0.0)
            frame_terms.append(
                dc.add(dc.scale(ref_term, weights.w_ref), dc.scale(mov_term, weights.w_mov))
            )
        if not no_disp:
            frame_terms.append(l_disp(maps[t], gt_maps[t], mov_idx))
        if frame_terms:
            total_t = frame_terms[0]
            for extra in frame_terms[1:]:
                total_t = dc.add(total_t, extra)
            per_frame.append(total_t)
    if per_frame:
        summed = per_frame[0]
        for extra in per_frame[1:]:
            summed = dc.add(summed, extra)
        rec = dc.scale(summed, 1.0 / n)
        terms["reconstruction"] = float(rec.value)
        pieces.append(rec)

    if not no_mot:
        effective = n if weights.include_padded_motion else n_true
        mot = l_mot(maps, mov_idx, effective)
        terms["motion_consistency"] = float(mot.value)
        pieces.append(mot)

    if not no_seg:
        if seg_logits is None or dist_mov is None or same_mov is None:
            raise ConfigError("segmentation terms need logits, distance matrix, and part matrix")
        obj = dc.scale(l_seg_obj(seg_logits, (seg_labels > 0).astype(np.int64)), weights.w_seg_obj)
        mov_pairs = dc.scale(l_seg_mov(dist_mov, same_mov, weights.margin), weights.w_seg_mov)
        seg = dc.add(obj, mov_pairs)
        terms["segmentation"] = float(seg.value)
        pieces.append(seg)

    if not pieces:
        raise ConfigError("all loss terms ablated away")
    total = pieces[0]
    for extra in pieces[1:]:
        total = dc.add(total, extra)
    terms["total"] = float(total.value)
    return LossBreakdown(total=total, terms=terms)


def baseline_loss(
    seg_logits: Node,
    seg_labels: np.ndarray,
    type_logits: Node,
    axis_out: Node,
    gt_type: int,
    gt_direction: np.ndarray,
    gt_position: Optional[np.ndarray],
) -> LossBreakdown:
    """Direct baseline objective: object segmentation plus mobility regression."""
    seg = l_seg_obj(seg_logits, (np.asarray(seg_labels) > 0).astype(np.int64))
    mob = l_mob(type_logits, axis_out, gt_type, gt_direction, gt_position)
    total = dc.add(seg, mob)
    return LossBreakdown(
        total=total,
        terms={
            "segmentation": float(seg.value),
            "mobility": float(mob.value),
            "total": float(total.value),
        },
    )
