"""Training objectives for motion hallucination and mobility regression.

All losses are differentiable scalars built from diffcore ops. Nearest
neighbor matching inside the moving-part shape term is computed on values
and treated as a fixed correspondence; gradients flow through the matched
distances. Sums run over points where the objective is a per-point sum,
and cross entropies are means over points. The ground-truth k-NN radii
of `l_mov` depend only on the instance, so `moving_knn_radii` builds them
once when it is prepared; each step searches only the predicted points.

Per-frame terms stack their frames along the row axis: frame t of an
N-point cloud is rows [t*N, (t+1)*N) of one (n*N, 3) array, the layout in
which the displacement net emits its maps, so `l_ref`, `l_mov`, `l_disp`
and `l_mot` each cover every frame with one call. The cumulative clouds
p0 + d_1 + ... + d_t of all frames come from one matmul of a lower
triangle of ones with the maps laid out as (n, N*3).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from . import diffcore as dc
from .diffcore import Node
from .errors import ConfigError, NumericError
from .geom import MOBILITY_TYPES, TYPE_T, MobilitySpec
from .nets import k_smallest

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


def _frame_rows(idx: np.ndarray, n: int, n_points: int) -> np.ndarray:
    """Rows of point indices `idx` in each of n stacked N-point frames."""
    return (np.arange(n)[:, None] * n_points + idx).ravel()


def _row_distance_sum(pred: Node, target: np.ndarray, idx: np.ndarray) -> Node:
    """Sum over rows i in idx of |pred[i] - target[i]|; 0 when idx is empty."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        return dc.constant(0.0)
    return dc.reduce_sum(dc.l2_norm_rows(dc.sub(dc.gather_rows(pred, idx), np.asarray(target)[idx])))


def l_ref(cloud: Node, origin: np.ndarray, ref_idx: np.ndarray) -> Node:
    """Reference points must stay put: sum of distances to their frame-0 positions."""
    return _row_distance_sum(cloud, origin, ref_idx)


def knn_radii(points: np.ndarray, k: int) -> np.ndarray:
    """Mean distance of each point to its k nearest neighbors; inf with k or fewer points."""
    d = cdist(points, points)
    np.fill_diagonal(d, np.inf)
    return np.sort(d, axis=1)[:, :k].sum(axis=1) / k


def _target_clouds(p0: np.ndarray, gt_maps: np.ndarray) -> np.ndarray:
    """Ground-truth cloud of every frame: p0 plus the first t maps, (n, N, 3)."""
    return np.cumsum(np.concatenate([p0[None], gt_maps]), axis=0)[1:]


def moving_knn_radii(p0: np.ndarray, gt_maps: np.ndarray, mov_idx: np.ndarray, k: int) -> np.ndarray:
    """knn_radii of the moving points in each ground-truth frame, (n, M); a
    frame that zero padding repeats reuses the radii of the one before it."""
    clouds = _target_clouds(p0, gt_maps)[:, mov_idx]
    radii = np.empty(clouds.shape[:2])
    for t, cloud in enumerate(clouds):
        radii[t] = radii[t - 1] if t and np.array_equal(cloud, clouds[t - 1]) else knn_radii(cloud, k)
    return radii


def l_mov(pred: Node, gt: np.ndarray, gt_radii: np.ndarray, k_density: int = 8) -> Node:
    """Moving-part resemblance: symmetric Chamfer plus a local density term.

    gt holds the ground-truth moving points of n frames, (n, M', 3), and
    gt_radii their `knn_radii` at k_density, (n, M'), built once per
    instance; pred holds the predicted moving points of the same
    frames stacked along rows, (n*M, 3). Each frame's term is computed on
    its own and the frames are summed. The density term compares each
    predicted point's mean k-NN radius, searched per step, with that of its
    matched ground-truth point and is skipped when either set has k or
    fewer points.
    """
    gt = np.asarray(gt, dtype=np.float64)
    gt_radii = np.asarray(gt_radii, dtype=np.float64)
    pv = pred.value
    if pv.ndim != 2 or pv.shape[1] != 3 or gt.ndim != 3 or gt.shape[2] != 3 or gt_radii.shape != gt.shape[:2]:
        raise ConfigError("l_mov expects (n*M, 3) predicted, (n, M', 3) ground-truth points and (n, M') radii")
    n, m_gt = gt.shape[:2]
    if n == 0 or pv.shape[0] % n:
        raise ConfigError(f"l_mov: {pv.shape[0]} predicted rows do not split into {n} frames")
    if not np.all(np.isfinite(pv)):
        raise NumericError("l_mov: non-finite predicted points")
    m = pv.shape[0] // n
    if m == 0 or m_gt == 0:
        return dc.constant(0.0)
    frames = pv.reshape(n, m, 3)
    nearest_gt = np.empty((n, m), dtype=np.int64)
    nearest_pred = np.empty((n, m_gt), dtype=np.int64)
    for t in range(n):
        cross = cdist(frames[t], gt[t])
        nearest_gt[t], nearest_pred[t] = cross.argmin(axis=1), cross.argmin(axis=0)
    first = np.arange(n)[:, None] * m
    # per frame: each predicted point against its nearest ground truth, then
    # each ground-truth point against its nearest prediction
    rows = np.concatenate([first + np.arange(m), first + nearest_pred], axis=1)
    targets = np.concatenate([gt[np.arange(n)[:, None], nearest_gt], gt], axis=1)
    matched = dc.l2_norm_rows(dc.sub(dc.gather_rows(pred, rows.ravel()), targets.reshape(-1, 3)))
    per_frame = dc.reduce_mean(dc.reshape(matched, rows.shape), axis=1)
    k = int(k_density)
    if m > k and m_gt > k:
        nbr = np.empty((n * m, k), dtype=np.int64)
        per = max(1, (1 << 17) // (m * m))  # frames per own-distance table of at most 1 MiB, which stays in cache
        for t0 in range(0, n, per):
            ts = np.arange(t0, min(n, t0 + per))
            own = np.stack([cdist(frames[t], frames[t]) for t in ts])
            own[:, np.arange(m), np.arange(m)] = np.inf  # no point is its own neighbour
            nbr[t0 * m : (ts[-1] + 1) * m] = k_smallest(own.reshape(-1, m), k) + np.repeat(ts * m, m)[:, None]
        anchors = np.repeat(np.arange(n * m), k)
        diffs = dc.sub(dc.gather_rows(pred, anchors), dc.gather_rows(pred, nbr.ravel()))
        radii = dc.reduce_mean(dc.reshape(dc.l2_norm_rows(diffs), (n * m, k)), axis=1)
        density = dc.absolute(dc.sub(radii, gt_radii[np.arange(n)[:, None], nearest_gt].ravel()))
        per_frame = dc.add(per_frame, dc.reduce_mean(dc.reshape(density, (n, m)), axis=1))
    return dc.reduce_sum(per_frame)


def l_disp(disp: Node, gt_disp: np.ndarray, mov_idx: np.ndarray) -> Node:
    """Per-point displacement supervision summed over moving points."""
    return _row_distance_sum(disp, gt_disp, mov_idx)


def l_mot(maps: Node, n_frames: int, mov_idx: np.ndarray, n_true: int) -> Node:
    """Rigidity proxy: variance over frames of each moving point's step length.

    maps holds n_frames maps stacked along rows, (n_frames*N, 3). Only the
    first n_true maps (the non-padded prefix) enter the variance.
    """
    mov_idx = np.asarray(mov_idx, dtype=np.int64)
    n_true, n_frames = int(n_true), int(n_frames)
    if n_frames < 1 or maps.value.shape[0] % n_frames:
        raise ConfigError(f"{maps.value.shape[0]} map rows do not split into {n_frames} frames")
    if n_true > n_frames:
        raise ConfigError(f"n_true={n_true} exceeds {n_frames} maps")
    if mov_idx.size == 0 or n_true < 2:
        return dc.constant(0.0)
    rows = _frame_rows(mov_idx, n_true, maps.value.shape[0] // n_frames)
    steps = dc.l2_norm_rows(dc.gather_rows(maps, rows))
    return dc.reduce_sum(dc.variance_along_axis(dc.reshape(steps, (n_true, mov_idx.size)), axis=0))


def l_seg_obj(logits: Node, labels: np.ndarray) -> Node:
    """Object-level segmentation cross entropy (moving vs reference)."""
    return dc.softmax_cross_entropy(logits, np.asarray(labels, dtype=np.int64))


def l_seg_mov(dist_matrix: Node, same_part: np.ndarray, margin: float = 80.0) -> Node:
    """Contrastive part loss over the moving-point distance matrix.

    same_part is true (or 1) where two points share a part. Same-part pairs
    are pulled together by their distance; different-part pairs are pushed
    past the margin by a hinge.
    """
    same_part = np.asarray(same_part, dtype=np.float64)
    if dist_matrix.value.shape != same_part.shape:
        raise ConfigError(
            f"distance matrix {dist_matrix.value.shape} and part matrix {same_part.shape} disagree"
        )
    pull = dc.reduce_sum(dc.mul(dist_matrix, same_part))
    push = dc.reduce_sum(dc.mul(dc.relu(dc.sub(float(margin), dist_matrix)), 1.0 - same_part))
    return dc.add(pull, push)


def l_mob(type_logits: Node, axis_out: Node, gt: MobilitySpec) -> Node:
    """Mobility regression: type cross entropy plus axis direction and, for
    the rotational types, axis position against the ground-truth spec."""
    if type_logits.value.shape != (1, len(MOBILITY_TYPES)) or axis_out.value.shape != (1, 6):
        raise ConfigError(f"l_mob expects (1, {len(MOBILITY_TYPES)}) type logits and (1, 6) axis output")
    type_term = dc.softmax_cross_entropy(type_logits, np.array([MOBILITY_TYPES.index(gt.tau)]))
    d_pred = dc.slice_axis(axis_out, 0, 3, axis=1)
    norm = dc.l2_norm_rows(d_pred)
    d_unit = dc.div(d_pred, dc.reshape(norm, (1, 1)))
    d_term = dc.reduce_sum(dc.l2_norm_rows(dc.sub(d_unit, gt.direction[None, :])))
    out = dc.add(type_term, d_term)
    if gt.tau != TYPE_T:
        x_pred = dc.slice_axis(axis_out, 3, 6, axis=1)
        x_term = dc.reduce_sum(dc.l2_norm_rows(dc.sub(x_pred, gt.position[None, :])))
        out = dc.add(out, x_term)
    return out


def total_motion_loss(
    maps: Node,
    gt_maps: np.ndarray,
    p0: np.ndarray,
    seg_labels: np.ndarray,
    gt_radii: np.ndarray,
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

    maps are the n predicted displacement maps stacked along rows,
    (n*N, 3); gt_maps the padded targets, (n, N, 3); gt_radii the
    instance's `moving_knn_radii` at weights.k_density. Per-frame terms are
    averaged over frames; the motion and segmentation terms enter once.
    Ablation flags drop whole terms.
    """
    gt_maps = np.asarray(gt_maps, dtype=np.float64)
    p0 = np.asarray(p0, dtype=np.float64)
    n = gt_maps.shape[0] if gt_maps.ndim == 3 else 0
    if n == 0 or gt_maps.shape[1:] != p0.shape or maps.value.shape != (n * p0.shape[0], 3):
        raise ConfigError(
            f"total_motion_loss needs (n >= 1, N, 3) gt maps and (n*N, 3) predicted maps for"
            f" (N, 3) points, got {gt_maps.shape}, {maps.value.shape} and {p0.shape}"
        )
    seg_labels = np.asarray(seg_labels, dtype=np.int64)
    mov_idx = np.flatnonzero(seg_labels > 0)
    ref_idx = np.flatnonzero(seg_labels == 0)
    mov_rows = _frame_rows(mov_idx, n, p0.shape[0])
    terms: dict[str, float] = {}
    pieces: list[Node] = []

    recon: list[Node] = []
    if not no_geom:
        # frame t's cloud is p0 plus the first t maps
        steps = dc.reshape(maps, (n, p0.size))
        cumulative = dc.reshape(dc.matmul(np.tril(np.ones((n, n))), steps), maps.value.shape)
        origins = np.tile(p0, (n, 1))
        clouds = dc.add(cumulative, origins)
        ref_rows = _frame_rows(ref_idx, n, p0.shape[0])
        recon.append(dc.mul(l_ref(clouds, origins, ref_rows), weights.w_ref))
        if mov_idx.size:
            gt_clouds = _target_clouds(p0, gt_maps)[:, mov_idx]
            mov = l_mov(dc.gather_rows(clouds, mov_rows), gt_clouds, gt_radii, weights.k_density)
            recon.append(dc.mul(mov, weights.w_mov))
    if not no_disp:
        recon.append(l_disp(maps, gt_maps.reshape(-1, 3), mov_rows))
    if recon:
        rec = dc.mul(reduce(dc.add, recon), 1.0 / n)
        terms["reconstruction"] = float(rec.value)
        pieces.append(rec)

    if not no_mot:
        effective = n if weights.include_padded_motion else n_true
        mot = l_mot(maps, n, mov_idx, effective)
        terms["motion_consistency"] = float(mot.value)
        pieces.append(mot)

    if not no_seg:
        if seg_logits is None or dist_mov is None or same_mov is None:
            raise ConfigError("segmentation terms need logits, distance matrix, and part matrix")
        obj = dc.mul(l_seg_obj(seg_logits, (seg_labels > 0).astype(np.int64)), weights.w_seg_obj)
        mov_pairs = dc.mul(l_seg_mov(dist_mov, same_mov, weights.margin), weights.w_seg_mov)
        seg = dc.add(obj, mov_pairs)
        terms["segmentation"] = float(seg.value)
        pieces.append(seg)

    if not pieces:
        raise ConfigError("all loss terms ablated away")
    total = reduce(dc.add, pieces)
    terms["total"] = float(total.value)
    return LossBreakdown(total=total, terms=terms)


def baseline_loss(
    seg_logits: Node,
    seg_labels: np.ndarray,
    type_logits: Node,
    axis_out: Node,
    gt: MobilitySpec,
) -> LossBreakdown:
    """Direct baseline objective: object segmentation plus mobility regression."""
    seg = l_seg_obj(seg_logits, (np.asarray(seg_labels) > 0).astype(np.int64))
    mob = l_mob(type_logits, axis_out, gt)
    total = dc.add(seg, mob)
    return LossBreakdown(
        total=total,
        terms={
            "segmentation": float(seg.value),
            "mobility": float(mob.value),
            "total": float(total.value),
        },
    )
