"""Independent reference implementations used to check the package.

Everything here is deliberately slow and literal: plain loops, and no code
shared with the package under test except where a reference says so. The
mobfit reference (`fit_sequence_per_pair`) registers each pair on its own and
classifies it with its own copy of the package's earlier per-pair code
(`PairMotion`, `classify_transform`, `rotation_angle_deg`, `rotation_axis`,
`axis_point`, `_aligned_mean`), kept verbatim as the byte reference for the
one-pass `mobfit.fit_sequence`; only the range check is the package's. The
sequence reference (`make_sequence`) takes the package's `MotionSequence` and
`mobility_transform`. The sparse-graph DBSCAN (`dbscan_labels`) is the
package's own earlier implementation, kept as the byte reference for its
rewrite, and so are the part matchers and `pooled_average_precision`, the
two spec transforms `yaw_spec` and `denormalized_spec` that `geom.moved_spec`
replaced, `fit_sequence` with its separate T and R/TR sums (on the same
per-pair code), and `reduce_backward`, the two-branch gradient of
`dc.reduce_sum` and `dc.reduce_mean`, `reduce_max_backward`, the argmax
gradient of `dc.reduce_max`, and `log_softmax`, the hand-rolled forward of
`dc.softmax_cross_entropy` that scipy's `log_softmax` replaced, the
interpolate-then-project decoder (`hallucinate`) and baseline seg head
(`baseline_seg_logits`) that the project-then-interpolate form replaced.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from partmotion import diffcore as dc
from partmotion import mobfit
from partmotion.errors import ConfigError, DataError
from partmotion.datagen import MotionSequence, ShapeSample
from partmotion.geom import (
    MOBILITY_TYPES, TYPE_R, TYPE_T, TYPE_TR, MobilitySpec, RigidTransform, mobility_transform, unit,
)
from partmotion.metrics import AP_THRESHOLDS, PartMatch, ShapeAPRecord
from partmotion.mobfit import (
    ANGLE_FLOOR_DEG,
    FLAG_LOW_CONFIDENCE,
    PITCH_FLOOR,
    STILL_EPS,
    FittedMobility,
    _kabsch,
)
from partmotion.nets import NetConfig, dense_weights


def finite_difference_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros(x.shape)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f(x)
        flat[i] = keep - h
        down = f(x)
        flat[i] = keep
        gf[i] = (up - down) / (2.0 * h)
    return g


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise relative difference with an absolute floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-6)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def brute_chamfer(pred: np.ndarray, gt: np.ndarray) -> float:
    """Symmetric Chamfer distance, mean over both directions, by loops."""
    dists = []
    for p in pred:
        dists.append(min(float(np.linalg.norm(p - q)) for q in gt))
    for q in gt:
        dists.append(min(float(np.linalg.norm(q - p)) for p in pred))
    return float(np.mean(dists))


def brute_knn_radius(points: np.ndarray, i: int, k: int) -> float:
    """Mean distance from point i to its k nearest neighbors, by loops."""
    d = sorted(float(np.linalg.norm(points[i] - points[j])) for j in range(len(points)) if j != i)
    return float(np.mean(d[:k]))


def brute_dbscan(dist: np.ndarray, eps: float, min_pts: int) -> list[set[int]]:
    """Density-reachable clusters straight from the definition.

    Returns the partition of core-reachable points as a list of index sets;
    points not reachable from any core point are left out (noise).
    """
    n = dist.shape[0]
    core = [i for i in range(n) if int(np.sum(dist[i] <= eps)) >= min_pts]
    core_set = set(core)
    unassigned = set(core)
    clusters: list[set[int]] = []
    while unassigned:
        seed = min(unassigned)
        group = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if j in core_set and j not in group and dist[i, j] <= eps:
                    group.add(j)
                    frontier.append(j)
        unassigned -= group
        clusters.append(group)
    # border points: non-core within eps of some core point
    for i in range(n):
        if i in core_set:
            continue
        best = None
        for cluster in clusters:
            for j in cluster:
                if j in core_set and dist[i, j] <= eps:
                    d = dist[i, j]
                    if best is None or d < best[0]:
                        best = (d, cluster)
        if best is not None:
            best[1].add(i)
    return clusters


# The package's DBSCAN before it linked cores by pointer jumping: cores are
# joined by scipy's connected components on a sparse core graph. Its labels
# are the byte reference for `partmotion.cluster.dbscan_labels`.
def dbscan_labels(dist: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Cluster ids (0..k-1) for every row of a symmetric distance matrix."""
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ConfigError(f"distance matrix must be square, got {dist.shape}")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if not np.allclose(dist, dist.T, atol=1e-9):
        raise ConfigError("distance matrix must be symmetric")
    within = dist <= eps
    core = within.sum(axis=1) >= min_pts  # neighborhood includes the point itself
    if not core.any():
        return np.zeros(n, dtype=np.int64)

    # eps-linked cores are one cluster; components are numbered by their
    # smallest member, which the noise tie-break below relies on
    core_idx = np.flatnonzero(core)
    n_clusters, components = connected_components(
        csr_matrix(within[np.ix_(core_idx, core_idx)]), directed=False
    )
    labels = np.full(n, -1, dtype=np.int64)
    labels[core_idx] = components
    rest = np.flatnonzero(labels < 0)
    if rest.size:
        to_cores = dist[np.ix_(rest, core_idx)]
        border = to_cores.min(axis=1) <= eps
        # border: nearest core decides; noise: smallest mean distance to a cluster
        nearest = core_idx[to_cores.argmin(axis=1)]
        labels[rest[border]] = labels[nearest[border]]
        base = labels.copy()  # noise joins settled members only, order-free
        for i in rest[~border]:
            means = [dist[i, base == c].mean() for c in range(n_clusters)]
            labels[i] = int(np.argmin(means))

    return _canonical_ids(labels)


def _canonical_ids(labels: np.ndarray) -> np.ndarray:
    order = []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        order.append((-members.size, int(members[0]), int(c)))
    remap = {old: new for new, (_, _, old) in enumerate(sorted(order))}
    return np.array([remap[int(c)] for c in labels], dtype=np.int64)


def brute_average_precision(
    shape_records: Sequence[tuple[list[tuple[float, float]], int]],
) -> float:
    """Pooled average precision, enumerated literally.

    shape_records holds one entry per shape: a list of (confidence, iou)
    predictions already matched one-to-one against that shape's ground
    truth parts (iou 0 for unmatched predictions), plus the ground truth
    part count. The sum runs over pairs k = 1..10, where pair k uses the
    threshold with index 11-k from the ascending grid 0.50, 0.55, .., 0.95
    and pair 11 is pinned at precision 1, recall 0.
    """
    thresholds = [0.50 + 0.05 * i for i in range(10)]  # index 1..10
    preds: list[tuple[float, float]] = []
    total_gt = 0
    for matched, n_gt in shape_records:
        preds.extend(matched)
        total_gt += n_gt
    pr: dict[int, tuple[float, float]] = {}
    for k in range(1, 11):
        thr = thresholds[(11 - k) - 1]
        tp = sum(1 for _, iou in preds if iou >= thr)
        fp = len(preds) - tp
        precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        recall = tp / total_gt if total_gt > 0 else 0.0
        pr[k] = (precision, recall)
    pr[11] = (1.0, 0.0)
    ap = 0.0
    for k in range(1, 11):
        p_k, r_k = pr[k]
        _, r_next = pr[k + 1]
        ap += (r_k - r_next) * p_k
    return ap


# The package's part scoring before it read one IoU table: every (predicted,
# ground truth) pair is masked and counted on its own. These are the byte
# reference for `partmotion.metrics`.
def iou(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    union = np.logical_or(mask_a, mask_b).sum()
    if union == 0:
        return 0.0
    return float(np.logical_and(mask_a, mask_b).sum() / union)


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


def cluster_confidence(dist_submatrix: np.ndarray) -> float:
    """The eye-mask form: the off-diagonal entries through an (n, n) mask."""
    d = np.asarray(dist_submatrix, dtype=np.float64)
    n = d.shape[0]
    if n <= 1:
        return 1.0
    off = d[~np.eye(n, dtype=bool)]
    return float(1.0 / (1.0 + off.mean()))


def _unary(a: dc.Node, out: np.ndarray, backward: Callable, op_tag: str) -> dc.Node:
    """One engine node with a single parent, which it skips unless a needs a gradient."""
    parents = ((a, backward),) if a.requires_grad else ()
    return dc.Node(out, parents, op_tag, requires_grad=a.requires_grad)


def sigmoid(a: dc.Node) -> dc.Node:
    out = 1.0 / (1.0 + np.exp(-a.value))
    return _unary(a, out, lambda g: g * out * (1.0 - out), "sigmoid")


def tanh(a: dc.Node) -> dc.Node:
    out = np.tanh(a.value)
    return _unary(a, out, lambda g: g * (1.0 - out * out), "tanh")


def lstm_cell(
    x_proj: dc.Node,
    h: Optional[dc.Node],
    c: Optional[dc.Node],
    w_h: dc.Node,
) -> tuple[dc.Node, dc.Node]:
    """One LSTM step built from single engine ops: the reference for dc.lstm.

    Gate blocks are ordered input, forget, cell, output. x_proj is the
    projected input plus bias; h = c = None is the zero state of the first
    step, which has no recurrent matmul and no forget term.
    """
    width = w_h.value.shape[0]
    gates = x_proj if h is None else dc.add(x_proj, dc.matmul(h, w_h))

    def block(k: int) -> dc.Node:
        return dc.slice_axis(gates, k * width, (k + 1) * width, axis=1)

    c_next = dc.mul(sigmoid(block(0)), tanh(block(2)))
    if c is not None:
        c_next = dc.add(dc.mul(sigmoid(block(1)), c), c_next)
    return dc.mul(sigmoid(block(3)), tanh(c_next)), c_next


def lstm_states(x_proj: dc.Node, w_h: dc.Node, steps: int) -> dc.Node:
    """`steps` reference cell steps from the zero state, hidden states stacked."""
    h = c = None
    states = []
    for _ in range(steps):
        h, c = lstm_cell(x_proj, h, c, w_h)
        states.append(h)
    return dc.concat(states)


# The reductions' backward before it was one broadcast: a full reduction
# filled the input's shape with g / count.
def reduce_backward(g: np.ndarray, shape: tuple[int, ...], axis: Optional[int], count: int) -> np.ndarray:
    if axis is None:
        return np.full(shape, g / count)
    return np.broadcast_to(np.expand_dims(g, axis), shape) / count


# dc.reduce_max's backward before its one-pass rewrite: the first winner of
# each group by argmax, the gradient placed by put_along_axis.
def reduce_max_backward(a: np.ndarray, out: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    idx = np.expand_dims((a == np.expand_dims(out, axis)).argmax(axis=axis), axis)
    acc = np.zeros(a.shape)
    np.put_along_axis(acc, idx, np.expand_dims(g, axis), axis=axis)
    return acc


# dc.softmax_cross_entropy's row-wise log-softmax before it called scipy's.
def log_softmax(lv: np.ndarray) -> np.ndarray:
    shifted = lv - lv.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - log_z


def pair_relu_linear(rows: dc.Node, cols: dc.Node, w: dc.Node, b: dc.Node) -> dc.Node:
    """relu(rows[t] + cols[i]) @ w + b built from single engine ops: the
    reference for dc.pair_relu_linear, row t*N + i of a (T*N, O) array."""
    steps, n, width = rows.value.shape[0], cols.value.shape[0], rows.value.shape[1]
    pre = dc.add(dc.reshape(rows, (steps, 1, width)), cols)
    return dc.linear(dc.reshape(dc.relu(pre), (steps * n, width)), w, b)


def rotation_matrix(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation matrix, written out independently."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    x, y, z = axis
    c = np.cos(angle_rad)
    s = np.sin(angle_rad)
    cc = 1.0 - c
    return np.array(
        [
            [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
            [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
            [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
        ]
    )


# ---------------------------------------------------------------------------
# mobfit reference: one Kabsch solve and one residual per frame pair


# The package's per-pair classifier before `mobfit.fit_sequence` read every
# pair in one array pass, kept verbatim as the byte reference.


def rotation_angle_deg(rotation: np.ndarray) -> float:
    cos = np.clip((np.trace(rotation) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.degrees(np.arccos(cos)))


def rotation_axis(rotation: np.ndarray) -> np.ndarray:
    """Unit axis of a rotation, oriented so the rotation angle is positive."""
    raw = np.array(
        [
            rotation[2, 1] - rotation[1, 2],
            rotation[0, 2] - rotation[2, 0],
            rotation[1, 0] - rotation[0, 1],
        ]
    )
    norm = np.linalg.norm(raw)
    if norm < 1e-12:
        raise DataError("rotation too close to 0 or 180 degrees for a stable axis")
    return raw / norm


def axis_point(rotation: np.ndarray, translation: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Point of the screw axis closest to the origin.

    Solves (I - R + d d^T) x = t_perp; the left side is invertible for any
    proper rotation with nonzero angle and the solution has no component
    along the axis direction.
    """
    t_perp = translation - np.dot(translation, direction) * direction
    a = np.eye(3) - rotation + np.outer(direction, direction)
    return np.linalg.solve(a, t_perp)


@dataclass
class PairMotion:
    """Classified relative motion of one consecutive frame pair."""

    tau: str
    direction: np.ndarray
    position: Optional[np.ndarray]
    angle_deg: float
    slide: float
    amount: float = 0.0   # mean per-point displacement, for tie breaks


def classify_transform(transform: RigidTransform) -> Optional[PairMotion]:
    """Pair verdict; None when nothing moves."""
    angle = rotation_angle_deg(transform.rotation)
    t = transform.translation
    if angle < ANGLE_FLOOR_DEG:
        shift = float(np.linalg.norm(t))
        if shift < STILL_EPS:
            return None
        return PairMotion(TYPE_T, t / shift, None, 0.0, shift)
    direction = rotation_axis(transform.rotation)
    slide = float(np.dot(t, direction))
    position = axis_point(transform.rotation, t, direction)
    tau = TYPE_TR if abs(slide) >= PITCH_FLOOR else TYPE_R
    return PairMotion(tau, direction, position, angle, slide)


def _aligned_mean(directions: list[np.ndarray]) -> np.ndarray:
    ref = directions[0]
    acc = np.zeros(3)
    for d in directions:
        acc += d if np.dot(d, ref) >= 0.0 else -d
    return unit(acc)


def range_flags(composed: RigidTransform, spec: MobilitySpec) -> list[str]:
    """`mobfit._range_flags` on a composed transform, its angle and axis read
    per pair as above. The range check is looked up on the module when
    called, so a test can watch what it gets."""
    try:
        axis = rotation_axis(composed.rotation)
    except DataError:
        axis = None
    return mobfit._range_flags(rotation_angle_deg(composed.rotation), axis, composed.translation, spec)


def rigid_register(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform mapping src onto dst, det(R) = +1."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise DataError(f"point sets must both be (M, 3), got {src.shape} and {dst.shape}")
    if src.shape[0] < 3:
        raise DataError("need at least three points to register")
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    h = (src - cs).T @ (dst - cd)
    u, sv, vt = np.linalg.svd(h)
    # collinear (or fully degenerate) sets leave a rotation degree of
    # freedom unconstrained
    if sv[0] < 1e-15 or sv[1] <= 1e-9 * sv[0]:
        raise DataError("rank-deficient configuration: points are collinear or coincident")
    sign = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, sign]) @ u.T
    return RigidTransform(rotation, cd - rotation @ cs)


def registration_residual(transform: RigidTransform, src: np.ndarray, dst: np.ndarray) -> float:
    """Mean squared distance between the transformed source and the target."""
    diff = transform.apply(np.asarray(src, dtype=np.float64)) - np.asarray(dst, dtype=np.float64)
    return float(np.mean(np.sum(diff * diff, axis=1)))


def fit_sequence_per_pair(frames: np.ndarray) -> Optional[FittedMobility]:
    """`mobfit.fit_sequence` with one registration and one residual per pair.

    Pairs are classified by `classify_transform` above and the range check
    is the package's, through `range_flags`. The registrations they use, of
    each consecutive pair and then of the first-to-last pair, are
    `rigid_register` above, looked up when called, so a test can substitute
    transforms of its own.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[2] != 3 or frames.shape[0] < 2:
        raise DataError(f"frames must be (n>=2, M, 3), got {frames.shape}")
    pairs: list[PairMotion] = []
    residuals: list[float] = []
    for k in range(frames.shape[0] - 1):
        transform = rigid_register(frames[k], frames[k + 1])
        residuals.append(registration_residual(transform, frames[k], frames[k + 1]))
        motion = classify_transform(transform)
        if motion is not None:
            motion.amount = float(np.mean(np.linalg.norm(frames[k + 1] - frames[k], axis=1)))
            pairs.append(motion)
    composed = rigid_register(frames[0], frames[-1])
    if not pairs:
        return None
    residual = float(np.mean(residuals))
    flags: list[str] = []

    votes = {tau: sum(p.tau == tau for p in pairs) for tau in MOBILITY_TYPES}
    top = max(votes.values())
    leaders = [tau for tau, v in votes.items() if v == top]
    if len(leaders) == 1:
        tau = leaders[0]
    else:
        # no clear majority: the most-moving pair decides
        tau = max(pairs, key=lambda p: p.amount).tau
        flags.append(FLAG_LOW_CONFIDENCE)

    if tau == TYPE_T:
        kept = [p for p in pairs if p.tau == TYPE_T]
        direction = _aligned_mean([p.direction for p in kept])
        span = sum(np.sign(np.dot(p.direction, direction)) * p.slide for p in kept)
        if span < 0.0:
            direction, span = -direction, -span
        spec = MobilitySpec(TYPE_T, direction, None, (0.0, float(span)))
    else:
        kept = [p for p in pairs if p.tau in (TYPE_R, TYPE_TR)]
        direction = _aligned_mean([p.direction for p in kept])
        position = np.mean([p.position for p in kept], axis=0)
        angle = sum(np.sign(np.dot(p.direction, direction)) * p.angle_deg for p in kept)
        slide = sum(np.sign(np.dot(p.direction, direction)) * p.slide for p in kept)
        if angle < 0.0:
            direction, angle, slide = -direction, -angle, -slide
        if tau == TYPE_R:
            spec = MobilitySpec(TYPE_R, direction, position, (0.0, float(angle)))
        else:
            slide_range = (0.0, float(slide)) if slide >= 0.0 else (float(slide), 0.0)
            spec = MobilitySpec(TYPE_TR, direction, position, (0.0, float(angle)), slide_range)

    flags.extend(range_flags(composed, spec))
    return FittedMobility(spec, residual, flags)


# ---------------------------------------------------------------------------
# l_mov reference: the per-step version, which rebuilt the ground-truth radii
# every call and took each point's neighbours from a full argsort of its row


def _neighbor_distances(points: np.ndarray) -> np.ndarray:
    """Pairwise distances within one set, infinite on the diagonal."""
    d = cdist(points, points)
    np.fill_diagonal(d, np.inf)
    return d


def knn_radii(points: np.ndarray, k: int) -> np.ndarray:
    """Mean distance of each point to its k nearest neighbors."""
    return np.sort(_neighbor_distances(points), axis=1)[:, :k].mean(axis=1)


def l_mov(pred: dc.Node, gt: np.ndarray, k_density: int = 8) -> dc.Node:
    """Moving-part resemblance: symmetric Chamfer plus a local density term.

    gt holds the ground-truth moving points of n frames, (n, M', 3), or of
    one frame, (M', 3); pred holds the predicted moving points of the same
    frames stacked along rows, (n*M, 3). Each frame's term is computed on
    its own and the frames are summed. The density term compares each
    predicted point's mean k-NN radius with that of its matched
    ground-truth point and is skipped when either set is smaller than k + 1.
    """
    gt = np.asarray(gt, dtype=np.float64)
    if gt.ndim == 2:
        gt = gt[None]
    pv = pred.value
    if pv.ndim != 2 or pv.shape[1] != 3 or gt.ndim != 3 or gt.shape[2] != 3:
        raise ConfigError("l_mov expects (n*M, 3) predicted and (n, M', 3) ground-truth points")
    n, m_gt = gt.shape[:2]
    if n == 0 or pv.shape[0] % n:
        raise ConfigError(f"l_mov: {pv.shape[0]} predicted rows do not split into {n} frames")
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
        nbr = np.empty((n, m, k), dtype=np.int64)
        gt_radii = np.empty((n, m))
        for t in range(n):
            nbr[t] = t * m + np.argsort(_neighbor_distances(frames[t]), axis=1)[:, :k]
            gt_radii[t] = knn_radii(gt[t], k)[nearest_gt[t]]
        anchors = np.repeat(np.arange(n * m), k)
        diffs = dc.sub(dc.gather_rows(pred, anchors), dc.gather_rows(pred, nbr.ravel()))
        radii = dc.reduce_mean(dc.reshape(dc.l2_norm_rows(diffs), (n * m, k)), axis=1)
        density = dc.absolute(dc.sub(radii, gt_radii.ravel()))
        per_frame = dc.add(per_frame, dc.reduce_mean(dc.reshape(density, (n, m)), axis=1))
    return dc.reduce_sum(per_frame)


# ---------------------------------------------------------------------------
# EncoderPlan reference: the per-row loop version, one lexsort per row, with
# each interpolation stage as the dense (N, S) weight matrix


def _lex_order(dist: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Indices sorted by distance, ties broken by coordinates."""
    return np.lexsort((points[:, 2], points[:, 1], points[:, 0], dist))


def farthest_point_indices(points: np.ndarray, count: int) -> np.ndarray:
    if points.shape[0] < count:
        raise ConfigError(f"cannot pick {count} centroids from {points.shape[0]} points")
    center = points.mean(axis=0)
    chosen = [int(_lex_order(-np.linalg.norm(points - center, axis=1), points)[0])]
    min_dist = np.linalg.norm(points - points[chosen[0]], axis=1)
    while len(chosen) < count:
        nxt = int(_lex_order(-min_dist, points)[0])
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(points - points[nxt], axis=1))
    return np.array(chosen, dtype=np.int64)


def _group(points: np.ndarray, centroids: np.ndarray, radius: float, k: int) -> np.ndarray:
    """(len(centroids), k) neighbor indices: nearest within radius, padded."""
    groups = np.empty((centroids.shape[0], k), dtype=np.int64)
    for row, c in enumerate(centroids):
        dist = np.linalg.norm(points - points[c], axis=1)
        order = _lex_order(dist, points)
        inside = order[dist[order] <= radius][:k]
        if inside.size == 0:
            inside = order[:1]
        pad = np.full(k - inside.size, inside[0], dtype=np.int64)
        groups[row] = np.concatenate([inside, pad])
    return groups


def _idw_weights(targets: np.ndarray, sources: np.ndarray, k: int) -> np.ndarray:
    """Dense (len(targets), len(sources)) inverse-square-distance weights."""
    w = np.zeros((targets.shape[0], sources.shape[0]))
    k = min(k, sources.shape[0])
    for row, t in enumerate(targets):
        dist = np.linalg.norm(sources - t, axis=1)
        near = _lex_order(dist, sources)[:k]
        inv = 1.0 / (dist[near] ** 2 + 1e-8)
        w[row, near] = inv / inv.sum()
    return w


def build_plan(points: np.ndarray, cfg: NetConfig) -> dict[str, np.ndarray]:
    """The plan's arrays by field name; fp1 and fp2 are dense (N, S1) and (N, S2)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ConfigError(f"points must be (N, 3), got {points.shape}")
    (s1, r1, _), (s2, r2, _) = cfg.sa_stages
    k1, k2 = cfg.group_sizes
    c1 = farthest_point_indices(points, s1)
    g1 = _group(points, c1, r1, k1)
    rel1 = (points[g1.ravel()] - np.repeat(points[c1], k1, axis=0))
    p1 = points[c1]
    c2_local = farthest_point_indices(p1, s2)
    g2 = _group(p1, c2_local, r2, k2)
    rel2 = (p1[g2.ravel()] - np.repeat(p1[c2_local], k2, axis=0))
    return dict(
        points=points,
        centroids1=c1,
        groups1=g1,
        rel1=rel1,
        centroids2=c2_local,
        groups2=g2,
        rel2=rel2,
        fp1=_idw_weights(points, p1, cfg.fp_neighbors),
        fp2=_idw_weights(points, p1[c2_local], cfg.fp_neighbors),
    )


# ---------------------------------------------------------------------------
# sequence reference: the two-path builder, which moved each part of a
# parametric sample by its mobility itself and used the frame function only
# for the non-parametric categories


def make_sequence(sample: ShapeSample, n_frames: int) -> MotionSequence:
    """Frames at n uniform motion fractions.

    A parametric sample plays every declared mobility simultaneously; any
    other sample renders its frames with its own frame function.
    """
    if n_frames < 2:
        raise ConfigError("need at least two frames")
    if sample.specs is None:
        frames = np.stack([sample.frame_fn(k / (n_frames - 1)) for k in range(n_frames)])
        return MotionSequence(frames, sample.labels.copy(), None)
    pts0 = sample.points
    labels = sample.labels
    frames = np.repeat(pts0[None], n_frames, axis=0)
    for k in range(n_frames):
        for part_id, spec in enumerate(sample.specs, start=1):
            idx = np.flatnonzero(labels == part_id)
            frames[k, idx] = mobility_transform(spec, k / (n_frames - 1)).apply(pts0[idx])
    return MotionSequence(frames, labels.copy(), list(sample.specs))


# ---------------------------------------------------------------------------
# mobility-spec references: the package's earlier code, kept as the byte
# references for `geom.moved_spec` and the one signed-sum path of
# `mobfit.fit_sequence`


def yaw_spec(spec: MobilitySpec, t: RigidTransform) -> MobilitySpec:
    return MobilitySpec(
        spec.tau,
        t.rotation @ spec.direction,
        None if spec.position is None else t.apply(spec.position[None])[0],
        spec.range_,
        spec.slide_range,
    )


def denormalized_spec(spec: Optional[MobilitySpec], scale: float, center: np.ndarray):
    """Map a spec fitted in normalized coordinates back to the original frame."""
    if spec is None:
        return None
    position = None if spec.position is None else spec.position * scale + center
    range_ = spec.range_
    slide = spec.slide_range
    if spec.tau == TYPE_T:
        range_ = (range_[0] * scale, range_[1] * scale)
    if slide is not None:
        slide = (slide[0] * scale, slide[1] * scale)
    return MobilitySpec(spec.tau, spec.direction, position, range_, slide)


def fit_sequence(frames: np.ndarray) -> Optional[FittedMobility]:
    """Mobility of one part across its frames; None when it never moves.

    Still pairs (padded tail frames for instance) do not vote.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[2] != 3 or frames.shape[0] < 2:
        raise DataError(f"frames must be (n>=2, M, 3), got {frames.shape}")
    # the consecutive pairs, then the composed first-to-last pair
    rotations, translations = _kabsch(np.concatenate([frames[:-1], frames[:1]]),
                                      np.concatenate([frames[1:], frames[-1:]]))
    composed = RigidTransform(rotations[-1], translations[-1])
    rotations, translations = rotations[:-1], translations[:-1]
    amounts = np.linalg.norm(frames[1:] - frames[:-1], axis=2).mean(axis=1)
    pairs: list[PairMotion] = []
    for rotation, translation, amount in zip(rotations, translations, amounts):
        motion = classify_transform(RigidTransform(rotation, translation))
        if motion is not None:
            motion.amount = float(amount)
            pairs.append(motion)
    if not pairs:
        return None
    diff = frames[:-1] @ rotations.transpose(0, 2, 1) + translations[:, None] - frames[1:]
    residual = float(np.mean(np.mean(np.sum(diff * diff, axis=2), axis=1)))
    flags: list[str] = []

    votes = {tau: sum(p.tau == tau for p in pairs) for tau in MOBILITY_TYPES}
    top = max(votes.values())
    leaders = [tau for tau, v in votes.items() if v == top]
    if len(leaders) == 1:
        tau = leaders[0]
    else:
        # no clear majority: the most-moving pair decides
        tau = max(pairs, key=lambda p: p.amount).tau
        flags.append(FLAG_LOW_CONFIDENCE)

    if tau == TYPE_T:
        kept = [p for p in pairs if p.tau == TYPE_T]
        direction = _aligned_mean([p.direction for p in kept])
        span = sum(np.sign(np.dot(p.direction, direction)) * p.slide for p in kept)
        if span < 0.0:
            direction, span = -direction, -span
        spec = MobilitySpec(TYPE_T, direction, None, (0.0, float(span)))
    else:
        kept = [p for p in pairs if p.tau in (TYPE_R, TYPE_TR)]
        direction = _aligned_mean([p.direction for p in kept])
        position = np.mean([p.position for p in kept], axis=0)
        angle = sum(np.sign(np.dot(p.direction, direction)) * p.angle_deg for p in kept)
        slide = sum(np.sign(np.dot(p.direction, direction)) * p.slide for p in kept)
        if angle < 0.0:
            direction, angle, slide = -direction, -angle, -slide
        if tau == TYPE_R:
            spec = MobilitySpec(TYPE_R, direction, position, (0.0, float(angle)))
        else:
            slide_range = (0.0, float(slide)) if slide >= 0.0 else (float(slide), 0.0)
            spec = MobilitySpec(TYPE_TR, direction, position, (0.0, float(angle)), slide_range)

    flags.extend(range_flags(composed, spec))
    return FittedMobility(spec, residual, flags)


# The displacement decoder and the baseline's seg head before the projection
# moved ahead of the interpolation: both stages interpolated onto all N
# points, concatenated, and then multiplied by the first layer's weight.
def _interpolated(plan, f1: dc.Node, f2: dc.Node) -> list[dc.Node]:
    """Both stages' features interpolated back onto the plan's points, each
    by one matmul with its weights scattered into a dense (N, S) matrix."""
    return [dc.matmul(dense_weights(cols, w, f.value.shape[0]), f)
            for cols, w, f in ((plan.fp1_cols, plan.fp1_weights, f1), (plan.fp2_cols, plan.fp2_weights, f2))]


def hallucinate(net, plan) -> dc.Node:
    """DisplacementNet.hallucinate in its interpolate-then-project form."""
    f1, f2, g_feat = net.encoder.apply(plan)
    per_point = dc.concat([dc.constant(plan.points)] + _interpolated(plan, f1, f2), axis=1)
    w = net.params["dec.l1.w"]
    split = per_point.value.shape[1]
    base = dc.matmul(per_point, dc.slice_axis(w, 0, split))
    w_state = dc.slice_axis(w, split, w.value.shape[0])
    if net.use_rnn:
        x_proj = dc.linear(g_feat, net.params["lstm.wx"], net.params["lstm.b"])
        states = dc.lstm(x_proj, net.params["lstm.wh"], net.n_maps)
    else:
        states = g_feat
    state_part = dc.linear(states, w_state, net.params["dec.l1.b"])
    out = dc.pair_relu_linear(state_part, base, net.params["dec.l2.w"], net.params["dec.l2.b"])
    if net.use_rnn:
        return out
    return dc.concat([dc.slice_axis(out, 3 * t, 3 * t + 3, axis=1) for t in range(net.n_maps)])


def baseline_seg_logits(baseline, plan) -> dc.Node:
    """DirectBaseline's per-point logits in the interpolate-then-project form."""
    f1, f2, _ = baseline.encoder.apply(plan)
    per_point = dc.concat(_interpolated(plan, f1, f2), axis=1)
    p = baseline.params
    hidden = dc.relu_linear(per_point, p["base.seg.l1.w"], p["base.seg.l1.b"])
    return dc.linear(hidden, p["base.seg.l2.w"], p["base.seg.l2.b"])
