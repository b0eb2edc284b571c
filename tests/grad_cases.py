"""Gradient-check fixtures: every engine op, the reference cell's sigmoid and
tanh from `oracles`, and every loss, checked against central finite
differences. Shared by the unit tests and the acceptance suite.

Each case function takes a seeded Generator and returns (name, arrays, build)
where build maps freshly wrapped Nodes for `arrays` onto a scalar Node.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from partmotion import diffcore as dc
from partmotion import losses
from partmotion.geom import MobilitySpec

import oracles

Case = tuple[str, list[np.ndarray], Callable]


def _proj(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape)


def _spread(rng: np.random.Generator, shape, gap: float = 0.05) -> np.ndarray:
    """Random values whose sorted gaps stay above `gap` along the last axis."""
    flat_shape = (int(np.prod(shape[:-1])), shape[-1])
    out = np.empty(flat_shape)
    for i in range(flat_shape[0]):
        base = np.arange(flat_shape[1]) * gap * 2.0
        out[i] = rng.permutation(base) + rng.uniform(0, gap * 0.5, size=flat_shape[1])
    return out.reshape(shape)


def case_add(rng):
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    w = _proj(rng, (4, 3))
    return "add", [a, b], lambda n: dc.reduce_sum(dc.mul(dc.add(n[0], n[1]), w))


def case_add_rowwise(rng):
    a, b = rng.normal(size=(5, 4)), rng.normal(size=(4,))
    w = _proj(rng, (5, 4))
    return "add_rowwise", [a, b], lambda n: dc.reduce_sum(dc.mul(dc.add(n[0], n[1]), w))


def case_sub(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    w = _proj(rng, (3, 4))
    return "sub", [a, b], lambda n: dc.reduce_sum(dc.mul(dc.sub(n[0], n[1]), w))


def case_mul(rng):
    a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    w = _proj(rng, (4, 4))
    return "mul", [a, b], lambda n: dc.reduce_sum(dc.mul(dc.mul(n[0], n[1]), w))


def case_div(rng):
    a = rng.normal(size=(4, 3))
    b = rng.uniform(0.5, 2.0, size=(4, 3)) * rng.choice([-1.0, 1.0], size=(4, 3))
    w = _proj(rng, (4, 3))
    return "div", [a, b], lambda n: dc.reduce_sum(dc.mul(dc.div(n[0], n[1]), w))


def case_scale(rng):
    """`mul` by a float constant."""
    a = rng.normal(size=(3, 3))
    w = _proj(rng, (3, 3))
    return "scale", [a], lambda n: dc.reduce_sum(dc.mul(dc.mul(n[0], -2.5), w))


def case_matmul(rng):
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 4))
    w = _proj(rng, (2, 4))
    return "matmul", [a, b], lambda n: dc.reduce_sum(dc.mul(dc.matmul(n[0], n[1]), w))


def case_linear(rng):
    x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
    p = _proj(rng, (5, 4))
    return "linear", [x, w, b], lambda n: dc.reduce_sum(dc.mul(dc.linear(n[0], n[1], n[2]), p))


def case_linear_flat_bias(rng):
    x, w, b = rng.normal(size=(2, 4)), rng.normal(size=(4, 6)), rng.normal(size=(6,))
    p = _proj(rng, (2, 6))
    return "linear_flat_bias", [x, w, b], lambda n: dc.reduce_sum(dc.mul(dc.linear(n[0], n[1], n[2]), p))


def case_reshape(rng):
    a = rng.normal(size=(4, 6))
    w = _proj(rng, (2, 12))
    return "reshape", [a], lambda n: dc.reduce_sum(dc.mul(dc.reshape(n[0], (2, 12)), w))


def case_concat_rows(rng):
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
    w = _proj(rng, (6, 3))
    return "concat_rows", [a, b], lambda n: dc.reduce_sum(dc.mul(dc.concat([n[0], n[1]], axis=0), w))


def case_concat_cols(rng):
    a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 5))
    w = _proj(rng, (3, 7))
    return "concat_cols", [a, b], lambda n: dc.reduce_sum(dc.mul(dc.concat([n[0], n[1]], axis=1), w))


def case_slice_rows(rng):
    a = rng.normal(size=(6, 3))
    w = _proj(rng, (3, 3))
    return "slice_rows", [a], lambda n: dc.reduce_sum(dc.mul(dc.slice_axis(n[0], 2, 5), w))


def case_slice_cols(rng):
    a = rng.normal(size=(3, 8))
    w = _proj(rng, (3, 4))
    return "slice_cols", [a], lambda n: dc.reduce_sum(dc.mul(dc.slice_axis(n[0], 4, 8, axis=1), w))


def case_gather_rows(rng):
    a = rng.normal(size=(5, 3))
    idx = rng.integers(0, 5, size=(7,))
    w = _proj(rng, (7, 3))
    return "gather_rows", [a], lambda n: dc.reduce_sum(dc.mul(dc.gather_rows(n[0], idx), w))


def case_gather_rows_2d_index(rng):
    a = rng.normal(size=(6, 2))
    idx = rng.integers(0, 6, size=(3, 4))
    w = _proj(rng, (3, 4, 2))
    return "gather_rows_2d", [a], lambda n: dc.reduce_sum(dc.mul(dc.gather_rows(n[0], idx), w))


def case_reduce_sum_all(rng):
    a = rng.normal(size=(3, 4))
    return "reduce_sum", [a], lambda n: dc.reduce_sum(n[0])


def case_reduce_sum_axis(rng):
    a = rng.normal(size=(3, 4))
    w = _proj(rng, (4,))
    return "reduce_sum_axis", [a], lambda n: dc.reduce_sum(dc.mul(dc.reduce_sum(n[0], axis=0), w))


def case_reduce_mean_all(rng):
    a = rng.normal(size=(4, 2))
    return "reduce_mean", [a], lambda n: dc.reduce_mean(n[0])


def case_reduce_mean_axis(rng):
    a = rng.normal(size=(4, 5))
    w = _proj(rng, (4,))
    return "reduce_mean_axis", [a], lambda n: dc.reduce_sum(dc.mul(dc.reduce_mean(n[0], axis=1), w))


def case_reduce_max(rng):
    a = _spread(rng, (4, 6))
    w = _proj(rng, (4,))
    return "reduce_max", [a], lambda n: dc.reduce_sum(
        dc.mul(dc.reduce_max(n[0], axis=1), w)
    )


def case_reduce_max_3d(rng):
    a = _spread(rng, (3, 4, 2))
    w = _proj(rng, (3, 2))
    return "reduce_max_3d", [a], lambda n: dc.reduce_sum(
        dc.mul(dc.reduce_max(n[0], axis=1), w)
    )


def case_relu(rng):
    a = rng.normal(size=(4, 4))
    a = np.where(np.abs(a) < 0.05, a + 0.2, a)
    w = _proj(rng, (4, 4))
    return "relu", [a], lambda n: dc.reduce_sum(dc.mul(dc.relu(n[0]), w))


def case_absolute(rng):
    a = rng.normal(size=(4, 4))
    a = np.where(np.abs(a) < 0.05, a + 0.2, a)
    w = _proj(rng, (4, 4))
    return "absolute", [a], lambda n: dc.reduce_sum(dc.mul(dc.absolute(n[0]), w))


def case_sigmoid(rng):
    a = rng.normal(size=(3, 4))
    w = _proj(rng, (3, 4))
    return "sigmoid", [a], lambda n: dc.reduce_sum(dc.mul(oracles.sigmoid(n[0]), w))


def case_tanh(rng):
    a = rng.normal(size=(3, 4))
    w = _proj(rng, (3, 4))
    return "tanh", [a], lambda n: dc.reduce_sum(dc.mul(oracles.tanh(n[0]), w))


def case_l2_norm_rows(rng):
    a = rng.normal(size=(6, 3)) + np.array([1.0, 0.5, -0.5])
    w = _proj(rng, (6,))
    return "l2_norm_rows", [a], lambda n: dc.reduce_sum(dc.mul(dc.l2_norm_rows(n[0]), w))


def case_softmax_cross_entropy(rng):
    a = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    return "softmax_cross_entropy", [a], lambda n: dc.softmax_cross_entropy(n[0], labels)


def case_variance(rng):
    a = rng.normal(size=(4, 6))
    w = _proj(rng, (6,))
    return "variance_along_axis", [a], lambda n: dc.reduce_sum(
        dc.mul(dc.variance_along_axis(n[0], axis=0), w)
    )


def case_pairwise_row_distances(rng):
    a = rng.normal(size=(5, 4)) * 2.0
    w = _proj(rng, (5, 5))
    return "pairwise_row_distances", [a], lambda n: dc.reduce_sum(
        dc.mul(dc.pairwise_row_distances(n[0]), w)
    )


def case_lstm(rng):
    width, steps = 3, 3
    x_proj = rng.normal(size=(1, 4 * width))
    w_h = rng.normal(size=(width, 4 * width)) * 0.5
    w = _proj(rng, (steps, width))
    return "lstm", [x_proj, w_h], lambda n: dc.reduce_sum(dc.mul(dc.lstm(n[0], n[1], steps), w))


def case_pair_relu_linear(rng):
    rows, cols = rng.normal(size=(2, 4)), rng.normal(size=(3, 4))
    while np.abs(rows[:, None] + cols).min() < 0.05:  # every pre-activation off the relu's kink
        rows = rng.normal(size=(2, 4))
    w, b = rng.normal(size=(4, 2)), rng.normal(size=(1, 2))
    proj = _proj(rng, (6, 2))
    return "pair_relu_linear", [rows, cols, w, b], lambda n: dc.reduce_sum(
        dc.mul(dc.pair_relu_linear(*n), proj)
    )


def case_mlp_chain(rng):
    x = rng.normal(size=(4, 3))
    w1 = rng.normal(size=(3, 5)) * 0.7
    b1 = rng.normal(size=(5,))
    w2 = rng.normal(size=(5, 2)) * 0.7
    labels = rng.integers(0, 2, size=4)

    def build(n):
        hidden = oracles.tanh(dc.add(dc.matmul(n[0], n[1]), n[2]))
        return dc.softmax_cross_entropy(dc.matmul(hidden, n[3]), labels)

    return "mlp_chain", [x, w1, b1, w2], build


OP_CASES = [
    case_add,
    case_add_rowwise,
    case_sub,
    case_mul,
    case_div,
    case_scale,
    case_matmul,
    case_linear,
    case_linear_flat_bias,
    case_reshape,
    case_concat_rows,
    case_concat_cols,
    case_slice_rows,
    case_slice_cols,
    case_gather_rows,
    case_gather_rows_2d_index,
    case_reduce_sum_all,
    case_reduce_sum_axis,
    case_reduce_mean_all,
    case_reduce_mean_axis,
    case_reduce_max,
    case_reduce_max_3d,
    case_relu,
    case_absolute,
    case_sigmoid,
    case_tanh,
    case_l2_norm_rows,
    case_softmax_cross_entropy,
    case_variance,
    case_pairwise_row_distances,
    case_lstm,
    case_pair_relu_linear,
    case_mlp_chain,
]


# ---------------------------------------------------------------------------
# loss fixtures


def _loss_fixture(rng, n_points=10, n_moving=6):
    """Small random scene shared by the loss gradient cases."""
    p0 = rng.uniform(-1, 1, size=(n_points, 3))
    mov = np.sort(rng.choice(n_points, size=n_moving, replace=False))
    gt_disp = np.zeros((3, n_points, 3))
    for t in range(3):
        gt_disp[t, mov] = rng.normal(scale=0.15, size=(n_moving, 3))
    return p0, mov, gt_disp


def moving_targets(p0, maps, mov, k):
    """l_mov's ground truth by cumulative sum: the moving points of p0 plus
    the first t maps for t = 1..n, (n, M, 3), and their knn_radii, (n, M)."""
    clouds = np.cumsum(np.concatenate([p0[None], maps]), axis=0)[1:, mov]
    return clouds, np.stack([losses.knn_radii(cloud, k) for cloud in clouds])


def case_loss_reference(rng):
    p0, mov, gt = _loss_fixture(rng)
    ref = np.setdiff1d(np.arange(len(p0)), mov)
    d = rng.normal(scale=0.1, size=p0.shape)

    def build(n):
        cloud = dc.add(p0, n[0])
        return losses.l_ref(cloud, p0, ref)

    return "loss_l_ref", [d], build


def case_loss_moving(rng):
    p0, mov, gt = _loss_fixture(rng, n_points=14, n_moving=10)
    target = p0[mov] + gt[0][mov] + rng.normal(scale=0.02, size=(len(mov), 3))
    radii = losses.knn_radii(target, 3)[None]
    d = rng.normal(scale=0.1, size=p0.shape)

    def build(n):
        cloud = dc.add(p0, n[0])
        return losses.l_mov(dc.gather_rows(cloud, mov), target[None], radii, k_density=3)

    return "loss_l_mov", [d], build


def case_loss_moving_frames(rng):
    p0, mov, gt = _loss_fixture(rng, n_points=14, n_moving=10)
    targets = p0[mov] + gt[:, mov] + rng.normal(scale=0.02, size=(3, len(mov), 3))
    radii = np.stack([losses.knn_radii(target, 3) for target in targets])
    rows = (np.arange(3)[:, None] * len(p0) + mov).ravel()
    d = rng.normal(scale=0.1, size=(3 * len(p0), 3))

    def build(n):
        clouds = dc.add(np.tile(p0, (3, 1)), n[0])
        return losses.l_mov(dc.gather_rows(clouds, rows), targets, radii, k_density=3)

    return "loss_l_mov_frames", [d], build


def case_loss_displacement(rng):
    p0, mov, gt = _loss_fixture(rng)
    d = rng.normal(scale=0.1, size=p0.shape)

    def build(n):
        return losses.l_disp(n[0], gt[0], mov)

    return "loss_l_disp", [d], build


def case_loss_motion(rng):
    p0, mov, gt = _loss_fixture(rng)
    maps = rng.normal(scale=0.1, size=(3, len(p0), 3))

    def build(n):
        return losses.l_mot(n[0], 3, mov, n_true=3)

    return "loss_l_mot", [maps.reshape(3 * len(p0), 3)], build


def case_loss_seg_object(rng):
    logits = rng.normal(size=(10, 2))
    labels = rng.integers(0, 2, size=10)

    def build(n):
        return losses.l_seg_obj(n[0], labels)

    return "loss_l_seg_obj", [logits], build


def case_loss_seg_moving(rng):
    feats = rng.normal(size=(7, 4)) * 8.0
    part = rng.integers(0, 2, size=7)

    def build(n):
        m = dc.pairwise_row_distances(n[0])
        return losses.l_seg_mov(m, part, margin=20.0)

    return "loss_l_seg_mov", [feats], build


def case_loss_mobility(rng):
    type_logits = rng.normal(size=(1, 3))
    axis6 = rng.normal(size=(1, 6))
    gt_d = axis6[0, :3] + rng.normal(scale=0.3, size=3)
    gt_d = gt_d / np.linalg.norm(gt_d)
    gt = MobilitySpec("TR", gt_d, rng.normal(size=3), slide_range=(0.0, 0.0))

    def build(n):
        return losses.l_mob(n[0], n[1], gt)

    return "loss_l_mob", [type_logits, axis6], build


def case_loss_mobility_translation(rng):
    type_logits = rng.normal(size=(1, 3))
    axis6 = rng.normal(size=(1, 6))
    gt_d = rng.normal(size=3)
    gt = MobilitySpec("T", gt_d / np.linalg.norm(gt_d))

    def build(n):
        return losses.l_mob(n[0], n[1], gt)

    return "loss_l_mob_translation", [type_logits, axis6], build


def case_loss_total(rng):
    p0, mov, gt = _loss_fixture(rng, n_points=12, n_moving=7)
    seg = np.zeros(len(p0), dtype=np.int64)
    seg[mov] = 1 + np.arange(len(mov)) % 2  # two moving parts
    d = rng.normal(scale=0.08, size=(3 * len(p0), 3))
    logits = rng.normal(size=(len(p0), 2))
    feats = rng.normal(size=(len(mov), 4)) * 5.0
    gt_moving, radii = moving_targets(p0, gt, mov, losses.LossWeights().k_density)

    def build(n):
        weights = losses.LossWeights()
        segmentation = losses.segmentation_loss(n[1], dc.pairwise_row_distances(n[2]), seg, weights)
        return losses.total_motion_loss(
            n[0], gt, p0, seg, gt_moving, radii, segmentation, n_true=2, weights=weights,
        ).total

    return "loss_total", [d, logits, feats], build


LOSS_CASES = [
    case_loss_reference,
    case_loss_moving,
    case_loss_moving_frames,
    case_loss_displacement,
    case_loss_motion,
    case_loss_seg_object,
    case_loss_seg_moving,
    case_loss_mobility,
    case_loss_mobility_translation,
    case_loss_total,
]

ALL_CASES = OP_CASES + LOSS_CASES
