"""The acceptance gate: one test per release criterion, one line of output each.

Four criteria, each in seconds and none of them training a model: every
gradient case plus the whole training objective against finite
differences; mobfit recovering the mobility of every part of three
generated shapes per parametric category exactly; the metrics against
brute-force oracles and exact identities; and DBSCAN recovering exact,
permutation-invariant partitions from ground-truth margin matrices.
"""
import time

import numpy as np
import pytest

from grad_cases import ALL_CASES, moving_targets
from microfixtures import TINY_NET
from oracles import brute_average_precision, rotation_matrix
from test_diffcore import run_gradient_case

from partmotion import diffcore as dc
from partmotion import losses
from partmotion.cluster import dbscan_labels
from partmotion.config import RunConfig
from partmotion.datagen import generate_dataset, generate_shape, load_dataset, make_sequence
from partmotion.datagen.templates import TEMPLATE_NAMES
from partmotion.geom import MobilitySpec
from partmotion.metrics import (
    angle_error,
    pooled_average_precision,
    position_error,
    prediction_matches,
)
from partmotion.mobfit import fit_sequence
from partmotion.nets import MobilityRegressor, build_plan
from partmotion import training as tr


def report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


# ---------------------------------------------------------------------------
# criterion: gradient suite


def test_criterion_gradient_suite():
    t0 = time.time()
    for case_fn in ALL_CASES:
        run_gradient_case(case_fn, n_fixtures=5, rel_tol=1e-3)

    # the whole training objective as one graph, N=16 points, n=3 maps
    rng = np.random.default_rng(161616)
    n_pts, n_maps = 16, 3
    p0 = rng.uniform(-0.5, 0.5, size=(n_pts, 3))
    seg = np.zeros(n_pts, dtype=np.int64)
    seg[:7] = [1, 1, 2, 2, 2, 3, 3]
    mov = np.flatnonzero(seg)
    gt = rng.normal(scale=0.05, size=(n_maps, n_pts, 3))
    flat = rng.normal(scale=0.08, size=(n_maps * n_pts, 3))
    logits = rng.normal(size=(n_pts, 2))
    feats = rng.normal(size=(len(mov), 8)) * 4.0
    gt_moving, radii = moving_targets(p0, gt, mov, losses.LossWeights().k_density)

    def build(nodes):
        weights = losses.LossWeights()
        segmentation = losses.segmentation_loss(nodes[1], dc.pairwise_row_distances(nodes[2]), seg, weights)
        return losses.total_motion_loss(
            nodes[0], gt, p0, seg, gt_moving, radii, segmentation, n_true=2, weights=weights,
        ).total

    case = lambda rng: ("full_eq1_graph", [flat, logits, feats], build)
    run_gradient_case(case, n_fixtures=1, rel_tol=1e-3)

    elapsed = time.time() - t0
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f} s"
    report("gradient suite", f"{len(ALL_CASES)} cases x 5 fixtures + full graph in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion: analytic fitting exactness


def test_criterion_mobfit_exactness():
    t0 = time.time()
    checked = 0
    worst_angle = worst_pos = worst_range = 0.0
    for cat_idx, category in enumerate(TEMPLATE_NAMES):
        for shape_idx in range(3):
            sample = generate_shape(category, np.random.default_rng([7, cat_idx, shape_idx]), 256)
            seq = make_sequence(sample, 8)
            if seq.specs is None:
                continue
            for part_id, spec in enumerate(seq.specs, start=1):
                member = seq.labels == part_id
                fit = fit_sequence(seq.frames[:, member])
                assert fit is not None, f"{category} part {part_id} not recovered"
                got = fit.spec
                assert got.tau == spec.tau, f"{category}: {got.tau} != {spec.tau}"
                a_err = angle_error(got.direction, spec.direction)
                worst_angle = max(worst_angle, a_err)
                assert a_err < 1e-6, f"{category}: angle error {a_err:.2e}"
                if spec.tau != "T":
                    p_err = position_error(got.position, got.direction, spec.position)
                    worst_pos = max(worst_pos, p_err)
                    assert p_err < 1e-6, f"{category}: position error {p_err:.2e}"
                r_err = max(
                    abs(got.range_[0] - spec.range_[0]), abs(got.range_[1] - spec.range_[1])
                )
                if spec.tau == "TR":
                    r_err = max(
                        r_err,
                        abs(got.slide_range[0] - spec.slide_range[0]),
                        abs(got.slide_range[1] - spec.slide_range[1]),
                    )
                worst_range = max(worst_range, r_err)
                assert r_err < 1e-6, f"{category}: range error {r_err:.2e}"
                checked += 1

    # the fan's range is fixed by construction; it must come back exactly
    fan = generate_shape("fan", np.random.default_rng(3), 256)
    seq = make_sequence(fan, 8)
    member = seq.labels == 1
    fit = fit_sequence(seq.frames[:, member])
    assert fit.spec.tau == "R"
    assert fit.spec.range_ == pytest.approx((0.0, 120.0), abs=1e-9)

    elapsed = time.time() - t0
    assert elapsed < 60.0, f"fitting suite took {elapsed:.1f} s"
    report(
        "mobfit exactness",
        f"{checked} parts exact (angle<{worst_angle:.1e}, pos<{worst_pos:.1e}, "
        f"range<{worst_range:.1e}), fan range (0, 120) in {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# criterion: metric oracle


def test_criterion_metric_oracle():
    t0 = time.time()
    # three shapes with hand-picked IoUs and confidences
    shapes = []
    gt = np.zeros(400, dtype=np.int64)
    gt[0:100], gt[100:200], gt[200:300] = 1, 2, 3
    pred = np.zeros(400, dtype=np.int64)
    pred[0:96], pred[100:170], pred[200:240] = 1, 2, 3
    shapes.append(prediction_matches(pred, gt, {1: 0.9, 2: 0.8, 3: 0.7}))

    gt2 = np.zeros(200, dtype=np.int64)
    gt2[0:80] = 1
    pred2 = np.zeros(200, dtype=np.int64)
    pred2[0:40], pred2[120:200] = 1, 2  # one decent part, one spurious
    shapes.append(prediction_matches(pred2, gt2, {1: 0.95, 2: 0.5}))

    gt3 = np.zeros(150, dtype=np.int64)
    gt3[0:50], gt3[50:100] = 1, 2
    pred3 = np.zeros(150, dtype=np.int64)
    pred3[0:50] = 1  # one part missed entirely
    shapes.append(prediction_matches(pred3, gt3, {1: 1.0}))

    ap = pooled_average_precision(shapes)
    oracle = brute_average_precision([(rec.matched, rec.n_gt) for rec in shapes])
    assert abs(ap - oracle) < 1e-12

    # angle identities: sign invariance, zero at parallel, pi/2 at orthogonal
    rng = np.random.default_rng(99)
    for _ in range(50):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        assert angle_error(d, -d) == pytest.approx(0.0, abs=1e-12)
        assert angle_error(d, d) == pytest.approx(0.0, abs=1e-12)
    assert angle_error(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])) == pytest.approx(np.pi / 2)

    # distance identity: truncation at 1
    far = MobilitySpec("R", np.array([0.0, 0, 1]), np.array([50.0, 0, 0]), (0.0, 10.0))
    origin = MobilitySpec("R", np.array([0.0, 0, 1]), np.zeros(3), (0.0, 10.0))
    assert position_error(far.position, far.direction, origin.position) == 1.0

    elapsed = time.time() - t0
    assert elapsed < 10.0
    report("metric oracle", f"3-shape AP {ap:.6f} == brute force, identities exact, {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# criterion: clustering on ground-truth margin matrices


def test_criterion_clustering_margin_matrices():
    t0 = time.time()
    rng = np.random.default_rng(4242)
    n_ok = 0
    for trial in range(100):
        k = int(rng.integers(1, 5))
        sizes = rng.integers(5, 40, size=k)
        labels = np.repeat(np.arange(k), sizes)
        rng.shuffle(labels)
        n = labels.size
        dist = np.where(labels[:, None] == labels[None, :], 0.0, 80.0)
        np.fill_diagonal(dist, 0.0)
        got = dbscan_labels(dist, 40.0, max(4, n // 50))
        # exact partition: identical co-membership
        assert np.array_equal(got[:, None] == got[None, :], labels[:, None] == labels[None, :])

        perm = rng.permutation(n)
        got_p = dbscan_labels(dist[np.ix_(perm, perm)], 40.0, max(4, n // 50))
        ref = got[perm]
        assert np.array_equal(got_p[:, None] == got_p[None, :], ref[:, None] == ref[None, :])
        n_ok += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report("clustering", f"{n_ok}/100 margin matrices exact and permutation-invariant, {elapsed:.1f} s")
