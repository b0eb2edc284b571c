import numpy as np
import pytest
from scipy.spatial.distance import cdist

from partmotion import diffcore as dc
from partmotion import losses
from partmotion.datagen import TEMPLATE_NAMES
from partmotion.errors import ConfigError, NumericError
from partmotion.geom import MobilitySpec
from partmotion.nets import NetConfig
from partmotion.training import prepare_instances

import oracles
from grad_cases import LOSS_CASES, moving_targets
from microfixtures import micro_config, micro_records
from oracles import brute_chamfer, brute_knn_radius, rotation_matrix
from test_diffcore import run_gradient_case


def _radii(gt, k):
    """knn_radii of each of a stack of ground-truth frames."""
    return np.stack([losses.knn_radii(g, k) for g in gt])


@pytest.mark.parametrize("case_fn", LOSS_CASES, ids=lambda fn: fn.__name__)
def test_loss_gradients_match_finite_differences(case_fn):
    run_gradient_case(case_fn)


def test_reference_term_zero_at_rest_and_counts_offsets():
    rng = np.random.default_rng(1)
    p0 = rng.normal(size=(8, 3))
    ref = np.array([0, 2, 5])
    at_rest = losses.l_ref(dc.constant(p0), p0, ref)
    assert float(at_rest.value) == 0.0
    moved = p0.copy()
    moved[2] += [0.0, 1.0, 0.0]
    moved[6] += [9.0, 9.0, 9.0]  # non-reference point, must not count
    out = losses.l_ref(dc.constant(moved), p0, ref)
    assert abs(float(out.value) - 1.0) < 1e-12


def test_moving_term_translation_gives_offset_norm():
    rng = np.random.default_rng(2)
    gt = rng.uniform(-1, 1, size=(1, 12, 3)) * 4.0  # far separated vs the offset
    t = np.array([0.02, -0.01, 0.015])
    pred = gt[0] + t
    out = losses.l_mov(dc.constant(pred), gt, _radii(gt, 4), k_density=4)
    # matching is exact, so the density term vanishes and Chamfer equals |t|
    assert abs(float(out.value) - np.linalg.norm(t)) < 1e-9


def test_moving_term_rigid_transform_has_zero_density():
    rng = np.random.default_rng(3)
    gt = rng.normal(size=(15, 3))
    rot = rotation_matrix(np.array([0.3, 0.5, 0.9]), 0.7)
    pred = gt @ rot.T  # same set rigidly moved, exact matching by construction?
    # rigid motion preserves all pairwise distances, so k-NN radii agree
    out_pred = losses.knn_radii(pred, 4)
    out_gt = losses.knn_radii(gt, 4)
    np.testing.assert_allclose(out_pred, out_gt, atol=1e-9)


def test_moving_term_matches_brute_chamfer_when_density_skipped():
    rng = np.random.default_rng(4)
    pred = rng.normal(size=(6, 3))
    gt = rng.normal(size=(6, 3))
    out = losses.l_mov(dc.constant(pred), gt[None], _radii(gt[None], 8), k_density=8)  # 6 <= 8 skips density
    assert abs(float(out.value) - brute_chamfer(pred, gt)) < 1e-12


@pytest.mark.parametrize("m, m_gt, k", [(12, 12, 4), (6, 6, 8), (10, 13, 4)],
                         ids=["density", "density_skipped", "unequal_sizes"])
def test_moving_term_over_stacked_frames_sums_single_frames(m, m_gt, k):
    rng = np.random.default_rng(9)
    n = 4
    pred = rng.normal(size=(n * m, 3))
    gt = rng.normal(size=(n, m_gt, 3))
    stacked = dc.parameter(pred)
    out = losses.l_mov(stacked, gt, _radii(gt, k), k)
    dc.backward(out)
    frames = [dc.parameter(pred[t * m:(t + 1) * m]) for t in range(n)]
    singles = [losses.l_mov(f, g[None], _radii(g[None], k), k) for f, g in zip(frames, gt)]
    for single in singles:
        dc.backward(single)
    expect = sum(float(single.value) for single in singles)
    assert abs(float(out.value) - expect) <= 1e-12 * abs(expect)
    np.testing.assert_allclose(stacked.grad, np.concatenate([f.grad for f in frames]), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("rows, frames", [(7, 3), (6, 0)])
def test_moving_term_rejects_rows_that_do_not_split_into_frames(rows, frames):
    with pytest.raises(ConfigError):
        losses.l_mov(dc.constant(np.zeros((rows, 3))), np.zeros((frames, 2, 3)), np.zeros((frames, 2)), 8)


@pytest.mark.parametrize("kind", ["random", "duplicates", "negative_zero"])
def test_cdist_matches_broadcast_norm_bytes(kind):
    # l_mov's nearest-neighbor choices rest on these bits being the same
    rng = np.random.default_rng(11)
    for m in (41, 120, 236):
        a = rng.normal(size=(m, 3)) * rng.uniform(0.01, 10.0)
        b = rng.normal(size=(m + 5, 3))
        if kind == "duplicates":
            a, b = np.round(a, 1), np.round(b, 1)
            a[::4] = a[1]
            b[: m // 2] = a[: m // 2]
        if kind == "negative_zero":
            a[::3] = -0.0
            a[1::3, 1] = -0.0
            b[::5] = 0.0
        for x, y in ((a, b), (a, a), (b, a)):
            expect = np.linalg.norm(x[:, None] - y[None, :], axis=2)
            assert cdist(x, y).tobytes() == expect.tobytes()


def test_knn_radii_match_brute_force():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(9, 3))
    radii = losses.knn_radii(pts, 3)
    for i in range(9):
        assert abs(radii[i] - brute_knn_radius(pts, i, 3)) < 1e-12


def test_displacement_term_matches_hand_sum():
    rng = np.random.default_rng(6)
    pred = rng.normal(size=(7, 3))
    gt = rng.normal(size=(7, 3))
    mov = np.array([1, 3, 4])
    out = losses.l_disp(dc.constant(pred), gt, mov)
    expect = sum(np.linalg.norm(pred[i] - gt[i]) for i in mov)
    assert abs(float(out.value) - expect) < 1e-12


def test_motion_term_zero_for_constant_speed():
    rng = np.random.default_rng(7)
    direction = rng.normal(size=(5, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    maps = dc.constant(np.tile(direction * 0.2, (4, 1)))
    out = losses.l_mot(maps, 4, np.arange(5), n_true=4)
    assert float(out.value) < 1e-15


def test_motion_term_ignores_padded_frames():
    mov = np.arange(3)
    true_map = np.ones((3, 3)) * 0.1
    zero_map = np.zeros((3, 3))
    maps = dc.constant(np.concatenate([true_map, true_map, zero_map]))
    with_pad = losses.l_mot(maps, 3, mov, n_true=3)
    prefix_only = losses.l_mot(maps, 3, mov, n_true=2)
    assert float(prefix_only.value) < 1e-15
    assert float(with_pad.value) > 1e-3
    assert float(losses.l_mot(maps, 3, mov, n_true=1).value) == 0.0
    with pytest.raises(ConfigError):
        losses.l_mot(maps, 3, mov, n_true=4)


def test_seg_object_uniform_and_confident_logits():
    labels = np.array([0, 1, 1, 0])
    uniform = losses.l_seg_obj(dc.constant(np.zeros((4, 2))), labels)
    assert abs(float(uniform.value) - np.log(2.0)) < 1e-12
    confident = np.where(np.eye(2)[labels] > 0, 10.0, -10.0)
    sharp = losses.l_seg_obj(dc.constant(confident), labels)
    assert float(sharp.value) < 1e-4


def test_seg_moving_contrastive_values():
    # pairs: (0,1) same at distance 5 -> 5 each direction;
    # (0,2) different at 100 -> 0; (1,2) different at 30 -> 50
    m = np.array(
        [
            [0.0, 5.0, 100.0],
            [5.0, 0.0, 30.0],
            [100.0, 30.0, 0.0],
        ]
    )
    out = losses.l_seg_mov(dc.constant(m), np.array([1, 1, 2]), margin=80.0)
    assert abs(float(out.value) - (2 * 5.0 + 2 * 0.0 + 2 * 50.0)) < 1e-12


@pytest.mark.parametrize("part_labels", [np.array([1, 1]), np.array([1, 1, 2, 2]), np.array([[1, 1, 2]])],
                         ids=["short", "long", "2d"])
def test_seg_moving_rejects_labels_that_do_not_pair_the_matrix(part_labels):
    with pytest.raises(ConfigError, match="does not pair part labels"):
        losses.l_seg_mov(dc.constant(np.zeros((3, 3))), part_labels, margin=80.0)


def test_segmentation_loss_is_the_weighted_sum_of_its_terms():
    # two moving parts (ids 1 and 2) among six points
    rng = np.random.default_rng(5)
    labels = np.array([0, 1, 2, 0, 2, 1])
    logits = dc.constant(rng.normal(size=(6, 2)))
    dist = dc.pairwise_row_distances(rng.normal(size=(4, 3)) * 30.0)
    weights = losses.LossWeights()
    out = losses.segmentation_loss(logits, dist, labels, weights)
    obj = float(losses.l_seg_obj(logits, labels).value)
    pairs = float(losses.l_seg_mov(dist, np.array([1, 2, 2, 1]), weights.margin).value)
    assert float(out.value) == weights.w_seg_obj * obj + weights.w_seg_mov * pairs


def test_mobility_loss_near_zero_for_exact_prediction():
    gt_d = np.array([0.0, 0.0, 1.0])
    gt_x = np.array([0.25, -0.5, 0.0])
    logits = dc.constant(np.array([[-20.0, 20.0, -20.0]]))
    axis = dc.constant(np.concatenate([gt_d, gt_x])[None, :])
    out = losses.l_mob(logits, axis, MobilitySpec("R", gt_d, gt_x))
    assert float(out.value) < 1e-4


def test_mobility_loss_translation_skips_position():
    gt_d = np.array([1.0, 0.0, 0.0])
    logits = dc.constant(np.array([[20.0, -20.0, -20.0]]))
    near = dc.constant(np.array([[1.0, 0.0, 0.0, 9.9, 9.9, 9.9]]))
    out = losses.l_mob(logits, near, MobilitySpec("T", gt_d))
    assert float(out.value) < 1e-4  # wild position ignored for translations


def test_mobility_loss_normalizes_direction():
    gt_d = np.array([0.0, 1.0, 0.0])
    logits = dc.constant(np.array([[20.0, -20.0, -20.0]]))
    scaled = dc.constant(np.array([[0.0, 7.5, 0.0, 0.0, 0.0, 0.0]]))
    out = losses.l_mob(logits, scaled, MobilitySpec("T", gt_d))
    assert float(out.value) < 1e-4


def _total_fixture(n=2, n_points=6):
    p0 = np.linspace(0.0, 1.0, n_points * 3).reshape(n_points, 3)
    seg = np.array([0, 0, 0, 1, 1, 1])
    gt = np.zeros((n, n_points, 3))
    return (p0, seg, gt, *moving_targets(p0, gt, np.flatnonzero(seg), 8))


def test_total_weights_reflected_in_reference_term():
    p0, seg, gt, gt_moving, radii = _total_fixture(n=1)
    maps = dc.constant(np.vstack([np.array([[0.0, 0.0, 0.3]]), np.zeros((5, 3))]))
    out = losses.total_motion_loss(
        maps, gt, p0, seg, gt_moving, radii, None, n_true=1, weights=losses.LossWeights(), no_mot=True,
    )
    # one reference point offset by 0.3: w_ref * 0.3 plus the moving-term
    # Chamfer of unmoved moving points (zero)
    assert abs(float(out.total.value) - 10.0 * 0.3) < 1e-9


def test_total_ablation_flags_drop_terms():
    p0, seg, gt, gt_moving, radii = _total_fixture()
    maps = dc.constant(np.zeros((12, 3)))
    segmentation = losses.segmentation_loss(
        dc.constant(np.zeros((6, 2))), dc.constant(np.zeros((3, 3))), seg, losses.LossWeights()
    )
    weights = losses.LossWeights()
    full = losses.total_motion_loss(maps, gt, p0, seg, gt_moving, radii, segmentation, n_true=2, weights=weights)
    assert list(full.terms) == ["reconstruction", "motion_consistency", "segmentation"]
    assert float(full.total.value) == sum(full.terms.values())
    no_seg = losses.total_motion_loss(maps, gt, p0, seg, gt_moving, radii, None, n_true=2, weights=weights)
    assert "segmentation" not in no_seg.terms
    with pytest.raises(ConfigError, match="all loss terms ablated away"):
        losses.total_motion_loss(
            maps, gt, p0, seg, gt_moving, radii, None, n_true=2, weights=weights,
            no_geom=True, no_disp=True, no_mot=True,
        )


def test_total_uniform_seg_logits_contribute_weighted_ln2():
    p0, seg, gt, gt_moving, radii = _total_fixture()
    maps = dc.constant(np.zeros((12, 3)))
    segmentation = losses.segmentation_loss(
        dc.constant(np.zeros((6, 2))), dc.constant(np.zeros((3, 3))), seg, losses.LossWeights()
    )
    out = losses.total_motion_loss(
        maps, gt, p0, seg, gt_moving, radii, segmentation, n_true=2,
        weights=losses.LossWeights(), no_geom=True, no_disp=True, no_mot=True,
    )
    assert abs(float(out.total.value) - 2.0 * np.log(2.0)) < 1e-12


def test_moving_term_is_permutation_invariant():
    rng = np.random.default_rng(8)
    pred = rng.normal(size=(10, 3))
    gt = rng.normal(size=(1, 10, 3))
    a = float(losses.l_mov(dc.constant(pred), gt, _radii(gt, 3), 3).value)
    perm = rng.permutation(10)
    b = float(losses.l_mov(dc.constant(pred[perm]), gt, _radii(gt, 3), 3).value)
    assert abs(a - b) < 1e-12


@pytest.mark.parametrize("maps_rows, gt_shape, moving_shape, radii_shape", [
    (12, (2, 5, 3), (2, 3, 3), (2, 3)),
    (10, (2, 6, 3), (2, 3, 3), (2, 3)),
    (0, (0, 6, 3), (2, 3, 3), (2, 3)),
    (12, (12, 3), (2, 3, 3), (2, 3)),
    (12, (2, 6, 3), (1, 3, 3), (2, 3)),
    (12, (2, 6, 3), (2, 6, 3), (2, 3)),
    (12, (2, 6, 3), (6, 3), (2, 3)),
    (12, (2, 6, 3), (2, 3, 3), (2, 6)),
    (12, (2, 6, 3), (2, 3, 3), (3, 3)),
], ids=["gt_points", "map_rows", "no_frames", "gt_2d", "moving_frames", "moving_all_points", "moving_2d",
        "radii_all_points", "radii_frames"])
def test_total_rejects_maps_that_do_not_match_targets(maps_rows, gt_shape, moving_shape, radii_shape):
    # 3 of the fixture's 6 points move, over 2 frames
    p0, seg, *_ = _total_fixture()
    with pytest.raises(ConfigError, match="total_motion_loss"):
        losses.total_motion_loss(
            dc.constant(np.zeros((maps_rows, 3))), np.zeros(gt_shape), p0, seg,
            np.zeros(moving_shape), np.zeros(radii_shape), None, n_true=1, weights=losses.LossWeights(),
        )


def _backward_bytes(fn, pred):
    node = dc.parameter(pred)
    out = fn(node)
    dc.backward(out)
    return out.value.tobytes(), node.grad.tobytes()


@pytest.mark.parametrize("k", [3, 8])
@pytest.mark.parametrize("category", TEMPLATE_NAMES)
def test_moving_term_matches_per_step_oracle_bytes(category, k):
    # the true frames and radii built once per state must give the value and
    # gradient bytes of the per-step term, which rebuilt the radii and
    # argsorted each row every step
    config = micro_config(categories=(category,), weights=losses.LossWeights(k_density=k))
    instances = prepare_instances(micro_records(config.categories, n_frames=4), config)
    rng = np.random.default_rng([TEMPLATE_NAMES.index(category), k])
    for inst in (instances[0], instances[1], instances[-1]):  # 3, 2 and 0 real maps
        gt = inst.gt_moving
        pred = (gt + rng.normal(scale=0.01, size=gt.shape)).reshape(-1, 3)
        got = _backward_bytes(lambda p: losses.l_mov(p, gt, inst.gt_radii, k), pred)
        assert got == _backward_bytes(lambda p: oracles.l_mov(p, gt, k), pred), (inst.t, inst.n_true)


def test_moving_term_matches_oracle_bytes_on_a_default_size_umbrella():
    # the default scale: N = 256 with an umbrella's 234 moving points, n = 8 maps
    config = micro_config(categories=("umbrella",), n_points=256, n_frames=8, net=NetConfig())
    inst = prepare_instances(micro_records(config.categories, n_points=256, n_frames=8), config)[0]
    gt, k = inst.gt_moving, config.weights.k_density
    assert gt.shape == (8, 234, 3) and k == 8
    pred = (gt + np.random.default_rng(7).normal(scale=0.01, size=gt.shape)).reshape(-1, 3)
    got = _backward_bytes(lambda p: losses.l_mov(p, gt, inst.gt_radii, k), pred)
    assert got == _backward_bytes(lambda p: oracles.l_mov(p, gt, k), pred)


@pytest.mark.parametrize("m", [5, 8, 9, 230], ids=["below_k", "equal_k", "k_plus_one", "m_230"])
def test_moving_term_matches_oracle_bytes_on_random_frames(m):
    # with M <= k the density term is skipped; at M = k + 1 every other point
    # is a neighbour; M = 230 is near the default size
    rng = np.random.default_rng(m)
    p0 = rng.normal(size=(m, 3))
    maps = np.concatenate([rng.normal(scale=0.1, size=(2, m, 3)), np.zeros((2, m, 3))])
    gt, radii = moving_targets(p0, maps, np.arange(m), 8)
    pred = (gt + rng.normal(scale=0.01, size=gt.shape)).reshape(-1, 3)
    got = _backward_bytes(lambda p: losses.l_mov(p, gt, radii, 8), pred)
    assert got == _backward_bytes(lambda p: oracles.l_mov(p, gt, 8), pred)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_moving_term_rejects_non_finite_predictions(bad):
    rng = np.random.default_rng(13)
    gt = rng.normal(size=(2, 12, 3))
    pred = rng.normal(size=(24, 3))
    pred[17] = bad
    with pytest.raises(NumericError, match="non-finite"):
        losses.l_mov(dc.constant(pred), gt, _radii(gt, 4), 4)


def test_moving_term_rejects_radii_of_another_shape():
    gt = np.zeros((2, 12, 3))
    with pytest.raises(ConfigError, match="radii"):
        losses.l_mov(dc.constant(np.zeros((24, 3))), gt, np.zeros((2, 11)), 4)
