import numpy as np
import pytest

from partmotion import diffcore as dc
from partmotion.errors import ConfigError
from partmotion.geom import MobilitySpec
from partmotion.nets import (
    THETA_STOP,
    DirectBaseline,
    DisplacementNet,
    EncoderPlan,
    MobilityRegressor,
    NetConfig,
    PredictionNode,
    ShapePrediction,
    build_plan,
    denormalized_spec,
    farthest_point_indices,
    feature_distance_matrix,
    recursive_predict,
)

TINY = NetConfig(
    sa_stages=((16, 0.35, (8, 16)), (4, 0.8, (16, 24))),
    group_sizes=(8, 4),
    global_width=24,
    decoder_hidden=16,
    head_hidden=8,
    feature_width=8,
)


def cloud(n, seed=0):
    return np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, 3))


# ---------------------------------------------------------------------------
# config and plan


def test_config_rejects_nondecreasing_sample_counts():
    with pytest.raises(ConfigError):
        NetConfig(sa_stages=((16, 0.2, (8, 16)), (16, 0.4, (16, 24))), global_width=24)


def test_config_rejects_nonpositive_width():
    with pytest.raises(ConfigError):
        NetConfig(sa_stages=((16, 0.2, (8, 0)), (4, 0.4, (16, 24))), global_width=24)


def test_config_global_width_must_match_last_stage():
    with pytest.raises(ConfigError):
        NetConfig(sa_stages=((16, 0.2, (8, 16)), (4, 0.4, (16, 24))), global_width=32)


def test_default_config_is_valid():
    cfg = NetConfig()
    assert cfg.sa_stages[0][0] == 64 and cfg.sa_stages[1][0] == 16
    assert cfg.global_width == 128


def test_build_plan_shapes_and_weights():
    pts = cloud(100)
    plan = build_plan(pts, TINY)
    assert plan.centroids1.shape == (16,)
    assert plan.groups1.shape == (16, 8)
    assert plan.centroids2.shape == (4,)
    assert plan.fp1.shape == (100, 16)
    assert plan.fp2.shape == (100, 4)
    np.testing.assert_allclose(plan.fp1.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(plan.fp2.sum(axis=1), 1.0, atol=1e-12)
    assert (np.count_nonzero(plan.fp1, axis=1) <= 3).all()


def test_build_plan_rejects_small_cloud():
    with pytest.raises(ConfigError):
        build_plan(cloud(8), TINY)


def test_farthest_point_sampling_is_order_free():
    pts = cloud(60, seed=3)
    perm = np.random.default_rng(1).permutation(60)
    a = pts[farthest_point_indices(pts, 10)]
    b = pts[perm][farthest_point_indices(pts[perm], 10)]
    np.testing.assert_allclose(a, b, atol=0.0)


def test_farthest_point_sampling_spreads_out():
    # a far-away outlier must be picked before its crowded neighbors
    pts = np.concatenate([cloud(40) * 0.1, [[5.0, 0.0, 0.0]]])
    idx = farthest_point_indices(pts, 4)
    assert 40 in idx


# ---------------------------------------------------------------------------
# encoder invariance


def test_global_feature_is_permutation_invariant():
    pts = cloud(80, seed=5)
    rng = np.random.default_rng(0)
    net = DisplacementNet(n_maps=2, rng=rng, cfg=TINY)
    _, _, g_a = net.encoder.apply(build_plan(pts, TINY))
    perm = np.random.default_rng(2).permutation(80)
    _, _, g_b = net.encoder.apply(build_plan(pts[perm], TINY))
    assert np.abs(g_a.value - g_b.value).max() < 1e-9


def test_hallucinated_maps_track_point_order():
    pts = cloud(64, seed=7)
    net = DisplacementNet(n_maps=2, rng=np.random.default_rng(0), cfg=TINY)
    maps_a = [m.value for m in net.hallucinate(build_plan(pts, TINY))]
    perm = np.random.default_rng(4).permutation(64)
    maps_b = [m.value for m in net.hallucinate(build_plan(pts[perm], TINY))]
    for a, b in zip(maps_a, maps_b):
        np.testing.assert_allclose(a[perm], b, atol=1e-9)


# ---------------------------------------------------------------------------
# displacement net


def test_hallucinate_emits_n_maps():
    pts = cloud(48)
    net = DisplacementNet(n_maps=4, rng=np.random.default_rng(1), cfg=TINY)
    maps = net.hallucinate(build_plan(pts, TINY))
    assert len(maps) == 4
    assert all(m.value.shape == (48, 3) for m in maps)


def test_zeroed_output_layer_means_zero_maps():
    pts = cloud(32)
    net = DisplacementNet(n_maps=3, rng=np.random.default_rng(2), cfg=TINY)
    net.params["dec.l2.w"].value[:] = 0.0
    net.params["dec.l2.b"].value[:] = 0.0
    for m in net.hallucinate(build_plan(pts, TINY)):
        assert np.abs(m.value).max() == 0.0


def test_recurrent_steps_differ():
    pts = cloud(32)
    net = DisplacementNet(n_maps=3, rng=np.random.default_rng(3), cfg=TINY)
    maps = net.hallucinate(build_plan(pts, TINY))
    assert np.abs(maps[0].value - maps[1].value).max() > 1e-8


def test_without_rnn_still_emits_n_maps():
    pts = cloud(32)
    net = DisplacementNet(n_maps=3, rng=np.random.default_rng(3), cfg=TINY, use_rnn=False)
    assert not any(k.startswith("lstm") for k in net.params)
    maps = net.hallucinate(build_plan(pts, TINY))
    assert len(maps) == 3 and all(m.value.shape == (32, 3) for m in maps)


def test_segment_head_shapes():
    pts = cloud(40)
    net = DisplacementNet(n_maps=2, rng=np.random.default_rng(4), cfg=TINY)
    maps = net.hallucinate(build_plan(pts, TINY))
    logits, feats = net.segment(dc.constant(pts), maps)
    assert logits.value.shape == (40, 2)
    assert feats.value.shape == (40, TINY.feature_width)


def test_segment_rejects_wrong_map_count():
    pts = cloud(40)
    net = DisplacementNet(n_maps=2, rng=np.random.default_rng(4), cfg=TINY)
    maps = net.hallucinate(build_plan(pts, TINY))
    with pytest.raises(ConfigError):
        net.segment(dc.constant(pts), maps[:1])


def test_feature_distance_matrix_properties():
    feats = np.random.default_rng(0).normal(size=(25, 8))
    m = feature_distance_matrix(feats)
    np.testing.assert_allclose(m, m.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(m), 0.0, atol=1e-12)
    assert (m >= 0.0).all()
    brute = np.linalg.norm(feats[:, None, :] - feats[None, :, :], axis=2)
    np.testing.assert_allclose(m, brute, atol=1e-9)


def test_tiny_overfit_loss_drops():
    pts = cloud(24, seed=9)
    plan = build_plan(pts, TINY)
    net = DisplacementNet(n_maps=2, rng=np.random.default_rng(5), cfg=TINY)
    target = [np.full((24, 3), 0.05), np.full((24, 3), -0.02)]
    opt = dc.Adam(net.parameters(), lr=5e-3)

    def loss_value():
        maps = net.hallucinate(plan)
        terms = [dc.reduce_mean(dc.mul(dc.sub(m, dc.constant(t)), dc.sub(m, dc.constant(t)))) for m, t in zip(maps, target)]
        total = terms[0]
        for t in terms[1:]:
            total = dc.add(total, t)
        return total

    first = float(loss_value().value)
    for _ in range(30):
        opt.zero_grad()
        loss = loss_value()
        dc.backward(loss)
        opt.step()
    assert float(loss_value().value) < first * 0.5


# ---------------------------------------------------------------------------
# mobility regressor


def test_component_channels_zero_outside_member_rows():
    pts = cloud(20)
    maps = np.random.default_rng(1).normal(size=(3, 20, 3))
    member = np.array([2, 5, 7])
    ch = MobilityRegressor.component_channels(pts, maps, member)
    assert ch.shape == (20, 12)
    np.testing.assert_allclose(ch[:, :3], pts, atol=0.0)
    outside = np.setdiff1d(np.arange(20), member)
    assert np.abs(ch[outside, 3:]).max() == 0.0
    np.testing.assert_allclose(ch[member, 3:6], maps[0, member], atol=0.0)


def test_mobility_regressor_output_shapes():
    pts = cloud(30)
    maps = np.random.default_rng(2).normal(size=(2, 30, 3))
    reg = MobilityRegressor(n_maps=2, rng=np.random.default_rng(6), cfg=TINY)
    plan = build_plan(pts, TINY)
    ch = MobilityRegressor.component_channels(pts, maps, np.arange(10))
    type_logits, axis_out = reg.forward(plan, ch)
    assert type_logits.value.shape == (1, 3)
    assert axis_out.value.shape == (1, 6)


def test_mobility_regressor_predict_normalizes_direction():
    pts = cloud(30)
    maps = np.zeros((2, 30, 3))
    reg = MobilityRegressor(n_maps=2, rng=np.random.default_rng(7), cfg=TINY)
    plan = build_plan(pts, TINY)
    ch = MobilityRegressor.component_channels(pts, maps, np.arange(10))
    tau, d, x = reg.predict(plan, ch)
    assert tau in ("T", "R", "TR")
    assert abs(np.linalg.norm(d) - 1.0) < 1e-12
    assert x.shape == (3,)


# ---------------------------------------------------------------------------
# baseline


def test_baseline_output_shapes():
    pts = cloud(40)
    base = DirectBaseline(rng=np.random.default_rng(8), cfg=TINY)
    seg, type_logits, axis_out = base.forward(build_plan(pts, TINY))
    assert seg.value.shape == (40, 2)
    assert type_logits.value.shape == (1, 3)
    assert axis_out.value.shape == (1, 6)


def test_baseline_predict_types():
    pts = cloud(40)
    base = DirectBaseline(rng=np.random.default_rng(9), cfg=TINY)
    moving, tau, d, x = base.predict(build_plan(pts, TINY))
    assert moving.shape == (40,) and moving.dtype == bool
    assert tau in ("T", "R", "TR")
    assert abs(np.linalg.norm(d) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# recursion


def lid_box_predictor(points: np.ndarray) -> ShapePrediction:
    """Two-level fixture: a box whose lid assembly contains a moving latch.

    Dispatches on cloud size: the full shape splits off a lid that rotates,
    the lid splits off a latch that slides, and the latch itself is still.
    """
    n = points.shape[0]
    spec_r = MobilitySpec("R", np.array([0.0, 0.0, 1.0]), np.zeros(3), (0.0, 90.0))
    spec_t = MobilitySpec("T", np.array([1.0, 0.0, 0.0]), None, (0.0, 0.2))
    if n == 200:
        labels = np.zeros(n, dtype=np.int64)
        labels[120:] = 1
        maps = np.zeros((2, n, 3))
        maps[:, 120:] = 0.1
        return ShapePrediction(maps, labels, {1: spec_r}, {1: 0.9})
    if n == 80:
        labels = np.zeros(n, dtype=np.int64)
        labels[40:] = 1
        maps = np.zeros((2, n, 3))
        maps[:, 40:] = 0.05
        return ShapePrediction(maps, labels, {1: spec_t}, {1: 0.8})
    return ShapePrediction(np.zeros((2, n, 3)), np.zeros(n, dtype=np.int64), {})


def test_recursive_predict_builds_two_levels():
    pts = cloud(200, seed=11)
    tree = recursive_predict(pts, lid_box_predictor, depth=2)
    assert isinstance(tree, PredictionNode)
    assert len(tree.children) == 1
    child = tree.children[0]
    np.testing.assert_array_equal(child.indices, np.arange(120, 200))
    assert child.prediction.mobilities[1].tau == "T"
    assert tree.depth == 2


def test_recursion_depth_limit():
    pts = cloud(200, seed=11)
    tree = recursive_predict(pts, lid_box_predictor, depth=1)
    assert tree.children == []
    with pytest.raises(ConfigError):
        recursive_predict(pts, lid_box_predictor, depth=0)


def test_recursion_depth_three_stops_at_still_latch():
    # latch level predicts zero motion, so no third split happens
    pts = cloud(200, seed=11)
    tree = recursive_predict(pts, lid_box_predictor, depth=3)
    lid = tree.children[0]
    assert len(lid.children) == 1
    latch = lid.children[0]
    assert latch.prediction.motion_complete
    assert latch.children == []


def test_recursion_skips_small_components():
    pts = cloud(200, seed=11)
    tree = recursive_predict(pts, lid_box_predictor, depth=2, min_points=100)
    assert tree.children == []


def test_child_mobility_mapped_back_to_parent_frame():
    pts = cloud(200, seed=11)
    tree = recursive_predict(pts, lid_box_predictor, depth=2)
    child_spec = tree.children[0].prediction.mobilities[1]
    lid_pts = pts[120:]
    scale = (lid_pts.max(axis=0) - lid_pts.min(axis=0)).max()
    # fixture emits a 0.2-long slide in normalized coordinates
    assert child_spec.tau == "T"
    assert abs(child_spec.range_[1] - 0.2 * scale) < 1e-12


def test_motion_complete_flag_threshold():
    maps = np.full((2, 10, 3), THETA_STOP / 10.0)
    pred = ShapePrediction(maps, np.zeros(10, dtype=np.int64), {})
    assert pred.motion_complete
    big = ShapePrediction(np.full((2, 10, 3), 0.5), np.zeros(10, dtype=np.int64), {})
    assert not big.motion_complete


def test_denormalized_spec_scaling():
    center = np.array([1.0, 2.0, 3.0])
    t = MobilitySpec("T", np.array([0.0, 1.0, 0.0]), None, (0.0, 0.4))
    out = denormalized_spec(t, 2.5, center)
    assert out.range_ == (0.0, 1.0)
    r = MobilitySpec("R", np.array([0.0, 0.0, 1.0]), np.array([0.2, 0.0, 0.0]), (0.0, 90.0))
    out = denormalized_spec(r, 2.0, center)
    np.testing.assert_allclose(out.position, np.array([1.4, 2.0, 3.0]), atol=1e-12)
    assert out.range_ == (0.0, 90.0)
    tr = MobilitySpec(
        "TR", np.array([0.0, 0.0, 1.0]), np.zeros(3), (0.0, 120.0), (0.0, 0.05)
    )
    out = denormalized_spec(tr, 4.0, center)
    assert out.slide_range == (0.0, 0.2)
    assert denormalized_spec(None, 2.0, center) is None
