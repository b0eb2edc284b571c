import ast
import dataclasses
from collections import Counter
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import oracles
from microfixtures import micro_config, micro_records
from partmotion import diffcore as dc
from partmotion import nets
from partmotion import training as tr
from partmotion.config import THETA_STOP, RunConfig
from partmotion.datagen import TEMPLATE_NAMES, generate_shape, make_sequence
from partmotion.errors import ConfigError, DataError
from partmotion.geom import MobilitySpec
from partmotion.losses import l_seg_obj
from partmotion.nets import (
    DirectBaseline,
    DisplacementNet,
    EncoderPlan,
    MobilityRegressor,
    NetConfig,
    PredictionNode,
    ShapePrediction,
    build_plan,
    dense_weights,
    k_smallest,
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
    assert plan.fp1_cols.shape == plan.fp1_weights.shape == (100, 3)
    assert plan.fp2_cols.shape == plan.fp2_weights.shape == (100, 3)
    assert plan.fp1_cols.max() < 16 and plan.fp2_cols.max() < 4
    fp1, fp2 = dense_plan_weights(plan)
    assert fp1.shape == (100, 16) and fp2.shape == (100, 4)
    np.testing.assert_allclose(fp1.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(fp2.sum(axis=1), 1.0, atol=1e-12)
    assert (np.count_nonzero(fp1, axis=1) <= 3).all()


def dense_plan_weights(plan: EncoderPlan) -> tuple[np.ndarray, np.ndarray]:
    """Both interpolation stages as the dense (N, S1) and (N, S2) matrices the encoder multiplies by."""
    return (dense_weights(plan.fp1_cols, plan.fp1_weights, plan.centroids1.size),
            dense_weights(plan.fp2_cols, plan.fp2_weights, plan.centroids2.size))


def group_offsets(plan: EncoderPlan) -> tuple[np.ndarray, np.ndarray]:
    """Each group member's offset from its centroid, per stage, as SAEncoder.apply derives them."""
    k1, k2 = plan.groups1.shape[1], plan.groups2.shape[1]
    p1 = plan.points[plan.centroids1]
    return (plan.points[plan.groups1.ravel()] - np.repeat(p1, k1, axis=0),
            p1[plan.groups2.ravel()] - np.repeat(p1[plan.centroids2], k2, axis=0))


def assert_plan_matches_oracle(got: EncoderPlan, want: dict) -> None:
    """Every array of the loop oracle's plan, byte for byte; fp1 and fp2 densified,
    rel1 and rel2 derived from the plan's indices."""
    arrays = {f.name: getattr(got, f.name) for f in dataclasses.fields(EncoderPlan) if not f.name.startswith("fp")}
    arrays["fp1"], arrays["fp2"] = dense_plan_weights(got)
    arrays["rel1"], arrays["rel2"] = group_offsets(got)
    assert arrays.keys() == want.keys()
    for name, b in want.items():
        a = arrays[name]
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_plan_stores_indices_and_weights_only():
    # default config, 256 points: 33.6 KiB besides the points, whatever the shape;
    # stored group offsets would add 27 KiB
    plan = build_plan(cloud(256), NetConfig())
    sizes = {f.name: getattr(plan, f.name).nbytes for f in dataclasses.fields(EncoderPlan) if f.name != "points"}
    assert sum(sizes.values()) <= 36 * 1024, sizes


def test_build_plan_rejects_small_cloud():
    with pytest.raises(ConfigError):
        build_plan(cloud(8), TINY)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_plan_rejects_non_finite_points(bad):
    # one bad coordinate must stop here: past the boundary it surfaces in the
    # k-nearest picks as an IndexError on mismatched shapes
    pts = cloud(64)
    pts[5, 1] = bad
    with pytest.raises(DataError, match="points must be finite"):
        build_plan(pts, TINY)


def test_build_plan_rejects_clouds_whose_squared_distances_overflow():
    pts = cloud(64)
    span = float(np.max(np.ptp(pts, axis=0)))
    build_plan(pts * (0.999 * nets.MAX_EXTENT / span), TINY)  # no overflow warning either
    for scale in (1.001 * nets.MAX_EXTENT / span, 1e160, 1e307):
        with pytest.raises(DataError, match=r"points span \S+ along one axis; above 7.741e\+153"):
            build_plan(pts * scale, TINY)
    pts[:2] = [[np.finfo(np.float64).max] * 3, [-np.finfo(np.float64).max] * 3]
    with pytest.raises(DataError, match="points span inf"):  # a span past the float range itself
        build_plan(pts, TINY)


def test_farthest_point_sampling_is_order_free():
    pts = cloud(60, seed=3)
    perm = np.random.default_rng(1).permutation(60)
    a = pts[build_plan(pts, TINY).centroids1]
    b = pts[perm][build_plan(pts[perm], TINY).centroids1]
    np.testing.assert_allclose(a, b, atol=0.0)


def test_farthest_point_sampling_spreads_out():
    # a far-away outlier must be picked before its crowded neighbors
    pts = np.concatenate([cloud(40) * 0.1, [[5.0, 0.0, 0.0]]])
    order = nets._coord_order(pts)
    picks, rows = nets._farthest_points(pts, order, 4)
    assert 40 in order[picks]
    want = np.linalg.norm(pts[order] - pts[order[picks]][:, None], axis=2)
    assert rows.tobytes() == want.tobytes()


def _plan_case(case):
    """(clouds, config) for one byte-for-byte comparison with the loop oracle."""
    def states(category, seed):
        sample = generate_shape(category, np.random.default_rng(seed), 256)
        return list(make_sequence(sample, RunConfig().n_frames).frames)

    pick = np.random.default_rng(11).integers
    if case == "rounded":
        return [np.round(p, 1) for p in states("cabinet_multi", 2)] + [np.round(cloud(256), 1)], NetConfig()
    if case == "duplicates":  # fewer distinct points than stage-1 centroids
        base = cloud(40, seed=3)
        return [base[pick(0, 40, 256)], np.round(base, 1)[pick(0, 40, 256)]], NetConfig()
    if case == "tiny":
        return [cloud(100), np.round(cloud(100, seed=1), 1), cloud(30, seed=2)[pick(0, 30, 60)]], TINY
    if case == "oversized":  # group sizes and fp_neighbors exceed the points available
        cfg = dataclasses.replace(TINY, group_sizes=(40, 20), fp_neighbors=20)
        return [cloud(30), np.round(cloud(30, seed=1), 1), np.round(cloud(30, seed=2), 0)], cfg
    if case in ("257", "600"):  # wider than 8 bits of column index in every point-table key
        n = int(case)
        return [cloud(n, seed=n), np.round(cloud(n, seed=n + 1), 1)], NetConfig()
    category, seed = case.split(":")
    return states(category, int(seed)), NetConfig()


@pytest.mark.parametrize(
    "case",
    [f"{c}:{s}" for c in TEMPLATE_NAMES for s in (0, 1)]
    + ["rounded", "duplicates", "tiny", "oversized", "257", "600"],
)
def test_build_plan_matches_loop_oracle_bytes(case):
    clouds, cfg = _plan_case(case)
    for pts in clouds:
        assert_plan_matches_oracle(build_plan(pts, cfg), oracles.build_plan(pts, cfg))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_nearest_matches_stable_argsort_on_ties(data):
    rows, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
    values = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=rows * n, max_size=rows * n))
    dist = np.array(values).reshape(rows, n)
    cols = np.array(data.draw(st.permutations(range(n))))
    k = data.draw(st.integers(1, n + 2))
    want = cols[np.argsort(dist[:, cols], axis=1, kind="stable")[:, :k]]
    assert cols[k_smallest(dist[:, cols], k)].tobytes() == want.tobytes()


K_SMALLEST_KINDS = ["random", "rounded", "all_equal", "ulp", "inf", "zeros"]


@pytest.mark.parametrize("kind", K_SMALLEST_KINDS)
def test_k_smallest_matches_stable_argsort(kind):
    rng = np.random.default_rng(K_SMALLEST_KINDS.index(kind))
    # 257 and more columns need more than 8 bits of column index in each key
    for rows, cols in ((64, 256), (150, 150), (7, 3), (20, 257), (9, 600)):
        table = rng.random((rows, cols))
        if kind == "rounded":
            table = np.round(table, 1)
        if kind == "all_equal":
            table[::2] = 0.5
        if kind == "ulp":  # one ulp below its left neighbour, so mostly the same key above the column bits
            table[:, 1::2] = np.nextafter(table[:, : cols - 1 : 2], 0.0)
        if kind == "inf":  # as l_mov's diagonal, and in runs that tie at the end of a row
            table[rng.random(table.shape) < 0.3] = np.inf
            np.fill_diagonal(table, np.inf)
        if kind == "zeros":  # exact zeros and repeats: distances between duplicate points
            base = rng.random((max(2, cols // 8), 3))
            table = cdist(base[rng.integers(0, len(base), rows)], base[rng.integers(0, len(base), cols)])
        for k in (1, 3, 8, cols, cols + 5):
            want = np.argsort(table, axis=1, kind="stable")[:, :k]
            assert k_smallest(table, k).tobytes() == want.tobytes(), (rows, cols, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_build_plan_matches_loop_oracle_on_drawn_clouds(data):
    # few distinct points on a 0.1 grid, repeated: ties everywhere
    coord = st.integers(-5, 5).map(lambda v: v / 10)
    base = np.array(data.draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=30)))
    rows = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=TINY.sa_stages[0][0], max_size=60))
    cfg = dataclasses.replace(TINY, group_sizes=(data.draw(st.integers(1, 24)), data.draw(st.integers(1, 8))),
                              fp_neighbors=data.draw(st.integers(1, 20)))
    pts = base[rows]
    assert_plan_matches_oracle(build_plan(pts, cfg), oracles.build_plan(pts, cfg))


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
    maps_a = net.hallucinate(build_plan(pts, TINY)).value.reshape(2, 64, 3)
    perm = np.random.default_rng(4).permutation(64)
    maps_b = net.hallucinate(build_plan(pts[perm], TINY)).value.reshape(2, 64, 3)
    for a, b in zip(maps_a, maps_b):
        np.testing.assert_allclose(a[perm], b, atol=1e-9)


# ---------------------------------------------------------------------------
# displacement net


def test_hallucinate_emits_n_maps():
    pts = cloud(48)
    net = DisplacementNet(n_maps=4, rng=np.random.default_rng(1), cfg=TINY)
    maps = net.hallucinate(build_plan(pts, TINY))
    assert maps.value.shape == (4 * 48, 3)


def test_zeroed_output_layer_means_zero_maps():
    pts = cloud(32)
    net = DisplacementNet(n_maps=3, rng=np.random.default_rng(2), cfg=TINY)
    net.params["dec.l2.w"].value[:] = 0.0
    net.params["dec.l2.b"].value[:] = 0.0
    assert np.abs(net.hallucinate(build_plan(pts, TINY)).value).max() == 0.0


def test_recurrent_steps_differ():
    pts = cloud(32)
    net = DisplacementNet(n_maps=3, rng=np.random.default_rng(3), cfg=TINY)
    maps = net.hallucinate(build_plan(pts, TINY)).value.reshape(3, 32, 3)
    assert np.abs(maps[0] - maps[1]).max() > 1e-8


def test_without_rnn_still_emits_n_maps():
    pts = cloud(32)
    net = DisplacementNet(n_maps=3, rng=np.random.default_rng(3), cfg=TINY, use_rnn=False)
    assert not any(k.startswith("lstm") for k in net.params)
    maps = net.hallucinate(build_plan(pts, TINY))
    assert maps.value.shape == (3 * 32, 3)


def test_segment_head_shapes():
    pts = cloud(40)
    net = DisplacementNet(n_maps=2, rng=np.random.default_rng(4), cfg=TINY)
    maps = net.hallucinate(build_plan(pts, TINY)).value.reshape(2, 40, 3)
    logits, rows, feats = net.segment(pts, maps)
    assert logits.value.shape == (40, 2)
    np.testing.assert_array_equal(rows, np.flatnonzero(logits.value.argmax(axis=1) == 1))
    assert feats.value.shape == (rows.size, TINY.feature_width)


@pytest.mark.parametrize("size", [2, 4, 18, 39, 96, 172, 256])
def test_features_of_a_row_subset_are_those_rows_of_all_points(size):
    # the feature head on some rows gives, bit for bit, those rows of an
    # all-points pass: prediction's features of its moving rows are what the
    # all-points head gave. Training's parameter gradients match gathering
    # those rows bit for bit from 39 rows, the fewest moving points of a
    # default-size shape; on a handful of rows OpenBLAS multiplies the
    # gradient by feat.l2.w's transpose in a small-matrix kernel, which
    # rounds differently in the last bit.
    rng = np.random.default_rng(size)
    net = DisplacementNet(n_maps=8, rng=np.random.default_rng([size, 1]), cfg=NetConfig())
    pts, maps = rng.uniform(-1, 1, size=(256, 3)), rng.normal(scale=0.05, size=(8, 256, 3))
    rows = np.sort(rng.choice(256, size=size, replace=False))
    weights = rng.normal(size=(rows.size, NetConfig().feature_width))
    sub = net.segment(pts, maps, rows)[2]
    full = net.segment(pts, maps, np.arange(256))[2]
    assert sub.value.tobytes() == full.value[rows].tobytes()
    feat = [p for k, p in net.params.items() if k.startswith("feat.")]
    grads = []
    for out in (sub, dc.gather_rows(full, rows)):
        for p in feat:
            p.grad = None
        dc.backward(dc.reduce_sum(dc.mul(out, weights)))
        grads.append([p.grad for p in feat])
    for a, b in zip(*grads):
        if size >= 39:
            assert a.tobytes() == b.tobytes()
        else:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


def test_segment_rejects_wrong_map_count():
    pts = cloud(40)
    net = DisplacementNet(n_maps=2, rng=np.random.default_rng(4), cfg=TINY)
    maps = net.hallucinate(build_plan(pts, TINY)).value.reshape(2, 40, 3)
    with pytest.raises(ConfigError):
        net.segment(pts, maps[:1])


def test_tiny_overfit_loss_drops():
    pts = cloud(24, seed=9)
    plan = build_plan(pts, TINY)
    net = DisplacementNet(n_maps=2, rng=np.random.default_rng(5), cfg=TINY)
    target = np.concatenate([np.full((24, 3), 0.05), np.full((24, 3), -0.02)])
    opt = dc.Adam(net.params, lr=5e-3)

    def loss_value():
        # the sum over both maps of each map's mean squared error
        diff = dc.sub(net.hallucinate(plan), target)
        return dc.mul(dc.reduce_mean(dc.mul(diff, diff)), 2.0)

    first = float(loss_value().value)
    for _ in range(30):
        opt.zero_grad()
        loss = loss_value()
        dc.backward(loss)
        opt.step()
    assert float(loss_value().value) < first * 0.5


def test_training_step_graph_size():
    # one micro `full` step, walked over the edges `dc.backward` follows;
    # a rewrite that adds nodes to the training graph must update this
    config = micro_config()
    inst = tr.prepare_instances(micro_records(("drawer_box", "fan")), config)[0]
    net = DisplacementNet(inst.targets.shape[0], np.random.default_rng([0, 0]), config.net)
    root = reduce(dc.add, tr._instance_loss(net, inst, config).values())  # the sum training._fit takes
    tags = Counter()
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        tags[node.op_tag] += 1
        stack.extend(p for p, _ in node.parents if p.requires_grad)
    assert sum(tags.values()) == 110
    known = _diffcore_op_tags()
    # the collector reads each way a tag reaches a node: a default, _binary, _affine, _reduce and _make
    assert {"leaf", "add", "relu_linear", "reduce_sum", "pair_relu_linear"} <= known
    assert sorted(set(tags) - known) == []


def _diffcore_op_tags() -> set[str]:
    """Every string diffcore's source gives a node as its op_tag: the default of each
    function with an op_tag parameter (Node's "leaf"), and each constant that a call
    of such a function (_make, _binary, _affine, _reduce) passes for it."""
    tree = ast.parse(Path(dc.__file__).read_text())
    position, tags = {}, set()
    for fn in ast.walk(tree):
        params = [a.arg for a in fn.args.args] if isinstance(fn, ast.FunctionDef) else []
        if "op_tag" in params:
            position[fn.name] = params.index("op_tag")
            default = dict(zip(reversed(params), reversed(fn.args.defaults))).get("op_tag")
            tags |= {default.value} if isinstance(default, ast.Constant) else set()
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in position:
            at = position[call.func.id]
            given = call.args[at : at + 1] + [k.value for k in call.keywords if k.arg == "op_tag"]
            tags |= {a.value for a in given if isinstance(a, ast.Constant) and isinstance(a.value, str)}
    return tags


# The decoder projects each stage's features before interpolating them; the
# oracle interpolates first. Same function, different rounding, so the two
# agree to within 1e-12 of each array's largest magnitude. The feature head's
# gradients are left out: they reach the maps only as data, and on the tiny
# no_rnn case an untrained head puts two moving points' features (entries
# near 48) 5e-9 apart. The contrastive term's gradient there points along
# their difference, which turns with the last bits of its input: it moved
# by up to 3.6e-7 of its largest entry (1e-3 while the distances came from
# the Gram identity, which read this pair as 0.0), where every other
# gradient stayed within 3e-15.
DECODER_NETS = {"default": (NetConfig(), 256), "tiny": (TINY, 64)}


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def _step_outputs(net, inst, config, hallucinate):
    """Maps, seg logits and every parameter gradient of one training step, with
    `hallucinate` standing in for the net's own."""
    seen = {}
    segment = net.segment

    def maps(plan):
        seen["maps"] = hallucinate(plan)
        return seen["maps"]

    def logits(*args):
        out = segment(*args)
        seen["seg"] = out[0]
        return out

    net.hallucinate, net.segment = maps, logits  # instance attributes shadow the methods
    try:
        dc.backward(reduce(dc.add, tr._instance_loss(net, inst, config).values()))
    finally:
        del net.hallucinate, net.segment
    grads = {k: p.grad for k, p in net.params.items()}
    for p in net.params.values():
        p.grad = None
    return seen["maps"].value, seen["seg"].value, grads


@pytest.mark.parametrize("no_rnn", [False, True], ids=["rnn", "no_rnn"])
@pytest.mark.parametrize("size", sorted(DECODER_NETS))
def test_decoder_matches_interpolate_then_project_oracle(size, no_rnn):
    cfg, n_points = DECODER_NETS[size]
    config = micro_config(net=cfg, n_points=n_points, no_rnn=no_rnn)
    for inst in tr.prepare_instances(micro_records(("drawer_box", "fan"), n_points=n_points), config)[::5]:
        net = DisplacementNet(inst.targets.shape[0], np.random.default_rng([1, inst.t]), cfg, use_rnn=not no_rnn)
        maps, seg, grads = _step_outputs(net, inst, config, net.hallucinate)
        want_maps, want_seg, want_grads = _step_outputs(net, inst, config, lambda plan: oracles.hallucinate(net, plan))
        assert _close(maps, want_maps) and _close(seg, want_seg)
        assert grads.keys() == want_grads.keys() and all(g is not None for g in grads.values())
        compared = [k for k in grads if not k.startswith("feat.")]
        assert len(compared) == len(grads) - 4
        assert all(_close(grads[k], want_grads[k]) for k in compared), \
            [k for k in compared if not _close(grads[k], want_grads[k])]


@pytest.mark.parametrize("size", sorted(DECODER_NETS))
def test_baseline_seg_head_matches_interpolate_then_project_oracle(size):
    cfg, n_points = DECODER_NETS[size]
    base = DirectBaseline(np.random.default_rng(6), cfg)
    for seed in range(3):
        seq = make_sequence(generate_shape(TEMPLATE_NAMES[seed], np.random.default_rng(seed), n_points), 4)
        plan = build_plan(seq.frames[0], cfg)
        outputs = []
        for seg in (base.forward(plan)[0], oracles.baseline_seg_logits(base, plan)):
            dc.backward(l_seg_obj(seg, seq.labels))
            outputs.append((seg.value, {k: p.grad for k, p in base.params.items()}))
            for p in base.params.values():
                p.grad = None
        (seg, grads), (want_seg, want_grads) = outputs
        assert _close(seg, want_seg)
        assert {k for k, g in grads.items() if g is not None} == {k for k, g in want_grads.items() if g is not None}
        assert all(_close(grads[k], want_grads[k]) for k in grads if grads[k] is not None)


def test_build_plan_work_count(monkeypatch):
    # one coordinate sort per point set (the points, the stage-1 centroids
    # and the stage-2 centroids) and one distance table for each stage's sampling
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np, "lexsort", counted("lexsort", np.lexsort))
    monkeypatch.setattr(nets, "cdist", counted("cdist", nets.cdist))
    build_plan(cloud(256), NetConfig())
    assert calls == {"lexsort": 3, "cdist": 2}


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


def fake_pipeline(predict, net: NetConfig = TINY) -> tr.Pipeline:
    """A pipeline whose flat prediction is `predict`; TINY's recursion floor is 32 points."""
    pipeline = tr.Pipeline(micro_config(net=net))
    pipeline.predict = predict
    return pipeline


def test_recursive_predict_builds_two_levels():
    pts = cloud(200, seed=11)
    tree = fake_pipeline(lid_box_predictor).predict_tree(pts, depth=2)
    assert isinstance(tree, PredictionNode)
    assert len(tree.children) == 1
    child = tree.children[0]
    np.testing.assert_array_equal(child.indices, np.arange(120, 200))
    assert child.prediction.mobilities[1].tau == "T"
    assert child.children == []


def test_recursion_depth_limit():
    pts = cloud(200, seed=11)
    pipeline = fake_pipeline(lid_box_predictor)
    assert pipeline.predict_tree(pts, depth=1).children == []
    with pytest.raises(ConfigError):
        pipeline.predict_tree(pts, depth=0)


def test_recursion_depth_three_stops_at_still_latch():
    # latch level predicts zero motion, so no third split happens
    pts = cloud(200, seed=11)
    tree = fake_pipeline(lid_box_predictor).predict_tree(pts, depth=3)
    lid = tree.children[0]
    assert len(lid.children) == 1
    latch = lid.children[0]
    assert latch.prediction.mean_step < THETA_STOP
    assert latch.children == []


def test_recursion_skips_small_components():
    # the floor is the stage-1 centroid count when that exceeds MIN_PART_POINTS
    pts = cloud(200, seed=11)
    net = dataclasses.replace(TINY, sa_stages=((100, 0.35, (8, 16)), (4, 0.8, (16, 24))))
    tree = fake_pipeline(lid_box_predictor, net).predict_tree(pts, depth=2)
    assert tree.children == []


def test_default_config_leaves_a_part_it_cannot_plan_as_a_leaf():
    # the default encoder samples 64 stage-1 centroids, so a 40-point part
    # would raise in Pipeline.predict if the recursion descended into it
    pipeline = tr.Pipeline(RunConfig())
    flat = pipeline.predict
    with pytest.raises(ConfigError, match="64 centroids"):
        flat(cloud(40))

    def predict(points):
        if points.shape[0] < 256:
            return flat(points)
        labels = (np.arange(256) < 40).astype(np.int64)
        return ShapePrediction(np.full((2, 256, 3), 0.1), labels, {1: None}, {1: 1.0})

    pipeline.predict = predict
    tree = pipeline.predict_tree(cloud(256), depth=2)
    assert tree.children == [] and tree.prediction.labels.sum() == 40


def test_child_mobility_mapped_back_to_parent_frame():
    pts = cloud(200, seed=11)
    tree = fake_pipeline(lid_box_predictor).predict_tree(pts, depth=2)
    child_spec = tree.children[0].prediction.mobilities[1]
    lid_pts = pts[120:]
    scale = (lid_pts.max(axis=0) - lid_pts.min(axis=0)).max()
    # fixture emits a 0.2-long slide in normalized coordinates
    assert child_spec.tau == "T"
    assert abs(child_spec.range_[1] - 0.2 * scale) < 1e-12


def test_depth_three_reports_grandchild_in_input_frame():
    # each level moves its last rows; the innermost part's axis passes
    # through its first point, which is input point 280
    def predictor(points):
        n = points.shape[0]
        labels = np.zeros(n, dtype=np.int64)
        labels[n // 2:] = 1
        maps = np.zeros((2, n, 3))
        maps[:, n // 2:] = 0.05
        spec = MobilitySpec("R", np.array([0.0, 0.0, 1.0]), points[n // 2].copy(), (0.0, 90.0))
        return ShapePrediction(maps, labels, {1: spec}, {1: 0.9}, {1: spec})

    pts = cloud(320, seed=4)
    tree = fake_pipeline(predictor).predict_tree(pts, depth=3)
    grandchild = tree.children[0].children[0]
    assert grandchild.children == []
    np.testing.assert_array_equal(grandchild.indices, np.arange(240, 320))
    for spec in (grandchild.prediction.mobilities[1], grandchild.prediction.fits[1]):
        np.testing.assert_allclose(spec.position, pts[280], atol=1e-12)

