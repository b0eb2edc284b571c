"""Training loops, pipeline prediction, checkpoints, and the eval harness."""
import dataclasses
import types
import weakref

import numpy as np
import pytest

from pathlib import Path

import oracles
from microfixtures import micro_config, micro_records
from test_golden import _prediction_digest
from partmotion import diffcore as dc
from partmotion import training as tr
from partmotion.config import RunConfig
from partmotion.datagen import TEMPLATE_NAMES, generate_shape, make_sequence
from partmotion.losses import LossWeights, knn_radii
from partmotion.errors import ConfigError, DataError, NumericError
from partmotion.geom import MobilitySpec, mobility_transform, unit
from partmotion.nets import DisplacementNet, NetConfig


@pytest.fixture(scope="module")
def records():
    return micro_records(("drawer_box", "fan"))


@pytest.fixture(scope="module")
def instances(records):
    return tr.prepare_instances(records, micro_config())


@pytest.fixture(scope="module")
def trained(records, instances):
    cfg = micro_config()
    return cfg, tr.run_training(cfg, records, instances=instances)


# ---------------------------------------------------------------------------
# instance preparation


def test_instances_expand_each_frame(records, instances):
    assert len(instances) == len(records) * 4
    first = instances[0]
    assert first.t == 1
    assert first.n_true == 3
    assert first.targets.shape == (4, 64, 3)
    assert np.array_equal(first.points, records[0].frames[0])


def test_instances_of_a_shape_share_read_only_targets(records, instances):
    per_shape = len(instances) // len(records)
    for first, rest, others in ((instances[0], instances[1:per_shape], instances[per_shape:]),
                                (instances[per_shape], instances[per_shape + 1:], instances[:per_shape])):
        for inst in rest:
            assert np.shares_memory(inst.targets, first.targets)
        assert not any(np.shares_memory(o.targets, first.targets) for o in others)
        for array in (first.targets, first.points):
            with pytest.raises(ValueError):
                array.flat[0] = 1


def test_prepared_ground_truth_is_the_true_frames(records, instances):
    # instance t's map j ends in frame t-1+j, held at the last frame once the
    # motion is done; every instance of a shape views the same two buffers
    k = micro_config().weights.k_density
    per_shape = len(instances) // len(records)
    for s, rec in enumerate(records):
        n = len(rec.frames)
        own = instances[s * per_shape : (s + 1) * per_shape]
        others = instances[: s * per_shape] + instances[(s + 1) * per_shape :]
        for inst in own:
            want = np.stack([rec.frames[min(inst.t - 1 + j, n - 1)][inst.mov_idx] for j in range(1, n + 1)])
            assert inst.gt_moving.tobytes() == want.tobytes()
            assert inst.gt_radii.tobytes() == np.stack([knn_radii(cloud, k) for cloud in want]).tobytes()
            for name in ("gt_moving", "gt_radii"):
                array = getattr(inst, name)
                assert not array.flags.writeable
                assert np.shares_memory(array, getattr(own[0], name))
                assert not any(np.shares_memory(array, getattr(o, name)) for o in others)


def test_prepare_builds_radii_once_per_state(monkeypatch):
    # one k-NN radii table for each articulation state after the first,
    # shared by every instance whose targets reach it
    config = micro_config(categories=TEMPLATE_NAMES)
    records = micro_records(TEMPLATE_NAMES)
    calls = []
    monkeypatch.setattr(tr, "knn_radii", lambda points, k: calls.append(k) or knn_radii(points, k))
    tr.prepare_instances(records, config)
    assert len(calls) == len(records) * (config.n_frames - 1)


def _reachable_arrays(obj, seen=None):
    """Every ndarray reachable from obj through dataclass fields, sequences and array bases."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        if obj.base is not None:
            yield from _reachable_arrays(obj.base, seen)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _reachable_arrays(getattr(obj, f.name), seen)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _reachable_arrays(item, seen)


def test_prepared_instances_hold_no_dense_interpolation_matrix(instances):
    config = micro_config()
    dense = config.n_points * config.net.sa_stages[0][0]
    for inst in instances:
        arrays = list(_reachable_arrays(inst))
        assert any(a is inst.plan.fp1_weights for a in arrays)
        assert all(a.size != dense for a in arrays)


def test_fit_holds_one_step_graph_at_a_time(instances):
    config = micro_config()
    net = tr.DisplacementNet(config.n_frames, np.random.default_rng(0), config.net)
    roots = []

    def loss_fn(inst):
        assert not roots or roots[-1]() is None, "the previous step's graph is still alive"
        pieces = tr._instance_loss(net, inst, config)
        roots.append(weakref.ref(pieces["reconstruction"].value))  # the total's graph holds every piece
        return pieces

    tr._fit(instances, net.params, loss_fn, config, 1, 1, None)
    assert len(roots) == len(instances)


PIECES = ("reconstruction", "motion_consistency", "segmentation")


@pytest.mark.parametrize("flags, names", [
    ({}, PIECES),
    ({"no_rnn": True}, PIECES),
    ({"no_geom": True}, PIECES),  # l_disp alone is still a reconstruction
    ({"no_disp": True}, PIECES),
    ({"no_mot": True}, ("reconstruction", "segmentation")),
    ({"no_seg": True}, ("reconstruction", "motion_consistency")),
    ({"no_p0": True}, PIECES),
    ({"no_geom": True, "no_disp": True, "no_mot": True}, ("segmentation",)),
], ids=["full", "no_rnn", "no_geom", "no_disp", "no_mot", "no_seg", "no_p0", "segmentation_only"])
def test_fit_minimises_and_logs_the_in_order_sum_of_the_pieces(instances, monkeypatch, flags, names):
    sums, roots = [], []
    instance_loss, backward = tr._instance_loss, dc.backward

    def record_pieces(*args):
        pieces = instance_loss(*args)
        sums.append(sum(float(piece.value) for piece in pieces.values()))
        return pieces

    def record_root(root):
        roots.append(float(root.value))
        backward(root)

    monkeypatch.setattr(tr, "_instance_loss", record_pieces)
    monkeypatch.setattr(dc, "backward", record_root)
    _, lines = tr.train_displacement(instances, micro_config(log_every=1, **flags))
    assert len(roots) == len(instances) and roots == sums
    steps = [line.split() for line in lines if line.startswith("step ")]
    assert len(steps) == len(instances)
    for words in steps:  # step i epoch e loss total, then name value per piece
        assert tuple(words[6::2]) == names
        assert float(words[5]) == pytest.approx(sum(float(v) for v in words[7::2]), abs=1e-5)


def test_radii_are_tied_to_their_k_density(records, instances):
    first = instances[0]
    assert first.k_density == micro_config().weights.k_density
    assert first.gt_moving.shape == (4, first.mov_idx.size, 3)
    assert first.gt_radii.shape == (4, first.mov_idx.size)
    # prepared under k_density 8, trained under 3: the radii would be wrong
    config = micro_config(weights=dataclasses.replace(micro_config().weights, k_density=3))
    with pytest.raises(ConfigError, match="k_density"):
        tr.train_displacement(instances, config)
    tr.train_displacement(tr.prepare_instances(records[:1], config), config)


@pytest.mark.parametrize("train", [tr.train_displacement, tr.train_mobility], ids=["displacement", "mobility"])
def test_training_rejects_instances_of_another_frame_count(instances, train):
    # load_pipeline rebuilds the networks with config.n_frames maps
    with pytest.raises(ConfigError, match="another frame count than n_frames=3"):
        train(instances, micro_config(n_frames=3))


def test_prepare_rejects_records_of_another_size(tmp_path, records):
    # a 6-frame config over 4-frame records would train a 4-map net that
    # its own run directory could not reload
    with pytest.raises(DataError, match="n_frames=4 does not match config n_frames=6"):
        tr.run_training(micro_config(n_frames=6), records, out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_mobility_steps_once_per_start_part(instances, monkeypatch):
    seen = []
    l_mob = tr.l_mob
    monkeypatch.setattr(tr, "l_mob", lambda logits, axis, spec: seen.append(spec) or l_mob(logits, axis, spec))
    tr.train_mobility(instances, micro_config(mobility_epochs=1))
    expected = [spec for i in instances if i.t == 1 and i.specs is not None for spec in i.specs]
    assert len(seen) == len(expected) > 0
    assert {id(spec) for spec in seen} == {id(spec) for spec in expected}


def test_baseline_training_rejects_nonparametric_corpora():
    records = micro_records(("umbrella",))
    cfg = micro_config(categories=("umbrella",))
    with pytest.raises(DataError, match="mobility parameters"):
        tr.train_baseline(tr.prepare_instances(records, cfg), cfg)


# ---------------------------------------------------------------------------
# training loops


def test_training_is_deterministic(records, instances):
    cfg = micro_config()
    net_a, _ = tr.train_displacement(instances, cfg)
    net_b, _ = tr.train_displacement(instances, cfg)
    for name, node in net_a.params.items():
        assert np.array_equal(node.value, net_b.params[name].value), name


class _CountingAdam(oracles.Adam):
    """The per-parameter oracle, counting the steps whose gradient norm the clip cuts."""

    clipped = 0

    def step(self) -> None:
        grads = [p.grad for p in self.params.values() if p.grad is not None]
        total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
        type(self).clipped += self.max_grad_norm is not None and total > self.max_grad_norm
        super().step()


@pytest.mark.parametrize("clip", [25.0, 1e12], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("flags", [{}, {"no_seg": True}], ids=["full", "no_seg"])
def test_flat_adam_trains_the_bytes_of_the_per_parameter_oracle(instances, monkeypatch, flags, clip):
    cfg = micro_config(epochs=2, max_grad_norm=clip, **flags)
    net, _ = tr.train_displacement(instances, cfg)
    monkeypatch.setattr(dc, "Adam", _CountingAdam)
    monkeypatch.setattr(_CountingAdam, "clipped", 0)
    want, _ = tr.train_displacement(instances, cfg)
    assert (_CountingAdam.clipped > 0) == (clip == 25.0)
    for name, node in net.params.items():
        assert node.value.tobytes() == want.params[name].value.tobytes(), name
    if flags:  # the heads get no gradient and keep their initial values
        init = DisplacementNet(cfg.n_frames, np.random.default_rng([cfg.seed, 0]), cfg.net)
        assert all(node.value.tobytes() == init.params[name].value.tobytes()
                   for name, node in net.params.items() if name.startswith(("seg.", "feat.")))


def test_loss_log_lines_are_emitted(records, instances):
    cfg = micro_config(log_every=3)
    seen = []
    _, lines = tr.train_displacement(instances, cfg, log=seen.append)
    assert lines == seen
    assert any(line.startswith("step 0 ") for line in lines)
    assert lines[-1].startswith("epoch 0 mean_loss ")


@pytest.mark.parametrize("flags", [{}, {"basenet": True}], ids=["full", "basenet"])
def test_log_receives_exactly_the_loss_log_lines(tmp_path, records, instances, flags):
    seen = []
    tr.run_training(micro_config(**flags), records, out_dir=tmp_path, log=seen.append,
                    instances=instances)
    assert "".join(line + "\n" for line in seen) == (tmp_path / "loss.log").read_text()
    head = "baseline epoch " if flags else "mobility epoch "
    assert any(line.startswith(head) for line in seen)


def test_overfitting_reduces_the_loss():
    records = micro_records(("drawer_box",))
    cfg = micro_config(categories=("drawer_box",), epochs=80, lr=3e-3)
    instances = tr.prepare_instances(records[:1], cfg)[:1]
    _, lines = tr.train_displacement(instances, cfg)
    means = [float(l.split()[-1]) for l in lines if l.startswith("epoch")]
    assert means[-1] < 0.5 * means[0]


def test_numeric_blowup_aborts_with_step_index(records, instances):
    cfg = micro_config(lr=1e200)
    with pytest.raises(NumericError, match=r"training aborted at step \d+"):
        tr.train_displacement(instances, cfg)


def test_empty_instances_rejected():
    with pytest.raises(DataError, match="no training instances"):
        tr.train_displacement([], micro_config())


def test_mobility_training_skips_nonparametric_corpora():
    records = micro_records(("umbrella",))
    cfg = micro_config(categories=("umbrella",))
    instances = tr.prepare_instances(records, cfg)
    regressor, lines = tr.train_mobility(instances, cfg)
    assert regressor is None
    assert lines == []


def test_a_run_directory_holds_only_the_final_parameters(tmp_path, records, instances):
    tr.run_training(micro_config(no_mob_net=True), records, out_dir=tmp_path, instances=instances)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "displacement.params", "loss.log"]


# ---------------------------------------------------------------------------
# pipeline prediction


def test_pipeline_prediction_shapes(trained, records):
    cfg, pipe = trained
    pred = pipe.predict(records[0].frames[0])
    assert pred.maps.shape == (4, 64, 3)
    assert pred.labels.shape == (64,)
    parts = {int(p) for p in np.unique(pred.labels) if p != 0}
    assert set(pred.mobilities) == parts
    assert set(pred.fits) == parts
    assert set(pred.confidences) == parts


@pytest.mark.parametrize("source", ["trained", "loaded", "baseline"])
def test_prediction_builds_no_graph(tmp_path, monkeypatch, trained, records, instances, source):
    cfg, pipe = trained
    if source == "loaded":
        pipe = tr.load_pipeline(tr.save_pipeline(tmp_path / "run", pipe))
    elif source == "baseline":
        pipe = tr.Pipeline(cfg, baseline=tr.train_baseline(instances, cfg)[0])
    made, make = [], dc._make  # every node a diffcore op makes during the prediction
    monkeypatch.setattr(dc, "_make", lambda *args: made.append(make(*args)) or made[-1])
    pipe.predict(records[0].frames[0])
    assert made
    assert [n for n in made if n.parents or n.requires_grad] == []


@pytest.mark.parametrize("category", TEMPLATE_NAMES)
def test_prediction_bytes_do_not_depend_on_gradients(trained, category):
    _, pipe = trained
    cloud = micro_records(TEMPLATE_NAMES, seed=1, split="test")[TEMPLATE_NAMES.index(category)].frames[0]
    params = [*pipe.net.params.values(), *pipe.regressor.params.values()]
    frozen = _prediction_digest(pipe.predict(cloud))
    try:
        for param in params:
            param.requires_grad = True
        assert _prediction_digest(pipe.predict(cloud)) == frozen
    finally:
        for param in params:
            param.requires_grad = False


def test_part_too_small_to_register_keeps_regressor_mobility(trained, instances):
    cfg, pipe = trained
    inst = instances[0]
    member = np.flatnonzero(inst.labels > 0)[:2]
    spec, fit = pipe._part_mobility(inst.plan, inst.targets, member)
    assert fit is None
    assert spec is not None and spec.tau in ("T", "R", "TR")


@pytest.mark.parametrize("layers, what", [(("dec.l1", "dec.l2"), "displacement maps"),
                                          (("feat.l1", "feat.l2"), "clustering features"),
                                          (("mob.fc", "mob.axis"), "mobility regressor output")])
def test_non_finite_prediction_is_numeric_error(records, layers, what):
    cfg = micro_config()
    rng = np.random.default_rng(0)
    pipe = tr.Pipeline(cfg, net=tr.DisplacementNet(4, rng, cfg.net),
                       regressor=tr.MobilityRegressor(4, rng, cfg.net))
    # every point moving, so one part reaches the regressor
    pipe.net.params["seg.l2.b"].value[:] = [-100.0, 100.0]
    owner = pipe.regressor if layers[0].startswith("mob.") else pipe.net
    # finite weights whose product overflows: a huge hidden layer times a
    # huge output weight
    owner.params[f"{layers[0]}.b"].value[:] = 1e300
    owner.params[f"{layers[1]}.w"].value[:] = 1e300
    with pytest.raises(NumericError, match=what):
        pipe.predict(records[0].frames[0])


def test_zero_regressor_direction_is_numeric_error(records):
    cfg = micro_config()
    rng = np.random.default_rng(0)
    pipe = tr.Pipeline(cfg, net=tr.DisplacementNet(4, rng, cfg.net),
                       regressor=tr.MobilityRegressor(4, rng, cfg.net))
    pipe.net.params["seg.l2.b"].value[:] = [-100.0, 100.0]  # every point moving
    for name in ("mob.axis.w", "mob.axis.b"):
        pipe.regressor.params[name].value[:] = 0.0
    with pytest.raises(NumericError, match="mobility regressor output"):
        pipe.predict(records[0].frames[0])


@pytest.mark.parametrize("margin, eps", [(80.0, 40.0), (40.0, 20.0)])
def test_clustering_radius_is_half_the_margin(records, monkeypatch, margin, eps):
    cfg = micro_config(weights=LossWeights(margin=margin))
    pipe = tr.Pipeline(cfg, net=tr.DisplacementNet(4, np.random.default_rng(0), cfg.net))
    pipe.net.params["seg.l2.b"].value[:] = [-100.0, 100.0]  # every point moving
    seen = []
    dbscan_labels = tr.dbscan_labels
    monkeypatch.setattr(tr, "dbscan_labels", lambda dist, e, min_pts: seen.append(e) or dbscan_labels(dist, e, min_pts))
    pipe.predict(records[0].frames[0])
    assert seen == [eps]


def test_pipeline_requires_a_network():
    with pytest.raises(ConfigError, match="no displacement network"):
        tr.Pipeline(micro_config()).predict(np.zeros((64, 3)))


def test_threshold_segmentation_path(records, instances):
    cfg = micro_config(no_seg=True)
    pipe = tr.run_training(cfg, records, instances=instances)
    pred = pipe.predict(records[0].frames[0])
    assert set(np.unique(pred.labels)) <= {0, 1}
    if 1 in pred.labels:
        assert pred.confidences == {1: 1.0}


def test_basenet_pipeline(records, instances):
    cfg = micro_config(basenet=True)
    pipe = tr.run_training(cfg, records, instances=instances)
    assert pipe.baseline is not None and pipe.net is None
    pred = pipe.predict(records[0].frames[0])
    assert set(np.unique(pred.labels)) <= {0, 1}
    assert np.all(pred.maps == 0.0)
    if 1 in pred.mobilities:
        assert pred.fits[1] is None


def test_compose_spec_translation_flips_to_positive_span():
    maps = np.tile(np.array([0.0, 0.0, -0.05]), (4, 10, 1))
    spec = tr._compose_spec("T", np.array([0.0, 0.0, 1.0]), np.zeros(3), maps, None)
    assert spec.tau == "T"
    assert spec.direction @ np.array([0, 0, 1.0]) < 0
    assert spec.range_ == (0.0, pytest.approx(0.2))


def test_compose_spec_rotation_takes_fit_range():
    fit = MobilitySpec("R", unit([0, 0, 1.0]), np.zeros(3), (0.0, 90.0))
    spec = tr._compose_spec("R", np.array([0.0, 1.0, 0.0]), np.ones(3), np.zeros((4, 5, 3)), fit)
    assert spec.range_ == (0.0, 90.0)
    spec = tr._compose_spec("TR", np.array([0.0, 1.0, 0.0]), np.ones(3), np.zeros((4, 5, 3)), None)
    assert spec.range_ == (0.0, 0.0) and spec.slide_range == (0.0, 0.0)


class ReversedAxisRegressor:
    """A regressor that reads a part's type and axis line right but points the axis backwards."""

    def __init__(self, spec: MobilitySpec):
        self.spec = spec

    def predict(self, plan, channels):
        return self.spec.tau, -self.spec.direction, self.spec.position


@pytest.mark.parametrize("category", ["door_box", "laptop", "bottle_cap_TR"])
def test_reversed_regressor_axis_still_reproduces_the_last_frame(category):
    # mobfit measures the range about its own axis, so the composed spec
    # takes that axis's sense and keeps the regressor's line
    rec = micro_records((category,), n_points=128)[0]
    member, spec = np.flatnonzero(rec.labels == 1), rec.specs[0]
    pipe = tr.Pipeline(micro_config(), regressor=ReversedAxisRegressor(spec))
    plan = types.SimpleNamespace(points=rec.frames[0])
    composed, fit = pipe._part_mobility(plan, rec.displacement_maps, member)
    assert fit is not None and fit.tau == spec.tau == composed.tau
    np.testing.assert_allclose(composed.direction, spec.direction, atol=1e-12)
    np.testing.assert_array_equal(composed.position, spec.position)
    last = mobility_transform(composed, 1.0).apply(rec.frames[0][member])
    np.testing.assert_allclose(last, rec.frames[-1][member], atol=1e-9)


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_round_trip(tmp_path, trained, records):
    cfg, pipe = trained
    out = tmp_path / "run"
    tr.save_pipeline(out, pipe)
    assert (out / "config.json").exists()
    assert not (out / "model.json").exists()
    loaded = tr.load_pipeline(out)
    a = pipe.predict(records[1].frames[0])
    b = loaded.predict(records[1].frames[0])
    assert np.array_equal(a.maps, b.maps)
    assert np.array_equal(a.labels, b.labels)


def test_saving_removes_parameters_of_networks_the_pipeline_lacks(tmp_path, trained, records):
    cfg, pipe = trained
    out = tmp_path / "run"
    tr.save_pipeline(out, pipe)
    tr.save_pipeline(out, tr.Pipeline(cfg, net=pipe.net))
    assert not (out / tr.MOB_PARAMS).exists()
    loaded = tr.load_pipeline(out)
    assert loaded.regressor is None
    cloud = records[1].frames[0]
    assert _prediction_digest(loaded.predict(cloud)) == _prediction_digest(tr.Pipeline(cfg, net=pipe.net).predict(cloud))
    base = dataclasses.replace(cfg, basenet=True)
    tr.save_pipeline(out, tr.Pipeline(base, baseline=tr.DirectBaseline(np.random.default_rng(0), cfg.net)))
    assert sorted(p.name for p in out.iterdir()) == ["baseline.params", "config.json"]


@pytest.fixture(scope="module")
def benchmark_pipeline():
    return tr.load_pipeline(Path(__file__).parents[1] / "perfbench" / "checkpoint")


def test_benchmark_checkpoint_loads_and_predicts(benchmark_pipeline):
    # the benchmark's predict workload loads this run directory; a config
    # field it lists that RunConfig no longer takes must fail here first
    cloud = generate_shape("drawer_box", np.random.default_rng(0), 256).points
    pred = benchmark_pipeline.predict(cloud)
    assert pred.maps.shape == (8, 256, 3)
    assert pred.labels.shape == (256,)


# Digests of the benchmark checkpoint's predictions on the first state of
# two held-out umbrella shapes, built as perfbench's predict pool builds
# them. They mark 232 and 228 points as moving, so DBSCAN runs on its
# largest matrices here; the micro golden digests never get near that size.
# Recorded with BLAS on one thread, as conftest.py pins it.
UMBRELLA_DIGEST = {
    1: ("f78c17f168f41ac10f290dd579985fa1d76580e05d8ebbbcd004b6128ca6f5e0", 232),
    3: ("e3ed3de76a2c617ac9578c6c8952fbcfe3ba431597eaf91ff7ab1931d00d4cf8", 228),
}


@pytest.mark.parametrize("shape", sorted(UMBRELLA_DIGEST))
def test_benchmark_checkpoint_umbrella_prediction_bytes(benchmark_pipeline, shape):
    digest, n_moving = UMBRELLA_DIGEST[shape]
    rng = np.random.default_rng([1, TEMPLATE_NAMES.index("umbrella"), shape])
    seq = make_sequence(generate_shape("umbrella", rng, 256), 8)
    pred = benchmark_pipeline.predict(seq.frames[0])
    assert int((pred.labels > 0).sum()) == n_moving
    assert _prediction_digest(pred) == digest


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predict_rejects_non_finite_points(benchmark_pipeline, bad):
    cloud = generate_shape("drawer_box", np.random.default_rng(0), 256).points.copy()
    cloud[17, 2] = bad
    with pytest.raises(DataError, match="points must be finite"):
        benchmark_pipeline.predict(cloud)


def test_width_mismatch_is_a_data_error(tmp_path, trained):
    cfg, pipe = trained
    out = tmp_path / "run"
    tr.save_pipeline(out, pipe)
    # rewrite the run's config to claim different widths
    import json

    config = json.loads((out / "config.json").read_text())
    config["net"]["global_width"] = 48
    config["net"]["sa_stages"] = [[16, 0.35, [8, 16]], [4, 0.8, [16, 48]]]
    (out / "config.json").write_text(json.dumps(config))
    with pytest.raises(DataError, match="displacement.params: shape mismatch"):
        tr.load_pipeline(out)


def test_run_training_writes_artifacts(tmp_path, records, instances):
    cfg = micro_config()
    tr.run_training(cfg, records, out_dir=tmp_path / "run", instances=instances)
    names = {p.name for p in (tmp_path / "run").iterdir()}
    assert names == {"config.json", "loss.log", "displacement.params", "mobility.params"}
    log = (tmp_path / "run" / "loss.log").read_text()
    assert "mean_loss" in log and "mobility epoch" in log


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_model_rejects_empty_split(trained):
    cfg, pipe = trained
    with pytest.raises(DataError, match="no shapes"):
        tr.evaluate_model([], pipe)


def test_oracle_identity_is_exactly_zero():
    records = micro_records(("drawer_box", "fan", "umbrella"))
    result = tr.evaluate_oracle(records)
    r = result.report
    assert r.e_type == 0.0
    assert r.e_angle == 0.0
    assert r.e_dist == 0.0
    assert r.e_seg == 0.0
    assert r.n_shapes == 3


def test_unmatched_gt_part_scores_worst_case(records):
    # a pipeline whose labels never overlap ground truth
    cfg = micro_config()

    class Still:
        config = cfg

        def predict(self, points):
            from partmotion.nets import ShapePrediction

            n = points.shape[0]
            return ShapePrediction(
                np.zeros((4, n, 3)), np.zeros(n, dtype=np.int64), {}, {}, {}
            )

    result = tr.evaluate_model(records, Still())
    assert result.report.e_type == 1.0
    assert result.report.e_angle == pytest.approx(np.pi / 2)
    assert result.report.e_seg == 1.0


