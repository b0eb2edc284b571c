"""Training loops, pipeline prediction, checkpoints, and the eval harness."""
import numpy as np
import pytest

from microfixtures import micro_config, micro_records
from partmotion import diffcore as dc
from partmotion import training as tr
from partmotion.config import RunConfig
from partmotion.errors import ConfigError, DataError, NumericError
from partmotion.geom import MobilitySpec, unit
from partmotion.nets import NetConfig


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


def test_same_part_matrix_covers_moving_points(instances):
    inst = instances[0]
    assert inst.same_mov.shape == (inst.mov_idx.size, inst.mov_idx.size)
    assert set(np.unique(inst.same_mov)) <= {0, 1}


def test_part_samples_one_per_moving_part(instances):
    samples = tr.part_samples(instances, with_channels=True)
    expected = sum(len(i.specs) for i in instances if i.t == 1 and i.specs is not None)
    assert len(samples) == expected
    assert samples[0].channels.shape == (64, 3 * 5)


def test_part_samples_skip_nonparametric():
    records = micro_records(("umbrella",))
    instances = tr.prepare_instances(records, micro_config())
    assert tr.part_samples(instances, with_channels=False) == []


# ---------------------------------------------------------------------------
# training loops


def test_training_is_deterministic(records, instances):
    cfg = micro_config()
    net_a, _ = tr.train_displacement(instances, cfg)
    net_b, _ = tr.train_displacement(instances, cfg)
    for name, node in net_a.parameters().items():
        assert np.array_equal(node.value, net_b.parameters()[name].value), name


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


def test_mid_run_checkpoints_written(tmp_path, records, instances):
    cfg = micro_config(checkpoint_every=5)
    tr.train_displacement(instances, cfg, checkpoint_dir=tmp_path)
    assert (tmp_path / "step_000005.params").exists()


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


def test_part_too_small_to_register_keeps_regressor_mobility(trained, instances):
    cfg, pipe = trained
    inst = instances[0]
    member = np.flatnonzero(inst.labels > 0)[:2]
    spec, fit = pipe._part_mobility(inst.plan, inst.targets, member)
    assert fit is None
    assert spec is not None and spec.tau in ("T", "R", "TR")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_round_trip(tmp_path, trained, records):
    cfg, pipe = trained
    out = tmp_path / "run"
    tr.save_pipeline(out, pipe)
    assert (out / "config.json").exists()
    assert (out / "model.json").exists()
    loaded = tr.load_pipeline(out)
    a = pipe.predict(records[1].frames[0])
    b = loaded.predict(records[1].frames[0])
    assert np.array_equal(a.maps, b.maps)
    assert np.array_equal(a.labels, b.labels)


def test_width_mismatch_is_a_data_error(tmp_path, trained):
    cfg, pipe = trained
    out = tmp_path / "run"
    tr.save_pipeline(out, pipe)
    # rewrite the sidecar to claim different widths
    import json

    meta = json.loads((out / "model.json").read_text())
    meta["net"]["global_width"] = 48
    meta["net"]["sa_stages"] = [[16, 0.35, [8, 16]], [4, 0.8, [16, 48]]]
    (out / "model.json").write_text(json.dumps(meta))
    with pytest.raises(DataError, match="shape mismatch"):
        tr.load_pipeline(out)


def test_run_training_writes_artifacts(tmp_path, records, instances):
    cfg = micro_config()
    tr.run_training(cfg, records, out_dir=tmp_path / "run", instances=instances)
    names = {p.name for p in (tmp_path / "run").iterdir()}
    assert {"config.json", "model.json", "loss.log", "displacement.params",
            "mobility.params"} <= names
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
    r = result.report.as_dict()
    assert r["e_type"] == 0.0
    assert r["e_angle"] == 0.0
    assert r["e_dist"] == 0.0
    assert r["e_seg"] == 0.0
    assert r["n_shapes"] == 3


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


