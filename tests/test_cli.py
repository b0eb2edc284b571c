"""End-to-end command surface: every subcommand plus the exit-code contract."""
import dataclasses
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microfixtures import TINY_NET, TINY_NET_JSON, micro_config, tree_hash
from partmotion.cli import main
from partmotion.config import THETA_STOP, load_config
from partmotion.datagen import TEMPLATE_NAMES, dataset, generate_dataset
from partmotion.errors import DataError
from partmotion.nets import DisplacementNet, MobilityRegressor, NetConfig, ShapePrediction
from partmotion.plyio import read_ply, write_ply
from partmotion.training import Pipeline, save_pipeline

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
README_CONFIG = README.split("```json\n")[1].split("```")[0]  # the micro config, saved as micro.json


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One micro config + dataset + trained run shared by the whole module."""
    root = tmp_path_factory.mktemp("cli")
    cfg = micro_config(
        dataset_dir=str(root / "data"), out_dir=str(root / "run"), mobility_epochs=1
    )
    cfg.save(root / "config.json")
    assert main(["gen", "--config", str(root / "config.json")]) == 0
    assert main(["train", "--config", str(root / "config.json")]) == 0
    return root


def test_gen_writes_manifest_and_echo(workdir, capsys):
    data = workdir / "data"
    assert (data / "manifest.json").exists()
    assert (data / "split.txt").exists()
    assert (data / "config.json").exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert len(manifest["shapes"]) == 10


def test_gen_refuses_to_overwrite(workdir, capsys):
    assert main(["gen", "--config", str(workdir / "config.json")]) == 3
    assert "--force" in capsys.readouterr().err


def test_gen_force_reproduces_bytes(workdir, tmp_path):
    out = tmp_path / "data2"
    args = ["gen", "--config", str(workdir / "config.json"), "--out", str(out)]
    assert main(args) == 0
    first = tree_hash(out)
    assert main(args + ["--force"]) == 0
    assert tree_hash(out) == first
    assert first == tree_hash(workdir / "data")


def test_gen_force_keeps_a_directory_gen_did_not_write(workdir, tmp_path, capsys):
    out = tmp_path / "mine"
    out.mkdir()
    (out / "important.txt").write_text("keep me\n")
    (out / "fan_000").mkdir()
    assert main(["gen", "--config", str(workdir / "config.json"), "--out", str(out), "--force"]) == 3
    err = capsys.readouterr().err
    assert str(out) in err and "important.txt" in err
    assert sorted(p.name for p in out.iterdir()) == ["fan_000", "important.txt"]
    assert (out / "important.txt").read_text() == "keep me\n"


def test_gen_force_replaces_a_half_written_dataset(workdir, tmp_path):
    out = tmp_path / "half"
    shutil.copytree(workdir / "data" / "fan_001", out / "fan_001")
    (out / "drawer_box_007").mkdir()
    (out / "split.txt").write_text("stale\n")
    assert main(["gen", "--config", str(workdir / "config.json"), "--out", str(out), "--force"]) == 0
    assert tree_hash(out) == tree_hash(workdir / "data")



def test_gen_force_into_the_working_directory_replaces_its_dataset(workdir, tmp_path, monkeypatch):
    out = tmp_path / "data"
    shutil.copytree(workdir / "data", out)
    (out / "fan_000" / "frame_01.ply").write_text("stale\n")
    monkeypatch.chdir(out)
    assert main(["gen", "--config", str(workdir / "config.json"), "--out", ".", "--force"]) == 0
    assert tree_hash(out) == tree_hash(workdir / "data")
    assert [path.name for path in tmp_path.iterdir()] == ["data"]


@pytest.mark.parametrize("fault, code, message", [
    ("n_points", 2, "16 points is too few for multi-part templates"),
    ("scan", 3, "no usable viewpoint"),
], ids=["config_error", "scan_error"])
def test_failed_gen_force_leaves_the_old_dataset_as_it_was(workdir, tmp_path, capsys, monkeypatch,
                                                           fault, code, message):
    out = tmp_path / "data"
    shutil.copytree(workdir / "data", out)
    before = tree_hash(out)
    config = json.loads((workdir / "config.json").read_text())
    if fault == "n_points":
        config["n_points"] = 16
    else:  # every shape before the first test shape is written, then its scan fails
        def no_viewpoint(*args, **kwargs):
            raise DataError("no usable viewpoint after 20 tries")
        monkeypatch.setattr(dataset, "scan_with_viewpoint_retries", no_viewpoint)
    (tmp_path / "bad.json").write_text(json.dumps(config))
    assert main(["gen", "--config", str(tmp_path / "bad.json"), "--out", str(out), "--force"]) == code
    assert message in capsys.readouterr().err
    assert tree_hash(out) == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.json", "data"]


def test_gen_repeated_category_is_config_error(tmp_path, capsys):
    micro_config(categories=("drawer_box",)).save(tmp_path / "config.json")
    text = (tmp_path / "config.json").read_text().replace('"drawer_box"', '"fan", "fan"')
    (tmp_path / "config.json").write_text(text)
    assert main(["gen", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "data")]) == 2
    assert "repeat" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("field, value", [("n_points", 10**400), ("seed", 2**63), ("shapes_per_category", 2**31)])
def test_gen_huge_integer_is_config_error(tmp_path, capsys, field, value):
    micro_config(categories=("drawer_box",)).save(tmp_path / "config.json")
    config = json.loads((tmp_path / "config.json").read_text())
    (tmp_path / "config.json").write_text(json.dumps({**config, field: value}))
    assert main(["gen", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "data")]) == 2
    assert f"{field} must lie strictly between" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_gen_too_few_points_for_the_templates_is_config_error(tmp_path, capsys):
    micro_config(categories=("drawer_box",)).save(tmp_path / "config.json")
    config = json.loads((tmp_path / "config.json").read_text())
    (tmp_path / "config.json").write_text(json.dumps({**config, "n_points": 16}))
    assert main(["gen", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "data")]) == 2
    assert "16 points is too few for multi-part templates" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_failed_gen_into_a_missing_directory_makes_none_of_it(tmp_path, capsys):
    micro_config(categories=("drawer_box",)).save(tmp_path / "config.json")
    config = json.loads((tmp_path / "config.json").read_text())
    (tmp_path / "config.json").write_text(json.dumps({**config, "n_points": 16}))
    assert main(["gen", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "a" / "b")]) == 2
    assert "16 points is too few" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("key, value", [("scan_fraction", 0.5), ("scan_sigma", 0.01)])
def test_gen_rejects_a_scan_setting_away_from_the_one_every_run_used(tmp_path, capsys, key, value):
    micro_config().save(tmp_path / "config.json")
    config = json.loads((tmp_path / "config.json").read_text())
    (tmp_path / "config.json").write_text(json.dumps({**config, key: value}))
    assert main(["gen", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "data")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_gen_writes_the_library_corpus_with_every_test_shape_scanned(tmp_path):
    # on the README micro config, gen's tree less its config.json is generate_dataset's at the same arguments
    (tmp_path / "micro.json").write_text(README_CONFIG)
    assert main(["gen", "--config", str(tmp_path / "micro.json"), "--out", str(tmp_path / "cli")]) == 0
    (tmp_path / "cli" / "config.json").unlink()
    cfg = load_config(tmp_path / "micro.json")
    generate_dataset(tmp_path / "lib", cfg.categories, cfg.shapes_per_category, cfg.n_points, cfg.n_frames, cfg.seed)
    files = {root: {p.relative_to(tmp_path / root): p.read_bytes() for p in (tmp_path / root).rglob("*")
                    if p.is_file()} for root in ("cli", "lib")}
    assert files["cli"] == files["lib"]
    manifest = json.loads((tmp_path / "cli" / "manifest.json").read_text())
    assert (manifest["scan_sigma"], manifest["scan_fraction"]) == (0.005, 1.0)
    tests = [e["shape_id"] for e in manifest["shapes"] if e["split"] == "test"]
    assert tests and sorted(p.parent.name for p in (tmp_path / "cli").glob("*/scan.ply")) == sorted(tests)
    for shape_id in tests:
        assert json.loads((tmp_path / "cli" / shape_id / "shape.json").read_text())["scan"]["sigma"] == 0.005


def test_train_writes_run_dir(workdir):
    run = workdir / "run"
    names = {p.name for p in run.iterdir()}
    assert {"config.json", "loss.log", "displacement.params"} <= names
    assert "model.json" not in names  # config.json alone describes the networks
    assert "mean_loss" in (run / "loss.log").read_text()


def test_train_rejects_mismatched_dataset(workdir, tmp_path, capsys):
    cfg = micro_config(n_points=32, dataset_dir=str(workdir / "data"))
    cfg.save(tmp_path / "bad.json")
    assert main(["train", "--config", str(tmp_path / "bad.json"),
                 "--out", str(tmp_path / "r")]) == 3
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    ({}, "training aborted at step"),
    # without l_mov and the clustering features, the loss itself is the first non-finite value
    ({"no_geom": True, "no_seg": True}, "training aborted at step 1: non-finite loss value"),
], ids=["full", "loss_only"])
def test_train_numeric_failure_exits_4(workdir, tmp_path, capsys, flags, message):
    cfg = micro_config(lr=1e200, dataset_dir=str(workdir / "data"), **flags)
    cfg.save(tmp_path / "hot.json")
    # numpy's overflow warnings are muted: with warnings as errors, the run still exits 4
    assert main(["train", "--config", str(tmp_path / "hot.json"), "--out", str(tmp_path / "r")]) == 4
    assert message in capsys.readouterr().err


def test_train_with_every_loss_term_ablated_is_config_error(workdir, tmp_path, capsys):
    cfg = micro_config(dataset_dir=str(workdir / "data"), no_geom=True, no_disp=True, no_mot=True, no_seg=True,
                       log_every=1)
    cfg.save(tmp_path / "none.json")
    assert main(["train", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "r"), "--verbose"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: all loss terms ablated away\n"
    assert captured.out == ""  # --verbose streams every step line: none was made
    assert not (tmp_path / "r" / "loss.log").exists()


@pytest.mark.parametrize("section, key, value", [(None, "checkpoint_every", 5), (None, "checkpoint_every", False),
                                                 ("weights", "include_padded_motion", True), (None, "beta1", 0.95)])
def test_train_rejects_a_retired_key_away_from_its_old_default(workdir, tmp_path, capsys, section, key, value):
    config = json.loads((workdir / "config.json").read_text())
    (config[section] if section else config)[key] = value
    (tmp_path / "old.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "old.json"), "--out", str(tmp_path / "r")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_train_drops_retired_keys_at_their_old_values(workdir, tmp_path):
    # a config written before Adam's and the scan's settings were retired trains
    # as before, and the run's config.json no longer holds them
    config = json.loads((workdir / "config.json").read_text())
    old = {**config, "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-08, "checkpoint_every": 0,
           "scan_sigma": 0.005, "scan_fraction": 1.0}
    (tmp_path / "old.json").write_text(json.dumps(old))
    assert main(["train", "--config", str(tmp_path / "old.json"), "--out", str(tmp_path / "r")]) == 0
    assert json.loads((tmp_path / "r" / "config.json").read_text()) == config
    assert (tmp_path / "r" / "loss.log").read_bytes() == (workdir / "run" / "loss.log").read_bytes()


def test_train_zero_grad_clip_is_config_error(workdir, tmp_path, capsys):
    # a clip norm of 0 scales every step to nothing, so training would run but never learn
    config = json.loads((workdir / "config.json").read_text())
    (tmp_path / "stall.json").write_text(json.dumps({**config, "max_grad_norm": 0.0}))
    assert main(["train", "--config", str(tmp_path / "stall.json"), "--out", str(tmp_path / "r")]) == 2
    assert "max_grad_norm" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_predict_writes_frames_and_report(workdir, tmp_path, capsys):
    out = tmp_path / "pred"
    inp = workdir / "data" / "drawer_box_004" / "frame_01.ply"
    assert main(["predict", "--run", str(workdir / "run"),
                 "--input", str(inp), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "prediction report" in stdout
    assert "resampled false" in stdout
    assert "motion_complete" in stdout
    frames = sorted(out.glob("pred_*.ply"))
    assert [f.name for f in frames] == ["pred_001.ply", "pred_002.ply",
                                        "pred_003.ply", "pred_004.ply"]
    pts, labels = read_ply(frames[0])
    assert pts.shape == (64, 3)
    report = (out / "report.txt").read_text()
    assert report.startswith("prediction report\n")


def test_predict_resamples_offsize_input(workdir, tmp_path, capsys):
    rng = np.random.default_rng(5)
    cloud = rng.uniform(-0.5, 0.5, size=(100, 3))
    write_ply(tmp_path / "big.ply", cloud, np.zeros(100, dtype=np.int64))
    assert main(["predict", "--run", str(workdir / "run"),
                 "--input", str(tmp_path / "big.ply"), "--out", str(tmp_path / "p")]) == 0
    out = capsys.readouterr().out
    assert "resampled true" in out
    pts, _ = read_ply(tmp_path / "p" / "pred_001.ply")
    assert pts.shape == (64, 3)


def test_predict_recursive_tree(workdir, tmp_path, capsys):
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    assert main(["predict", "--run", str(workdir / "run"), "--input", str(inp),
                 "--out", str(tmp_path / "p"), "--recursive", "2"]) == 0
    assert "node level 1" in capsys.readouterr().out


FAN_004_PARTS = """\
points 64
mean_step 0.005646
motion_complete true
step_magnitudes 0.005594 0.005236 0.005608 0.006145
segmentation reference 59 moving_parts 1
part 1 size 5 confidence 0.0997
part 1 mobility type TR direction -0.455253,0.750601,-0.478897 position 0.051231,0.026883,0.037324 \
range 0.000000,0.000000 slide 0.000000,0.000000
part 1 mobfit type T direction 0.517250,-0.554303,0.652075 position - range 0.000000,0.011475
"""


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_predict_report_text_is_pinned(workdir, tmp_path, depth):
    # the whole report of the module's micro run; the run's maps are below
    # theta_stop, so depth 2 adds only the root's node line
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    assert main(["predict", "--run", str(workdir / "run"), "--input", str(inp),
                 "--out", str(tmp_path / "p"), "--recursive", str(depth)]) == 0
    node = "node level 1 points 64\n" if depth == 2 else ""
    head = f"prediction report\ninput {inp}\nresampled false\n{node}"
    assert (tmp_path / "p" / "report.txt").read_text() == head + FAN_004_PARTS


def test_predict_tree_report_text_is_pinned(workdir, tmp_path):
    # an untrained net moves the cloud past theta_stop, so the tree has a child
    cfg = micro_config()
    rng = np.random.default_rng(0)
    run = save_pipeline(tmp_path / "run", Pipeline(cfg, net=DisplacementNet(4, rng, cfg.net),
                                                   regressor=MobilityRegressor(4, rng, cfg.net)))
    inp = workdir / "data" / "drawer_box_000" / "frame_01.ply"
    assert main(["predict", "--run", str(run), "--input", str(inp), "--out", str(tmp_path / "p"),
                 "--recursive", "2"]) == 0
    assert (tmp_path / "p" / "report.txt").read_text() == f"""\
prediction report
input {inp}
resampled false
node level 1 points 64
points 64
mean_step 0.109841
motion_complete false
step_magnitudes 0.096021 0.105166 0.114920 0.123256
segmentation reference 12 moving_parts 1
part 1 size 52 confidence 0.0156
part 1 mobility type R direction -0.835131,0.418283,-0.357206 position 0.018224,-0.065116,-0.024049 \
range 0.000000,0.000000
part 1 mobfit none
  node level 2 points 52
  points 52
  mean_step 0.167664
  motion_complete false
  step_magnitudes 0.146797 0.161424 0.175271 0.187163
  segmentation reference 1 moving_parts 1
  part 1 size 51 confidence 0.0162
  part 1 mobility type R direction -0.802358,0.465810,-0.373153 position -0.005662,-0.062002,0.235194 \
range 0.000000,0.000000
  part 1 mobfit none
"""


def test_predict_recursive_stops_at_config_theta_stop(workdir, tmp_path, capsys):
    # an untrained net moves the whole cloud well past the default threshold,
    # so only a config threshold above its motion keeps the tree at level 1
    inp = workdir / "data" / "drawer_box_000" / "frame_01.ply"
    deeper = {}
    for theta_stop in (THETA_STOP, 1.0):
        cfg = micro_config(theta_stop=theta_stop)
        rng = np.random.default_rng(0)
        pipeline = Pipeline(cfg, net=DisplacementNet(4, rng, cfg.net),
                            regressor=MobilityRegressor(4, rng, cfg.net))
        run = save_pipeline(tmp_path / f"run_{theta_stop}", pipeline)
        assert main(["predict", "--run", str(run), "--input", str(inp),
                     "--out", str(tmp_path / "p"), "--recursive", "3"]) == 0
        deeper[theta_stop] = "node level 2" in capsys.readouterr().out
    assert deeper == {THETA_STOP: True, 1.0: False}


@pytest.mark.parametrize("moving, deeper", [(40, False), (56, True)])
def test_predict_recursive_leaves_parts_below_stage_one_centroids(
        workdir, tmp_path, monkeypatch, capsys, moving, deeper):
    # with 48 stage-1 centroids a 40-point part cannot be encoded, so it stays a leaf
    net = NetConfig(**{**TINY_NET, "sa_stages": ((48, 0.35, (8, 16)), (4, 0.8, (16, 24)))})
    cfg = micro_config(net=net)
    rng = np.random.default_rng(0)
    run = save_pipeline(tmp_path / "run", Pipeline(cfg, net=DisplacementNet(4, rng, net),
                                                   regressor=MobilityRegressor(4, rng, net)))
    inner = Pipeline.predict

    def predict(self, points):
        if points.shape[0] < cfg.n_points:
            return inner(self, points)
        labels = (np.arange(cfg.n_points) < moving).astype(np.int64)
        return ShapePrediction(np.full((4, cfg.n_points, 3), 0.1), labels, {1: None}, {1: 1.0})

    monkeypatch.setattr(Pipeline, "predict", predict)
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    assert main(["predict", "--run", str(run), "--input", str(inp),
                 "--out", str(tmp_path / "p"), "--recursive", "2"]) == 0
    assert ("node level 2" in capsys.readouterr().out) == deeper


def test_predict_unknown_run_is_data_error(workdir, tmp_path, capsys):
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    assert main(["predict", "--run", str(tmp_path / "nowhere"),
                 "--input", str(inp), "--out", str(tmp_path / "p")]) == 3


def test_predict_negative_recursion_depth_is_config_error(workdir, tmp_path, capsys):
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    assert main(["predict", "--run", str(workdir / "run"), "--input", str(inp),
                 "--out", str(tmp_path / "p"), "--recursive", "-1"]) == 2
    assert "--recursive" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_predict_missing_params_file_is_data_error(workdir, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(workdir / "run", run)
    (run / "displacement.params").unlink()
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    assert main(["predict", "--run", str(run), "--input", str(inp),
                 "--out", str(tmp_path / "p")]) == 3
    assert "displacement.params" in capsys.readouterr().err


def test_predict_params_file_listing_a_tensor_twice_is_data_error(workdir, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(workdir / "run", run)
    path = run / "displacement.params"
    header, payload = path.read_bytes().split(b"\ndata\n")
    lines = header.decode().splitlines()  # magic, count, then one line per tensor
    name, dims = lines[2].split()
    first = np.frombuffer(payload, dtype="<f8", count=int(np.prod([int(d) for d in dims.split(",")])))
    lines[1] = f"tensors {len(lines) - 1}"
    path.write_bytes("\n".join([*lines, lines[2]]).encode() + b"\ndata\n" + payload + first.tobytes())
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    assert main(["predict", "--run", str(run), "--input", str(inp),
                 "--out", str(tmp_path / "p")]) == 3
    assert f"tensor {name!r} is listed twice" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_predict_params_file_with_a_malformed_count_line_is_data_error(workdir, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(workdir / "run", run)
    path = run / "displacement.params"
    header, payload = path.read_bytes().split(b"\ndata\n")
    lines = header.decode().splitlines()
    lines[1] += " junk"
    path.write_bytes("\n".join(lines).encode() + b"\ndata\n" + payload)
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    assert main(["predict", "--run", str(run), "--input", str(inp),
                 "--out", str(tmp_path / "p")]) == 3
    assert "displacement.params: header is not 'tensors <count>'" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_predict_non_finite_output_is_numeric_error(workdir, tmp_path, capsys):
    # finite weights whose products overflow: the maps come out infinite
    cfg = micro_config()
    rng = np.random.default_rng(0)
    net = DisplacementNet(4, rng, cfg.net)
    net.params["dec.l2.w"].value[:] = 1e300
    net.params["dec.l1.b"].value[:] = 1e300
    run = save_pipeline(tmp_path / "run", Pipeline(cfg, net=net, regressor=MobilityRegressor(4, rng, cfg.net)))
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    # numpy's overflow warnings are muted (they are errors under pytest): the NumericError alone reports it
    assert main(["predict", "--run", str(run), "--input", str(inp), "--out", str(tmp_path / "p")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: prediction produced non-finite displacement maps") and err.count("\n") == 1


@pytest.mark.parametrize("scale, code", [(1e150, 0), (1e151, 0), (1e152, 0), (1e153, 4), (3e153, 4), (7e153, 4),
                                         (1e160, 3)])
def test_predict_huge_cloud_is_data_error(workdir, tmp_path, capsys, scale, code):
    # finite coordinates whose squared distances overflow stop at the plan; spans the plan accepts can still
    # overflow the clustering features' norms; either way with one error line and no warning
    points, labels = read_ply(workdir / "data" / "fan_004" / "frame_01.ply")
    write_ply(tmp_path / "huge.ply", points * scale, labels)
    assert main(["predict", "--run", str(workdir / "run"), "--input", str(tmp_path / "huge.ply"),
                 "--out", str(tmp_path / "p")]) == code
    err = capsys.readouterr().err
    if code == 3:
        assert err.startswith("error: points span ") and err.count("\n") == 1
    else:
        assert err == {0: "", 4: "error: clustering features have a non-finite norm\n"}[code]


def test_predict_zero_regressor_direction_is_numeric_error(workdir, tmp_path, capsys):
    cfg = micro_config()
    rng = np.random.default_rng(0)
    net, reg = DisplacementNet(4, rng, cfg.net), MobilityRegressor(4, rng, cfg.net)
    net.params["seg.l2.b"].value[:] = [-100.0, 100.0]  # every point moving
    for name in ("mob.axis.w", "mob.axis.b"):
        reg.params[name].value[:] = 0.0
    run = save_pipeline(tmp_path / "run", Pipeline(cfg, net=net, regressor=reg))
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    assert main(["predict", "--run", str(run), "--input", str(inp), "--out", str(tmp_path / "p")]) == 4
    assert "mobility regressor output" in capsys.readouterr().err


NOT_UTF8 = b'{"seed": "\xff"}'
DEEP = b"[" * 10_000 + b"]" * 10_000  # past the JSON parser's recursion limit


@pytest.mark.parametrize("bad", [{"net": {"bogus": 1}}, {"weights": {"bogus": 1}}, {"seed": "x"}, NOT_UTF8, DEEP],
                         ids=["net_key", "weights_key", "seed_text", "not_utf8", "deep"])
def test_malformed_config_field_is_config_error(tmp_path, capsys, bad):
    # a dict is written as JSON, bytes as they are
    (tmp_path / "bad.json").write_bytes(bad if isinstance(bad, bytes) else json.dumps(bad).encode())
    for command in ("gen", "train"):
        assert main([command, "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


PLY_HEAD = "ply\nformat ascii 1.0\nelement vertex {}\nproperty double x\nproperty double y\nproperty double z\nend_header\n"


@pytest.mark.parametrize("body", [
    PLY_HEAD.format("x") + "0 0 0\n",
    PLY_HEAD.format("-1"),
    PLY_HEAD.format(2) + "0 0 0\nnan 0 0\n",
    PLY_HEAD.format(2) + "0 0 0\n0 inf 0\n",
    PLY_HEAD.format(0),
    PLY_HEAD.format(1).replace("property double x\nproperty double y", "property double y\nproperty double x") + "0 0 0\n",
], ids=["count_text", "count_negative", "nan", "inf", "empty", "not_xyz"])
def test_malformed_input_ply_is_data_error(workdir, tmp_path, capsys, body):
    (tmp_path / "bad.ply").write_text(body)
    assert main(["predict", "--run", str(workdir / "run"),
                 "--input", str(tmp_path / "bad.ply"), "--out", str(tmp_path / "p")]) == 3
    assert "bad.ply" in capsys.readouterr().err


@pytest.mark.parametrize("make", [None, Path.mkdir, lambda path: path.write_bytes(b"ply\n\xff\xfe\n")],
                         ids=["missing", "directory", "not_utf8"])
def test_unreadable_input_ply_is_data_error(workdir, tmp_path, capsys, make):
    path = tmp_path / "in.ply"
    if make is not None:
        make(path)
    assert main(["predict", "--run", str(workdir / "run"), "--input", str(path), "--out", str(tmp_path / "p")]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "cannot read as a text PLY file" in err


@pytest.mark.parametrize("body, code, named", [
    (None, 3, "config.json"),
    ('{not json', 2, "config.json"),
    ('[]', 2, "config.json"),
    ('{}', 3, "displacement.params"),  # the full-size defaults
    ({"net": {"bogus": 1}}, 2, "bogus"),
    ({"n_frames": 0}, 2, "n_frames"),
    ({"no_rnn": "no"}, 2, "no_rnn"),
    ({"basenet": "no"}, 2, "basenet"),
    ({"n_points": -3}, 2, "n_points"),
    ({"net": {**TINY_NET_JSON, "sa_stages": [[float("inf"), 0.35, [8, 16]], [4, 0.8, [16, 24]]]}}, 2, "got inf"),
    ({"net": {**TINY_NET_JSON, "global_width": 32, "sa_stages": [[16, 0.35, [8, 16]], [4, 0.8, [16, 32]]]}},
     3, "displacement.params"),
    ({"n_frames": 5}, 3, "displacement.params"),
    ({"no_rnn": True}, 3, "displacement.params"),
    ({"basenet": True}, 3, "baseline.params"),
    (NOT_UTF8, 2, "config.json"),
    (DEEP, 2, "config.json"),
    ({"net": {**TINY_NET_JSON, "sa_stages": [[16, True, [8, 16]], [4, 0.8, [16, 24]]]}}, 2,
     "sa_stages[0] radius must be float, got True"),
    ({"net": {**TINY_NET_JSON, "sa_stages": [[16, 0.35, [8, 16]], [4, "0.8", [16, 24]]]}}, 2,
     "sa_stages[1] radius must be float, got '0.8'"),
], ids=["missing", "not_json", "list", "no_keys", "net_key", "n_frames_zero", "no_rnn_text", "basenet_text",
        "n_points_negative", "count_inf", "widths", "n_frames", "no_rnn", "basenet", "not_utf8", "deep",
        "radius_true", "radius_text"])
def test_malformed_run_config_exits_with_contract_code(workdir, tmp_path, capsys, body, code, named):
    # None deletes the run's config.json, a str or bytes replace it and a
    # dict overrides fields of the saved one
    run = tmp_path / "run"
    shutil.copytree(workdir / "run", run)
    if body is None:
        (run / "config.json").unlink()
    else:
        if isinstance(body, dict):
            body = json.dumps({**json.loads((run / "config.json").read_text()), **body})
        (run / "config.json").write_bytes(body if isinstance(body, bytes) else body.encode())
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    assert main(["predict", "--run", str(run), "--input", str(inp),
                 "--out", str(tmp_path / "p")]) == code
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "predict"])
@pytest.mark.parametrize("net, named", [
    ({"sa_stages": [[16, 0.35, [1e308, 16]], [4, 0.8, [16, 24]]]}, "sa_stages[0] widths must be int, got 1e+308"),
    ({"sa_stages": [[16, 0.35, [2.7, 16]], [4, 0.8, [16, 24]]]}, "sa_stages[0] widths must be int, got 2.7"),
    ({"group_sizes": [16.9, 8]}, "group_sizes must be int, got 16.9"),
], ids=["width_huge", "width_fraction", "group_fraction"])
def test_non_integral_or_huge_net_sizes_are_config_errors(workdir, tmp_path, capsys, command, net, named):
    # int() used to truncate 2.7 and 16.9 without a word, and a width of
    # 1e308 reached numpy's array constructor
    if command == "train":
        config = json.loads((workdir / "config.json").read_text())
        (tmp_path / "bad.json").write_text(json.dumps({**config, "net": {**TINY_NET_JSON, **net}}))
        argv = ["train", "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path / "r")]
    else:
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run)
        config = json.loads((run / "config.json").read_text())
        (run / "config.json").write_text(json.dumps({**config, "net": {**TINY_NET_JSON, **net}}))
        argv = ["predict", "--run", str(run), "--input", str(workdir / "data" / "fan_004" / "frame_01.ply"),
                "--out", str(tmp_path / "r")]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_run_config_group_sizes_drive_predict(workdir, tmp_path):
    # group sizes set no parameter shape: the plans and the networks read
    # them from the same config.json
    run = tmp_path / "run"
    shutil.copytree(workdir / "run", run)
    config = json.loads((run / "config.json").read_text())
    config["net"]["group_sizes"] = [6, 4]
    (run / "config.json").write_text(json.dumps(config))
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    assert main(["predict", "--run", str(run), "--input", str(inp), "--out", str(tmp_path / "p")]) == 0
    assert (tmp_path / "p" / "report.txt").read_text().startswith("prediction report\n")


@pytest.mark.parametrize("old, new, message", [
    (b"enc.sa1.l1.w 3,8\n", b"enc.sa1.l1.w\n", "malformed tensor line"),
    (b"tensors", b"tens\xc3\xb6rs", "header is not ASCII"),
    (b"enc.sa1.l1.w 3,8\n", b"enc.sa1.l1.w 4294967296,4294967296\n", "truncated payload"),
    (b"enc.sa1.l1.w 3,8\n", b"enc.sa1.l1.w -3,8\n", "negative dimension"),
    (b"enc.sa1.l1.w 3,8\n", b"enc.sa1.l1.w 3,7\n", "trailing bytes after payload"),
    (b"enc.sa1.l1.w 3,8\n", b"enc.sa1.l1.w " + b",".join([b"1"] * 70) + b"\n", "unusable shape"),
], ids=["no_shape", "non_ascii", "dims_overflow", "negative_dim", "short_dim", "too_many_dims"])
def test_malformed_params_header_is_data_error(workdir, tmp_path, capsys, old, new, message):
    run = tmp_path / "run"
    shutil.copytree(workdir / "run", run)
    raw = (run / "displacement.params").read_bytes()
    assert old in raw
    (run / "displacement.params").write_bytes(raw.replace(old, new, 1))
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    assert main(["predict", "--run", str(run), "--input", str(inp),
                 "--out", str(tmp_path / "p")]) == 3
    err = capsys.readouterr().err
    assert f"{run / 'displacement.params'}: {message}" in err


def test_eval_report_matches_file(workdir, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["eval", "--run", str(workdir / "run"), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout == out.read_text()
    assert stdout.startswith("metrics report\n")
    assert "model e_type" in stdout and "mobfit e_type" in stdout


def test_eval_oracle_is_identity(workdir, capsys):
    assert main(["eval", "--oracle", "--dataset", str(workdir / "data")]) == 0
    model_line = [l for l in capsys.readouterr().out.splitlines()
                  if l.startswith("model ")][0]
    assert "e_type 0.000000" in model_line
    assert "e_angle 0.000000" in model_line
    assert "e_seg 0.000000" in model_line


def test_eval_missing_run_is_usage_error(workdir):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--dataset", str(workdir / "data")])
    assert err.value.code == 2


def test_eval_oracle_requires_dataset(workdir):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--oracle"])
    assert err.value.code == 2


def test_ablate_two_rows(workdir, tmp_path, capsys):
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(workdir / "config.json"),
                 "--out", str(out), "--rows", "full", "no_rnn"]) == 0
    table = (out / "table.txt").read_text().splitlines()
    assert table[0] == "ablation table"
    assert table[1].startswith("row full ")
    assert table[2].startswith("row no_rnn ")
    for row in ("full", "no_rnn"):
        assert {p.name for p in (out / row).iterdir()} == {"config.json", "loss.log", "displacement.params",
                                                          "mobility.params"}


def test_ablate_rejects_switched_base(workdir, tmp_path, capsys):
    cfg = micro_config(no_rnn=True, dataset_dir=str(workdir / "data"))
    cfg.save(tmp_path / "switched.json")
    assert main(["ablate", "--config", str(tmp_path / "switched.json"),
                 "--out", str(tmp_path / "a")]) == 2
    assert "switches off" in capsys.readouterr().err


def test_ablate_rejects_unknown_row(workdir, tmp_path):
    assert main(["ablate", "--config", str(workdir / "config.json"),
                 "--out", str(tmp_path / "a"), "--rows", "no_such"]) == 2


def test_ablate_rows_without_values_is_usage_error(workdir, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["ablate", "--config", str(workdir / "config.json"), "--out", str(tmp_path / "a"), "--rows"])
    assert err.value.code == 2
    assert "--rows" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_readme_commands_run_on_its_micro_config(tmp_path, monkeypatch):
    assert json.loads(README_CONFIG)["net"] == TINY_NET_JSON
    commands = [shlex.split(line)[3:] for line in README.splitlines() if line.startswith("python -m partmotion.cli ")]
    assert sorted({argv[0] for argv in commands}) == ["ablate", "eval", "gen", "predict", "train"]
    monkeypatch.chdir(tmp_path)
    Path("micro.json").write_text(README_CONFIG)
    for argv in commands:
        assert main(argv) == 0, argv


NAN_MOBILITY = {"type": "R", "direction": [float("nan")] * 3, "position": [0.0, 0.0, 0.0],
                "range": [0.0, 90.0], "slide_range": None}
TR_MOBILITY = {**NAN_MOBILITY, "type": "TR", "direction": [0.0, 0.0, 1.0], "slide_range": [0.09, 0.05]}


@pytest.mark.parametrize("body", ['{not json', '[]', '{}', {"category": "sofa"},
                                  {"n_frames": "4"}, {"n_frames": None}, {"n_frames": 1},
                                  {"parts": [{"mobility": NAN_MOBILITY}]}, NOT_UTF8, DEEP,
                                  {"shape_id": 2}, {"split": None},
                                  {"parts": [{"mobility": {**NAN_MOBILITY, "direction": [1.0, 0.0]}}]},
                                  {"parts": [{"mobility": TR_MOBILITY}]}],
                         ids=["not_json", "list", "no_keys", "category_unknown",
                              "n_frames_text", "n_frames_null", "n_frames_one", "direction_nan", "not_utf8", "deep",
                              "shape_id_int", "split_null", "direction_2d", "slide_range_reversed"])
def test_malformed_shape_json_is_data_error(workdir, tmp_path, capsys, body):
    # a str or bytes replace the whole file; a dict overrides fields of the saved one
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    meta = data / "fan_002" / "shape.json"
    if isinstance(body, dict):
        body = json.dumps({**json.loads(meta.read_text()), **body})
    meta.write_bytes(body if isinstance(body, bytes) else body.encode())
    for argv in dataset_reads(workdir, data, tmp_path):
        assert main(argv) == 3, argv[0]
        assert str(meta) in capsys.readouterr().err


def test_shape_json_without_seed_path_loads(workdir, tmp_path, capsys):
    # the generator still writes seed_path, but nothing reads it back
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    meta = data / "fan_002" / "shape.json"
    meta.write_text(json.dumps({k: v for k, v in json.loads(meta.read_text()).items() if k != "seed_path"}))
    texts = []
    for root in (workdir / "data", data):
        assert main(["eval", "--oracle", "--dataset", str(root), "--split", "train"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]


@pytest.mark.parametrize("scan_ply", [None, "ply\nformat ascii 1.0\nend_header\n"], ids=["missing", "malformed"])
def test_scan_ply_is_not_read(workdir, tmp_path, capsys, scan_ply):
    # gen writes scans for test shapes, but no command reads one back: a train
    # shape given a scan entry whose file is missing or malformed changes nothing
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    scan_entry = json.loads((data / "fan_004" / "shape.json").read_text())["scan"]
    meta = data / "fan_002" / "shape.json"
    meta.write_text(json.dumps({**json.loads(meta.read_text()), "scan": scan_entry}))
    if scan_ply is not None:
        (data / "fan_002" / "scan.ply").write_text(scan_ply)
    train, _ = dataset_reads(workdir, data, tmp_path)
    assert main(train) == 0
    assert (tmp_path / "run" / "loss.log").read_bytes() == (workdir / "run" / "loss.log").read_bytes()
    capsys.readouterr()
    texts = []
    for root in (workdir / "data", data):
        assert main(["eval", "--oracle", "--dataset", str(root), "--split", "train"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]


def dataset_reads(workdir, data, tmp_path):
    """`train` and `eval --oracle`, each reading the train split of `data`."""
    return (["train", "--config", str(workdir / "config.json"), "--dataset", str(data),
             "--out", str(tmp_path / "run")],
            ["eval", "--oracle", "--dataset", str(data), "--split", "train"])


def drop_last_vertex(text: str) -> str:
    head, body = text.split("end_header\n")
    return head.replace("element vertex 64", "element vertex 63") + "end_header\n" + "".join(
        line + "\n" for line in body.splitlines()[:-1])


@pytest.mark.parametrize("name, edit", [
    ("manifest.json", lambda t: "{not json"),
    ("manifest.json", lambda t: "[]"),
    ("manifest.json", lambda t: json.dumps({k: v for k, v in json.loads(t).items() if k != "shapes"})),
    ("manifest.json", lambda t: json.dumps({**json.loads(t), "shapes": "fan_002"})),
    ("manifest.json", lambda t: json.dumps({**json.loads(t), "shapes": [{"shape_id": "fan_002"}]})),
    ("fan_002/frame_03.ply", drop_last_vertex),
    ("fan_002/frame_03.ply", lambda t: t.replace(" 0\n", " 1\n", 1)),
    ("fan_002/shape.json", lambda t: json.dumps({**json.loads(t), "parts": []})),
    ("manifest.json", lambda t: NOT_UTF8),
    ("manifest.json", lambda t: DEEP),
], ids=["manifest_not_json", "manifest_list", "manifest_no_shapes", "manifest_shapes_text",
        "manifest_entry_no_split", "frame_short", "frame_relabelled", "parts_short", "manifest_not_utf8",
        "manifest_deep"])
def test_malformed_dataset_is_data_error(workdir, tmp_path, capsys, name, edit):
    # edit returns the new text, or bytes to write as they are
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    path = data / name
    edited = edit(path.read_text())
    assert edited != path.read_text()
    path.write_bytes(edited if isinstance(edited, bytes) else edited.encode())
    for argv in dataset_reads(workdir, data, tmp_path):
        assert main(argv) == 3, argv[0]
        assert str(path) in capsys.readouterr().err


def test_missing_frame_is_data_error(workdir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    (data / "fan_002" / "frame_03.ply").unlink()
    for argv in dataset_reads(workdir, data, tmp_path):
        assert main(argv) == 3, argv[0]
        assert str(data / "fan_002" / "frame_03.ply") in capsys.readouterr().err


def test_moving_labels_with_a_gap_are_data_error(workdir, tmp_path, capsys):
    # fan_002's moving part relabelled 2 in every frame, with a second part
    # to match the highest label: label 1 has no points and no part may be dropped
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    shape = data / "fan_002"
    for frame in shape.glob("frame_*.ply"):
        head, body = frame.read_text().split("end_header\n")
        body = "".join(line[:-1] + "2\n" if line.endswith(" 1") else line + "\n"
                       for line in body.splitlines())
        frame.write_text(head + "end_header\n" + body)
    meta = json.loads((shape / "shape.json").read_text())
    (shape / "shape.json").write_text(json.dumps({**meta, "parts": meta["parts"] * 2}))
    for argv in dataset_reads(workdir, data, tmp_path):
        assert main(argv) == 3, argv[0]
        assert str(shape / "shape.json") in capsys.readouterr().err


def test_negative_part_label_is_data_error(tmp_path, capsys):
    # umbrella's shape.json lists no parts, so only the frame check sees the label
    cfg = micro_config(categories=("umbrella", "fan"), dataset_dir=str(tmp_path / "data"))
    cfg.save(tmp_path / "config.json")
    assert main(["gen", "--config", str(tmp_path / "config.json")]) == 0
    shape = tmp_path / "data" / "umbrella_000"  # a train shape
    for frame in shape.glob("frame_*.ply"):
        points, labels = read_ply(frame)
        labels[-1] = -1
        write_ply(frame, points, labels)
    for argv in dataset_reads(tmp_path, tmp_path / "data", tmp_path):
        assert main(argv) == 3, argv[0]
        assert f"{shape / 'frame_01.ply'}: negative part label" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "gen_force", "train", "eval"])
def test_unwritable_out_is_data_error(workdir, tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    config = str(workdir / "config.json")
    target, argv = {
        "gen": (taken, ["gen", "--config", config, "--out", str(taken)]),
        "gen_force": (taken, ["gen", "--config", config, "--out", str(taken), "--force"]),
        "train": (taken, ["train", "--config", config, "--out", str(taken)]),
        "eval": (tmp_path / "missing" / "r.txt",
                 ["eval", "--oracle", "--dataset", str(workdir / "data"), "--out", str(tmp_path / "missing" / "r.txt")]),
    }[command]
    assert main(argv) == 3
    assert str(target) in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzed input files: each one a user can hand the CLI either works or exits
# with a documented code (2 config, 3 data, 4 numeric), never a traceback.
# Drawn counts and widths stay small, so a run that succeeds is quick.

CONTRACT_CODES = {0, 2, 3, 4}
JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.floats(-3.0, 3.0), st.text(max_size=6),
    st.sampled_from([float("nan"), float("inf"), 1e308, *TEMPLATE_NAMES]),
)
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=10,
)


def json_file_text(base: dict, keys) -> st.SearchStrategy:
    """Arbitrary text, a JSON value that is not an object, or `base` with a
    few fields redrawn (a drawn object would mostly fall back to the
    full-size defaults)."""
    def value(key):  # half the time a value of the field's own kind
        kind = {bool: st.booleans(), int: st.integers(-3, 9), float: st.floats(-3.0, 3.0)}.get(type(base.get(key)))
        return JSON_VALUE if kind is None else kind | JSON_VALUE

    overrides = st.lists(st.sampled_from([*keys, "bogus"]), max_size=3, unique=True).flatmap(
        lambda ks: st.fixed_dictionaries({k: value(k) for k in ks}))
    return st.one_of(st.text(max_size=40), (JSON_LEAF | st.lists(JSON_VALUE, max_size=3)).map(json.dumps),
                     overrides.map(lambda d: json.dumps({**base, **d})))


CONFIG_BASE = dataclasses.asdict(micro_config(categories=("fan",), shapes_per_category=1))


@settings(max_examples=40, deadline=None)
@given(text=json_file_text(CONFIG_BASE, [k for k in CONFIG_BASE if k not in ("dataset_dir", "out_dir")]))
@example(text=json.dumps({**CONFIG_BASE, "scan_sigma": -0.0}))  # a retired key away from its one value
@example(text=json.dumps({**CONFIG_BASE, "theta_stop": -0.0}))
def test_fuzzed_config_exits_with_contract_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "config.json").write_text(text)
        assert main(["gen", "--config", f"{tmp}/config.json", "--out", f"{tmp}/data"]) in CONTRACT_CODES


@st.composite
def ply_text(draw) -> str:
    props = draw(st.sampled_from([("x", "y", "z"), ("x", "y", "z", "label"), ("y", "x", "z"), ("x", "y")]))
    fields = (st.integers(-3, 3).map(str) if p == "label" else st.floats(-2.0, 2.0).map(repr) for p in props)
    rows = draw(st.lists(st.tuples(*fields).map(" ".join), max_size=70))
    # a few rows swapped for bad numbers, an overflowing label, or a short or long row
    junk = st.sampled_from(["nan 0 0", "0 -inf 0", "1e999 0 0", "0 x 0", "0 0", "0 0 0 0 0", "0 0 0 " + "9" * 25])
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)) if rows else []:
        rows[i] = draw(junk)
    count = draw(st.sampled_from([len(rows), len(rows) + 1, max(len(rows) - 1, 0)]).map(str)
                 | st.text(max_size=3))
    head = ["ply", "format ascii 1.0", f"element vertex {count}",
            *(f"property double {p}" for p in props), "end_header"]
    return "\n".join(draw(st.sampled_from([head, head[:2] + head[3:]])) + rows) + "\n"


@settings(max_examples=40, deadline=None)
@given(text=ply_text() | st.text(max_size=60))
@example(text=PLY_HEAD.replace("end_header", "property int label\nend_header").format(1) + "0 0 0 " + "9" * 25)
def test_fuzzed_input_ply_exits_with_contract_code(workdir, text):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "in.ply").write_text(text)
        code = main(["predict", "--run", str(workdir / "run"), "--input", f"{tmp}/in.ply", "--out", f"{tmp}/p"])
        assert code in CONTRACT_CODES


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fuzzed_run_config_exits_with_contract_code(workdir, data):
    base = json.loads((workdir / "run" / "config.json").read_text())
    net = st.dictionaries(st.sampled_from(sorted(TINY_NET_JSON)), JSON_VALUE, max_size=2)
    base_or_net = st.one_of(json_file_text(base, sorted(base)),
                            net.map(lambda d: json.dumps({**base, "net": {**TINY_NET_JSON, **d}})))
    text = data.draw(base_or_net)
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        shutil.copytree(workdir / "run", run)
        (run / "config.json").write_text(text)
        inp = workdir / "data" / "fan_004" / "frame_01.ply"
        assert main(["predict", "--run", str(run), "--input", str(inp), "--out", f"{tmp}/p"]) in CONTRACT_CODES


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_shape_json_exits_with_contract_code(workdir, data):
    base = json.loads((workdir / "data" / "fan_002" / "shape.json").read_text())
    text = data.draw(json_file_text(base, sorted(base)))
    with tempfile.TemporaryDirectory() as tmp:
        # a one-shape dataset, so eval --oracle reads the drawn file
        shutil.copytree(workdir / "data" / "fan_002", Path(tmp) / "fan_002")
        manifest = json.loads((workdir / "data" / "manifest.json").read_text())
        manifest["shapes"] = [{"shape_id": "fan_002", "category": "fan", "split": "test"}]
        (Path(tmp) / "manifest.json").write_text(json.dumps(manifest))
        (Path(tmp) / "fan_002" / "shape.json").write_text(text)
        assert main(["eval", "--oracle", "--dataset", tmp]) in CONTRACT_CODES


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _python(args, cwd, threads):
    """Run python with src importable and the BLAS thread variables removed,
    or all set to `threads`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env.update(dict.fromkeys(BLAS_THREAD_VARIABLES, threads) if threads else {})
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: BLAS runs one thread whatever the variables say")
def test_train_writes_the_same_bytes_at_any_blas_thread_setting(tmp_path):
    # unset, the package pins one thread; no product of the default net may
    # round differently at two
    config = {"categories": ["drawer_box"], "shapes_per_category": 2, "epochs": 1, "mobility_epochs": 1}
    (tmp_path / "config.json").write_text(json.dumps(config))
    gen = _python(["-m", "partmotion.cli", "gen", "--config", "config.json", "--out", "data"], tmp_path, "1")
    assert gen.returncode == 0, gen.stderr
    params = []
    for threads in (None, "1", "2"):
        out = f"run_{threads or 'unset'}"
        train = _python(["-m", "partmotion.cli", "train", "--config", "config.json", "--dataset", "data",
                         "--out", out], tmp_path, threads)
        assert train.returncode == 0, train.stderr
        params.append((tmp_path / out / "displacement.params").read_bytes())
    assert params[0] == params[1] == params[2]


@pytest.mark.parametrize("threads, numpy_first, want", [
    (None, False, ["1", "1", "1"]),     # pinned
    ("2", False, ["2", "2", "2"]),      # the user's own setting is kept
    (None, True, [None, None, None]),   # too late: BLAS has read the variables
])
def test_importing_the_package_pins_blas_threads(tmp_path, threads, numpy_first, want):
    code = ("import numpy\n" if numpy_first else "") + (
        f"import os, partmotion\nprint([os.environ.get(n) for n in {BLAS_THREAD_VARIABLES}])")
    probe = _python(["-c", code], tmp_path, threads)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == repr(want)
