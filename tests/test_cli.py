"""End-to-end command surface: every subcommand plus the exit-code contract."""
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from microfixtures import TINY_NET_JSON, micro_config
from partmotion.cli import main
from partmotion.nets import THETA_STOP, DisplacementNet, MobilityRegressor
from partmotion.plyio import read_ply, write_ply
from partmotion.training import Pipeline, save_pipeline


def tree_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


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


def test_gen_parallel_workers_identical(workdir, tmp_path):
    out = tmp_path / "data4"
    argv = ["gen", "--config", str(workdir / "config.json"), "--out", str(out), "--workers", "3"]
    assert main(argv) == 0
    assert tree_hash(out) == tree_hash(workdir / "data")


def test_train_writes_run_dir(workdir):
    run = workdir / "run"
    names = {p.name for p in run.iterdir()}
    assert {"config.json", "model.json", "loss.log", "displacement.params"} <= names
    assert "mean_loss" in (run / "loss.log").read_text()


def test_train_rejects_mismatched_dataset(workdir, tmp_path, capsys):
    cfg = micro_config(n_points=32, dataset_dir=str(workdir / "data"))
    cfg.save(tmp_path / "bad.json")
    assert main(["train", "--config", str(tmp_path / "bad.json"),
                 "--out", str(tmp_path / "r")]) == 3
    assert "does not match" in capsys.readouterr().err


def test_train_numeric_failure_exits_4(workdir, tmp_path, capsys):
    cfg = micro_config(lr=1e200, dataset_dir=str(workdir / "data"))
    cfg.save(tmp_path / "hot.json")
    with pytest.warns(RuntimeWarning):
        code = main(["train", "--config", str(tmp_path / "hot.json"),
                     "--out", str(tmp_path / "r")])
    assert code == 4
    assert "training aborted at step" in capsys.readouterr().err


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


def test_predict_non_finite_output_is_numeric_error(workdir, tmp_path, capsys):
    # finite weights whose products overflow: the maps come out infinite
    cfg = micro_config()
    rng = np.random.default_rng(0)
    net = DisplacementNet(4, rng, cfg.net)
    net.params["dec.l2.w"].value[:] = 1e300
    net.params["dec.l1.b"].value[:] = 1e300
    run = save_pipeline(tmp_path / "run", Pipeline(cfg, net=net, regressor=MobilityRegressor(4, rng, cfg.net)))
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    with pytest.warns(RuntimeWarning):
        code = main(["predict", "--run", str(run), "--input", str(inp), "--out", str(tmp_path / "p")])
    assert code == 4
    assert "non-finite displacement maps" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"net": {"bogus": 1}}, {"weights": {"bogus": 1}}, {"seed": "x"}],
                         ids=["net_key", "weights_key", "seed_text"])
def test_malformed_config_field_is_config_error(tmp_path, capsys, bad):
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    assert main(["gen", "--config", str(tmp_path / "bad.json"),
                 "--out", str(tmp_path / "data")]) == 2
    assert "error:" in capsys.readouterr().err


PLY_HEAD = "ply\nformat ascii 1.0\nelement vertex {}\nproperty double x\nproperty double y\nproperty double z\nend_header\n"


@pytest.mark.parametrize("body", [
    PLY_HEAD.format("x") + "0 0 0\n",
    PLY_HEAD.format("-1"),
    PLY_HEAD.format(2) + "0 0 0\nnan 0 0\n",
    PLY_HEAD.format(2) + "0 0 0\n0 inf 0\n",
    PLY_HEAD.format(0),
], ids=["count_text", "count_negative", "nan", "inf", "empty"])
def test_malformed_input_ply_is_data_error(workdir, tmp_path, capsys, body):
    (tmp_path / "bad.ply").write_text(body)
    assert main(["predict", "--run", str(workdir / "run"),
                 "--input", str(tmp_path / "bad.ply"), "--out", str(tmp_path / "p")]) == 3
    assert "bad.ply" in capsys.readouterr().err


@pytest.mark.parametrize("body", ['{not json', '[]', '{}', '{"net": {"bogus": 1}}',
                                  {"n_maps": 0}, {"use_rnn": "no"}, {"basenet": "no"}],
                         ids=["not_json", "list", "no_keys", "net_key", "n_maps_zero", "use_rnn_text",
                              "basenet_text"])
def test_malformed_model_json_is_data_error(workdir, tmp_path, capsys, body):
    # a str replaces the whole file; a dict overrides fields of the saved one
    run = tmp_path / "run"
    shutil.copytree(workdir / "run", run)
    if isinstance(body, dict):
        body = json.dumps({**json.loads((run / "model.json").read_text()), **body})
    (run / "model.json").write_text(body)
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    assert main(["predict", "--run", str(run), "--input", str(inp),
                 "--out", str(tmp_path / "p")]) == 3
    assert "model.json" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [(b"enc.sa1.l1.w 3,8\n", b"enc.sa1.l1.w\n"),
                                      (b"tensors", b"tens\xc3\xb6rs"),
                                      (b"enc.sa1.l1.w 3,8\n", b"enc.sa1.l1.w 4294967296,4294967296\n")],
                         ids=["no_shape", "non_ascii", "dims_overflow"])
def test_malformed_params_header_is_data_error(workdir, tmp_path, capsys, old, new):
    run = tmp_path / "run"
    shutil.copytree(workdir / "run", run)
    raw = (run / "displacement.params").read_bytes()
    assert old in raw
    (run / "displacement.params").write_bytes(raw.replace(old, new, 1))
    inp = workdir / "data" / "fan_004" / "frame_01.ply"
    assert main(["predict", "--run", str(run), "--input", str(inp),
                 "--out", str(tmp_path / "p")]) == 3
    assert "displacement.params" in capsys.readouterr().err


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
    assert (out / "full" / "model.json").exists()
    assert (out / "no_rnn" / "model.json").exists()


def test_ablate_rejects_switched_base(workdir, tmp_path, capsys):
    cfg = micro_config(no_rnn=True, dataset_dir=str(workdir / "data"))
    cfg.save(tmp_path / "switched.json")
    assert main(["ablate", "--config", str(tmp_path / "switched.json"),
                 "--out", str(tmp_path / "a")]) == 2
    assert "switches off" in capsys.readouterr().err


def test_ablate_rejects_unknown_row(workdir, tmp_path):
    assert main(["ablate", "--config", str(workdir / "config.json"),
                 "--out", str(tmp_path / "a"), "--rows", "no_such"]) == 2


def test_export_matches_dataset_at_native_count(workdir, tmp_path, capsys):
    out = tmp_path / "export"
    assert main(["export", "--dataset", str(workdir / "data"), "--shape", "fan_002",
                 "--points", "64", "--out", str(out)]) == 0
    for k in range(1, 5):
        a = (workdir / "data" / "fan_002" / f"frame_{k:02d}.ply").read_bytes()
        b = (out / f"frame_{k:02d}.ply").read_bytes()
        assert a == b, f"frame {k} differs"


def test_export_denser_rendering(workdir, tmp_path, capsys):
    out = tmp_path / "dense"
    assert main(["export", "--dataset", str(workdir / "data"), "--shape", "fan_002",
                 "--points", "256", "--out", str(out)]) == 0
    pts, labels = read_ply(out / "frame_01.ply")
    assert pts.shape == (256, 3)
    assert set(np.unique(labels)) == {0, 1}


def test_export_unknown_shape(workdir, tmp_path, capsys):
    assert main(["export", "--dataset", str(workdir / "data"), "--shape", "sofa_000",
                 "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("body", ['{not json', '[]', '{}', {"seed_path": None}, {"category": "sofa"},
                                  {"n_frames": "4"}, {"n_frames": None}],
                         ids=["not_json", "list", "no_keys", "seed_path_null", "category_unknown",
                              "n_frames_text", "n_frames_null"])
def test_malformed_shape_json_is_data_error(workdir, tmp_path, capsys, body):
    # a str replaces the whole file; a dict overrides fields of the saved one
    data = tmp_path / "data"
    shutil.copytree(workdir / "data" / "fan_002", data / "fan_002")
    meta = data / "fan_002" / "shape.json"
    if isinstance(body, dict):
        body = json.dumps({**json.loads(meta.read_text()), **body})
    meta.write_text(body)
    assert main(["export", "--dataset", str(data), "--shape", "fan_002",
                 "--out", str(tmp_path / "x")]) == 3
    assert "shape.json" in capsys.readouterr().err
