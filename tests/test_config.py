"""RunConfig validation and JSON round-tripping."""
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from microfixtures import TINY_NET_JSON, micro_config
from partmotion.config import _RETIRED_KEYS, ABLATION_SWITCHES, RunConfig, load_config
from partmotion.errors import ConfigError
from partmotion.losses import LossWeights
from partmotion.nets import DisplacementNet, NetConfig
from partmotion.training import Pipeline, load_pipeline, save_pipeline

BENCHMARK_RUN = Path(__file__).parents[1] / "perfbench" / "checkpoint"


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.n_points == 256
    assert cfg.n_frames == 8
    assert cfg.net == NetConfig()
    assert cfg.weights == LossWeights()
    assert cfg.ablation_tags == []


def test_json_round_trip_preserves_everything():
    cfg = micro_config(seed=9, no_disp=True, theta_stop=0.05, lr=3e-4)
    back = RunConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert back == cfg
    assert isinstance(back.net.sa_stages, tuple)
    assert isinstance(back.net.sa_stages[0][2], tuple)
    assert isinstance(back.categories, tuple)


def test_net_widths_survive_as_plain_json():
    data = json.loads(json.dumps(dataclasses.asdict(micro_config())))
    assert data["net"]["sa_stages"] == TINY_NET_JSON["sa_stages"]
    cfg = RunConfig.from_dict(data)
    assert cfg.net.global_width == 24


def test_basenet_is_exclusive():
    with pytest.raises(ConfigError, match="exclusive"):
        RunConfig(basenet=True, no_rnn=True)
    # alone it is fine
    assert RunConfig(basenet=True).ablation_tags == ["basenet"]


def test_switches_other_than_basenet_compose():
    cfg = RunConfig(no_rnn=True, no_disp=True, no_seg=True)
    assert cfg.ablation_tags == ["no_rnn", "no_disp", "no_seg"]
    assert set(cfg.ablation_tags) < set(ABLATION_SWITCHES)


@pytest.mark.parametrize(
    "bad",
    [
        dict(categories=("no_such_template",)),
        dict(categories=()),
        dict(shapes_per_category=0),
        dict(n_points=0),
        dict(n_points=-3),
        dict(n_frames=1),
        dict(epochs=0),
        dict(lr=0.0),
        dict(seed="x"),
        dict(seed=-1),
        dict(epochs=2.5),
        dict(no_rnn=1),
        dict(lr=True),
        dict(net=dict(sa_stages=((64, 0.2, (32, 64)), (16, 0.4, (64, 128)), (4, 0.8, (128, 128))))),
        dict(net=dict(sa_stages=((64, 0.2, (32, 64)), (16, 0.4, (64, 96, 128))))),
        dict(net=dict(group_sizes=(16, 8, 4))),
        dict(net=dict(sa_stages=((64, 0.2, (32, 64)), (0, 0.4, (64, 128))))),
        dict(net=dict(group_sizes=(16, 0))),
        dict(lr=-0.5),
        dict(weights=dict(w_ref=-0.0)),
        dict(max_grad_norm=float("inf")),
        # NaN passes every comparison, so finiteness is its own check
        dict(lr=float("nan")),
        dict(theta_stop=float("nan")),
        dict(weights=dict(w_mov=float("nan"))),
        dict(weights=dict(margin=float("inf"))),
        dict(net=dict(sa_stages=((64, float("nan"), (32, 64)), (16, 0.4, (64, 128))))),
        dict(net=dict(sa_stages=((64, 0.2, (32, 64)), (16, float("inf"), (64, 128))))),
        dict(net=dict(sa_stages=((64, 0.0, (32, 64)), (16, 0.4, (64, 128))))),
        dict(net=dict(sa_stages=((64, 0.2, (32, 64)), (16, -0.4, (64, 128))))),
        # optimizer settings that would stall or reverse training
        dict(max_grad_norm=0.0),
        dict(max_grad_norm=-1.0),
        # every float field is at least +0.0, so never -0.0, and a number; a path is text
        dict(theta_stop=-0.0),
        dict(weights=dict(margin=-0.0)),
        dict(weights=dict(w_seg_obj="2.0")),
        dict(dataset_dir=None),
        dict(weights=dict(w_ref=-1.0)),
        dict(weights=dict(w_seg_mov=-0.2)),
        dict(weights=dict(margin=-80.0)),
        dict(weights=dict(k_density=0)),
        # an interpolation over no neighbours
        dict(net=dict(fp_neighbors=0)),
        # a negative period still divides the step count, and a negative
        # motion threshold marks every point moving and never stops
        dict(log_every=-1),
        dict(theta_stop=-0.5),
        # shape directories are named by category and index: a repeat would overwrite
        dict(categories=("fan", "drawer_box", "fan")),
        # a radius is a real number, as counts and widths are whole ones: float() took these
        dict(net=dict(sa_stages=((64, True, (32, 64)), (16, 0.4, (64, 128))))),
        dict(net=dict(sa_stages=((64, 0.2, (32, 64)), (16, "0.35", (64, 128))))),
        # a 400-digit integer is finite as an int but overflows a float
        dict(lr=10**400),
        dict(net=dict(sa_stages=((64, 10**400, (32, 64)), (16, 0.4, (64, 128))))),
    ],
)
def test_invalid_fields_are_rejected(bad):
    with pytest.raises(ConfigError):  # NetConfig and LossWeights check themselves as they are built
        if "net" in bad:
            bad = dict(bad, net=NetConfig(**bad["net"]))
        if "weights" in bad:
            bad = dict(bad, weights=LossWeights(**bad["weights"]))
        RunConfig(**bad)


@pytest.mark.parametrize("build, kwargs, name", [
    (NetConfig, dict(head_hidden=64.5), "head_hidden must be int, got 64.5"),
    (NetConfig, dict(fp_neighbors=True), "fp_neighbors must be int, got True"),
    (LossWeights, dict(k_density=0), "k_density must be at least 1, got 0"),
    (LossWeights, dict(w_ref=float("nan")), "w_ref must be finite"),
    (RunConfig, dict(net={}), "net must be a NetConfig"),
    (RunConfig, dict(weights=None), "weights a LossWeights"),
    (RunConfig, dict(categories=5), "categories must be a list, got 5"),
    (RunConfig, dict(seed=np.int64(3)), "seed must be int"),  # json cannot write it back
])
def test_a_config_object_built_in_code_checks_itself(build, kwargs, name):
    with pytest.raises(ConfigError, match=name):
        build(**kwargs)


INT_SITES = {"n_points": ("n_points",), "k_density": ("weights", "k_density"), "global_width": ("net", "global_width"),
             "sa_stages[0] count": ("net", "sa_stages", 0, 0), "sa_stages[1] widths": ("net", "sa_stages", 1, 2, 0),
             "group_sizes": ("net", "group_sizes", 1)}


@pytest.mark.parametrize("site", INT_SITES)
@pytest.mark.parametrize("value, message", [(16.0, "must be int, got 16.0"), (True, "must be int, got True"),
                                            ("16", "must be int, got '16'"), (0, "must be at least 1, got 0"),
                                            (2**31, "must lie strictly between -2**31 and 2**31")])
def test_one_integer_rule_for_flat_fields_and_stage_entries(site, value, message):
    # the same value fails the same way wherever an integer goes
    data = json.loads(json.dumps(dataclasses.asdict(RunConfig())))
    *path, last = INT_SITES[site]
    target = data
    for key in path:
        target = target[key]
    target[last] = value
    with pytest.raises(ConfigError, match=re.escape(f"{site} {message}")):
        RunConfig.from_dict(data)


def test_unknown_keys_are_rejected():
    data = dataclasses.asdict(RunConfig())
    data["typo_field"] = 1
    with pytest.raises(ConfigError, match="typo_field"):
        RunConfig.from_dict(data)


def test_a_400_digit_integer_names_its_field():
    data = json.loads(json.dumps(dataclasses.asdict(RunConfig())))
    with pytest.raises(ConfigError, match="lr must be finite"):
        RunConfig.from_dict({**data, "lr": 10**400})
    data["net"]["sa_stages"][1][1] = 10**400
    with pytest.raises(ConfigError, match=r"sa_stages\[1\] radius must be finite"):
        RunConfig.from_dict(data)


def test_the_benchmark_checkpoint_config_loads_and_saves_without_its_retired_keys(tmp_path):
    data = json.loads((BENCHMARK_RUN / "config.json").read_text())
    assert data["checkpoint_every"] == 0 and data["weights"]["include_padded_motion"] is False
    assert (data["beta1"], data["beta2"], data["adam_eps"]) == (0.9, 0.999, 1e-8)
    assert (data["scan_sigma"], data["scan_fraction"]) == (0.005, 1.0)
    cfg = RunConfig.from_dict(data)
    cfg.save(tmp_path / "config.json")
    del data["checkpoint_every"], data["weights"]["include_padded_motion"]  # from_dict left its input whole
    del data["beta1"], data["beta2"], data["adam_eps"], data["scan_sigma"], data["scan_fraction"]
    assert json.loads((tmp_path / "config.json").read_text()) == data
    assert load_pipeline(BENCHMARK_RUN).config == cfg


@pytest.mark.parametrize("section, key, value", [
    (None, "checkpoint_every", -3),
    (None, "checkpoint_every", 5),
    (None, "checkpoint_every", False),
    (None, "checkpoint_every", 0.0),
    ("weights", "include_padded_motion", True),
    ("weights", "include_padded_motion", 0),
    # Adam's settings are its defaults now, which earlier configs wrote out
    (None, "beta1", 0.95),
    (None, "beta2", 0.99),
    (None, "adam_eps", 1e-7),
    (None, "beta1", "0.9"),
    # every scan used depth noise 0.005 and scanned every test shape, which earlier configs wrote out
    (None, "scan_sigma", 0.5),
    (None, "scan_sigma", -0.0),
    (None, "scan_sigma", float("nan")),
    (None, "scan_fraction", 0.5),
    (None, "scan_fraction", -0.0),
    (None, "scan_fraction", 1.5),
    (None, "scan_fraction", 1),
    # a retired key is retired only where earlier configs wrote it
    (None, "include_padded_motion", False),
    ("weights", "checkpoint_every", 0),
])
def test_a_retired_key_is_accepted_only_at_its_old_default(section, key, value):
    data = dataclasses.asdict(RunConfig())
    (data[section] if section else data)[key] = value
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(data)


def test_no_retired_key_is_a_live_field():
    live = {f.name for f in dataclasses.fields(RunConfig)} | {
        f"weights.{f.name}" for f in dataclasses.fields(LossWeights)}
    assert not live & set(_RETIRED_KEYS)
    # from_dict looks for them only at the top level and under weights
    assert all(key.count(".") == 0 or key.startswith("weights.") for key in _RETIRED_KEYS)


@pytest.mark.parametrize("key, value", [("net", NetConfig()), ("net", []), ("net", ""), ("net", None),
                                        ("weights", LossWeights()), ("weights", [])])
def test_net_and_weights_must_be_json_objects(key, value):
    # from_dict reads JSON; a built config object or any other non-object is an error
    data = dataclasses.asdict(RunConfig())
    data[key] = value
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="No such file"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(arr)


def test_save_and_load_round_trip(tmp_path):
    cfg = micro_config(seed=4)
    path = tmp_path / "config.json"
    cfg.save(path)
    assert load_config(path) == cfg


def test_echo_into_writes_the_same_config(tmp_path):
    cfg = micro_config()
    rng = np.random.default_rng(0)
    run = save_pipeline(tmp_path / "run", Pipeline(cfg, net=DisplacementNet(4, rng, cfg.net)))
    cfg.save(tmp_path / "config.json")
    assert (run / "config.json").read_bytes() == (tmp_path / "config.json").read_bytes()
    assert load_config(run / "config.json") == cfg


def test_replaced_does_not_mutate():
    cfg = micro_config()
    other = dataclasses.replace(cfg, seed=77, no_rnn=True)
    assert cfg.seed == 0 and not cfg.no_rnn
    assert other.seed == 77 and other.no_rnn


@pytest.mark.parametrize("name, bits", [("seed", 63), ("n_points", 31), ("shapes_per_category", 31),
                                        ("epochs", 31), ("mobility_epochs", 31), ("log_every", 31),
                                        ("weights.k_density", 31)])
def test_integer_fields_are_bounded(name, bits):
    # a 400-digit count used to pass the check and overflow later, in a float
    # division inside the corpus generator
    section, _, field_name = name.rpartition(".")
    for value in (2**bits, -(2**bits), 10**400):
        data = {section: {field_name: value}} if section else {field_name: value}
        with pytest.raises(ConfigError, match=f"{field_name} must lie strictly between -2\\*\\*{bits}"):
            RunConfig.from_dict(data)
    near = 2**bits - 1 if name == "seed" else 3
    data = {section: {field_name: near}} if section else {field_name: near}
    assert RunConfig.from_dict(data) is not None
