"""RunConfig validation and JSON round-tripping."""
import json

import numpy as np
import pytest

from microfixtures import TINY_NET_JSON, micro_config
from partmotion.config import ABLATION_SWITCHES, RunConfig, load_config
from partmotion.errors import ConfigError
from partmotion.losses import LossWeights
from partmotion.nets import DisplacementNet, NetConfig
from partmotion.training import Pipeline, save_pipeline


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.n_points == 256
    assert cfg.n_frames == 8
    assert cfg.net == NetConfig()
    assert cfg.weights == LossWeights()
    assert cfg.ablation_tags == []


def test_json_round_trip_preserves_everything():
    cfg = micro_config(seed=9, no_disp=True, scan_fraction=0.5, lr=3e-4)
    back = RunConfig.from_dict(json.loads(cfg.to_json()))
    assert back == cfg
    assert isinstance(back.net.sa_stages, tuple)
    assert isinstance(back.net.sa_stages[0][2], tuple)
    assert isinstance(back.categories, tuple)


def test_net_widths_survive_as_plain_json():
    data = json.loads(micro_config().to_json())
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
        dict(scan_fraction=1.5),
        dict(scan_fraction=-0.1),
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
        dict(scan_sigma=-0.5),
        dict(scan_sigma=-0.0),
        dict(scan_sigma=float("nan")),
        dict(scan_sigma=float("inf")),
        # NaN passes every comparison, so finiteness is its own check
        dict(lr=float("nan")),
        dict(theta_stop=float("nan")),
        dict(weights=LossWeights(w_mov=float("nan"))),
        dict(weights=LossWeights(margin=float("inf"))),
        dict(net=dict(sa_stages=((64, float("nan"), (32, 64)), (16, 0.4, (64, 128))))),
        dict(net=dict(sa_stages=((64, 0.2, (32, 64)), (16, float("inf"), (64, 128))))),
        dict(net=dict(sa_stages=((64, 0.0, (32, 64)), (16, 0.4, (64, 128))))),
        dict(net=dict(sa_stages=((64, 0.2, (32, 64)), (16, -0.4, (64, 128))))),
        # optimizer settings that would stall or reverse training
        dict(max_grad_norm=0.0),
        dict(max_grad_norm=-1.0),
        dict(adam_eps=0.0),
        dict(beta1=-0.1),
        dict(beta1=1.0),
        dict(beta2=1.0),
        dict(weights=LossWeights(w_ref=-1.0)),
        dict(weights=LossWeights(w_seg_mov=-0.2)),
        dict(weights=LossWeights(margin=-80.0)),
        dict(weights=LossWeights(k_density=0)),
        # an interpolation over no neighbours
        dict(net=dict(fp_neighbors=0)),
        # a negative period still divides the step count, and a negative
        # motion threshold marks every point moving and never stops
        dict(log_every=-1),
        dict(checkpoint_every=-3),
        dict(theta_stop=-0.5),
    ],
)
def test_invalid_fields_are_rejected(bad):
    with pytest.raises(ConfigError):
        if "net" in bad:  # NetConfig checks its own shape as it is built
            bad = dict(bad, net=NetConfig(**bad["net"]))
        RunConfig(**bad)


def test_unknown_keys_are_rejected():
    data = json.loads(RunConfig().to_json())
    data["typo_field"] = 1
    with pytest.raises(ConfigError, match="typo_field"):
        RunConfig.from_dict(data)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
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
    assert (run / "config.json").read_text() == cfg.to_json()
    assert load_config(run / "config.json") == cfg


def test_replaced_does_not_mutate():
    cfg = micro_config()
    other = cfg.replaced(seed=77, no_rnn=True)
    assert cfg.seed == 0 and not cfg.no_rnn
    assert other.seed == 77 and other.no_rnn
