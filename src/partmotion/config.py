"""Run configuration: one JSON file drives every command.

A RunConfig bundles dataset parameters, network widths, loss weights,
optimizer settings, the training schedule, and ablation switches. The
same file round-trips through JSON and is echoed into every output
directory so a run can always be reproduced from its artifacts alone.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .datagen.dataset import read_json, write_json
from .datagen.scan import DEPTH_SIGMA
from .datagen.templates import TEMPLATE_NAMES
from .errors import ConfigError
from .losses import LossWeights
from .nets import THETA_STOP, NetConfig

ABLATION_SWITCHES = (
    "no_rnn",
    "no_geom",
    "no_disp",
    "no_mot",
    "no_seg",
    "no_mob_net",
    "no_p0",
    "basenet",
)
# keys of earlier configs, dropped at the value and type that turned them off, else a ConfigError
_RETIRED_KEYS = {"checkpoint_every": 0, "weights.include_padded_motion": False}


@dataclass
class RunConfig:
    """Everything a gen/train/predict/eval run needs, in one place."""

    seed: int = 0

    # dataset
    categories: tuple = TEMPLATE_NAMES
    shapes_per_category: int = 25
    n_points: int = 256
    n_frames: int = 8
    scan_sigma: float = DEPTH_SIGMA
    scan_fraction: float = 1.0

    # model
    net: NetConfig = field(default_factory=NetConfig)
    theta_stop: float = THETA_STOP

    # objective
    weights: LossWeights = field(default_factory=LossWeights)

    # optimizer
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    max_grad_norm: float = 25.0

    # schedule
    epochs: int = 4
    mobility_epochs: int = 30
    log_every: int = 100

    # ablation switches (mutually composable, basenet exclusive)
    no_rnn: bool = False
    no_geom: bool = False
    no_disp: bool = False
    no_mot: bool = False
    no_seg: bool = False
    no_mob_net: bool = False
    no_p0: bool = False
    basenet: bool = False

    # paths
    dataset_dir: str = "dataset"
    out_dir: str = "run"

    def __post_init__(self) -> None:
        for obj in (self, self.net, self.weights):
            _check_scalar_types(obj)
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        self.categories = tuple(self.categories)
        unknown = [c for c in self.categories if c not in TEMPLATE_NAMES]
        if unknown:
            raise ConfigError(f"unknown categories {unknown}; choose from {list(TEMPLATE_NAMES)}")
        if not self.categories:
            raise ConfigError("need at least one category")
        if len(set(self.categories)) < len(self.categories):
            raise ConfigError(f"categories must not repeat, got {list(self.categories)}")
        if self.shapes_per_category < 1 or self.n_points < 1:
            raise ConfigError("shapes_per_category and n_points must be positive")
        if self.n_frames < 2:
            raise ConfigError("n_frames must be at least 2")
        if not 0.0 <= self.scan_fraction <= 1.0:
            raise ConfigError(f"scan fraction must lie in [0, 1], got {self.scan_fraction}")
        if math.copysign(1.0, self.scan_sigma) < 0.0:
            raise ConfigError(f"scan_sigma must be at least +0.0, got {self.scan_sigma}")
        if self.epochs < 1 or self.mobility_epochs < 0:
            raise ConfigError("epoch counts must be positive")
        if min(self.log_every, self.theta_stop) < 0:
            raise ConfigError("log_every and theta_stop must be non-negative")
        if self.lr <= 0.0:
            raise ConfigError("learning rate must be positive")
        # a clip norm of 0 zeroes every step and a negative one flips its sign
        if self.max_grad_norm <= 0.0 or self.adam_eps <= 0.0:
            raise ConfigError("max_grad_norm and adam_eps must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"Adam betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        w = self.weights
        if min(w.w_ref, w.w_mov, w.w_seg_obj, w.w_seg_mov, w.margin) < 0.0 or w.k_density < 1:
            raise ConfigError("loss weights and margin must be non-negative and k_density at least 1")
        if self.basenet and any(getattr(self, s) for s in ABLATION_SWITCHES if s != "basenet"):
            raise ConfigError("basenet is exclusive; it cannot combine with other switches")

    @property
    def ablation_tags(self) -> list[str]:
        return [s for s in ABLATION_SWITCHES if getattr(self, s)]

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = _drop_retired(data)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        try:
            if "net" in data:
                data["net"] = NetConfig(**data["net"])
            if "weights" in data:
                data["weights"] = LossWeights(**_drop_retired(data["weights"], "weights."))
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def save(self, path: str | Path) -> None:
        write_json(path, dataclasses.asdict(self))


def _drop_retired(data, prefix: str = ""):
    if not isinstance(data, dict):  # a non-object is left for the constructor to reject
        return data
    retired = {key: _RETIRED_KEYS[f"{prefix}{key}"] for key in data if f"{prefix}{key}" in _RETIRED_KEYS}
    for key, old in retired.items():
        if (type(data[key]), data[key]) != (type(old), old):
            raise ConfigError(f"{prefix}{key} is retired and accepted only as {old!r}, got {data[key]!r}")
    return {key: value for key, value in data.items() if key not in retired}


def _check_scalar_types(obj) -> None:
    """Every int, float, bool or str field must hold a value of that kind, floats finite."""
    kinds = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str}
    for f in dataclasses.fields(obj):
        kind, value = kinds.get(type(f.default)), getattr(obj, f.name)
        if kind and (not isinstance(value, kind) or (kind is not bool and isinstance(value, bool))):
            raise ConfigError(f"{f.name} must be {type(f.default).__name__}, got {value!r}")
        if kind is numbers.Real and not abs(value) <= sys.float_info.max:  # a 400-digit int too
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


def load_config(path: str | Path) -> RunConfig:
    return RunConfig.from_dict(read_json(path, ConfigError))
