"""Run configuration: one JSON file drives every command.

A RunConfig bundles dataset parameters, network widths (NetConfig), loss
weights (LossWeights), optimizer settings, the training schedule, and
ablation switches. The same file round-trips through JSON and is echoed
into every output directory so a run can always be reproduced from its
artifacts alone. Each of the three config objects checks its own fields as
it is built, so one built in code is checked as one read from JSON is: an
int field or stage entry by `_int`, a float one by `_real`, and a bad value
is a ConfigError that names its field.
"""
from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .datagen.dataset import read_json, write_json
from .datagen.templates import TEMPLATE_NAMES
from .errors import ConfigError

THETA_STOP = 0.01

# keys of earlier configs, each dropped at the one value of the same type that the code now always uses
# (Adam's settings, the scan's depth noise and share) or that turned its feature off; else a ConfigError
_RETIRED_KEYS = {"checkpoint_every": 0, "weights.include_padded_motion": False, "beta1": 0.9, "beta2": 0.999,
                 "adam_eps": 1e-8, "scan_sigma": 0.005, "scan_fraction": 1.0}


def _int(name: str, value, low: int = 1, bits: int = 31) -> int:
    """The integer rule, for flat fields and stage entries alike: a Python int, as JSON
    and `save` write one, so neither a bool, 16.0 nor a numpy integer, in [low, 2**bits)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be int, got {value!r}")
    if not abs(value) < 2**bits:  # not printed: it may have thousands of digits
        raise ConfigError(f"{name} must lie strictly between -2**{bits} and 2**{bits}")
    if value < low:
        raise ConfigError(f"{name} must be at least {low}, got {value}")
    return value


def _real(name: str, value, positive: bool = False) -> float:
    """The real rule: a Python int or float, not a bool, finite and at least +0.0, or above 0 if positive."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be float, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf or a 400-digit int, which is not printed
        raise ConfigError(f"{name} must be finite")
    if not (value > 0.0 if positive else math.copysign(1.0, value) > 0.0):
        raise ConfigError(f"{name} must be {'positive' if positive else 'at least +0.0'}, got {value!r}")
    return float(value)


def _check_fields(obj, low: Optional[dict] = None, positive: tuple = ()) -> None:
    """Every int, float, bool or str field of a config object holds a valid value of that
    kind: ints at least 1 unless `low` names another bound, floats at least +0.0 or, if
    named in `positive`, above 0. A seed is an int64; every other int stays under 2**31."""
    for f in dataclasses.fields(obj):
        kind, value = type(f.default), getattr(obj, f.name)
        if kind is int:
            _int(f.name, value, (low or {}).get(f.name, 1), 63 if f.name == "seed" else 31)
        elif kind is float:
            _real(f.name, value, f.name in positive)
        elif kind in (bool, str) and not isinstance(value, kind):
            raise ConfigError(f"{f.name} must be {kind.__name__}, got {value!r}")


@dataclass
class NetConfig:
    """Desk-scale widths for all three networks.

    It checks its stages, given as tuples or JSON lists, and keeps them as tuples."""

    sa_stages: tuple = ((64, 0.2, (32, 64)), (16, 0.4, (64, 128)))
    group_sizes: tuple = (16, 8)
    global_width: int = 128
    fp_neighbors: int = 3
    decoder_hidden: int = 128
    head_hidden: int = 64
    feature_width: int = 64

    def __post_init__(self) -> None:
        _check_fields(self)
        try:
            (s1, r1, (w1a, w1b)), (s2, r2, (w2a, w2b)) = self.sa_stages
            k1, k2 = self.group_sizes
        except (TypeError, ValueError) as exc:
            raise ConfigError("need two (count, radius, (width, width)) stages and two group sizes") from exc
        stages = ((s1, r1, (w1a, w1b)), (s2, r2, (w2a, w2b)))
        self.sa_stages = tuple((_int(f"sa_stages[{i}] count", s), _real(f"sa_stages[{i}] radius", r, positive=True),
                                tuple(_int(f"sa_stages[{i}] widths", w) for w in widths))
                               for i, (s, r, widths) in enumerate(stages))
        self.group_sizes = tuple(_int("group_sizes", k) for k in (k1, k2))
        if not s2 < s1:
            raise ConfigError(f"sa_stages counts must strictly decrease, got {s1} then {s2}")
        if w2b != self.global_width:
            raise ConfigError(f"global_width must equal the last stage's output width, got {self.global_width} "
                              f"and {w2b}")


@dataclass
class LossWeights:
    """Weights and constants of the combined objective."""

    w_ref: float = 10.0
    w_mov: float = 5.0
    w_seg_obj: float = 2.0
    w_seg_mov: float = 0.2
    margin: float = 80.0
    k_density: int = 8

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass
class RunConfig:
    """Everything a gen/train/predict/eval run needs, in one place."""

    seed: int = 0

    # dataset
    categories: tuple = TEMPLATE_NAMES
    shapes_per_category: int = 25
    n_points: int = 256
    n_frames: int = 8

    # model
    net: NetConfig = field(default_factory=NetConfig)
    theta_stop: float = THETA_STOP

    # objective
    weights: LossWeights = field(default_factory=LossWeights)

    # optimizer
    lr: float = 1e-3
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
        # a clip norm of 0 zeroes every step and a negative one flips its sign
        _check_fields(self, low={"seed": 0, "n_frames": 2, "mobility_epochs": 0, "log_every": 0},
                      positive=("lr", "max_grad_norm"))
        if not isinstance(self.net, NetConfig) or not isinstance(self.weights, LossWeights):
            raise ConfigError(f"net must be a NetConfig and weights a LossWeights, got {type(self.net).__name__} "
                              f"and {type(self.weights).__name__}")
        if not isinstance(self.categories, (list, tuple)):
            raise ConfigError(f"categories must be a list, got {self.categories!r}")
        self.categories = tuple(self.categories)
        unknown = [c for c in self.categories if c not in TEMPLATE_NAMES]
        if unknown:
            raise ConfigError(f"unknown categories {unknown}; choose from {list(TEMPLATE_NAMES)}")
        if not self.categories:
            raise ConfigError("need at least one category")
        if len(set(self.categories)) < len(self.categories):
            raise ConfigError(f"categories must not repeat, got {list(self.categories)}")
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


ABLATION_SWITCHES = tuple(f.name for f in dataclasses.fields(RunConfig) if isinstance(f.default, bool))


def _drop_retired(data, prefix: str = ""):
    if not isinstance(data, dict):  # a non-object is left for the constructor to reject
        return data
    retired = {key: _RETIRED_KEYS[f"{prefix}{key}"] for key in data if f"{prefix}{key}" in _RETIRED_KEYS}
    for key, old in retired.items():
        if (type(data[key]), data[key]) != (type(old), old):
            raise ConfigError(f"{prefix}{key} is retired and accepted only as {old!r}, got {data[key]!r}")
    return {key: value for key, value in data.items() if key not in retired}


def load_config(path: str | Path) -> RunConfig:
    return RunConfig.from_dict(read_json(path, ConfigError))
