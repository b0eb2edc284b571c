"""Tiny configs and in-memory shapes for fast training-path tests."""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from partmotion.config import RunConfig
from partmotion.datagen import generate_shape, make_sequence
from partmotion.datagen.dataset import ShapeRecord
from partmotion.geom import MobilitySpec
from partmotion.nets import NetConfig

TINY_NET = dict(
    sa_stages=((16, 0.35, (8, 16)), (4, 0.8, (16, 24))),
    group_sizes=(8, 4),
    global_width=24,
    decoder_hidden=16,
    head_hidden=8,
    feature_width=8,
)

TINY_NET_JSON = dict(
    sa_stages=[[16, 0.35, [8, 16]], [4, 0.8, [16, 24]]],
    group_sizes=[8, 4],
    global_width=24,
    decoder_hidden=16,
    head_hidden=8,
    feature_width=8,
)


def micro_config(**overrides) -> RunConfig:
    defaults = dict(
        seed=0,
        categories=("drawer_box", "fan"),
        shapes_per_category=5,
        n_points=64,
        n_frames=4,
        net=NetConfig(**TINY_NET),
        epochs=1,
        mobility_epochs=2,
        log_every=10,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def micro_records(categories, n_points=64, n_frames=4, seed=0, split="train"):
    """In-memory ShapeRecords without touching the filesystem."""
    records = []
    for cat_idx, category in enumerate(categories):
        sample = generate_shape(category, np.random.default_rng([seed, cat_idx]), n_points)
        seq = make_sequence(sample, n_frames)
        records.append(
            ShapeRecord(
                seq.frames, seq.labels, seq.specs,
                category=category, shape_id=f"{category}_{cat_idx:03d}", split=split,
            )
        )
    return records


def spec_bytes(spec: MobilitySpec | None) -> bytes:
    """Every field of a mobility spec as raw float64 bytes, for exact comparisons."""
    if spec is None:
        return b"none"
    position = b"-" if spec.position is None else spec.position.tobytes()
    slide = b"-" if spec.slide_range is None else np.array(spec.slide_range).tobytes()
    return b"|".join([spec.tau.encode(), spec.direction.tobytes(), position,
                      np.array(spec.range_).tobytes(), slide])


def tree_hash(root: Path) -> str:
    """SHA-256 of every file under root, keyed by its relative path."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()
