"""On-disk dataset generation and loading, and the package's JSON home.

This is the only module that reads or writes the dataset layout, and its
readers check every file they read: a malformed one is a DataError that
names it. It is also the only module that imports json: `read_json` and
`write_json` read and write every JSON file of the package, the run config
included. Layout under the output root:

    manifest.json                     dataset-wide parameters and shape list
    split.txt                         one "<shape id>\t<split>" line per shape
    config.json                       the run config, when written by `gen`
    <category>_<idx>/shape.json       per-shape metadata incl. mobility
    <category>_<idx>/frame_01.ply ... labeled frames, 01 is the start state
    <category>_<idx>/scan.ply         partial scan of frame 01 (test shapes)

Everything is derived from integer seed paths fed to numpy's generator, so
two runs with the same arguments produce byte-identical trees. The last
tenth of every category (rounded up) forms the test split, and `gen` scans
every test shape at depth noise DEPTH_SIGMA. A loaded shape is the written
MotionSequence plus its id and split; scans are not read.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..errors import ConfigError, DataError
from ..geom import MobilitySpec
from ..plyio import read_ply, write_ply
from .scan import DEPTH_SIGMA, scan_with_viewpoint_retries
from .sequences import MotionSequence, make_sequence
from .templates import TEMPLATE_NAMES, generate_shape, min_part_points

FORMAT_VERSION = 1

# scans are rendered from a denser resampling of the same shape so that
# the visible subset can be thinned back to exactly n_points
SCAN_RENDER_FACTOR = 8


def mobility_to_json(spec: MobilitySpec) -> dict:
    return {
        "type": spec.tau,
        "direction": spec.direction.tolist(),
        "position": None if spec.position is None else spec.position.tolist(),
        "range": list(spec.range_),
        "slide_range": None if spec.slide_range is None else list(spec.slide_range),
    }


def mobility_from_json(data: dict) -> MobilitySpec:
    return MobilitySpec(
        data["type"],
        np.array(data["direction"], dtype=np.float64),
        None if data["position"] is None else np.array(data["position"], dtype=np.float64),
        tuple(data["range"]),
        None if data["slide_range"] is None else tuple(data["slide_range"]),
    )


@dataclass
class ShapeRecord(MotionSequence):
    """One loaded shape: its motion sequence and identity."""

    category: str
    shape_id: str
    split: str


def foreign_entries(root: Path) -> list[str]:
    """Names of root's top-level entries that are not part of the layout above."""
    shape_dir = re.compile(f"(?:{'|'.join(TEMPLATE_NAMES)})_[0-9]{{3,}}")
    return sorted(p.name for p in root.iterdir() if not (
        p.is_file() if p.name in ("manifest.json", "split.txt", "config.json")
        else p.is_dir() and shape_dir.fullmatch(p.name)))


def read_json(path: str | Path, error: type[Exception]) -> dict:
    """The JSON object in path, or error naming the file when it cannot be
    read, is not UTF-8, is not JSON, nests too deep or holds no object."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"{path}: unreadable or invalid JSON ({exc!r})") from exc
    if type(data) is not dict:
        raise error(f"{path}: need a JSON object, got {type(data).__name__}")
    return data


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def generate_dataset(
    out_dir: str | Path,
    categories: tuple[str, ...],
    shapes_per_category: int,
    n_points: int,
    n_frames: int,
    seed: int,
    scan_fraction: float = 1.0,
) -> dict:
    """Write a full corpus; returns the dataset manifest.

    Scans carry depth noise DEPTH_SIGMA; scan_fraction sets how many test shapes
    per category get one (rounded, earliest first; `gen` scans them all). No
    directory is made before the first shape has been generated.
    """
    if not 0.0 <= scan_fraction <= 1.0:
        raise ConfigError(f"scan fraction must lie in [0, 1], got {scan_fraction}")
    if len(set(categories)) < len(categories):  # a repeat would overwrite its shapes
        raise ConfigError(f"categories must not repeat, got {list(categories)}")
    root = Path(out_dir)
    n_test = math.ceil(0.1 * shapes_per_category)
    n_scanned = round(scan_fraction * n_test)
    first_test = shapes_per_category - n_test
    shapes = []
    split_lines = []
    for cat_idx, category in enumerate(categories):
        for shape_idx in range(shapes_per_category):
            split = "test" if shape_idx >= first_test else "train"
            rng = np.random.default_rng([seed, cat_idx, shape_idx])
            seq = make_sequence(generate_shape(category, rng, n_points), n_frames)
            shape_id = f"{category}_{shape_idx:03d}"
            shape_dir = root / shape_id
            shape_dir.mkdir(parents=True, exist_ok=True)
            for k in range(n_frames):
                write_ply(shape_dir / f"frame_{k + 1:02d}.ply", seq.frames[k], seq.labels)
            meta = {
                "format_version": FORMAT_VERSION,
                "category": category,
                "shape_id": shape_id,
                "split": split,
                "n_frames": n_frames,
                "seed_path": [seed, cat_idx, shape_idx],
                "parts": None
                if seq.specs is None
                else [
                    {"part_id": part_id, "mobility": mobility_to_json(spec)}
                    for part_id, spec in enumerate(seq.specs, start=1)
                ],
                "scan": None,
            }
            if split == "test" and shape_idx - first_test < n_scanned:
                # render the same shape densely so the visible subset can be
                # thinned back to exactly n_points
                dense = generate_shape(
                    category, np.random.default_rng([seed, cat_idx, shape_idx]),
                    SCAN_RENDER_FACTOR * n_points,
                )
                scan_points, scan_labels, viewpoint = scan_with_viewpoint_retries(
                    dense.points,
                    dense.labels,
                    rng,
                    sigma=DEPTH_SIGMA,
                    n_target=n_points,
                    floor=min_part_points(n_points),
                )
                write_ply(shape_dir / "scan.ply", scan_points, scan_labels)
                meta["scan"] = {"file": "scan.ply", "viewpoint": viewpoint.tolist(),
                                "sigma": DEPTH_SIGMA}
            write_json(shape_dir / "shape.json", meta)
            shapes.append({"shape_id": shape_id, "category": category, "split": split})
            split_lines.append(f"{shape_id}\t{split}\n")
    manifest = {
        "format_version": FORMAT_VERSION,
        "categories": list(categories),
        "shapes_per_category": shapes_per_category,
        "n_points": n_points,
        "n_frames": n_frames,
        "seed": seed,
        "scan_sigma": DEPTH_SIGMA,
        "scan_fraction": scan_fraction,
        "shapes": shapes,
    }
    root.mkdir(parents=True, exist_ok=True)
    write_json(root / "manifest.json", manifest)
    (root / "split.txt").write_text("".join(split_lines))
    return manifest


def load_dataset(root: str | Path, split: Optional[str] = None) -> list[ShapeRecord]:
    """Load every shape (optionally one split) back into memory."""
    path = Path(root) / "manifest.json"
    manifest = read_json(path, DataError)
    entries = manifest.get("shapes")
    if manifest.get("format_version") != FORMAT_VERSION or type(entries) is not list or not all(
            type(e) is dict and type(e.get("shape_id")) is str and type(e.get("split")) is str for e in entries):
        raise DataError(f"{path}: need format_version {FORMAT_VERSION} and a list of {{shape_id, split}} objects")
    return [load_shape(path.parent / e["shape_id"]) for e in entries
            if split is None or e["split"] == split]


def _read_shape_json(shape_dir: Path) -> dict:
    """The checked shape.json of one shape directory.

    Its mobilities come parsed under "specs"; seed_path and scan are not read.
    """
    path = shape_dir / "shape.json"
    meta = read_json(path, DataError)
    try:
        category, n_frames = meta["category"], meta["n_frames"]
        if category not in TEMPLATE_NAMES or type(n_frames) is not int or n_frames < 2:
            raise ValueError(
                f"need a known category and an int n_frames of at least 2, got {category!r}, {n_frames!r}"
            )
        if type(meta["shape_id"]) is not str or type(meta["split"]) is not str:
            raise ValueError(f"need str shape_id and split, got {meta['shape_id']!r}, {meta['split']!r}")
        parts = meta["parts"]
        meta["specs"] = None if parts is None else [mobility_from_json(p["mobility"]) for p in parts]
    except (ValueError, TypeError, KeyError, IndexError, OverflowError) as exc:  # and MobilitySpec's ConfigError
        raise DataError(f"{path}: malformed ({exc!r})") from exc
    return meta


def load_shape(shape_dir: str | Path) -> ShapeRecord:
    shape_dir = Path(shape_dir)
    meta = _read_shape_json(shape_dir)
    frames = []
    labels = None
    for k in range(meta["n_frames"]):
        path = shape_dir / f"frame_{k + 1:02d}.ply"
        pts, lab = read_ply(path)
        if lab is None or (labels is not None and not np.array_equal(lab, labels)):
            raise DataError(f"{path}: frame without labels or unlike the shape's first frame")
        if np.any(lab < 0):
            raise DataError(f"{path}: negative part label {lab.min()}")
        frames.append(pts)
        labels = lab
    specs = meta["specs"]
    # one part per moving label, labelled 1..K without gaps
    if specs is not None and not np.array_equal(np.unique(labels[labels != 0]), np.arange(1, len(specs) + 1)):
        raise DataError(f"{shape_dir / 'shape.json'}: {len(specs)} parts do not match the frames' moving labels")
    return ShapeRecord(
        category=meta["category"],
        shape_id=meta["shape_id"],
        split=meta["split"],
        frames=np.stack(frames),
        labels=labels,
        specs=specs,
    )
