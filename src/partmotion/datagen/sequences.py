"""Motion sequences and per-state training instances.

A sequence holds n frames of the same N points at motion fractions
s = (k-1)/(n-1) for k = 1..n. Frame-to-frame displacement maps are the
exact differences of consecutive frames. A training instance starts at
state t and is expected to finish the motion: its targets are the
remaining true maps padded with zero maps, so every instance carries the
same number of maps and later maps of finished motions demand stillness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..geom import MobilitySpec, apply_mobility
from .templates import ShapeSample


@dataclass
class MotionSequence:
    category: str
    frames: np.ndarray          # (n, N, 3)
    labels: np.ndarray          # (N,) part ids, 0 = reference
    specs: Optional[list[MobilitySpec]]

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3 or self.frames.shape[2] != 3:
            raise ConfigError(f"frames must be (n, N, 3), got {self.frames.shape}")
        if self.frames.shape[0] < 2:
            raise ConfigError("a sequence needs at least two frames")
        if self.labels.shape != (self.frames.shape[1],):
            raise ConfigError("one label per point required")

    @property
    def n_frames(self) -> int:
        return int(self.frames.shape[0])

    @property
    def displacement_maps(self) -> np.ndarray:
        """(n-1, N, 3) true maps, map t moving frame t to frame t+1."""
        return self.frames[1:] - self.frames[:-1]


def sample_sequence(sample: ShapeSample, n_frames: int) -> MotionSequence:
    """Play every declared mobility simultaneously over n uniform fractions."""
    if not sample.parametric:
        raise ConfigError(f"{sample.category} has no mobility parameters; use nontrivial_sequence")
    if n_frames < 2:
        raise ConfigError("need at least two frames")
    pts0 = sample.cloud.points
    labels = sample.cloud.labels
    frames = np.empty((n_frames, pts0.shape[0], 3))
    for k in range(n_frames):
        s = k / (n_frames - 1)
        frame = pts0.copy()
        for part_id, spec in enumerate(sample.specs, start=1):
            idx = np.flatnonzero(labels == part_id)
            frame[idx] = apply_mobility(pts0[idx], spec, s)
        frames[k] = frame
    return MotionSequence(sample.category, frames, labels.copy(), list(sample.specs))


def nontrivial_sequence(sample: ShapeSample, n_frames: int) -> MotionSequence:
    """Sequence for categories whose motion is not a fixed screw."""
    if sample.parametric:
        raise ConfigError(f"{sample.category} is parametric; use sample_sequence")
    if n_frames < 2:
        raise ConfigError("need at least two frames")
    frames = np.stack([sample.frame_fn(k / (n_frames - 1)) for k in range(n_frames)])
    return MotionSequence(sample.category, frames, sample.cloud.labels.copy(), None)


def make_sequence(sample: ShapeSample, n_frames: int) -> MotionSequence:
    if sample.parametric:
        return sample_sequence(sample, n_frames)
    return nontrivial_sequence(sample, n_frames)


def same_part_matrix(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moving-point indices and their pair matrix: 0 same part, 1 different."""
    mov_idx = np.flatnonzero(np.asarray(labels) != 0)
    mov_labels = np.asarray(labels)[mov_idx]
    same = (mov_labels[:, None] != mov_labels[None, :]).astype(np.int64)
    return mov_idx, same


@dataclass
class TrainingInstance:
    """One start state plus the maps that finish (then hold) the motion."""

    category: str
    shape_id: str
    t: int                      # 1-based index of the start frame
    points: np.ndarray          # (N, 3)
    targets: np.ndarray         # (n_maps, N, 3) true maps then zero padding
    labels: np.ndarray          # (N,)
    n_true: int                 # leading maps that are real
    specs: Optional[list[MobilitySpec]]


def make_instances(seq: MotionSequence, shape_id: str = "") -> list[TrainingInstance]:
    """One instance per frame; instance t gets maps t..n-1 plus t zero maps."""
    maps = seq.displacement_maps
    n = seq.n_frames
    zero = np.zeros_like(seq.frames[0])
    out = []
    for t in range(1, n + 1):
        true_part = maps[t - 1:]
        targets = np.concatenate([true_part, np.tile(zero, (t, 1, 1))], axis=0)
        out.append(
            TrainingInstance(
                category=seq.category,
                shape_id=shape_id,
                t=t,
                points=seq.frames[t - 1].copy(),
                targets=targets,
                labels=seq.labels.copy(),
                n_true=n - t,
                specs=None if seq.specs is None else list(seq.specs),
            )
        )
    return out
