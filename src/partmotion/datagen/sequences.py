"""Motion sequences and per-state training instances.

A sequence holds n frames of the same N points at motion fractions
s = (k-1)/(n-1) for k = 1..n, rendered by the shape's frame function for
every category. A loaded dataset shape is itself a sequence (ShapeRecord
subclasses MotionSequence). Frame-to-frame displacement maps are the
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
from ..geom import MobilitySpec
from .templates import ShapeSample


@dataclass
class MotionSequence:
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
    def displacement_maps(self) -> np.ndarray:
        """(n-1, N, 3) true maps, map t moving frame t to frame t+1."""
        return self.frames[1:] - self.frames[:-1]


def make_sequence(sample: ShapeSample, n_frames: int) -> MotionSequence:
    """The sample's frame function at n uniform motion fractions."""
    if n_frames < 2:
        raise ConfigError("need at least two frames")
    frames = np.stack([sample.frame_fn(k / (n_frames - 1)) for k in range(n_frames)])
    return MotionSequence(frames, sample.labels.copy(), None if sample.specs is None else list(sample.specs))


def same_part_matrix(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moving-point indices and their read-only pair matrix: True where two share a part."""
    mov_idx = np.flatnonzero(np.asarray(labels) != 0)
    mov_labels = np.asarray(labels)[mov_idx]
    same = mov_labels[:, None] == mov_labels[None, :]
    same.flags.writeable = False
    return mov_idx, same


@dataclass
class TrainingInstance:
    """One start state plus the maps that finish (then hold) the motion."""

    t: int                      # 1-based index of the start frame
    points: np.ndarray          # (N, 3)
    targets: np.ndarray         # (n_maps, N, 3) true maps then zero padding
    labels: np.ndarray          # (N,)
    n_true: int                 # leading maps that are real
    specs: Optional[list[MobilitySpec]]


def make_instances(seq: MotionSequence) -> list[TrainingInstance]:
    """One instance per frame; instance t gets maps t..n-1 plus t zero maps.

    A sequence's instances share two read-only buffers: each one's points
    are a view of seq.frames, and its targets rows t-1 to t+n-2 of the true
    maps followed by n zero maps. Labels and specs are each instance's own.
    """
    n = len(seq.frames)
    padded = np.concatenate([seq.displacement_maps, np.zeros_like(seq.frames)])
    frames = seq.frames.view()
    padded.flags.writeable = frames.flags.writeable = False
    return [
        TrainingInstance(
            t=t,
            points=frames[t - 1],
            targets=padded[t - 1 : t - 1 + n],
            labels=seq.labels.copy(),
            n_true=n - t,
            specs=None if seq.specs is None else list(seq.specs),
        )
        for t in range(1, n + 1)
    ]
