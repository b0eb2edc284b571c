"""Rigid transforms, mobility parameters, and unit-box normalization.

Angles are degrees at every public boundary and radians only inside a
function body. Rotations follow the right-hand rule about the axis
direction. All arrays are float64. `moved_spec` is the one home of how a
spec follows its cloud: the templates' yaw and undoing the unit box.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError

TYPE_T = "T"
TYPE_R = "R"
TYPE_TR = "TR"
MOBILITY_TYPES = (TYPE_T, TYPE_R, TYPE_TR)

__all__ = [
    "TYPE_T",
    "TYPE_R",
    "TYPE_TR",
    "MOBILITY_TYPES",
    "RigidTransform",
    "MobilitySpec",
    "unit",
    "rotation_about_axis",
    "mobility_transform",
    "moved_spec",
    "normalize_to_unit_box",
]


def _as_vec3(v: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.shape != (3,):
        raise ConfigError(f"{name} must have shape (3,), got {a.shape}")
    return a


def unit(v: Sequence[float] | np.ndarray) -> np.ndarray:
    """Normalize a 3-vector, rejecting near-zero input."""
    a = _as_vec3(v, "direction")
    n = float(np.linalg.norm(a))
    if n < 1e-12:
        raise ConfigError("cannot normalize a near-zero direction")
    return a / n


@dataclass
class RigidTransform:
    """p -> rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64)
        if self.rotation.shape != (3, 3) or self.translation.shape != (3,):
            raise ConfigError("rigid transform needs a 3x3 rotation and 3-vector")

    def apply(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return points @ self.rotation.T + self.translation


@dataclass
class MobilitySpec:
    """Mobility of one moving part: type, axis, and motion range.

    direction is a unit axis vector. position is a point on the axis and is
    None exactly when the type is T (translations have no axis position).
    range_ holds (start, end) with start <= end: lengths for T, degrees for
    R and TR. slide_range holds the coupled translation lengths for TR.
    """

    tau: str
    direction: np.ndarray
    position: Optional[np.ndarray] = None
    range_: tuple[float, float] = (0.0, 0.0)
    slide_range: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        if self.tau not in MOBILITY_TYPES:
            raise ConfigError(f"unknown mobility type {self.tau!r}")
        self.direction = _as_vec3(self.direction, "direction")
        if abs(float(np.linalg.norm(self.direction)) - 1.0) > 1e-9:
            raise ConfigError("mobility direction must be unit length")
        if self.tau == TYPE_T:
            if self.position is not None:
                raise ConfigError("translation mobility has no axis position")
        else:
            if self.position is None:
                raise ConfigError(f"type {self.tau} requires an axis position")
            self.position = _as_vec3(self.position, "position")
        self.range_ = (float(self.range_[0]), float(self.range_[1]))
        if self.range_[0] > self.range_[1]:
            raise ConfigError("range start must not exceed range end")
        if self.tau == TYPE_TR:
            if self.slide_range is None:
                raise ConfigError("type TR requires a slide range")
            self.slide_range = (float(self.slide_range[0]), float(self.slide_range[1]))
            if self.slide_range[0] > self.slide_range[1]:
                raise ConfigError("slide range start must not exceed end")
        elif self.slide_range is not None:
            raise ConfigError("slide range only applies to type TR")
        values = (self.direction, self.position, self.range_, self.slide_range)
        if not all(np.isfinite(v).all() for v in values if v is not None):
            raise ConfigError("mobility direction, position and ranges must be finite")

    @property
    def span(self) -> float:
        return self.range_[1] - self.range_[0]


def rotation_about_axis(direction: np.ndarray, position: np.ndarray, angle_deg: float) -> RigidTransform:
    """Right-handed rotation by angle_deg about the line (position, direction)."""
    d = unit(direction)
    x = _as_vec3(position, "position")
    a = np.deg2rad(float(angle_deg))
    c, s = np.cos(a), np.sin(a)
    kx, ky, kz = d
    k_cross = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    rot = np.eye(3) * c + s * k_cross + (1.0 - c) * np.outer(d, d)
    return RigidTransform(rot, x - rot @ x)


def mobility_transform(spec: MobilitySpec, s: float) -> RigidTransform:
    """Transform taking start-state points to the state at fraction s of the range.

    A TR screw is the rotation about the axis followed by the slide along it.
    """
    if not 0.0 <= s <= 1.0:
        raise ConfigError(f"motion fraction must lie in [0, 1], got {s}")
    if spec.tau == TYPE_T:
        return RigidTransform(np.eye(3), unit(spec.direction) * (s * spec.span))
    transform = rotation_about_axis(spec.direction, spec.position, s * spec.span)
    if spec.tau == TYPE_TR:
        slide_span = spec.slide_range[1] - spec.slide_range[0]
        transform.translation = transform.translation + unit(spec.direction) * (s * slide_span)
    return transform


def moved_spec(spec: MobilitySpec, scale: float, shift: np.ndarray,
               rotation: Optional[np.ndarray] = None) -> MobilitySpec:
    """spec after its cloud moves by p -> rotation @ (scale * p) + shift, scale > 0.

    Lengths (the T range, the TR slide and the axis position) scale, angles
    do not. With no rotation the direction is kept: multiplying it by the
    identity would turn a -0.0 component into 0.0.
    """
    direction = spec.direction if rotation is None else rotation @ spec.direction
    if spec.tau == TYPE_T:
        return MobilitySpec(TYPE_T, direction, None, (spec.range_[0] * scale, spec.range_[1] * scale))
    position = spec.position[None] * scale
    if rotation is not None:
        position = position @ rotation.T
    slide = None if spec.slide_range is None else (spec.slide_range[0] * scale, spec.slide_range[1] * scale)
    return MobilitySpec(spec.tau, direction, position[0] + shift, spec.range_, slide)


def normalize_to_unit_box(points: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Center a cloud at the origin and scale its largest extent to 1.

    Returns (normalized points, scale, center) such that
    original = normalized * scale + center.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] == 0:
        raise ConfigError("normalize_to_unit_box needs a non-empty (N, 3) array")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    center = (lo + hi) / 2.0
    scale = float((hi - lo).max())
    if scale < 1e-12:
        scale = 1.0
    return (points - center) / scale, scale, center
