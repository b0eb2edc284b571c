"""Analytic mobility extraction from rigid part trajectories.

Given the frames of one part, each consecutive pair is registered with the
SVD (Kabsch) solution and the relative transform is classified as a
translation, rotation, or screw from its rotation angle and pitch. The
sequence verdict is the majority pair type; the axis averages sign-aligned
pair axes and the motion range comes from summing signed per-pair steps,
which stays well conditioned where a single composed rotation would
approach the 180 degree ambiguity. The composed first-to-last transform
still serves as a cross check on the summed range. Reported axes point
along the observed motion, so ranges always start at zero and grow
positive.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DataError
from .geom import MOBILITY_TYPES, TYPE_R, TYPE_T, TYPE_TR, MobilitySpec, RigidTransform, unit

ANGLE_FLOOR_DEG = 0.5
PITCH_FLOOR = 0.005
STILL_EPS = 1e-9
RANGE_TOLERANCE = 0.02  # relative mismatch between summed and composed range

FLAG_LOW_CONFIDENCE = "low_confidence"
FLAG_RANGE_INCONSISTENT = "range_inconsistent"


def rigid_register(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform mapping src onto dst, det(R) = +1."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise DataError(f"point sets must both be (M, 3), got {src.shape} and {dst.shape}")
    if src.shape[0] < 3:
        raise DataError("need at least three points to register")
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    h = (src - cs).T @ (dst - cd)
    u, sv, vt = np.linalg.svd(h)
    # collinear (or fully degenerate) sets leave a rotation degree of
    # freedom unconstrained
    if sv[0] < 1e-15 or sv[1] <= 1e-9 * sv[0]:
        raise DataError("rank-deficient configuration: points are collinear or coincident")
    sign = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, sign]) @ u.T
    return RigidTransform(rotation, cd - rotation @ cs)


def registration_residual(transform: RigidTransform, src: np.ndarray, dst: np.ndarray) -> float:
    """Mean squared distance between the transformed source and the target."""
    diff = transform.apply(np.asarray(src, dtype=np.float64)) - np.asarray(dst, dtype=np.float64)
    return float(np.mean(np.sum(diff * diff, axis=1)))


def rotation_angle_deg(rotation: np.ndarray) -> float:
    cos = np.clip((np.trace(rotation) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.degrees(np.arccos(cos)))


def rotation_axis(rotation: np.ndarray) -> np.ndarray:
    """Unit axis of a rotation, oriented so the rotation angle is positive."""
    raw = np.array(
        [
            rotation[2, 1] - rotation[1, 2],
            rotation[0, 2] - rotation[2, 0],
            rotation[1, 0] - rotation[0, 1],
        ]
    )
    norm = np.linalg.norm(raw)
    if norm < 1e-12:
        raise DataError("rotation too close to 0 or 180 degrees for a stable axis")
    return raw / norm


def axis_point(rotation: np.ndarray, translation: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Point of the screw axis closest to the origin.

    Solves (I - R + d d^T) x = t_perp; the left side is invertible for any
    proper rotation with nonzero angle and the solution has no component
    along the axis direction.
    """
    t_perp = translation - np.dot(translation, direction) * direction
    a = np.eye(3) - rotation + np.outer(direction, direction)
    return np.linalg.solve(a, t_perp)


class PairMotion:
    """Classified relative motion of one consecutive frame pair."""

    __slots__ = ("tau", "direction", "position", "angle_deg", "slide", "amount")

    def __init__(self, tau, direction, position, angle_deg, slide, amount=0.0):
        self.tau = tau
        self.direction = direction
        self.position = position
        self.angle_deg = angle_deg
        self.slide = slide
        self.amount = amount   # mean per-point displacement, for tie breaks


def classify_transform(
    transform: RigidTransform,
    angle_floor_deg: float = ANGLE_FLOOR_DEG,
    pitch_floor: float = PITCH_FLOOR,
) -> PairMotion:
    """Pair verdict; DataError("no motion") when nothing moves."""
    angle = rotation_angle_deg(transform.rotation)
    t = transform.translation
    if angle < angle_floor_deg:
        shift = float(np.linalg.norm(t))
        if shift < STILL_EPS:
            raise DataError("no motion")
        return PairMotion(TYPE_T, t / shift, None, 0.0, shift)
    direction = rotation_axis(transform.rotation)
    slide = float(np.dot(t, direction))
    position = axis_point(transform.rotation, t, direction)
    tau = TYPE_TR if abs(slide) >= pitch_floor else TYPE_R
    return PairMotion(tau, direction, position, angle, slide)


@dataclass
class FittedMobility:
    """Fit result: the mobility plus registration diagnostics."""

    spec: MobilitySpec
    residual: float                              # mean squared pair error
    per_frame_transforms: list[RigidTransform] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)


def derive_range(first: np.ndarray, last: np.ndarray, spec: MobilitySpec) -> tuple[float, list[str]]:
    """Motion span between two states from one composed registration.

    Returns the signed span along the spec direction (length for T,
    degrees otherwise) plus flags when the composed transform disagrees
    with the claimed type. Near 0 or 180 degrees the composed rotation
    cannot be signed reliably, which is why the summed per-pair range
    stays authoritative; this is a cross check.
    """
    transform = rigid_register(first, last)
    angle = rotation_angle_deg(transform.rotation)
    flags: list[str] = []
    if spec.tau == TYPE_T:
        if angle >= ANGLE_FLOOR_DEG:
            flags.append(FLAG_RANGE_INCONSISTENT)
        span = float(np.dot(transform.translation, spec.direction))
        off_axis = transform.translation - span * spec.direction
        if np.linalg.norm(off_axis) > max(1e-6, RANGE_TOLERANCE * abs(span)):
            flags.append(FLAG_RANGE_INCONSISTENT)
        return span, flags
    if angle < ANGLE_FLOOR_DEG:
        # composed rotation vanished although the type is rotational
        return 0.0, [FLAG_RANGE_INCONSISTENT]
    try:
        composed_dir = rotation_axis(transform.rotation)
        signed = float(np.sign(np.dot(composed_dir, spec.direction)) * angle)
    except DataError:
        # 180 degrees: magnitude is still usable, the sign is not
        signed = float(angle)
    return signed, flags


def fit_sequence(
    frames: np.ndarray,
    angle_floor_deg: float = ANGLE_FLOOR_DEG,
    pitch_floor: float = PITCH_FLOOR,
) -> Optional[FittedMobility]:
    """Mobility of one part across its frames; None when it never moves.

    Still pairs (padded tail frames for instance) drop out through the
    no-motion error path and do not vote.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[2] != 3 or frames.shape[0] < 2:
        raise DataError(f"frames must be (n>=2, M, 3), got {frames.shape}")
    pairs: list[PairMotion] = []
    transforms: list[RigidTransform] = []
    residuals: list[float] = []
    for k in range(frames.shape[0] - 1):
        transform = rigid_register(frames[k], frames[k + 1])
        transforms.append(transform)
        residuals.append(registration_residual(transform, frames[k], frames[k + 1]))
        try:
            motion = classify_transform(
                transform, angle_floor_deg=angle_floor_deg, pitch_floor=pitch_floor
            )
        except DataError as exc:
            if str(exc) != "no motion":
                raise
            continue
        motion.amount = float(np.mean(np.linalg.norm(frames[k + 1] - frames[k], axis=1)))
        pairs.append(motion)
    if not pairs:
        return None
    residual = float(np.mean(residuals))
    flags: list[str] = []

    votes = {tau: sum(p.tau == tau for p in pairs) for tau in MOBILITY_TYPES}
    top = max(votes.values())
    leaders = [tau for tau, v in votes.items() if v == top]
    if len(leaders) == 1:
        tau = leaders[0]
    else:
        # no clear majority: the most-moving pair decides
        tau = max(pairs, key=lambda p: p.amount).tau
        flags.append(FLAG_LOW_CONFIDENCE)

    if tau == TYPE_T:
        kept = [p for p in pairs if p.tau == TYPE_T]
        direction = _aligned_mean([p.direction for p in kept])
        span = sum(np.sign(np.dot(p.direction, direction)) * p.slide for p in kept)
        if span < 0.0:
            direction, span = -direction, -span
        spec = MobilitySpec(TYPE_T, direction, None, (0.0, float(span)))
    else:
        kept = [p for p in pairs if p.tau in (TYPE_R, TYPE_TR)]
        direction = _aligned_mean([p.direction for p in kept])
        position = np.mean([p.position for p in kept], axis=0)
        angle = sum(np.sign(np.dot(p.direction, direction)) * p.angle_deg for p in kept)
        slide = sum(np.sign(np.dot(p.direction, direction)) * p.slide for p in kept)
        if angle < 0.0:
            direction, angle, slide = -direction, -angle, -slide
        if tau == TYPE_R:
            spec = MobilitySpec(TYPE_R, direction, position, (0.0, float(angle)))
        else:
            slide_range = (0.0, float(slide)) if slide >= 0.0 else (float(slide), 0.0)
            spec = MobilitySpec(TYPE_TR, direction, position, (0.0, float(angle)), slide_range)

    flags.extend(_range_check(frames, spec))
    return FittedMobility(spec, residual, transforms, flags)


def _range_check(frames: np.ndarray, spec: MobilitySpec) -> list[str]:
    """Compare the summed range against the composed first-to-last span."""
    span_sum = spec.span
    composed, flags = derive_range(frames[0], frames[-1], spec)
    if FLAG_RANGE_INCONSISTENT in flags:
        return [FLAG_RANGE_INCONSISTENT]
    if spec.tau == TYPE_T:
        expected = span_sum
    else:
        # the composed angle is only known modulo 360
        expected = abs((span_sum + 180.0) % 360.0 - 180.0)
    if abs(composed - expected) > max(1e-6, RANGE_TOLERANCE * max(span_sum, 1e-12)):
        return [FLAG_RANGE_INCONSISTENT]
    return []


def _aligned_mean(directions: list[np.ndarray]) -> np.ndarray:
    ref = directions[0]
    acc = np.zeros(3)
    for d in directions:
        acc += d if np.dot(d, ref) >= 0.0 else -d
    return unit(acc)


def fit_from_displacements(points: np.ndarray, maps: np.ndarray, **kwargs) -> Optional[FittedMobility]:
    """Fit mobility from a start state and its displacement maps."""
    maps = np.asarray(maps, dtype=np.float64)
    frames = np.concatenate(
        [points[None], points[None] + np.cumsum(maps, axis=0)], axis=0
    )
    return fit_sequence(frames, **kwargs)
