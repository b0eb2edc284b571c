"""Analytic mobility extraction from rigid part trajectories.

Given the frames of one part, all consecutive pairs and the composed
first-to-last pair are registered in one batched SVD (Kabsch) solve. Each
consecutive pair's relative transform is classified as a translation,
rotation, or screw from its rotation angle and pitch. The sequence verdict
is the majority pair type; the axis averages sign-aligned pair axes and the
motion range comes from summing signed per-pair steps, which stays well
conditioned where a single composed rotation would approach the 180 degree
ambiguity. The composed transform serves only as a cross check on the
summed range. Reported axes point along the observed motion, so ranges
always start at zero and grow positive.
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


def _kabsch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (P, 3, 3) and translations (P, 3) mapping each src[p] onto dst[p]."""
    if src.shape[1] < 3:
        raise DataError("need at least three points to register")
    cs = src.mean(axis=1)
    cd = dst.mean(axis=1)
    h = (src - cs[:, None]).transpose(0, 2, 1) @ (dst - cd[:, None])
    u, sv, vt = np.linalg.svd(h)
    # collinear (or fully degenerate) sets leave a rotation degree of
    # freedom unconstrained
    if np.any((sv[:, 0] < 1e-15) | (sv[:, 1] <= 1e-9 * sv[:, 0])):
        raise DataError("rank-deficient configuration: points are collinear or coincident")
    v, ut = vt.transpose(0, 2, 1), u.transpose(0, 2, 1)
    flip = np.tile(np.eye(3), (len(h), 1, 1))
    flip[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    rotation = v @ flip @ ut
    return rotation, cd - (rotation @ cs[..., None])[..., 0]


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


@dataclass
class PairMotion:
    """Classified relative motion of one consecutive frame pair."""

    tau: str
    direction: np.ndarray
    position: Optional[np.ndarray]
    angle_deg: float
    slide: float
    amount: float = 0.0   # mean per-point displacement, for tie breaks


def classify_transform(transform: RigidTransform) -> Optional[PairMotion]:
    """Pair verdict; None when nothing moves."""
    angle = rotation_angle_deg(transform.rotation)
    t = transform.translation
    if angle < ANGLE_FLOOR_DEG:
        shift = float(np.linalg.norm(t))
        if shift < STILL_EPS:
            return None
        return PairMotion(TYPE_T, t / shift, None, 0.0, shift)
    direction = rotation_axis(transform.rotation)
    slide = float(np.dot(t, direction))
    position = axis_point(transform.rotation, t, direction)
    tau = TYPE_TR if abs(slide) >= PITCH_FLOOR else TYPE_R
    return PairMotion(tau, direction, position, angle, slide)


@dataclass
class FittedMobility:
    """Fit result: the mobility plus registration diagnostics."""

    spec: MobilitySpec
    residual: float                              # mean squared pair error
    flags: list[str] = field(default_factory=list)


def fit_sequence(frames: np.ndarray) -> Optional[FittedMobility]:
    """Mobility of one part across its frames; None when it never moves.

    Still pairs (padded tail frames for instance) do not vote.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[2] != 3 or frames.shape[0] < 2:
        raise DataError(f"frames must be (n>=2, M, 3), got {frames.shape}")
    # the consecutive pairs, then the composed first-to-last pair
    rotations, translations = _kabsch(np.concatenate([frames[:-1], frames[:1]]),
                                      np.concatenate([frames[1:], frames[-1:]]))
    composed = RigidTransform(rotations[-1], translations[-1])
    rotations, translations = rotations[:-1], translations[:-1]
    amounts = np.linalg.norm(frames[1:] - frames[:-1], axis=2).mean(axis=1)
    pairs: list[PairMotion] = []
    for rotation, translation, amount in zip(rotations, translations, amounts):
        motion = classify_transform(RigidTransform(rotation, translation))
        if motion is not None:
            motion.amount = float(amount)
            pairs.append(motion)
    if not pairs:
        return None
    diff = frames[:-1] @ rotations.transpose(0, 2, 1) + translations[:, None] - frames[1:]
    residual = float(np.mean(np.mean(np.sum(diff * diff, axis=2), axis=1)))
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

    flags.extend(_range_flags(composed, spec))
    return FittedMobility(spec, residual, flags)


def _range_flags(composed: RigidTransform, spec: MobilitySpec) -> list[str]:
    """Flags when the composed first-to-last transform disagrees with spec.

    It must show the claimed type, and its span, signed along the spec
    direction (a length for T, degrees otherwise, known only modulo 360),
    must match the summed range. Near 0 or 180 degrees the composed rotation
    cannot be signed reliably, which is why the summed range stays
    authoritative and this is only a cross check.
    """
    angle = rotation_angle_deg(composed.rotation)
    if spec.tau == TYPE_T:
        span = float(np.dot(composed.translation, spec.direction))
        off_axis = np.linalg.norm(composed.translation - span * spec.direction)
        if angle >= ANGLE_FLOOR_DEG or off_axis > max(1e-6, RANGE_TOLERANCE * abs(span)):
            return [FLAG_RANGE_INCONSISTENT]
        expected = spec.span
    elif angle < ANGLE_FLOOR_DEG:  # composed rotation vanished although the type is rotational
        return [FLAG_RANGE_INCONSISTENT]
    else:
        try:
            span = float(np.sign(np.dot(rotation_axis(composed.rotation), spec.direction)) * angle)
        except DataError:  # 180 degrees: the magnitude is still usable, the sign is not
            span = float(angle)
        expected = abs((spec.span + 180.0) % 360.0 - 180.0)
    if abs(span - expected) > max(1e-6, RANGE_TOLERANCE * max(spec.span, 1e-12)):
        return [FLAG_RANGE_INCONSISTENT]
    return []


def _aligned_mean(directions: list[np.ndarray]) -> np.ndarray:
    ref = directions[0]
    acc = np.zeros(3)
    for d in directions:
        acc += d if np.dot(d, ref) >= 0.0 else -d
    return unit(acc)


def fit_from_displacements(points: np.ndarray, maps: np.ndarray) -> Optional[FittedMobility]:
    """Fit mobility from a start state and its displacement maps."""
    maps = np.asarray(maps, dtype=np.float64)
    frames = np.concatenate([points[None], points[None] + np.cumsum(maps, axis=0)])
    return fit_sequence(frames)
