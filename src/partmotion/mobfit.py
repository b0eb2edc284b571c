"""Analytic mobility extraction from rigid part trajectories.

Given the frames of one part, all consecutive pairs and the composed
first-to-last pair are registered in one batched SVD (Kabsch) solve, and one
array pass reads every transform's angle, axis and slide. Still pairs (padded
tail frames for instance) are dropped; every other consecutive pair is a
translation, rotation, or screw by its angle and pitch, and the sequence
verdict is their majority. One path serves all three types: the axis averages
the sign-aligned axes of the pairs of the winning kind, and the motion range
sums their signed angles and slides, which stays well conditioned where a
single composed rotation would approach the 180 degree ambiguity. The composed
transform serves only as a cross check on the summed range. Reported axes
point along the observed motion, so ranges start at zero and grow positive.
Dot products and norms go through stacked np.matmul (`_dot`), which rounds
each row as np.dot does; einsum and np.linalg.norm(axis=1) round differently.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DataError
from .geom import MOBILITY_TYPES, TYPE_T, TYPE_TR, MobilitySpec, unit

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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below: an overflowed SVD may never return
        cs, cd = src.mean(axis=1), dst.mean(axis=1)
        h = (src - cs[:, None]).transpose(0, 2, 1) @ (dst - cd[:, None])
    if not np.isfinite(h).all():
        raise DataError("frames too far apart to register: their cross-covariance overflows")
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


@dataclass
class FittedMobility:
    """Fit result: the mobility plus registration diagnostics."""

    spec: MobilitySpec
    residual: float                              # mean squared pair error
    flags: list[str] = field(default_factory=list)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (P, 3) stacks, each with np.dot's bits."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def fit_sequence(frames: np.ndarray) -> Optional[FittedMobility]:
    """Mobility of one part across its frames; None when it never moves."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[2] != 3 or frames.shape[0] < 2:
        raise DataError(f"frames must be (n>=2, M, 3), got {frames.shape}")
    # the consecutive pairs, then the composed first-to-last pair
    rotations, translations = _kabsch(np.concatenate([frames[:-1], frames[:1]]),
                                      np.concatenate([frames[1:], frames[-1:]]))
    angles = np.degrees(np.arccos(np.clip((np.trace(rotations, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)))
    # unit axes, oriented so the angle is positive; near 0 or 180 degrees none is stable
    axes = np.stack([rotations[:, 2, 1] - rotations[:, 1, 2], rotations[:, 0, 2] - rotations[:, 2, 0],
                     rotations[:, 1, 0] - rotations[:, 0, 1]], axis=1)
    lengths = np.sqrt(_dot(axes, axes))
    stable = ~(lengths < 1e-12)
    axes[stable] /= lengths[stable, None]
    shifts = np.sqrt(_dot(translations, translations))
    turning = ~(angles[:-1] < ANGLE_FLOOR_DEG)
    if np.any(turning & ~stable[:-1]):
        raise DataError("rotation too close to 0 or 180 degrees for a stable axis")
    moving = np.flatnonzero(turning | ~(shifts[:-1] < STILL_EPS))
    if moving.size == 0:
        return None
    diff = frames[:-1] @ rotations[:-1].transpose(0, 2, 1) + translations[:-1, None] - frames[1:]
    residual = float(np.mean(np.mean(np.sum(diff * diff, axis=2), axis=1)))
    flags: list[str] = []

    # the moving pairs: T pairs slide along their translation, R and TR pairs turn
    turning, t = turning[moving], translations[moving]
    pair_axis = axes[moving]
    pair_axis[~turning] = t[~turning] / shifts[moving][~turning, None]
    pair_slide = np.where(turning, _dot(t, pair_axis), shifts[moving])
    pair_angle = np.where(turning, angles[moving], 0.0)
    kind = np.where(turning, np.where(np.abs(pair_slide) >= PITCH_FLOOR, 2, 1), 0)  # MOBILITY_TYPES codes

    votes = np.bincount(kind, minlength=len(MOBILITY_TYPES))
    leaders = np.flatnonzero(votes == votes.max())
    if len(leaders) == 1:
        tau = MOBILITY_TYPES[leaders[0]]
    else:
        # no clear majority: the most-moving pair decides
        amounts = np.linalg.norm(frames[1:] - frames[:-1], axis=2).mean(axis=1)
        tau = MOBILITY_TYPES[kind[np.argmax(amounts[moving])]]
        flags.append(FLAG_LOW_CONFIDENCE)

    # the winning kind's pairs (T, or R and TR), signed against their aligned mean axis
    translation = tau == TYPE_T
    kept = (kind == 0) == translation
    kept_axis = pair_axis[kept]
    ahead = _dot(kept_axis, np.broadcast_to(kept_axis[0], kept_axis.shape)) >= 0.0
    direction = unit(sum(np.where(ahead[:, None], kept_axis, -kept_axis), np.zeros(3)))
    signs = np.sign(_dot(kept_axis, np.broadcast_to(direction, kept_axis.shape)))
    angle, slide = sum(signs * pair_angle[kept]), sum(signs * pair_slide[kept])
    if (slide if translation else angle) < 0.0:  # the axis points along the motion
        direction, angle, slide = -direction, -angle, -slide
    position = None
    if not translation:
        # each pair's axis point closest to the origin solves (I - R + d d^T) x = t_perp,
        # invertible for any proper rotation with nonzero angle
        a = np.eye(3) - rotations[moving][kept] + kept_axis[:, :, None] * kept_axis[:, None, :]
        t_perp = t[kept] - pair_slide[kept, None] * kept_axis
        position = np.mean(np.linalg.solve(a, t_perp[..., None])[..., 0], axis=0)
    slide_range = None
    if tau == TYPE_TR:
        slide_range = (0.0, float(slide)) if slide >= 0.0 else (float(slide), 0.0)
    spec = MobilitySpec(tau, direction, position, (0.0, float(slide if translation else angle)), slide_range)

    flags.extend(_range_flags(angles[-1], axes[-1] if stable[-1] else None, translations[-1], spec))
    return FittedMobility(spec, residual, flags)


def _range_flags(angle: float, axis: Optional[np.ndarray], translation: np.ndarray,
                 spec: MobilitySpec) -> list[str]:
    """Flags when the composed first-to-last transform disagrees with spec.

    The composed transform comes as its rotation angle in degrees, its unit
    axis (None near 0 or 180 degrees) and its translation. It must show the
    claimed type, and its span, signed along the spec direction (a length
    for T, degrees otherwise, known only modulo 360), must match the summed
    range. Near 0 or 180 degrees the composed rotation cannot be signed
    reliably, which is why the summed range stays authoritative and this is
    only a cross check.
    """
    if spec.tau == TYPE_T:
        span = float(np.dot(translation, spec.direction))
        off_axis = np.linalg.norm(translation - span * spec.direction)
        if angle >= ANGLE_FLOOR_DEG or off_axis > max(1e-6, RANGE_TOLERANCE * abs(span)):
            return [FLAG_RANGE_INCONSISTENT]
    else:
        # without an axis the magnitude is still usable, the sign is not
        span = float(angle if axis is None else np.sign(np.dot(axis, spec.direction)) * angle)
        # of the spans congruent modulo 360, the one nearest the summed range
        span = spec.span + (span - spec.span + 180.0) % 360.0 - 180.0
    if abs(span - spec.span) > max(1e-6, RANGE_TOLERANCE * max(spec.span, 1e-12)):
        return [FLAG_RANGE_INCONSISTENT]
    return []


def fit_from_displacements(points: np.ndarray, maps: np.ndarray) -> Optional[FittedMobility]:
    """Fit mobility from a start state and its displacement maps."""
    maps = np.asarray(maps, dtype=np.float64)
    frames = np.concatenate([points[None], points[None] + np.cumsum(maps, axis=0)])
    return fit_sequence(frames)
