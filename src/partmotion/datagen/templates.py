"""Procedural articulated-shape templates.

Each builder samples a start-state point cloud uniformly by area over its
parametric surfaces, labels points by part (0 = reference), and returns a
frame function that moves it to any motion fraction s in [0, 1]. Six
categories declare the mobility of every moving part, and their frame
function plays all of them at once. Two (umbrella, balance) have no
single-axis mobility and ship no mobility parameters; their frame functions
move the parts by their own rules. Shapes stand upright (+z) inside roughly
a unit box and get a quadrant yaw with jitter for pose variety.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import ConfigError
from ..geom import (
    TYPE_R,
    TYPE_T,
    TYPE_TR,
    MobilitySpec,
    RigidTransform,
    mobility_transform,
    moved_spec,
    rotation_about_axis,
)


def min_part_points(n_points: int) -> int:
    """Per-part floor on sample counts, 100 at the reference 2048 resolution."""
    return max(4, math.ceil(100 * n_points / 2048))


@dataclass
class ShapeSample:
    """A start-state shape; frame_fn(s) is its cloud at motion fraction s, frame_fn(0.0) is points."""

    points: np.ndarray          # (N, 3)
    labels: np.ndarray          # (N,) part ids, 0 = reference
    specs: Optional[list[MobilitySpec]]
    frame_fn: Callable[[float], np.ndarray]
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# surface patches


@dataclass
class Rect:
    origin: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray

    @property
    def area(self) -> float:
        return float(np.linalg.norm(np.cross(self.edge_u, self.edge_v)))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        ab = rng.uniform(0.0, 1.0, size=(count, 2))
        return self.origin + ab[:, :1] * self.edge_u + ab[:, 1:] * self.edge_v


@dataclass
class CylinderSide:
    center_bottom: np.ndarray
    radius: float
    height: float

    @property
    def area(self) -> float:
        return float(2.0 * np.pi * self.radius * self.height)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
        z = rng.uniform(0.0, self.height, size=count)
        return self.center_bottom + np.stack(
            [self.radius * np.cos(phi), self.radius * np.sin(phi), z], axis=1
        )


@dataclass
class Disc:
    center: np.ndarray
    radius: float

    @property
    def area(self) -> float:
        return float(np.pi * self.radius**2)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
        r = self.radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
        return self.center + np.stack([r * np.cos(phi), r * np.sin(phi), np.zeros(count)], axis=1)


Surface = Rect | CylinderSide | Disc


def allocate(total: int, weights: np.ndarray, floor: int = 0) -> np.ndarray:
    """Deterministic largest-remainder allocation with a per-slot floor."""
    weights = np.asarray(weights, dtype=np.float64)
    if total < floor * len(weights):
        raise ConfigError(
            f"cannot allocate {total} samples over {len(weights)} slots with floor {floor}"
        )
    ideal = weights / weights.sum() * total
    counts = np.floor(ideal).astype(np.int64)
    frac = ideal - counts
    order = np.lexsort((np.arange(len(weights)), -frac))
    for i in order[: total - counts.sum()]:
        counts[i] += 1
    while (counts < floor).any():
        short = int(np.argmin(counts))
        rich = int(np.argmax(counts))
        counts[short] += 1
        counts[rich] -= 1
    return counts


def sample_surfaces(rng: np.random.Generator, surfaces: list[Surface], count: int) -> np.ndarray:
    areas = np.array([s.area for s in surfaces])
    counts = allocate(count, areas)
    chunks = [s.sample(rng, int(c)) for s, c in zip(surfaces, counts) if c > 0]
    return np.concatenate(chunks, axis=0)


def box_faces(center: np.ndarray, size: np.ndarray) -> list[Rect]:
    """The six faces of an axis-aligned box."""
    cx, cy, cz = center
    sx, sy, sz = size
    ex = np.array([sx, 0.0, 0.0])
    ey = np.array([0.0, sy, 0.0])
    ez = np.array([0.0, 0.0, sz])
    lo = np.array([cx - sx / 2, cy - sy / 2, cz - sz / 2])
    return [Rect(lo, ex, ey), Rect(lo + ez, ex, ey),   # -z, +z
            Rect(lo, ex, ez), Rect(lo + ey, ex, ez),   # -y, +y
            Rect(lo, ey, ez), Rect(lo + ex, ey, ez)]   # -x, +x


# ---------------------------------------------------------------------------
# shared pieces


def _yaw(rng: np.random.Generator) -> RigidTransform:
    angle = rng.choice([0.0, 90.0, 180.0, 270.0]) + rng.uniform(-10.0, 10.0)
    return rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.zeros(3), float(angle))


def _sample_parts(rng: np.random.Generator, part_surfaces: list[list[Surface]], n_points: int,
                  part_weights: Optional[list[float]] = None) -> tuple[list[np.ndarray], np.ndarray]:
    """Each part's points, allocated by area (or the given weights) over the
    parts with the per-part floor, and the part label of every point."""
    if part_weights is None:
        part_weights = [sum(s.area for s in group) for group in part_surfaces]
    counts = allocate(n_points, part_weights, min_part_points(n_points))
    points = [sample_surfaces(rng, group, int(c)) for group, c in zip(part_surfaces, counts)]
    return points, np.repeat(np.arange(len(counts)), counts)


def _assemble(rng: np.random.Generator, part_surfaces: list[list[Surface]], specs: list[MobilitySpec],
              n_points: int, part_weights: Optional[list[float]] = None) -> ShapeSample:
    """Sample the parts and yaw them; the frame function moves each part by its yawed spec.

    The yaw is drawn before any surface sampling so that regenerating the
    same seed at a different point count reproduces the same pose and the
    same part parameters, just denser or sparser.
    """
    yaw = _yaw(rng)
    points, labels = _sample_parts(rng, part_surfaces, n_points, part_weights)
    pts0 = yaw.apply(np.concatenate(points))
    specs = [moved_spec(s, 1.0, yaw.translation, yaw.rotation) for s in specs]
    parts = [(np.flatnonzero(labels == part_id), spec) for part_id, spec in enumerate(specs, start=1)]

    def frame_fn(s: float) -> np.ndarray:
        frame = pts0.copy()
        for idx, spec in parts:
            frame[idx] = mobility_transform(spec, s).apply(pts0[idx])
        return frame

    return ShapeSample(pts0, labels, specs, frame_fn, {"yaw": yaw})


def _cabinet_shell(w: float, d: float, h: float) -> list[Surface]:
    """Open-front box: back, left, right, bottom, top. Front at y = +d/2."""
    faces = box_faces(np.array([0.0, 0.0, h / 2]), np.array([w, d, h]))
    return [faces[i] for i in (2, 4, 5, 0, 1)]


def _bar_handle(center: np.ndarray, length: float) -> list[Surface]:
    return box_faces(center, np.array([length, 0.06, 0.035]))


def _knob(center: np.ndarray) -> list[Surface]:
    return box_faces(center, np.array([0.05, 0.06, 0.05]))


FRONT_GAP = 0.02  # inset of a drawer front or door panel from its cell's edges


def _front_panel(w: float, d: float, z0: float, zh: float) -> Rect:
    """The panel that closes the open front of the cell from z0 to z0 + zh."""
    g = FRONT_GAP
    return Rect(
        np.array([-w / 2 + g, d / 2, z0 + g]),
        np.array([w - 2 * g, 0.0, 0.0]),
        np.array([0.0, 0.0, zh - 2 * g]),
    )


def _drawer_part(w: float, d: float, z0: float, zh: float) -> list[Surface]:
    """Drawer front panel, inner open-top body, and a centered bar handle."""
    g = FRONT_GAP
    bw, bd, bh = w - 4 * g, d * 0.8, zh * 0.6
    lo = np.array([-bw / 2, d / 2 - g - bd, z0 + g])
    ex = np.array([bw, 0.0, 0.0])
    ey = np.array([0.0, bd, 0.0])
    ez = np.array([0.0, 0.0, bh])
    body = [Rect(lo, ex, ey), Rect(lo, ey, ez), Rect(lo + ex, ey, ez), Rect(lo, ex, ez)]
    handle = _bar_handle(np.array([0.0, d / 2 + 0.03, z0 + zh / 2]), w * 0.4)
    return [_front_panel(w, d, z0, zh)] + body + handle


def _door_part(w: float, d: float, z0: float, zh: float, hinge_left: bool) -> list[Surface]:
    """Door panel across the opening plus a knob near the free edge."""
    knob_x = (w / 2 - 0.07) * (1.0 if hinge_left else -1.0)
    return [_front_panel(w, d, z0, zh)] + _knob(np.array([knob_x, d / 2 + 0.035, z0 + zh / 2]))


def _door_spec(w: float, d: float, rng: np.random.Generator, hinge_left: bool) -> MobilitySpec:
    angle = float(rng.uniform(60.0, 110.0))
    # positive right-handed rotation opens a left-hinged door outward;
    # a right hinge needs the opposite axis orientation
    direction = np.array([0.0, 0.0, 1.0 if hinge_left else -1.0])
    hinge_x = -w / 2 if hinge_left else w / 2
    position = np.array([hinge_x, d / 2, 0.0])
    return MobilitySpec(TYPE_R, direction, position, (0.0, angle))


# ---------------------------------------------------------------------------
# template builders


def build_drawer_box(rng: np.random.Generator, n_points: int) -> ShapeSample:
    w = rng.uniform(0.55, 0.8)
    d = rng.uniform(0.45, 0.65)
    h = rng.uniform(0.5, 0.75)
    shell = _cabinet_shell(w, d, h)
    drawer = _drawer_part(w, d, 0.0, h)
    spec = MobilitySpec(
        TYPE_T, np.array([0.0, 1.0, 0.0]), None, (0.0, float(rng.uniform(0.3, 0.5) * d))
    )
    return _assemble(rng, [shell, drawer], [spec], n_points)


def build_door_box(rng: np.random.Generator, n_points: int) -> ShapeSample:
    w = rng.uniform(0.55, 0.8)
    d = rng.uniform(0.45, 0.65)
    h = rng.uniform(0.5, 0.75)
    hinge_left = bool(rng.integers(0, 2))
    shell = _cabinet_shell(w, d, h)
    door = _door_part(w, d, 0.0, h, hinge_left)
    spec = _door_spec(w, d, rng, hinge_left)
    return _assemble(rng, [shell, door], [spec], n_points)


def build_fan(rng: np.random.Generator, n_points: int) -> ShapeSample:
    base = box_faces(np.array([0.0, 0.0, 0.025]), np.array([0.4, 0.3, 0.05]))
    pole_h = rng.uniform(0.35, 0.5)
    pole = box_faces(np.array([0.0, 0.0, 0.05 + pole_h / 2]), np.array([0.06, 0.06, pole_h]))
    hub_c = np.array([0.0, 0.07, 0.05 + pole_h])
    hub = box_faces(hub_c, np.array([0.1, 0.1, 0.1]))
    blade_len = rng.uniform(0.24, 0.3)
    blade_w = rng.uniform(0.08, 0.11)
    blades: list[Surface] = []
    plane_y = hub_c[1] + 0.06
    for k in range(3):
        ang = 2.0 * np.pi * k / 3.0
        radial = np.array([np.cos(ang), 0.0, np.sin(ang)])
        tang = np.cross(np.array([0.0, 1.0, 0.0]), radial)
        origin = np.array([hub_c[0], plane_y, hub_c[2]]) + 0.05 * radial - (blade_w / 2) * tang
        blades.append(Rect(origin, blade_len * radial, blade_w * tang))
    spec = MobilitySpec(
        TYPE_R, np.array([0.0, 1.0, 0.0]), hub_c.copy(), (0.0, 120.0)
    )
    return _assemble(rng, [base + pole + hub, blades], [spec], n_points, [2.0, 1.2])


def build_laptop(rng: np.random.Generator, n_points: int) -> ShapeSample:
    w = rng.uniform(0.5, 0.65)
    d = rng.uniform(0.38, 0.5)
    base = box_faces(np.array([0.0, 0.0, 0.02]), np.array([w, d, 0.04]))
    sh = rng.uniform(0.38, 0.5)
    screen_c = np.array([0.0, -d / 2 + 0.01, 0.04 + sh / 2])
    screen = box_faces(screen_c, np.array([w, 0.02, sh]))
    angle = float(rng.uniform(60.0, 85.0))
    spec = MobilitySpec(
        TYPE_R, np.array([1.0, 0.0, 0.0]), np.array([0.0, -d / 2 + 0.01, 0.04]), (0.0, angle)
    )
    return _assemble(rng, [base, screen], [spec], n_points)


def build_bottle_cap_tr(rng: np.random.Generator, n_points: int) -> ShapeSample:
    r = rng.uniform(0.14, 0.18)
    bh = rng.uniform(0.42, 0.55)
    body: list[Surface] = [
        CylinderSide(np.zeros(3), r, bh),
        Disc(np.zeros(3), r),
    ]
    ch = rng.uniform(0.1, 0.14)
    cap: list[Surface] = [
        CylinderSide(np.array([0.0, 0.0, bh]), r + 0.025, ch),
        Disc(np.array([0.0, 0.0, bh + ch]), r + 0.025),
    ]
    spec = MobilitySpec(
        TYPE_TR,
        np.array([0.0, 0.0, 1.0]),
        np.zeros(3),
        (0.0, float(rng.uniform(120.0, 180.0))),
        slide_range=(0.0, float(rng.uniform(0.05, 0.09))),
    )
    return _assemble(rng, [body, cap], [spec], n_points)


def build_cabinet_multi(rng: np.random.Generator, n_points: int) -> ShapeSample:
    w = rng.uniform(0.6, 0.8)
    d = rng.uniform(0.45, 0.6)
    cell = rng.uniform(0.33, 0.42)
    hinge_left = bool(rng.integers(0, 2))
    shell = _cabinet_shell(w, d, 2 * cell) + _cabinet_shell(w, d, cell)[4:]  # divider: the lower cell's top
    drawer = _drawer_part(w, d, cell, cell)
    door = _door_part(w, d, 0.0, cell, hinge_left)
    drawer_spec = MobilitySpec(
        TYPE_T, np.array([0.0, 1.0, 0.0]), None, (0.0, float(rng.uniform(0.3, 0.5) * d))
    )
    door_spec = _door_spec(w, d, rng, hinge_left)
    return _assemble(rng, [shell, drawer, door], [drawer_spec, door_spec], n_points)


def build_umbrella(rng: np.random.Generator, n_points: int) -> ShapeSample:
    pole_h = 0.85
    pole: list[Surface] = [CylinderSide(np.zeros(3), 0.016, pole_h)]
    handle = box_faces(np.array([0.03, 0.0, 0.02]), np.array([0.1, 0.045, 0.045]))
    slant = rng.uniform(0.45, 0.55)
    a_open = np.deg2rad(rng.uniform(62.0, 78.0))
    a_closed = np.deg2rad(rng.uniform(14.0, 24.0))
    apex = np.array([0.0, 0.0, pole_h])
    yaw = _yaw(rng)  # drawn before sampling, see _assemble

    floor = min_part_points(n_points)
    ref_weight = sum(s.area for s in pole) + sum(s.area for s in handle)
    cover_weight = np.pi * slant**2 * np.sin(a_open)  # cone area at start
    counts = allocate(n_points, np.array([ref_weight, cover_weight * 1.5]), floor)
    ref_pts = sample_surfaces(rng, pole + handle, int(counts[0]))
    m = int(counts[1])
    u0 = 0.12
    u = np.sqrt(u0**2 + rng.uniform(0.0, 1.0, size=m) * (1.0 - u0**2))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=m)

    radial = np.stack([np.cos(phi), np.sin(phi), np.zeros(m)], axis=1)
    down = np.array([0.0, 0.0, -1.0])

    def frame_fn(s: float) -> np.ndarray:
        alpha = a_open + s * (a_closed - a_open)
        cover = apex + (u * slant)[:, None] * (np.sin(alpha) * radial + np.cos(alpha) * down)
        return yaw.apply(np.concatenate([ref_pts, cover], axis=0))

    labels = np.concatenate([np.zeros(int(counts[0]), dtype=np.int64), np.ones(m, dtype=np.int64)])
    return ShapeSample(frame_fn(0.0), labels, None, frame_fn, {"yaw": yaw})


def build_balance(rng: np.random.Generator, n_points: int) -> ShapeSample:
    post_h = 0.5
    pivot = np.array([0.0, 0.0, 0.03 + post_h])
    base = box_faces(np.array([0.0, 0.0, 0.015]), np.array([0.34, 0.22, 0.03]))
    post = box_faces(np.array([0.0, 0.0, 0.03 + post_h / 2]), np.array([0.05, 0.05, post_h]))
    arm = rng.uniform(0.3, 0.38)
    bar = box_faces(pivot, np.array([2 * arm + 0.06, 0.04, 0.035]))
    drop = rng.uniform(0.24, 0.3)
    pan_size = np.array([0.17, 0.17, 0.02])
    pan_centers = [pivot + np.array([s * arm, 0.0, -drop]) for s in (-1.0, 1.0)]
    pans = [box_faces(c, pan_size) for c in pan_centers]
    tilt = float(rng.uniform(12.0, 25.0))
    yaw = _yaw(rng)

    pts0, labels = _sample_parts(rng, [base + post, bar, pans[0], pans[1]], n_points)
    offsets = [np.array([-arm, 0.0, 0.0]), np.array([arm, 0.0, 0.0])]

    def frame_fn(s: float) -> np.ndarray:
        rot = rotation_about_axis(np.array([0.0, 1.0, 0.0]), pivot, s * tilt)
        moved = [pts0[0], rot.apply(pts0[1])]
        for k in range(2):
            attach0 = pivot + offsets[k]
            shift = rot.apply(attach0[None])[0] - attach0
            moved.append(pts0[2 + k] + shift)
        return yaw.apply(np.concatenate(moved, axis=0))

    return ShapeSample(frame_fn(0.0), labels, None, frame_fn, {"yaw": yaw})


BUILDERS: dict[str, Callable[[np.random.Generator, int], ShapeSample]] = {
    "drawer_box": build_drawer_box,
    "door_box": build_door_box,
    "fan": build_fan,
    "laptop": build_laptop,
    "bottle_cap_TR": build_bottle_cap_tr,
    "cabinet_multi": build_cabinet_multi,
    "umbrella": build_umbrella,
    "balance": build_balance,
}
TEMPLATE_NAMES = tuple(BUILDERS)


def generate_shape(category: str, rng: np.random.Generator, n_points: int) -> ShapeSample:
    """Sample one start-state shape of the given category."""
    if category not in BUILDERS:
        raise ConfigError(f"unknown category {category!r}; known: {', '.join(TEMPLATE_NAMES)}")
    if n_points < 8 * min_part_points(n_points):
        raise ConfigError(f"{n_points} points is too few for multi-part templates")
    return BUILDERS[category](rng, n_points)
