"""Single-viewpoint partial scans of complete clouds.

Visibility uses spherical-flip hidden-point removal: points are inverted
about a sphere centered on the viewpoint and exactly the hull vertices of
the inverted set are visible. Depth noise perturbs surviving points along
their viewing ray. A scan is accepted only if every part keeps a minimum
number of visible points; otherwise the caller retries a new viewpoint.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from ..errors import DataError
from .templates import allocate

RADIUS_FACTOR = 10.0
VIEW_DISTANCE_FACTOR = 2.2  # viewpoint distance from the center, in cloud radii
DEPTH_SIGMA = 0.005
MAX_VIEWPOINT_TRIES = 20


def hidden_point_removal(points: np.ndarray, viewpoint: np.ndarray) -> np.ndarray:
    """Indices of points visible from the viewpoint, sorted ascending."""
    points = np.asarray(points, dtype=np.float64)
    viewpoint = np.asarray(viewpoint, dtype=np.float64)
    q = points - viewpoint
    r = np.linalg.norm(q, axis=1)
    if (r < 1e-12).any():
        raise DataError("viewpoint coincides with a point of the cloud")
    radius = float(r.max() * RADIUS_FACTOR)
    flipped = q * (2.0 * radius / r - 1.0)[:, None]
    cloud = np.concatenate([flipped, np.zeros((1, 3))], axis=0)
    try:
        hull = ConvexHull(cloud)
    except QhullError:
        hull = ConvexHull(cloud, qhull_options="QJ")
    visible = np.unique(hull.vertices)
    return visible[visible < points.shape[0]]


def partial_scan(
    points: np.ndarray,
    labels: np.ndarray,
    viewpoint: np.ndarray,
    rng: np.random.Generator,
    sigma: float,
    n_target: int,
    floor: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Scan from one viewpoint; DataError if any part drops below the floor."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    visible = hidden_point_removal(points, viewpoint)
    vis_labels = labels[visible]
    parts = np.unique(labels)
    counts = np.array([(vis_labels == p).sum() for p in parts])
    if (counts < floor).any():
        lost = parts[counts < floor]
        raise DataError(f"part occluded: parts {lost.tolist()} fall below {floor} visible points")
    if visible.size < n_target:
        raise DataError(f"only {visible.size} of {n_target} requested points visible")
    if visible.size > n_target:
        share = allocate(n_target, counts.astype(np.float64), floor)
        keep = []
        for p, c in zip(parts, share):
            pool = visible[vis_labels == p]
            keep.append(rng.choice(pool, size=int(c), replace=False))
        visible = np.sort(np.concatenate(keep))
    scan = points[visible]
    rays = scan - viewpoint
    depth = np.linalg.norm(rays, axis=1, keepdims=True)
    noisy = viewpoint + rays / depth * (depth + rng.normal(0.0, sigma, size=(scan.shape[0], 1)))
    return noisy, labels[visible].copy()


def scan_with_viewpoint_retries(
    points: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
    sigma: float,
    n_target: int,
    floor: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Try random viewpoints until every part stays visible enough.

    Returns (scan points, scan labels, viewpoint used).
    """
    points = np.asarray(points, dtype=np.float64)
    center = points.mean(axis=0)
    radius = float(np.linalg.norm(points - center, axis=1).max())
    last_error: Optional[DataError] = None
    for _ in range(MAX_VIEWPOINT_TRIES):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        viewpoint = center + VIEW_DISTANCE_FACTOR * radius * direction
        try:
            scan, scan_labels = partial_scan(points, labels, viewpoint, rng, sigma, n_target, floor)
            return scan, scan_labels, viewpoint
        except DataError as exc:
            last_error = exc
    raise DataError(f"no usable viewpoint after {MAX_VIEWPOINT_TRIES} tries: {last_error}")
