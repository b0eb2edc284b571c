"""Density clustering on a precomputed distance matrix.

Used to split predicted moving points into parts: the learned pairwise
feature distances of moving points feed straight into DBSCAN. Unlike the
textbook algorithm this variant leaves nobody behind, because every moving
point must end up in some part: border points join their nearest core's
cluster and noise points join the cluster with the smallest mean distance.
With no core points at all the whole set is one cluster.

Cluster ids are canonical: sorted by decreasing size, ties by smallest
member index, so relabeling is stable under input permutation.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ConfigError


def default_min_pts(n_moving: int) -> int:
    return max(4, n_moving // 50)


def dbscan_labels(dist: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Cluster ids (0..k-1) for every row of a symmetric distance matrix."""
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ConfigError(f"distance matrix must be square, got {dist.shape}")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if not np.allclose(dist, dist.T, atol=1e-9):
        raise ConfigError("distance matrix must be symmetric")
    within = dist <= eps
    core = within.sum(axis=1) >= min_pts  # neighborhood includes the point itself
    if not core.any():
        return np.zeros(n, dtype=np.int64)

    # eps-linked cores are one cluster; components are numbered by their
    # smallest member, which the noise tie-break below relies on
    core_idx = np.flatnonzero(core)
    n_clusters, components = connected_components(
        csr_matrix(within[np.ix_(core_idx, core_idx)]), directed=False
    )
    labels = np.full(n, -1, dtype=np.int64)
    labels[core_idx] = components
    rest = np.flatnonzero(labels < 0)
    if rest.size:
        to_cores = dist[np.ix_(rest, core_idx)]
        border = to_cores.min(axis=1) <= eps
        # border: nearest core decides; noise: smallest mean distance to a cluster
        nearest = core_idx[to_cores.argmin(axis=1)]
        labels[rest[border]] = labels[nearest[border]]
        base = labels.copy()  # noise joins settled members only, order-free
        for i in rest[~border]:
            means = [dist[i, base == c].mean() for c in range(n_clusters)]
            labels[i] = int(np.argmin(means))

    return _canonical_ids(labels)


def _canonical_ids(labels: np.ndarray) -> np.ndarray:
    order = []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        order.append((-members.size, int(members[0]), int(c)))
    remap = {old: new for new, (_, _, old) in enumerate(sorted(order))}
    return np.array([remap[int(c)] for c in labels], dtype=np.int64)


def assemble_segmentation(
    n_points: int, moving_idx: np.ndarray, cluster_ids: np.ndarray
) -> np.ndarray:
    """Full per-point labels: 0 for reference, cluster id + 1 for moving."""
    moving_idx = np.asarray(moving_idx, dtype=np.int64)
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64)
    if moving_idx.shape != cluster_ids.shape:
        raise ConfigError("one cluster id per moving index required")
    labels = np.zeros(n_points, dtype=np.int64)
    labels[moving_idx] = cluster_ids + 1
    return labels
