"""Density clustering on a precomputed distance matrix.

Used to split predicted moving points into parts: the learned pairwise
feature distances of moving points feed straight into DBSCAN. Unlike the
textbook algorithm this variant leaves nobody behind, because every moving
point must end up in some part: border points join their nearest core's
cluster and noise points join the cluster with the smallest mean distance
to its cores and borders (one reduction per cluster; the lowest id wins a
tie). With no core points at all the whole set is one cluster.

Cores are linked by pointer jumping on the dense core-to-core eps matrix:
each core starts as its own root and in every round takes the smallest root
among its eps-neighbours and itself, then that root's root. A chain of C
cores settles in O(log C) rounds on its smallest member.

Cluster ids are canonical: sorted by decreasing size, ties by smallest
member index, so relabeling is stable under input permutation.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError


def default_min_pts(n_moving: int) -> int:
    return max(4, n_moving // 50)


def dbscan_labels(dist: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Cluster ids (0..k-1) for every row of a symmetric distance matrix."""
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ConfigError(f"distance matrix must be square, got {dist.shape}")
    if not eps >= 0:
        raise ConfigError(f"eps must be a non-negative number, got {eps}")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if not np.array_equal(dist, dist.T):  # also False on any NaN
        if np.isnan(dist).any():
            raise ConfigError(f"distance matrix has NaN entries, at {np.argwhere(np.isnan(dist))[:4].tolist()}")
        if not np.allclose(dist, dist.T, atol=1e-9):
            raise ConfigError("distance matrix must be symmetric")
    within = dist <= eps
    core = within.sum(axis=1) >= min_pts  # neighborhood includes the point itself
    if not core.any():
        return np.zeros(n, dtype=np.int64)

    # eps-linked cores are one cluster; components are numbered by their
    # smallest member, which the noise tie-break below relies on
    core_idx = np.flatnonzero(core)
    linked = within[core_idx][:, core_idx]  # two plain gathers; np.ix_ is far slower here
    np.fill_diagonal(linked, True)  # each core is its own neighbour, even past eps
    root = np.arange(core_idx.size)
    while not np.array_equal(root, jumped := root[np.where(linked, root, root.size).min(axis=1)]):
        root = jumped
    labels = np.full(n, -1, dtype=np.int64)
    roots, labels[core_idx] = np.unique(root, return_inverse=True)
    rest = np.flatnonzero(labels < 0)
    if rest.size:
        to_cores = dist[rest][:, core_idx]
        border = to_cores.min(axis=1) <= eps
        # border: nearest core decides; noise: smallest mean distance to a cluster
        nearest = core_idx[to_cores.argmin(axis=1)]
        labels[rest[border]] = labels[nearest[border]]
        noise, settled = rest[~border], labels.copy()  # noise joins settled members only
        to_noise = dist[noise]
        labels[noise] = np.argmin([to_noise[:, settled == c].mean(axis=1) for c in range(roots.size)], axis=0)

    return _canonical_ids(labels)


def _canonical_ids(labels: np.ndarray) -> np.ndarray:
    _, first, inverse, counts = np.unique(
        labels, return_index=True, return_inverse=True, return_counts=True
    )
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.lexsort((first, -counts))] = np.arange(first.size)
    return rank[inverse]

