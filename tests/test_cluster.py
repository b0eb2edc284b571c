"""Clustering checks against a definition-based reference implementation."""
import numpy as np
import pytest

from partmotion.cluster import assemble_segmentation, dbscan_labels, default_min_pts
from partmotion.errors import ConfigError

from oracles import brute_dbscan


def partition(labels):
    return {frozenset(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)}


def block_matrix(sizes, far=80.0):
    """Zero within consecutive blocks, `far` across blocks."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return np.where(labels[:, None] == labels[None, :], 0.0, far), labels


def random_symmetric(rng, n, scale=60.0):
    g = rng.uniform(0.0, scale, size=(n, n))
    d = (g + g.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


def test_two_far_blocks():
    dist, gt = block_matrix([10, 7])
    labels = dbscan_labels(dist, eps=40.0, min_pts=4)
    assert partition(labels) == partition(gt)


@pytest.mark.parametrize("seed", range(6))
def test_random_block_matrices_recover_partition(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(4, 20, size=rng.integers(1, 6))
    dist, gt = block_matrix(sizes.tolist())
    perm = rng.permutation(dist.shape[0])
    labels = dbscan_labels(dist[np.ix_(perm, perm)], eps=40.0, min_pts=4)
    assert partition(labels) == partition(gt[perm])


def test_permutation_invariance_continuous():
    rng = np.random.default_rng(3)
    dist = random_symmetric(rng, 60)
    perm = rng.permutation(60)
    base = dbscan_labels(dist, eps=25.0, min_pts=5)
    permuted = dbscan_labels(dist[np.ix_(perm, perm)], eps=25.0, min_pts=5)
    unpermuted = np.empty_like(permuted)
    unpermuted[perm] = permuted
    assert partition(base) == partition(unpermuted)


@pytest.mark.parametrize("seed", range(8))
def test_matches_reference_on_clustered_points(seed):
    rng = np.random.default_rng(100 + seed)
    n_clusters = rng.integers(1, 5)
    pts = np.concatenate(
        [rng.normal(loc=30.0 * k, scale=1.0, size=(rng.integers(6, 15), 2))
         for k in range(n_clusters)]
    )
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    eps, min_pts = 5.0, 4
    ours = dbscan_labels(dist, eps, min_pts)
    reference = brute_dbscan(dist, eps, min_pts)
    # reference leaves noise out; on its covered points the partitions agree
    ours_sets = partition(ours)
    for ref_cluster in reference:
        assert any(ref_cluster <= mine for mine in ours_sets)
    covered = set().union(*reference) if reference else set()
    for mine in ours_sets:
        cores = mine & covered
        if cores:
            assert any(cores <= ref for ref in reference)


def test_all_noise_is_one_cluster():
    dist, _ = block_matrix([3, 3], far=100.0)
    labels = dbscan_labels(dist, eps=40.0, min_pts=4)
    # no point has 4 neighbors within eps, so nothing is core
    assert np.array_equal(labels, np.zeros(6, dtype=np.int64))


def test_noise_joins_closest_cluster():
    dist, _ = block_matrix([6, 6], far=80.0)
    n = 12
    grown = np.full((n + 1, n + 1), 200.0)
    grown[:n, :n] = dist
    grown[n, n] = 0.0
    grown[n, :6] = grown[:6, n] = 60.0   # closer to the first block
    grown[n, 6:12] = grown[6:12, n] = 90.0
    labels = dbscan_labels(grown, eps=40.0, min_pts=4)
    assert labels[n] == labels[0]
    assert labels[n] != labels[6]


def test_noise_tie_joins_cluster_with_smallest_member():
    # two interleaved core clusters and one noise point (the last row) at
    # the same mean distance from both: the tie goes to the cluster holding
    # the lowest index, here the smaller one
    member = np.array([0, 1, 0, 1, 0, 1, 0, 1, 1, 1])
    grown = np.full((11, 11), 60.0)
    grown[:10, :10] = np.where(member[:, None] == member[None, :], 0.0, 80.0)
    grown[10, 10] = 0.0
    labels = dbscan_labels(grown, eps=40.0, min_pts=4)
    assert labels[10] == labels[0]
    assert labels[10] != labels[1]


def test_canonical_ordering_by_size_then_index():
    dist, _ = block_matrix([4, 9], far=80.0)
    labels = dbscan_labels(dist, eps=40.0, min_pts=4)
    # the bigger block gets id 0 even though it appears second
    assert labels[0] == 1 and labels[4] == 0


def test_input_validation():
    with pytest.raises(ConfigError):
        dbscan_labels(np.zeros((3, 4)), 1.0, 2)
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ConfigError):
        dbscan_labels(bad, 1.0, 2)
    assert dbscan_labels(np.zeros((0, 0)), 1.0, 2).size == 0


def test_default_min_pts():
    assert default_min_pts(10) == 4
    assert default_min_pts(400) == 8


def test_assemble_segmentation():
    labels = assemble_segmentation(6, np.array([1, 3, 4]), np.array([0, 1, 0]))
    assert np.array_equal(labels, [0, 1, 0, 2, 1, 0])
    with pytest.raises(ConfigError):
        assemble_segmentation(6, np.array([1, 2]), np.array([0]))
