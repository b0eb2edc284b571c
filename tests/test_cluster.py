"""Clustering checks against a definition-based reference implementation."""
import numpy as np
import pytest

import oracles
from partmotion import diffcore as dc
from partmotion.cluster import dbscan_labels, default_min_pts
from partmotion.errors import ConfigError
from partmotion.losses import LossWeights

from oracles import brute_dbscan

EPS = LossWeights().margin / 2  # the radius Pipeline.predict clusters at


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
    # a symmetric NaN is named as such, not as an asymmetry
    nan = np.array([[0.0, np.nan, 1.0], [np.nan, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ConfigError, match=r"NaN entries, at \[\[0, 1\], \[1, 0\]\]"):
        dbscan_labels(nan, 1.0, 2)
    # a NaN eps would otherwise make every point noise without a word
    for eps in (np.nan, -1.0):
        with pytest.raises(ConfigError, match="eps must be a non-negative number"):
            dbscan_labels(np.zeros((3, 3)), eps, 2)


def test_infinite_distances_are_never_within_eps():
    dist, _ = block_matrix([5, 6], far=np.inf)
    labels = assert_matches_sparse_oracle(dist, 40.0, 4)
    assert np.array_equal(labels, [1] * 5 + [0] * 6)


# ---------------------------------------------------------------------------
# byte equality with the sparse-graph implementation the linking replaced


def assert_matches_sparse_oracle(dist, eps, min_pts):
    ours = dbscan_labels(dist, eps, min_pts)
    ref = oracles.dbscan_labels(dist, eps, min_pts)
    assert (ours.dtype, ours.shape, ours.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())
    return ours


def clustered_features(rng, m, width=16):
    """Distances of m feature rows drawn around a few centres about eps apart.

    The spread around each centre is drawn too, from tight clusters of cores
    to loose ones with many border and noise rows.
    """
    centres = rng.normal(scale=EPS, size=(rng.integers(1, 6), width))
    spread = rng.uniform(0.1, 0.3) * EPS
    rows = centres[rng.integers(0, len(centres), m)] + rng.normal(scale=spread, size=(m, width))
    return dc.pairwise_row_distances(rows).value


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 9, 31, 64, 100, 150, 199, 232, 256])
def test_matches_sparse_oracle_on_clustered_features(m):
    rng = np.random.default_rng(m)
    for _ in range(3):
        dist = clustered_features(rng, m)
        assert_matches_sparse_oracle(dist, EPS, default_min_pts(m))
        perm = rng.permutation(m)
        assert_matches_sparse_oracle(dist[np.ix_(perm, perm)], EPS, default_min_pts(m))


def test_matches_sparse_oracle_on_a_chain_of_cores():
    # consecutive cores just under eps apart and in shuffled order: the
    # longest path a root has to travel, so the most linking rounds
    rng = np.random.default_rng(5)
    pos = np.cumsum(np.full(200, 0.999))[rng.permutation(200)]
    dist = np.abs(pos[:, None] - pos[None, :])
    labels = assert_matches_sparse_oracle(dist, 1.0, 3)
    assert not labels.any()


def test_core_with_no_core_neighbour_and_large_diagonal():
    # point 0 is core through three non-core neighbours, and its own
    # distance exceeds eps, so its row of the core-to-core matrix is empty
    dist = np.array([
        [5.0, 1.0, 1.0, 1.0],
        [1.0, 0.0, 9.0, 9.0],
        [1.0, 9.0, 0.0, 9.0],
        [1.0, 9.0, 9.0, 0.0],
    ])
    labels = assert_matches_sparse_oracle(dist, 2.0, 3)
    assert np.array_equal(labels, [0, 0, 0, 0])


@pytest.mark.parametrize("min_pts", [0, 1])
def test_matches_sparse_oracle_when_every_point_is_core(min_pts):
    rng = np.random.default_rng(11)
    assert_matches_sparse_oracle(clustered_features(rng, 40), EPS, min_pts)
    # every core its own component: all pairs farther than eps
    dist = random_symmetric(rng, 30, scale=10.0) + 50.0
    np.fill_diagonal(dist, 0.0)
    labels = assert_matches_sparse_oracle(dist, 40.0, min_pts)
    assert np.array_equal(np.sort(labels), np.arange(30))


def test_matches_sparse_oracle_with_no_cores():
    rng = np.random.default_rng(12)
    dist = random_symmetric(rng, 25, scale=10.0) + 50.0
    np.fill_diagonal(dist, 0.0)
    labels = assert_matches_sparse_oracle(dist, 40.0, 2)
    assert not labels.any()


@pytest.mark.parametrize("seed", range(4))
def test_matches_sparse_oracle_on_noise_ties(seed):
    # the noise rows sit at the same mean distance from two interleaved
    # clusters of equal size, in permuted order
    rng = np.random.default_rng(seed)
    member = np.array([0, 1] * 6)
    grown = np.full((15, 15), 60.0)
    grown[:12, :12] = np.where(member[:, None] == member[None, :], 0.0, 80.0)
    np.fill_diagonal(grown, 0.0)
    perm = rng.permutation(15)
    assert_matches_sparse_oracle(grown[np.ix_(perm, perm)], 40.0, 4)


@pytest.mark.parametrize("m", [31, 64, 150, 232, 256])
def test_matches_sparse_oracle_on_noise_heavy_features(m):
    # eps at 0.2-0.5 of the median distance leaves many rows noise; integer
    # features put distances, and so eps hits and mean distances, on exact ties
    rng = np.random.default_rng(100 + m)
    noisy_cases = 0
    for frac in (0.2, 0.3, 0.4, 0.5):
        for width, min_pts in ((3, default_min_pts(m)), (8, default_min_pts(m)), (8, 3)):
            dist = dc.pairwise_row_distances(np.round(rng.normal(scale=3.0, size=(m, width)))).value
            eps = frac * np.median(dist)
            within = dist <= eps
            core = within.sum(axis=1) >= min_pts
            labels = assert_matches_sparse_oracle(dist, eps, min_pts)
            noisy_cases += core.any() and labels.max() > 0 and not within[:, core].any(axis=1).all()
            perm = rng.permutation(m)
            assert_matches_sparse_oracle(dist[np.ix_(perm, perm)], eps, min_pts)
    assert noisy_cases  # some noise rows chose between at least two clusters


def test_default_min_pts():
    assert default_min_pts(10) == 4
    assert default_min_pts(400) == 8

