"""Template, sequence, scan, and dataset round-trip checks."""
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from microfixtures import spec_bytes
from partmotion.datagen import (
    DEPTH_SIGMA,
    TEMPLATE_NAMES,
    MotionSequence,
    generate_dataset,
    generate_shape,
    hidden_point_removal,
    load_dataset,
    load_shape,
    make_instances,
    make_sequence,
    min_part_points,
    partial_scan,
    scan_with_viewpoint_retries,
)
from partmotion.errors import ConfigError, DataError
from partmotion.geom import TYPE_R
from partmotion.plyio import read_ply, write_ply

N_TEST = 512
PARAMETRIC = [c for c in TEMPLATE_NAMES if generate_shape(c, np.random.default_rng(0), N_TEST).specs is not None]


def shape_of(category, seed=3, n=N_TEST):
    return generate_shape(category, np.random.default_rng(seed), n)


@pytest.mark.parametrize("category", TEMPLATE_NAMES)
def test_template_basics(category):
    sample = shape_of(category)
    pts = sample.points
    labels = sample.labels
    assert pts.shape == (N_TEST, 3)
    parts = np.unique(labels)
    assert parts[0] == 0 and np.array_equal(parts, np.arange(len(parts)))
    floor = min_part_points(N_TEST)
    for p in parts:
        assert (labels == p).sum() >= floor
    assert np.abs(pts).max() < 1.5
    assert np.array_equal(sample.frame_fn(0.0), pts)
    # umbrella and balance move without a parametric mobility
    assert (sample.specs is None) == (category in ("umbrella", "balance"))
    if sample.specs is not None:
        assert len(sample.specs) == len(parts) - 1


@pytest.mark.parametrize("category", TEMPLATE_NAMES)
def test_template_deterministic(category):
    a = shape_of(category, seed=11)
    b = shape_of(category, seed=11)
    c = shape_of(category, seed=12)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.points, c.points)


def test_part_floor_at_reference_resolution():
    assert min_part_points(2048) == 100
    sample = shape_of("balance", n=2048)
    for p in np.unique(sample.labels):
        assert (sample.labels == p).sum() >= 100


@pytest.mark.parametrize("category", PARAMETRIC)
def test_parametric_sequences_are_rigid(category):
    sample = shape_of(category, seed=5)
    seq = make_sequence(sample, 5)
    labels = seq.labels
    ref_idx = np.flatnonzero(labels == 0)
    assert np.allclose(seq.frames[:, ref_idx], seq.frames[0, ref_idx], atol=0)
    for part in range(1, labels.max() + 1):
        idx = np.flatnonzero(labels == part)[:30]
        d0 = np.linalg.norm(seq.frames[0, idx][:, None] - seq.frames[0, idx][None], axis=2)
        for k in range(1, 5):
            dk = np.linalg.norm(seq.frames[k, idx][:, None] - seq.frames[k, idx][None], axis=2)
            assert np.allclose(dk, d0, atol=1e-9)
    # something must actually move
    assert np.linalg.norm(seq.frames[-1] - seq.frames[0]) > 0.1


def test_fan_range_is_fixed():
    for seed in range(4):
        sample = shape_of("fan", seed=seed)
        (spec,) = sample.specs
        assert spec.tau == TYPE_R
        assert spec.range_ == (0.0, 120.0)


def test_umbrella_cover_contracts():
    sample = shape_of("umbrella", seed=7)
    seq = make_sequence(sample, 6)
    cover = np.flatnonzero(seq.labels == 1)
    pole = np.flatnonzero(seq.labels == 0)
    assert np.allclose(seq.frames[:, pole], seq.frames[0, pole], atol=0)
    # radial spread from the vertical axis shrinks monotonically
    spread = [np.linalg.norm(seq.frames[k][cover][:, :2], axis=1).mean() for k in range(6)]
    assert all(spread[k + 1] < spread[k] for k in range(5))
    # non-rigid: pairwise distances change
    idx = cover[:20]
    d0 = np.linalg.norm(seq.frames[0, idx][:, None] - seq.frames[0, idx][None], axis=2)
    d5 = np.linalg.norm(seq.frames[5, idx][:, None] - seq.frames[5, idx][None], axis=2)
    assert np.abs(d5 - d0).max() > 0.01


def test_balance_pans_translate_oppositely():
    sample = shape_of("balance", seed=9)
    seq = make_sequence(sample, 5)
    for pan in (2, 3):
        idx = np.flatnonzero(seq.labels == pan)
        step = seq.frames[3, idx] - seq.frames[0, idx]
        assert np.abs(step - step[0]).max() < 1e-12  # pure translation
    left = np.flatnonzero(seq.labels == 2)
    right = np.flatnonzero(seq.labels == 3)
    dz_left = (seq.frames[-1, left, 2] - seq.frames[0, left, 2]).mean()
    dz_right = (seq.frames[-1, right, 2] - seq.frames[0, right, 2]).mean()
    assert dz_left * dz_right < 0


def test_instances_padding_and_telescoping():
    sample = shape_of("laptop", seed=2, n=256)
    seq = make_sequence(sample, 5)
    instances = make_instances(seq)
    assert [inst.t for inst in instances] == [1, 2, 3, 4, 5]
    final = seq.frames[-1]
    for inst in instances:
        assert inst.targets.shape == (5, 256, 3)
        assert inst.n_true == 5 - inst.t
        assert np.array_equal(
            inst.targets[: inst.n_true], seq.displacement_maps[inst.t - 1 :]
        )
        assert not inst.targets[inst.n_true :].any()
        assert np.allclose(inst.points + inst.targets.sum(axis=0), final, atol=1e-12)


@pytest.mark.parametrize("n_frames", [2, 8])
@pytest.mark.parametrize("category", TEMPLATE_NAMES)
def test_make_sequence_matches_two_path_oracle(category, n_frames):
    for seed in range(3):
        sample = shape_of(category, seed=seed, n=256)
        got = make_sequence(sample, n_frames)
        want = oracles.make_sequence(sample, n_frames)
        assert got.frames.tobytes() == want.frames.tobytes()
        assert np.array_equal(got.labels, want.labels)
        assert [spec_bytes(s) for s in got.specs or []] == [spec_bytes(s) for s in want.specs or []]


@pytest.mark.parametrize("frames, labels", [
    (np.zeros((4, 10, 2)), np.zeros(10, dtype=np.int64)),
    (np.zeros((1, 10, 3)), np.zeros(10, dtype=np.int64)),
    (np.zeros((4, 10, 3)), np.zeros(9, dtype=np.int64)),
], ids=["two_columns", "one_frame", "short_labels"])
def test_motion_sequence_validation(frames, labels):
    with pytest.raises(ConfigError):
        MotionSequence(frames, labels, None)


def test_hidden_point_removal_sphere_oracle():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(800, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    view = np.array([0.0, 0.0, 3.0])
    visible = set(hidden_point_removal(pts, view).tolist())
    cos = pts[:, 2]  # angle against the viewing axis
    horizon = 1.0 / 3.0
    front = np.flatnonzero(cos > horizon + 0.12)
    back = np.flatnonzero(cos < horizon - 0.12)
    assert set(front.tolist()) <= visible
    assert not (set(back.tolist()) & visible)


def test_partial_scan_noise_free_keeps_original_points():
    sample = shape_of("drawer_box", seed=4)
    pts, labels = sample.points, sample.labels
    view = pts.mean(axis=0) + np.array([0.0, 3.0, 1.0])
    n_visible = hidden_point_removal(pts, view).size
    scan, scan_labels = partial_scan(
        pts, labels, view, np.random.default_rng(0), sigma=0.0, n_target=n_visible, floor=1
    )
    assert scan.shape[0] == n_visible < pts.shape[0]
    # noise-free scan points are a subset of the originals
    d = np.linalg.norm(scan[:, None] - pts[None], axis=2)
    nearest = d.argmin(axis=1)
    assert np.allclose(scan, pts[nearest], atol=0)
    assert np.array_equal(scan_labels, labels[nearest])


def test_partial_scan_detects_lost_part():
    gx, gz = np.meshgrid(np.linspace(-1, 1, 15), np.linspace(0, 1, 15))
    wall = np.stack([gx.ravel(), np.zeros(gx.size), gz.ravel()], axis=1)
    hx, hz = np.meshgrid(np.linspace(-0.3, 0.3, 8), np.linspace(0.35, 0.65, 8))
    hidden = np.stack([hx.ravel(), np.full(hx.size, 2.0), hz.ravel()], axis=1)
    pts = np.concatenate([wall, hidden])
    labels = np.repeat([0, 1], [wall.shape[0], hidden.shape[0]])
    # the small patch sits squarely in the wall's shadow
    view = np.array([0.0, -6.0, 0.5])
    with pytest.raises(DataError, match="part occluded"):
        partial_scan(
            pts, labels, view, np.random.default_rng(0),
            sigma=0.0, n_target=hidden_point_removal(pts, view).size, floor=min_part_points(pts.shape[0]),
        )


def test_partial_scan_target_respects_floor():
    sample = shape_of("fan", seed=6)
    pts, labels = sample.points, sample.labels
    view = pts.mean(axis=0) + np.array([0.0, 3.0, 0.5])
    scan, scan_labels = partial_scan(
        pts, labels, view, np.random.default_rng(1), sigma=0.0, n_target=80, floor=25
    )
    assert scan.shape[0] == 80
    for p in np.unique(labels):
        assert (scan_labels == p).sum() >= 25


def test_scan_retries_finds_viewpoint():
    sample = shape_of("cabinet_multi", seed=8)
    floor = min_part_points(N_TEST)
    scan, scan_labels, view = scan_with_viewpoint_retries(
        sample.points, sample.labels, np.random.default_rng(3), sigma=DEPTH_SIGMA, n_target=100, floor=floor
    )
    assert scan.shape[0] == 100
    for p in np.unique(sample.labels):
        assert (scan_labels == p).sum() >= floor
    assert np.linalg.norm(view - sample.points.mean(axis=0)) > 1.0


def test_dataset_round_trip(tmp_path):
    manifest = generate_dataset(
        tmp_path / "d",
        categories=("laptop", "umbrella"),
        shapes_per_category=3,
        n_points=256,
        n_frames=4,
        seed=5,
    )
    assert len(manifest["shapes"]) == 6
    records = load_dataset(tmp_path / "d")
    assert len(records) == 6
    by_split = {"train": 0, "test": 0}
    for rec in records:
        by_split[rec.split] += 1
        assert rec.frames.shape == (4, 256, 3)
        if rec.category == "laptop":
            assert len(rec.specs) == 1
        else:
            assert rec.specs is None
        # the loader reads no scan, so check what the writer left on disk
        shape_dir = tmp_path / "d" / rec.shape_id
        scan = json.loads((shape_dir / "shape.json").read_text())["scan"]
        if rec.split == "test":
            assert scan["file"] == "scan.ply" and scan["sigma"] == DEPTH_SIGMA
            assert len(scan["viewpoint"]) == 3
            points, labels = read_ply(shape_dir / "scan.ply")
            assert points.shape == (256, 3) and labels.shape == (256,)
        else:
            assert scan is None and not (shape_dir / "scan.ply").exists()
    assert by_split == {"train": 4, "test": 2}
    split_lines = (tmp_path / "d" / "split.txt").read_text().strip().splitlines()
    assert len(split_lines) == 6
    assert split_lines[0].split("\t") == ["laptop_000", "train"]
    # loaded frames reproduce the generator output exactly
    rng = np.random.default_rng([5, 0, 0])
    sample = generate_shape("laptop", rng, 256)
    seq = make_sequence(sample, 4)
    rec = next(r for r in records if r.shape_id == "laptop_000")
    assert np.array_equal(rec.frames, seq.frames)
    assert rec.specs[0].tau == seq.specs[0].tau
    assert np.array_equal(rec.specs[0].direction, seq.specs[0].direction)


def test_load_shape_rejects_a_negative_part_label(tmp_path):
    # umbrella's shape.json lists no parts, so no part count checks its labels
    generate_dataset(tmp_path / "d", categories=("umbrella",), shapes_per_category=1, n_points=64, n_frames=3,
                     seed=0)
    shape = tmp_path / "d" / "umbrella_000"
    for frame in sorted(shape.glob("frame_*.ply")):
        points, labels = read_ply(frame)
        labels[-1] = -1
        write_ply(frame, points, labels)
    with pytest.raises(DataError, match=f"{shape / 'frame_01.ply'}: negative part label -1"):
        load_shape(shape)


def test_dataset_split_filter_and_missing(tmp_path):
    generate_dataset(
        tmp_path / "d", categories=("fan",), shapes_per_category=3, n_points=256, n_frames=3,
        seed=1,
    )
    test_only = load_dataset(tmp_path / "d", split="test")
    assert [r.split for r in test_only] == ["test"]
    with pytest.raises(DataError):
        load_dataset(tmp_path / "missing")


def test_scan_fraction_limits_scanned_test_shapes(tmp_path):
    generate_dataset(
        tmp_path / "d", categories=("drawer_box",), shapes_per_category=30,
        n_points=256, n_frames=3, seed=2, scan_fraction=0.5,
    )
    records = load_dataset(tmp_path / "d", split="test")
    assert len(records) == 3
    scans = {r.shape_id: json.loads((tmp_path / "d" / r.shape_id / "shape.json").read_text())["scan"]
             for r in records}
    assert [shape_id for shape_id, scan in scans.items() if scan] == ["drawer_box_027", "drawer_box_028"]
    assert sorted(p.parent.name for p in (tmp_path / "d").glob("*/scan.ply")) == ["drawer_box_027", "drawer_box_028"]
    for shape_id in ("drawer_box_027", "drawer_box_028"):
        points, labels = read_ply(tmp_path / "d" / shape_id / "scan.ply")
        assert points.shape == (256, 3)
        for p in np.unique(labels):
            assert (labels == p).sum() >= min_part_points(256)


def test_densified_regeneration_keeps_shape_parameters():
    for cat in TEMPLATE_NAMES:
        a = generate_shape(cat, np.random.default_rng([7, 1]), 256)
        b = generate_shape(cat, np.random.default_rng([7, 1]), 1024)
        assert b.points.shape == (1024, 3)
        np.testing.assert_array_equal(a.extras["yaw"].rotation, b.extras["yaw"].rotation)
        if a.specs is not None:
            for sa, sb in zip(a.specs, b.specs):
                assert sa.tau == sb.tau
                np.testing.assert_array_equal(sa.direction, sb.direction)
                assert sa.range_ == sb.range_


def test_moving_point_step_norms_are_constant():
    sample = shape_of("door_box", seed=4)
    seq = make_sequence(sample, 6)
    norms = np.linalg.norm(seq.displacement_maps, axis=2)
    mov = seq.labels != 0
    spread = norms[:, mov].max(axis=0) - norms[:, mov].min(axis=0)
    assert spread.max() < 1e-9


def test_dataset_generation_is_byte_deterministic(tmp_path):
    kwargs = dict(
        categories=("drawer_box", "balance"),
        shapes_per_category=2,
        n_points=256,
        n_frames=3,
        seed=9,
    )
    generate_dataset(tmp_path / "a", **kwargs)
    generate_dataset(tmp_path / "b", **kwargs)
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_repeated_category_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="repeat"):
        generate_dataset(tmp_path / "data", categories=("fan", "fan"), shapes_per_category=2, n_points=64,
                         n_frames=3, seed=0)
    assert not (tmp_path / "data").exists()


def test_dataset_size_has_no_defaults_to_disagree_with_the_config():
    # a default n_points of 2048 once wrote shapes a default RunConfig (256) rejects
    params = inspect.signature(generate_dataset).parameters
    required = ("categories", "shapes_per_category", "n_points", "n_frames", "seed")
    assert [name for name in required if params[name].default is not inspect.Parameter.empty] == []
