import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partmotion import geom
from partmotion.errors import ConfigError

from oracles import rotation_matrix


def test_rotation_90_about_z_maps_x_to_y():
    t = geom.rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.zeros(3), 90.0)
    out = t.apply(np.array([[1.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)


def test_rotation_matches_independent_rodrigues():
    rng = np.random.default_rng(7)
    for _ in range(10):
        axis = rng.normal(size=3)
        angle = float(rng.uniform(-170.0, 170.0))
        point = rng.normal(size=3)
        t = geom.rotation_about_axis(axis, np.zeros(3), angle)
        expect = rotation_matrix(axis, np.deg2rad(angle)) @ point
        np.testing.assert_allclose(t.apply(point[None])[0], expect, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    axis=st.tuples(*[st.floats(-1, 1) for _ in range(3)]).filter(lambda a: sum(x * x for x in a) > 0.1),
    angle=st.floats(-360, 360),
    seed=st.integers(0, 2**16),
)
def test_rotation_preserves_pairwise_distances(axis, angle, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(8, 3))
    pos = rng.normal(size=3)
    t = geom.rotation_about_axis(np.array(axis), pos, angle)
    out = t.apply(pts)
    d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    d_out = np.linalg.norm(out[:, None] - out[None, :], axis=2)
    np.testing.assert_allclose(d_in, d_out, atol=1e-9)


def test_rotation_fixes_axis_points():
    axis = geom.unit(np.array([1.0, 2.0, -0.5]))
    pos = np.array([0.3, -0.2, 0.9])
    t = geom.rotation_about_axis(axis, pos, 73.0)
    for c in (-2.0, 0.0, 1.5):
        p = pos + c * axis
        np.testing.assert_allclose(t.apply(p[None])[0], p, atol=1e-12)


def test_full_turn_screw_is_pure_slide():
    rng = np.random.default_rng(3)
    axis = geom.unit(rng.normal(size=3))
    pos = rng.normal(size=3)
    pts = rng.normal(size=(20, 3))
    slide = 0.37
    t = geom.screw_transform(axis, pos, 360.0, slide)
    np.testing.assert_allclose(t.apply(pts), pts + slide * axis, atol=1e-9)


def test_screw_equals_rotation_then_slide():
    rng = np.random.default_rng(4)
    axis = geom.unit(rng.normal(size=3))
    pos = rng.normal(size=3)
    pts = rng.normal(size=(10, 3))
    rot = geom.rotation_about_axis(axis, pos, 42.0)
    expect = rot.apply(pts) + 0.2 * axis
    got = geom.screw_transform(axis, pos, 42.0, 0.2).apply(pts)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_compose_invert_round_trip():
    rng = np.random.default_rng(5)
    a = geom.rotation_about_axis(rng.normal(size=3), rng.normal(size=3), 31.0)
    b = geom.translation_along(rng.normal(size=3), 0.8)
    ab = a.compose(b)
    pts = rng.normal(size=(6, 3))
    np.testing.assert_allclose(ab.apply(pts), a.apply(b.apply(pts)), atol=1e-12)


def test_mobility_transform_endpoints():
    spec = geom.MobilitySpec(
        geom.TYPE_T, np.array([0.0, 1.0, 0.0]), None, (0.0, 0.4)
    )
    pts = np.array([[0.1, 0.2, 0.3]])
    np.testing.assert_allclose(geom.apply_mobility(pts, spec, 0.0), pts, atol=1e-15)
    np.testing.assert_allclose(
        geom.apply_mobility(pts, spec, 1.0), pts + [[0.0, 0.4, 0.0]], atol=1e-15
    )


def test_mobility_tr_couples_rotation_and_slide():
    spec = geom.MobilitySpec(
        geom.TYPE_TR,
        np.array([0.0, 0.0, 1.0]),
        np.zeros(3),
        (0.0, 180.0),
        slide_range=(0.0, 0.1),
    )
    p = np.array([[1.0, 0.0, 0.0]])
    mid = geom.apply_mobility(p, spec, 0.5)
    np.testing.assert_allclose(mid, [[0.0, 1.0, 0.05]], atol=1e-12)


def test_mobility_fraction_out_of_range_rejected():
    spec = geom.MobilitySpec(geom.TYPE_T, np.array([1.0, 0.0, 0.0]), None, (0.0, 1.0))
    with pytest.raises(ConfigError):
        geom.mobility_transform(spec, 1.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(tau="X", direction=np.array([1.0, 0.0, 0.0])),
        dict(tau="T", direction=np.array([2.0, 0.0, 0.0])),
        dict(tau="T", direction=np.array([1.0, 0.0, 0.0]), position=np.zeros(3)),
        dict(tau="R", direction=np.array([1.0, 0.0, 0.0])),
        dict(tau="R", direction=np.array([1.0, 0.0, 0.0]), position=np.zeros(3), range_=(2.0, 1.0)),
        dict(tau="TR", direction=np.array([1.0, 0.0, 0.0]), position=np.zeros(3)),
        dict(tau="T", direction=np.array([1.0, 0.0, 0.0]), slide_range=(0.0, 1.0)),
    ],
)
def test_mobility_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        geom.MobilitySpec(**kwargs)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_normalize_round_trip(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(30, 3)) * rng.uniform(0.5, 5.0) + rng.normal(size=3)
    normed, scl, center = geom.normalize_to_unit_box(pts)
    extents = normed.max(axis=0) - normed.min(axis=0)
    assert abs(extents.max() - 1.0) < 1e-12
    np.testing.assert_allclose(normed * scl + center, pts, atol=1e-12)
    np.testing.assert_allclose(normed.min(axis=0) + normed.max(axis=0), np.zeros(3), atol=1e-12)


def test_point_cloud_and_segmentation_validation():
    with pytest.raises(ConfigError):
        geom.PointCloud(np.zeros((4, 2)))
    with pytest.raises(ConfigError):
        geom.PointCloud(np.zeros((4, 3)), labels=np.zeros(3, dtype=int))
