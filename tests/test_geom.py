import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partmotion import geom
from partmotion.errors import ConfigError

from microfixtures import spec_bytes
from oracles import denormalized_spec, rotation_matrix, yaw_spec


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


def screw(axis, pos, angle, slide) -> geom.MobilitySpec:
    return geom.MobilitySpec(geom.TYPE_TR, axis, pos, (0.0, angle), slide_range=(0.0, slide))


def test_full_turn_screw_is_pure_slide():
    rng = np.random.default_rng(3)
    axis = geom.unit(rng.normal(size=3))
    pos = rng.normal(size=3)
    pts = rng.normal(size=(20, 3))
    slide = 0.37
    t = geom.mobility_transform(screw(axis, pos, 360.0, slide), 1.0)
    np.testing.assert_allclose(t.apply(pts), pts + slide * axis, atol=1e-9)


def test_screw_equals_rotation_then_slide():
    rng = np.random.default_rng(4)
    axis = geom.unit(rng.normal(size=3))
    pos = rng.normal(size=3)
    pts = rng.normal(size=(10, 3))
    rot = geom.rotation_about_axis(axis, pos, 21.0)
    expect = rot.apply(pts) + 0.1 * axis
    got = geom.mobility_transform(screw(axis, pos, 42.0, 0.2), 0.5).apply(pts)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_mobility_transform_endpoints():
    spec = geom.MobilitySpec(
        geom.TYPE_T, np.array([0.0, 1.0, 0.0]), None, (0.0, 0.4)
    )
    pts = np.array([[0.1, 0.2, 0.3]])
    np.testing.assert_allclose(geom.mobility_transform(spec, 0.0).apply(pts), pts, atol=1e-15)
    np.testing.assert_allclose(
        geom.mobility_transform(spec, 1.0).apply(pts), pts + [[0.0, 0.4, 0.0]], atol=1e-15
    )


def test_mobility_tr_couples_rotation_and_slide():
    spec = screw(np.array([0.0, 0.0, 1.0]), np.zeros(3), 180.0, 0.1)
    p = np.array([[1.0, 0.0, 0.0]])
    mid = geom.mobility_transform(spec, 0.5).apply(p)
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
        # non-finite values: NaN passes every comparison, so each needs its own check
        dict(tau="T", direction=np.full(3, np.nan)),
        dict(tau="R", direction=np.array([1.0, 0.0, 0.0]), position=np.array([0.0, np.nan, 0.0])),
        dict(tau="R", direction=np.array([1.0, 0.0, 0.0]), position=np.zeros(3), range_=(0.0, np.nan)),
        dict(tau="T", direction=np.array([1.0, 0.0, 0.0]), range_=(0.0, np.inf)),
        dict(tau="TR", direction=np.array([1.0, 0.0, 0.0]), position=np.zeros(3), slide_range=(np.nan, 0.0)),
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


# ---------------------------------------------------------------------------
# moved_spec: the one transform of a spec that follows its cloud


def test_moved_spec_scaling():
    center = np.array([1.0, 2.0, 3.0])
    t = geom.MobilitySpec("T", np.array([0.0, 1.0, 0.0]), None, (0.0, 0.4))
    out = geom.moved_spec(t, 2.5, center)
    assert out.range_ == (0.0, 1.0)
    r = geom.MobilitySpec("R", np.array([0.0, 0.0, 1.0]), np.array([0.2, 0.0, 0.0]), (0.0, 90.0))
    out = geom.moved_spec(r, 2.0, center)
    np.testing.assert_allclose(out.position, np.array([1.4, 2.0, 3.0]), atol=1e-12)
    assert out.range_ == (0.0, 90.0)
    tr = geom.MobilitySpec(
        "TR", np.array([0.0, 0.0, 1.0]), np.zeros(3), (0.0, 120.0), (0.0, 0.05)
    )
    out = geom.moved_spec(tr, 4.0, center)
    assert out.slide_range == (0.0, 0.2)


ZEROS = st.sampled_from([0.0, -0.0])
COORD = ZEROS | st.floats(-2.0, 2.0)
# unit directions spelled with exact zeros of either sign
UNIT_DIRECTIONS = st.builds(
    lambda base, order, signs: np.array([base[i] * s for i, s in zip(order, signs)]),
    st.sampled_from([(1.0, 0.0, 0.0), (0.6, 0.8, 0.0), (0.48, 0.6, 0.64)]),
    st.permutations([0, 1, 2]),
    st.lists(st.sampled_from([1.0, -1.0]), min_size=3, max_size=3),
)


@st.composite
def specs(draw):
    tau = draw(st.sampled_from(geom.MOBILITY_TYPES))
    direction = draw(UNIT_DIRECTIONS | st.builds(geom.unit, st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3)))
    position = None if tau == geom.TYPE_T else np.array(draw(st.lists(COORD, min_size=3, max_size=3)))
    range_ = (draw(ZEROS), draw(ZEROS | st.floats(0.0, 150.0)))
    slide = None
    if tau == geom.TYPE_TR:
        slide = tuple(sorted(draw(st.lists(COORD, min_size=2, max_size=2))))
    return geom.MobilitySpec(tau, direction, position, range_, slide)


TRANSFORMS = st.builds(
    lambda angle, axis, position: geom.rotation_about_axis(axis, np.array(position), angle),
    st.sampled_from([0.0, 90.0, 180.0, 270.0]) | st.floats(-360.0, 360.0),
    st.just(np.array([0.0, 0.0, 1.0])) | UNIT_DIRECTIONS,
    st.lists(COORD, min_size=3, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(spec=specs(), transform=TRANSFORMS)
def test_moved_spec_rotated_matches_yaw_oracle_bytes(spec, transform):
    moved = geom.moved_spec(spec, 1.0, transform.translation, transform.rotation)
    assert spec_bytes(moved) == spec_bytes(yaw_spec(spec, transform))


@settings(max_examples=200, deadline=None)
@given(spec=specs(), scale=st.sampled_from([1.0, 2.0, 0.5]) | st.floats(1e-3, 1e3),
       center=st.lists(COORD, min_size=3, max_size=3))
@example(spec=geom.MobilitySpec("T", np.array([-0.0, 0.0, -1.0]), None, (-0.0, 0.0)), scale=1.0,
         center=[0.0, -0.0, 0.0])
@example(spec=geom.MobilitySpec("TR", np.array([0.0, -0.0, 1.0]), np.array([-0.0, 0.0, -0.0]), (0.0, 30.0),
                                (-0.0, 0.0)), scale=2.0, center=[-0.0, -0.0, -0.0])
def test_moved_spec_scaled_matches_denormalized_oracle_bytes(spec, scale, center):
    moved = geom.moved_spec(spec, scale, np.array(center))
    assert spec_bytes(moved) == spec_bytes(denormalized_spec(spec, scale, np.array(center)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), tau=st.sampled_from(geom.MOBILITY_TYPES), s=st.floats(0.0, 1.0))
def test_moved_spec_moves_with_its_cloud(seed, tau, s):
    # moving the cloud, then the part by the moved spec, ends where the part
    # moved by the original spec ends after the same cloud motion
    rng = np.random.default_rng(seed)
    position = None if tau == geom.TYPE_T else rng.normal(size=3)
    slide = (-0.2, 0.3) if tau == geom.TYPE_TR else None
    spec = geom.MobilitySpec(tau, geom.unit(rng.normal(size=3)), position, (0.0, 120.0), slide)
    rotation = geom.rotation_about_axis(rng.normal(size=3), np.zeros(3), rng.uniform(-180.0, 180.0)).rotation
    scale, shift = rng.uniform(0.2, 5.0), rng.normal(size=3)
    points = rng.normal(size=(20, 3))

    def move(p):
        return (scale * p) @ rotation.T + shift

    moved = geom.moved_spec(spec, scale, shift, rotation)
    np.testing.assert_allclose(geom.mobility_transform(moved, s).apply(move(points)),
                               move(geom.mobility_transform(spec, s).apply(points)), atol=1e-9)
