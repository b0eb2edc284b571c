"""Mobility extraction checks: synthetic transforms and generated sequences."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partmotion.datagen import TEMPLATE_NAMES, generate_shape, make_sequence
from partmotion.errors import DataError
from partmotion.geom import (
    TYPE_R,
    TYPE_T,
    TYPE_TR,
    MobilitySpec,
    RigidTransform,
    rotation_about_axis,
    mobility_transform,
    unit,
)
from partmotion import mobfit
from partmotion.mobfit import (
    FLAG_LOW_CONFIDENCE,
    FLAG_RANGE_INCONSISTENT,
    ANGLE_FLOOR_DEG,
    PITCH_FLOOR,
    STILL_EPS,
    FittedMobility,
    _kabsch,
    fit_from_displacements,
    fit_sequence,
)

import oracles
from microfixtures import spec_bytes
from oracles import registration_residual, rotation_matrix

PARAMETRIC = [c for c in TEMPLATE_NAMES if generate_shape(c, np.random.default_rng(0), 256).specs is not None]


def rigid_register(src, dst) -> RigidTransform:
    """mobfit's batched registration on a one-pair stack."""
    rotation, translation = _kabsch(src[None], dst[None])
    return RigidTransform(rotation[0], translation[0])


def point_line_distance(p, origin, direction):
    rel = p - origin
    return np.linalg.norm(rel - np.dot(rel, direction) * direction)


@pytest.mark.parametrize("seed", range(5))
def test_rigid_register_recovers_random_transform(seed):
    rng = np.random.default_rng(seed)
    axis = unit(rng.normal(size=3))
    angle = rng.uniform(0.1, 3.0)
    rot = rotation_matrix(axis, angle)
    t = rng.normal(size=3)
    src = rng.normal(size=(30, 3))
    dst = src @ rot.T + t
    fit = rigid_register(src, dst)
    assert np.allclose(fit.rotation, rot, atol=1e-10)
    assert np.allclose(fit.translation, t, atol=1e-10)
    assert np.isclose(np.linalg.det(fit.rotation), 1.0)
    assert registration_residual(fit, src, dst) < 1e-20


def test_rigid_register_rejects_collinear_points():
    line = np.linspace(0.0, 1.0, 12)[:, None] * np.array([1.0, 2.0, -1.0])
    with pytest.raises(DataError, match="rank-deficient"):
        rigid_register(line, line + np.array([0.1, 0.0, 0.0]))


def test_rigid_register_accepts_planar_points():
    rng = np.random.default_rng(2)
    planar = np.concatenate([rng.normal(size=(20, 2)), np.zeros((20, 1))], axis=1)
    tf = rotation_about_axis(np.array([0.0, 1.0, 0.0]), np.zeros(3), 20.0)
    fit = rigid_register(planar, tf.apply(planar))
    assert np.allclose(fit.rotation, tf.rotation, atol=1e-10)


def _pair_frames(*transforms, seed=0) -> np.ndarray:
    """A part's frames, moved by each transform in turn."""
    frames = [np.random.default_rng(seed).normal(size=(20, 3))]
    for transform in transforms:
        frames.append(transform.apply(frames[-1]))
    return np.stack(frames)


def test_classify_pure_translation():
    fit = fit_sequence(_pair_frames(RigidTransform(np.eye(3), np.array([0.0, 0.2, 0.0]))))
    assert fit.spec.tau == TYPE_T
    assert np.allclose(fit.spec.direction, [0.0, 1.0, 0.0])
    assert np.isclose(fit.spec.range_[1], 0.2)


def test_classify_still_returns_none():
    still = RigidTransform(np.eye(3), np.zeros(3))
    assert fit_sequence(_pair_frames(still)) is None
    assert fit_sequence(_pair_frames(still, still)) is None


def test_classify_rotation_recovers_axis_and_position():
    d = unit(np.array([0.3, -0.5, 0.8]))
    x = np.array([0.2, 0.1, -0.3])
    fit = fit_sequence(_pair_frames(rotation_about_axis(d, x, 30.0)))
    assert fit.spec.tau == TYPE_R
    assert np.allclose(fit.spec.direction, d, atol=1e-12)
    assert np.isclose(fit.spec.range_[1], 30.0, atol=1e-10)
    assert point_line_distance(fit.spec.position, x, d) < 1e-10
    # reported position is the axis point closest to the origin
    assert abs(np.dot(fit.spec.position, d)) < 1e-10


def test_classify_screw_splits_angle_and_pitch():
    d = np.array([0.0, 0.0, 1.0])
    tf = mobility_transform(MobilitySpec(TYPE_TR, d, np.array([0.1, 0.0, 0.0]), (0.0, 25.0), (0.0, 0.04)), 1.0)
    fit = fit_sequence(_pair_frames(tf))
    assert fit.spec.tau == TYPE_TR
    assert np.isclose(fit.spec.range_[1], 25.0, atol=1e-10)
    assert np.isclose(fit.spec.slide_range[1], 0.04, atol=1e-12)


def test_classification_floors():
    d = np.array([0.0, 0.0, 1.0])
    tiny_rot = rotation_about_axis(d, np.zeros(3), 0.2)
    shifted = RigidTransform(tiny_rot.rotation, tiny_rot.translation + np.array([0.0, 0.0, 0.1]))
    assert fit_sequence(_pair_frames(shifted)).spec.tau == TYPE_T  # angle under the floor
    small_pitch = mobility_transform(MobilitySpec(TYPE_TR, d, np.zeros(3), (0.0, 20.0), (0.0, 0.002)), 1.0)
    assert fit_sequence(_pair_frames(small_pitch)).spec.tau == TYPE_R  # pitch under the floor
    # a pair under both floors votes T; with a clear rotation the vote ties
    fit = fit_sequence(_pair_frames(shifted, small_pitch))
    assert fit.spec.tau == TYPE_R and fit.flags[0] == FLAG_LOW_CONFIDENCE


@pytest.mark.parametrize("category", PARAMETRIC)
@pytest.mark.parametrize("seed", [0, 17])
def test_fit_sequence_exact_on_generated_shapes(category, seed):
    sample = generate_shape(category, np.random.default_rng(seed), 512)
    seq = make_sequence(sample, 8)
    for part_id, gt in enumerate(sample.specs, start=1):
        frames = seq.frames[:, seq.labels == part_id]
        fit = fit_sequence(frames)
        assert isinstance(fit, FittedMobility)
        assert fit.spec.tau == gt.tau
        assert np.dot(fit.spec.direction, gt.direction) > 1.0 - 1e-12
        assert abs(fit.spec.range_[0] - gt.range_[0]) < 1e-6
        assert abs(fit.spec.range_[1] - gt.range_[1]) < 1e-6
        if gt.tau != TYPE_T:
            assert point_line_distance(fit.spec.position, gt.position, gt.direction) < 1e-6
        if gt.tau == TYPE_TR:
            assert abs(fit.spec.slide_range[1] - gt.slide_range[1]) < 1e-6
        assert fit.residual < 1e-18
        assert fit.flags == []


def test_fan_range_recovered_exactly():
    sample = generate_shape("fan", np.random.default_rng(5), 512)
    seq = make_sequence(sample, 8)
    fit = fit_sequence(seq.frames[:, seq.labels == 1])
    assert fit.spec.tau == TYPE_R
    assert abs(fit.spec.range_[0] - 0.0) < 1e-9
    assert abs(fit.spec.range_[1] - 120.0) < 1e-9


def test_static_part_yields_none():
    frames = np.tile(np.random.default_rng(0).normal(size=(20, 3)), (4, 1, 1))
    assert fit_sequence(frames) is None


def test_padded_tail_frames_do_not_vote():
    rng = np.random.default_rng(4)
    part = rng.normal(size=(30, 3))
    step = np.array([0.0, 0.05, 0.0])
    moving = [part + k * step for k in range(3)]
    frames = np.stack(moving + [moving[-1], moving[-1]])  # motion then stillness
    fit = fit_sequence(frames)
    assert fit.spec.tau == TYPE_T
    assert abs(fit.spec.range_[1] - 0.1) < 1e-9


def test_tied_votes_use_largest_amount_and_flag():
    rng = np.random.default_rng(6)
    part = rng.normal(size=(40, 3)) * 0.2
    small_shift = part + np.array([0.0, 0.001, 0.0])
    swung = rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.zeros(3), 40.0).apply(small_shift)
    frames = np.stack([part, small_shift, swung])  # one T pair, one bigger R pair
    fit = fit_sequence(frames)
    assert fit.spec.tau == TYPE_R
    assert FLAG_LOW_CONFIDENCE in fit.flags


def test_fit_from_displacements_matches_fit_sequence():
    sample = generate_shape("bottle_cap_TR", np.random.default_rng(3), 512)
    seq = make_sequence(sample, 6)
    idx = seq.labels == 1
    frames = seq.frames[:, idx]
    from_frames = fit_sequence(frames).spec
    from_maps = fit_from_displacements(frames[0], np.diff(frames, axis=0)).spec
    assert from_frames.tau == from_maps.tau == TYPE_TR
    assert np.allclose(from_frames.direction, from_maps.direction, atol=1e-9)
    assert np.isclose(from_frames.range_[1], from_maps.range_[1], atol=1e-9)


@pytest.mark.parametrize("category,seed", [("drawer_box", 0), ("laptop", 1), ("door_box", 2)])
def test_fit_survives_moderate_noise(category, seed):
    rng = np.random.default_rng(seed)
    sample = generate_shape(category, rng, 512)
    seq = make_sequence(sample, 8)
    noisy = seq.frames + rng.normal(0.0, 0.002, size=seq.frames.shape)
    gt = sample.specs[0]
    fit = fit_sequence(noisy[:, seq.labels == 1])
    assert fit.spec.tau == gt.tau
    assert abs(np.dot(fit.spec.direction, gt.direction)) > np.cos(np.deg2rad(5.0))
    assert abs(fit.spec.range_[1] - gt.range_[1]) / max(gt.span, 1e-9) < 0.15
    assert fit.residual > 0.0


def test_derive_range_translation():
    rng = np.random.default_rng(7)
    part = rng.normal(size=(25, 3))
    d = np.array([0.0, 1.0, 0.0])
    spec = MobilitySpec(TYPE_T, d, None, (0.0, 0.3))
    assert oracles.range_flags(oracles.rigid_register(part, part + 0.3 * d), spec) == []
    # a composed span other than the summed one
    assert oracles.range_flags(oracles.rigid_register(part, part + 0.2 * d), spec) == [FLAG_RANGE_INCONSISTENT]
    # rotating end state conflicts with a translation claim
    swung = rotation_about_axis(np.array([1.0, 0.0, 0.0]), np.zeros(3), 15.0).apply(part)
    assert oracles.range_flags(oracles.rigid_register(part, swung), spec) == [FLAG_RANGE_INCONSISTENT]


def test_derive_range_rotation_sign():
    rng = np.random.default_rng(8)
    part = rng.normal(size=(25, 3)) + np.array([1.0, 0.0, 0.0])
    d = np.array([0.0, 0.0, 1.0])
    spec = MobilitySpec(TYPE_R, d, np.zeros(3), (0.0, 50.0))
    forward = rotation_about_axis(d, np.zeros(3), 50.0).apply(part)
    assert oracles.range_flags(oracles.rigid_register(part, forward), spec) == []
    backward = rotation_about_axis(d, np.zeros(3), -50.0).apply(part)
    assert oracles.range_flags(oracles.rigid_register(part, backward), spec) == [FLAG_RANGE_INCONSISTENT]
    # a composed rotation that vanished although the type is rotational
    assert oracles.range_flags(oracles.rigid_register(part, part + 0.1 * d), spec) == [FLAG_RANGE_INCONSISTENT]


def test_range_inconsistency_is_flagged():
    # rotations about two different axes cannot share one screw, so the
    # summed range disagrees with the composed first-to-last rotation
    rng = np.random.default_rng(9)
    part = rng.normal(size=(30, 3)) * 0.3 + np.array([1.0, 0.0, 0.0])
    f1 = rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.zeros(3), 40.0).apply(part)
    f2 = rotation_about_axis(np.array([1.0, 0.0, 0.0]), np.zeros(3), 40.0).apply(f1)
    fit = fit_sequence(np.stack([part, f1, f2]))
    assert fit.spec.tau == TYPE_R
    assert FLAG_RANGE_INCONSISTENT in fit.flags


def test_screws_past_half_a_turn_are_range_consistent():
    # the composed first-to-last rotation of a screw past 180 degrees reads
    # as 360 minus the angle about the flipped axis; modulo 360 it agrees
    rng = np.random.default_rng(21)
    part = rng.normal(size=(20, 3)) * 0.3
    past_half = 0
    for _ in range(200):
        angle = rng.uniform(10.0, 350.0)
        spec = MobilitySpec(TYPE_TR, unit(rng.normal(size=3)), rng.normal(size=3), (0.0, angle),
                            (0.0, rng.uniform(0.1, 0.5)))
        frames = np.stack([mobility_transform(spec, k / 7).apply(part) for k in range(8)])
        fit = fit_sequence(frames)
        assert fit.spec.tau == TYPE_TR and np.isclose(fit.spec.range_[1], angle)
        assert FLAG_RANGE_INCONSISTENT not in fit.flags, angle
        past_half += angle > 180.0
    assert past_half > 80


def test_frames_whose_registration_overflows_are_a_data_error():
    frames = _pair_frames(rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.zeros(3), 30.0)) * 1e155
    with pytest.raises(DataError, match="cross-covariance overflows"):
        fit_sequence(frames)


def test_rotation_angle_degenerate_guard():
    # a cloud registered exactly: the identity turn has angle 0 and no axis
    part = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 2.0, 0], [0, -2.0, 0], [0, 0, 3.0], [0, 0, -3.0]])
    spec, _, flags, composed = _fit_bytes(fit_sequence, np.stack([part, part + np.array([0.5, 0.25, 0.0])]))
    assert spec.startswith(b"T|") and flags == []
    assert composed[0].startswith(np.float64(0.0).tobytes() + b"|-|")
    half_turn = RigidTransform(rotation_matrix(np.array([0.0, 0.0, 1.0]), np.pi), np.zeros(3))
    with pytest.raises(DataError, match="too close to 0 or 180 degrees"):
        fit_sequence(_pair_frames(half_turn))
    # only as a composed pair, whose range check needs no axis, a half turn is fine
    quarter_turn = RigidTransform(rotation_matrix(np.array([0.0, 0.0, 1.0]), np.pi / 2), np.zeros(3))
    fit = fit_sequence(_pair_frames(quarter_turn, quarter_turn))
    assert fit.spec.tau == TYPE_R and np.isclose(fit.spec.range_[1], 180.0) and fit.flags == []


# ---------------------------------------------------------------------------
# batched registration against the per-pair reference, byte for byte


def _fit_bytes(fit_fn, frames) -> tuple:
    """Every field of a fit as raw bytes, and the composed first-to-last
    transform its range check got (angle, axis or None, translation), or
    the DataError text it raised."""
    composed = []

    def watched(angle, axis, translation, spec):
        axis_bytes = b"-" if axis is None else axis.tobytes()
        composed.append(b"|".join([np.float64(angle).tobytes(), axis_bytes, translation.tobytes()]))
        return range_flags(angle, axis, translation, spec)

    range_flags, mobfit._range_flags = mobfit._range_flags, watched
    try:
        fit = fit_fn(frames)
    except DataError as exc:
        return ("DataError", str(exc))
    finally:
        mobfit._range_flags = range_flags
    if fit is None:
        return (None,)
    return spec_bytes(fit.spec), np.float64(fit.residual).tobytes(), fit.flags, composed


def _assert_matches_oracle(frames) -> tuple:
    got = _fit_bytes(fit_sequence, frames)
    assert got == _fit_bytes(oracles.fit_sequence_per_pair, frames)
    return got


@pytest.mark.parametrize("category", TEMPLATE_NAMES)
def test_fit_sequence_matches_per_pair_oracle(category):
    fitted = 0
    for seed in range(3):
        rng = np.random.default_rng([seed, 11])
        seq = make_sequence(generate_shape(category, rng, 256), 8)
        noisy = seq.frames + rng.normal(0.0, 0.002, size=seq.frames.shape)
        for part_id in range(1, int(seq.labels.max()) + 1):
            member = seq.labels == part_id
            for frames in (seq.frames[:, member], noisy[:, member]):
                fitted += _assert_matches_oracle(frames)[0] not in (None, "DataError")
    assert fitted > 0


def test_fit_sequence_matches_oracle_on_still_pairs():
    rng = np.random.default_rng(12)
    part = rng.normal(size=(30, 3))
    swing = rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.zeros(3), 15.0)
    moving = [part, swing.apply(part), swing.apply(swing.apply(part))]
    padded = np.stack(moving + [moving[-1], moving[-1]])
    assert _assert_matches_oracle(padded)[0].startswith(b"R|")
    still_first = np.stack([part, part] + moving[1:])
    assert _assert_matches_oracle(still_first)[0].startswith(b"R|")
    assert _assert_matches_oracle(np.tile(part, (4, 1, 1))) == (None,)


def test_fit_sequence_matches_oracle_errors():
    line = np.linspace(0.0, 1.0, 12)[:, None] * np.array([1.0, 2.0, -1.0])
    rng = np.random.default_rng(13)
    part = rng.normal(size=(12, 3))
    # the first pair and the first-to-last pair are well posed, the others are not
    collinear_pair = np.stack([part, part + 0.1, line, part + 0.2])
    assert _assert_matches_oracle(collinear_pair)[1].startswith("rank-deficient")
    two_points = rng.normal(size=(4, 2, 3))
    assert _assert_matches_oracle(two_points) == ("DataError", "need at least three points to register")


# boundary pairs: exact transforms stand in for both registrations


def _about_z(c: float, zero: float = 0.0) -> np.ndarray:
    """A turn about +z with cosine c; `zero` fills the off-axis entries,
    so -0.0 there gives the axis -0.0 components."""
    s = np.sqrt(1.0 - c * c)
    return np.array([[c, -s, zero], [s, c, -zero], [-zero, zero, 1.0]])


def _composed(transforms) -> RigidTransform:
    rotation, translation = np.eye(3), np.zeros(3)
    for tf in transforms:
        rotation, translation = tf.rotation @ rotation, tf.rotation @ translation + tf.translation
    return RigidTransform(rotation, translation)


def _assert_matches_oracle_on(monkeypatch, pairs, composed=None) -> tuple:
    """Both fits on frames moved by `pairs`, each registering the pairs and
    then `composed` (their composition by default) exactly as given."""
    transforms = list(pairs) + [composed or _composed(pairs)]
    rotations = np.stack([tf.rotation for tf in transforms])
    translations = np.stack([tf.translation for tf in transforms])
    monkeypatch.setattr(mobfit, "_kabsch", lambda src, dst: (rotations.copy(), translations.copy()))
    calls = itertools.cycle(transforms)
    monkeypatch.setattr(oracles, "rigid_register", lambda src, dst: next(calls))
    return _assert_matches_oracle(_pair_frames(*pairs))


def _floor_cosine() -> float:
    """The largest cosine whose turn about z still reads at least ANGLE_FLOOR_DEG."""
    lo, hi = np.cos(np.radians(0.49)), np.cos(np.radians(0.51))
    lo_bits, hi_bits = np.float64(hi).view(np.int64), np.float64(lo).view(np.int64)
    while hi_bits - lo_bits > 1:  # cosines grow with their bits, angles shrink
        mid = (lo_bits + hi_bits) // 2
        if oracles.rotation_angle_deg(_about_z(np.int64(mid).view(np.float64))) >= ANGLE_FLOOR_DEG:
            lo_bits = mid
        else:
            hi_bits = mid
    return float(np.int64(lo_bits).view(np.float64))


def test_fit_sequence_matches_oracle_at_angle_floor(monkeypatch):
    at = _floor_cosine()
    below = np.nextafter(at, 2.0)
    assert oracles.rotation_angle_deg(_about_z(at)) >= ANGLE_FLOOR_DEG > oracles.rotation_angle_deg(_about_z(below))
    turn = RigidTransform(_about_z(np.cos(np.radians(20.0))), np.array([0.1, 0.0, 0.0]))
    taus = []
    for c in (np.nextafter(at, 0.0), at, below, np.nextafter(below, 2.0)):
        pair = RigidTransform(_about_z(c), np.array([0.01, 0.02, 0.03]))
        taus.append(_assert_matches_oracle_on(monkeypatch, [pair])[0][:2])
        _assert_matches_oracle_on(monkeypatch, [pair, turn])
    assert taus == [b"TR", b"TR", b"T|", b"T|"]


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_fit_sequence_matches_oracle_at_pitch_floor(monkeypatch, zero):
    rotation = _about_z(np.cos(np.radians(20.0)), zero)
    taus = []
    for slide in (PITCH_FLOOR, np.nextafter(PITCH_FLOOR, 1.0), np.nextafter(PITCH_FLOOR, 0.0), -PITCH_FLOOR):
        pair = RigidTransform(rotation, np.array([0.1, zero, slide]))
        taus.append(_assert_matches_oracle_on(monkeypatch, [pair])[0][:2])
        _assert_matches_oracle_on(monkeypatch, [pair, pair, RigidTransform(np.eye(3), np.array([zero, 0.3, 0.0]))])
    assert taus == [b"TR", b"TR", b"R|", b"TR"]


def test_fit_sequence_matches_oracle_at_still_floor(monkeypatch):
    turn = RigidTransform(_about_z(np.cos(np.radians(20.0))), np.zeros(3))
    got = []
    for shift in (STILL_EPS, np.nextafter(STILL_EPS, 1.0), np.nextafter(STILL_EPS, 0.0)):
        pair = RigidTransform(np.eye(3), np.array([shift, 0.0, 0.0]))
        got.append(_assert_matches_oracle_on(monkeypatch, [pair]))
        _assert_matches_oracle_on(monkeypatch, [pair, turn])
    assert [g[0][:2] for g in got[:2]] == [b"T|", b"T|"] and got[2] == (None,)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_fit_sequence_matches_oracle_on_composed_half_and_no_turn(monkeypatch, zero):
    quarter = RigidTransform(_about_z(0.0, zero), np.array([zero, 0.2, 0.0]))
    half = RigidTransform(np.diag([-1.0, -1.0, 1.0]), np.zeros(3))
    got = _assert_matches_oracle_on(monkeypatch, [quarter, quarter], half)
    assert got[3][0].startswith(np.float64(180.0).tobytes() + b"|-|") and got[2] == []
    back = RigidTransform(_about_z(0.0, zero).T, np.zeros(3))
    still = RigidTransform(np.eye(3), np.zeros(3))
    got = _assert_matches_oracle_on(monkeypatch, [quarter, back], still)
    assert got[3][0].startswith(np.float64(0.0).tobytes() + b"|-|")
    got = _assert_matches_oracle_on(monkeypatch, [quarter, quarter], still)
    assert got[2] == [FLAG_RANGE_INCONSISTENT]


def test_fit_sequence_matches_oracle_on_signed_zero_axes(monkeypatch):
    # one pair: the aligned-axis sum starting from +0.0 clears the -0.0 components
    got = _assert_matches_oracle_on(monkeypatch, [RigidTransform(np.eye(3), np.array([-0.0, 0.1, -0.0]))])
    assert got[0] == spec_bytes(MobilitySpec(TYPE_T, np.array([0.0, 1.0, 0.0]), None, (0.0, 0.1)))
    # a backward pair turns the axis around, signs and all
    backward = [RigidTransform(np.eye(3), np.array([-0.0, 0.1, -0.0])),
                RigidTransform(np.eye(3), np.array([0.0, -0.3, -0.0]))]
    assert _assert_matches_oracle_on(monkeypatch, backward)[0].startswith(
        b"T|" + np.array([-0.0, -1.0, -0.0]).tobytes())
    for zero in (0.0, -0.0):
        turns = [RigidTransform(_about_z(np.cos(np.radians(a)), zero), np.array([zero, zero, 0.0]))
                 for a in (10.0, 30.0)]
        _assert_matches_oracle_on(monkeypatch, turns)
        _assert_matches_oracle_on(monkeypatch, [turns[0], RigidTransform(turns[1].rotation.T, np.zeros(3))])


def test_fit_sequence_matches_oracle_on_sum_order(monkeypatch):
    # each 128 is half an ulp of 2**60 and rounds away when added in turn; np.sum,
    # pairwise from nine terms on, would first add the eight into 1024
    steps = [2.0**60] + [128.0] * 8
    slides = [RigidTransform(np.eye(3), np.array([step, 0.0, 0.0])) for step in steps]
    assert _assert_matches_oracle_on(monkeypatch, slides)[0] == spec_bytes(
        MobilitySpec(TYPE_T, np.array([1.0, 0.0, 0.0]), None, (0.0, 2.0**60)))
    turn = _about_z(np.cos(np.radians(20.0)))
    screws = [RigidTransform(turn, np.array([0.0, 0.0, step])) for step in steps]
    assert _assert_matches_oracle_on(monkeypatch, screws)[0].endswith(np.array([0.0, 2.0**60]).tobytes())


def test_rigid_register_matches_per_pair_oracle():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        src = rng.normal(size=(3 + 10 * seed, 3))
        for dst in (src @ rotation_matrix(unit(rng.normal(size=3)), 2.0).T + 0.3,
                    -src, src + rng.normal(0.0, 0.01, size=src.shape)):
            got = rigid_register(src, dst)
            want = oracles.rigid_register(src, dst)
            assert got.rotation.tobytes() == want.rotation.tobytes()
            assert got.translation.tobytes() == want.translation.tobytes()


# ---------------------------------------------------------------------------
# the one signed-sum path against the earlier separate T and R/TR sums


STILL = "still"


def _stepped_frames(seed: int, steps) -> np.ndarray:
    """Frames of one part moved pair by pair: (kind, backward) per pair.

    Every moving pair turns or slides about nearly the same axis, so pairs
    run forward or backward along it and their signed sums can cancel.
    """
    rng = np.random.default_rng(seed)
    axis, position = unit(rng.normal(size=3)), rng.normal(size=3)
    frames = [rng.normal(size=(8, 3))]
    for kind, backward in steps:
        d = unit(axis + rng.normal(0.0, 0.05, size=3)) * (-1.0 if backward else 1.0)
        if kind == STILL:
            step = RigidTransform(np.eye(3), np.zeros(3))
        elif kind == TYPE_T:
            step = RigidTransform(np.eye(3), d * rng.uniform(0.02, 0.3))
        else:
            step = rotation_about_axis(d, position, rng.uniform(2.0, 40.0))
            if kind == TYPE_TR:
                step.translation = step.translation + d * rng.uniform(0.01, 0.2) * rng.choice([-1.0, 1.0])
        frames.append(step.apply(frames[-1]))
    return np.stack(frames)


def _assert_matches_two_path_oracle(frames) -> tuple:
    got = _fit_bytes(fit_sequence, frames)[:3]
    assert got == _fit_bytes(oracles.fit_sequence, frames)[:3]
    return got


@pytest.mark.parametrize("steps, tau, flipped, tied", [
    ([(STILL, False), (TYPE_R, False), (STILL, False)], TYPE_R, False, False),
    ([(TYPE_T, False), (TYPE_R, True)], TYPE_R, False, True),
    ([(TYPE_R, False), (TYPE_R, True), (TYPE_R, True), (TYPE_R, True)], TYPE_R, True, False),
    ([(TYPE_T, False), (TYPE_T, True), (TYPE_T, True), (STILL, False)], TYPE_T, True, False),
    ([(TYPE_TR, False), (TYPE_TR, True), (TYPE_TR, True), (TYPE_TR, True)], TYPE_TR, True, False),
], ids=["still_pairs", "tied_votes", "negative_angle_sum", "negative_slide_sum", "negative_screw_sum"])
def test_fit_sequence_matches_two_path_oracle_cases(steps, tau, flipped, tied):
    frames = _stepped_frames(5, steps)
    got = _assert_matches_two_path_oracle(frames)
    fit = fit_sequence(frames)
    assert fit.spec.tau == tau and (FLAG_LOW_CONFIDENCE in fit.flags) == tied
    # a negative sum turns the axis against the first kept pair's
    pairs = [oracles.classify_transform(rigid_register(a, b)) for a, b in zip(frames, frames[1:])]
    first = next(m for m in pairs if m and (m.tau == TYPE_T) == (tau == TYPE_T))
    assert (np.dot(fit.spec.direction, first.direction) < 0.0) == flipped
    assert got[0] == spec_bytes(fit.spec)


def test_fit_sequence_matches_two_path_oracle_when_still():
    assert _assert_matches_two_path_oracle(_stepped_frames(5, [(STILL, False), (STILL, True)])) == (None,)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16),
       steps=st.lists(st.tuples(st.sampled_from([STILL, TYPE_T, TYPE_R, TYPE_TR]), st.booleans()),
                      min_size=1, max_size=6))
@example(seed=1, steps=[(TYPE_T, True), (TYPE_TR, False), (TYPE_R, True)])
def test_fit_sequence_matches_two_path_oracle_bytes(seed, steps):
    _assert_matches_two_path_oracle(_stepped_frames(seed, steps))
