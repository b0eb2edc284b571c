"""Mobility extraction checks: synthetic transforms and generated sequences."""
import numpy as np
import pytest

from partmotion.datagen import NON_PARAMETRIC, TEMPLATE_NAMES, generate_shape, make_sequence
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
    FittedMobility,
    _kabsch,
    _range_flags,
    classify_transform,
    fit_from_displacements,
    fit_sequence,
    rotation_angle_deg,
)

import oracles
from microfixtures import spec_bytes
from oracles import registration_residual, rotation_matrix

PARAMETRIC = [c for c in TEMPLATE_NAMES if c not in NON_PARAMETRIC]


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


def test_classify_pure_translation():
    motion = classify_transform(RigidTransform(np.eye(3), np.array([0.0, 0.2, 0.0])))
    assert motion.tau == TYPE_T
    assert np.allclose(motion.direction, [0.0, 1.0, 0.0])
    assert np.isclose(motion.slide, 0.2)


def test_classify_still_returns_none():
    assert classify_transform(RigidTransform(np.eye(3), np.zeros(3))) is None


def test_classify_rotation_recovers_axis_and_position():
    d = unit(np.array([0.3, -0.5, 0.8]))
    x = np.array([0.2, 0.1, -0.3])
    tf = rotation_about_axis(d, x, 30.0)
    motion = classify_transform(tf)
    assert motion.tau == TYPE_R
    assert np.allclose(motion.direction, d, atol=1e-12)
    assert np.isclose(motion.angle_deg, 30.0, atol=1e-10)
    assert point_line_distance(motion.position, x, d) < 1e-10
    # reported position is the axis point closest to the origin
    assert abs(np.dot(motion.position, d)) < 1e-10


def test_classify_screw_splits_angle_and_pitch():
    d = np.array([0.0, 0.0, 1.0])
    tf = mobility_transform(MobilitySpec(TYPE_TR, d, np.array([0.1, 0.0, 0.0]), (0.0, 25.0), (0.0, 0.04)), 1.0)
    motion = classify_transform(tf)
    assert motion.tau == TYPE_TR
    assert np.isclose(motion.angle_deg, 25.0, atol=1e-10)
    assert np.isclose(motion.slide, 0.04, atol=1e-12)


def test_classification_floors():
    d = np.array([0.0, 0.0, 1.0])
    tiny_rot = rotation_about_axis(d, np.zeros(3), 0.2)
    shifted = RigidTransform(tiny_rot.rotation, tiny_rot.translation + np.array([0.0, 0.0, 0.1]))
    assert classify_transform(shifted).tau == TYPE_T  # angle under the floor
    small_pitch = mobility_transform(MobilitySpec(TYPE_TR, d, np.zeros(3), (0.0, 20.0), (0.0, 0.002)), 1.0)
    assert classify_transform(small_pitch).tau == TYPE_R  # pitch under the floor


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
    assert _range_flags(oracles.rigid_register(part, part + 0.3 * d), spec) == []
    # a composed span other than the summed one
    assert _range_flags(oracles.rigid_register(part, part + 0.2 * d), spec) == [FLAG_RANGE_INCONSISTENT]
    # rotating end state conflicts with a translation claim
    swung = rotation_about_axis(np.array([1.0, 0.0, 0.0]), np.zeros(3), 15.0).apply(part)
    assert _range_flags(oracles.rigid_register(part, swung), spec) == [FLAG_RANGE_INCONSISTENT]


def test_derive_range_rotation_sign():
    rng = np.random.default_rng(8)
    part = rng.normal(size=(25, 3)) + np.array([1.0, 0.0, 0.0])
    d = np.array([0.0, 0.0, 1.0])
    spec = MobilitySpec(TYPE_R, d, np.zeros(3), (0.0, 50.0))
    forward = rotation_about_axis(d, np.zeros(3), 50.0).apply(part)
    assert _range_flags(oracles.rigid_register(part, forward), spec) == []
    backward = rotation_about_axis(d, np.zeros(3), -50.0).apply(part)
    assert _range_flags(oracles.rigid_register(part, backward), spec) == [FLAG_RANGE_INCONSISTENT]
    # a composed rotation that vanished although the type is rotational
    assert _range_flags(oracles.rigid_register(part, part + 0.1 * d), spec) == [FLAG_RANGE_INCONSISTENT]


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


def test_rotation_angle_degenerate_guard():
    assert rotation_angle_deg(np.eye(3)) == 0.0
    with pytest.raises(DataError):
        classify_transform(
            RigidTransform(rotation_matrix(np.array([0.0, 0.0, 1.0]), np.pi), np.zeros(3))
        )


# ---------------------------------------------------------------------------
# batched registration against the per-pair reference, byte for byte


def _fit_bytes(fit_fn, frames) -> tuple:
    """Every field of a fit as raw bytes, and the composed first-to-last
    transform its range check got, or the DataError text it raised."""
    composed = []

    def watched(transform, spec):
        composed.append(transform.rotation.tobytes() + transform.translation.tobytes())
        return range_flags(transform, spec)

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
