"""Metric checks, including exact agreement with the enumerated AP oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partmotion.errors import ConfigError
from partmotion.geom import TYPE_R, TYPE_T, TYPE_TR, MobilitySpec
from partmotion.metrics import (
    MobilityEval,
    ShapeAPRecord,
    angle_error,
    cluster_confidence,
    evaluate_mobility,
    match_moving_parts,
    pooled_average_precision,
    position_error,
    prediction_matches,
    summarize,
)

import oracles
from oracles import brute_average_precision


def spec_t(direction=(0.0, 1.0, 0.0)):
    return MobilitySpec(TYPE_T, np.array(direction, float), None, (0.0, 0.3))


def spec_r(direction=(0.0, 0.0, 1.0), position=(0.0, 0.0, 0.0)):
    return MobilitySpec(TYPE_R, np.array(direction, float), np.array(position, float), (0.0, 90.0))


def test_angle_error_basics():
    z = np.array([0.0, 0.0, 1.0])
    assert angle_error(z, z) == 0.0
    assert angle_error(z, -z) == 0.0  # opposite sign is the same axis line
    assert np.isclose(angle_error(z, np.array([1.0, 0.0, 0.0])), np.pi / 2)
    assert np.isclose(angle_error(z, np.array([0.0, 1.0, 1.0])), np.pi / 4)
    assert np.isclose(angle_error(3.0 * z, np.array([0.0, 2.0, 2.0])), np.pi / 4)


def test_position_error_measures_line_distance():
    d = np.array([0.0, 0.0, 1.0])
    x_gt = np.array([0.3, 0.0, 0.0])
    assert np.isclose(position_error(np.zeros(3), d, x_gt), 0.3)
    # shifting the predicted point along its own axis changes nothing
    assert np.isclose(position_error(np.array([0.0, 0.0, 5.0]), d, x_gt), 0.3)
    assert position_error(np.array([9.0, 0.0, 0.0]), d, x_gt) == 1.0  # clipped
    assert position_error(x_gt, d, x_gt) == 0.0


def test_evaluate_mobility_matched():
    ev = evaluate_mobility(spec_r(), spec_r(position=(0.1, 0.0, 0.0)))
    assert ev.e_type == 0.0 and ev.e_angle == 0.0
    assert np.isclose(ev.e_dist, 0.1)
    # the same axis with the wrong type costs the type term only
    screw = MobilitySpec(TYPE_TR, np.array([0.0, 0.0, 1.0]), np.zeros(3), (0.0, 90.0), (0.0, 0.1))
    ev = evaluate_mobility(screw, spec_r())
    assert (ev.e_type, ev.e_angle, ev.e_dist) == (1.0, 0.0, 0.0)


def test_evaluate_mobility_translation_has_no_position():
    ev = evaluate_mobility(spec_t(), spec_t())
    assert ev.e_dist is None
    # one rotational side is not enough either
    assert evaluate_mobility(spec_t(), spec_r()).e_dist is None
    assert evaluate_mobility(spec_r(), spec_t()).e_dist is None


def test_evaluate_mobility_worst_case():
    worst_r = evaluate_mobility(None, spec_r())
    assert (worst_r.e_type, worst_r.e_angle, worst_r.e_dist) == (1.0, np.pi / 2, 1.0)
    worst_t = evaluate_mobility(None, spec_t())
    assert worst_t.e_dist is None


def test_iou_and_part_matching():
    gt = np.array([0, 0, 1, 1, 1, 2, 2, 2, 2, 0])
    pred = np.array([0, 0, 1, 1, 0, 2, 2, 2, 3, 0])
    matches = match_moving_parts(pred, gt)
    assert [(m.gt_part, m.pred_part) for m in matches] == [(1, 1), (2, 2)]
    assert np.isclose(matches[0].iou, 2 / 3)
    assert np.isclose(matches[1].iou, 3 / 4)


def test_part_matching_no_overlap():
    gt = np.array([1, 1, 0, 0])
    pred = np.array([0, 0, 1, 1])
    (match,) = match_moving_parts(pred, gt)
    assert match.pred_part is None and match.iou == 0.0


def test_prediction_matching_is_greedy_by_confidence():
    gt = np.array([1] * 6 + [0] * 4)
    pred = np.array([1] * 4 + [2] * 2 + [0] * 4)
    # part 2 has higher confidence and claims the only gt part first
    rec = prediction_matches(pred, gt, confidences={1: 0.4, 2: 0.9})
    assert rec.n_gt == 1
    assert rec.matched[0] == (0.9, 2 / 6)
    assert rec.matched[1] == (0.4, 0.0)


def test_misaligned_labels_are_a_config_error():
    pred, gt = np.array([0, 1, 1]), np.array([0, 1])
    with pytest.raises(ConfigError, match="align"):
        prediction_matches(pred, gt, {1: 1.0})
    with pytest.raises(ConfigError, match="align"):
        match_moving_parts(pred, gt)


@st.composite
def labelled_shapes(draw):
    """Predicted and ground truth labels of one cloud, with part confidences.

    Small clouds and few ids make tied IoUs common, the drawn id ranges leave
    gaps or no moving part on either side, and confidences come from three
    values so that they tie too. Ids stay below 8: there the reference's set
    of free parts iterates in ascending order, the tie rule the package states.
    """
    n = draw(st.integers(0, 24))
    pred = draw(st.lists(st.integers(0, draw(st.integers(0, 7))), min_size=n, max_size=n))
    gt = draw(st.lists(st.integers(0, draw(st.integers(0, 7))), min_size=n, max_size=n))
    confidences = {p: draw(st.sampled_from([0.25, 0.5, 1.0])) for p in set(pred) - {0}}
    return np.array(pred, dtype=np.int64), np.array(gt, dtype=np.int64), confidences


@settings(max_examples=300, deadline=None)
@given(st.lists(labelled_shapes(), min_size=1, max_size=4))
def test_scorer_matches_reference_bit_for_bit(shapes):
    ours, reference = [], []
    for pred, gt, confidences in shapes:
        fields = [[(m.gt_part, m.pred_part, m.iou.hex()) for m in matcher(pred, gt)]
                  for matcher in (match_moving_parts, oracles.match_moving_parts)]
        assert fields[0] == fields[1]
        ours.append(prediction_matches(pred, gt, confidences))
        reference.append(oracles.prediction_matches(pred, gt, confidences))
        assert ours[-1].n_gt == reference[-1].n_gt
        assert [(c, v.hex()) for c, v in ours[-1].matched] == [(c, v.hex()) for c, v in reference[-1].matched]
    assert pooled_average_precision(ours).hex() == oracles.pooled_average_precision(reference).hex()


def canonical_fixture():
    """Three predicted parts hitting IoUs 0.96, 0.7, 0.4 exactly."""
    gt = np.zeros(400, dtype=np.int64)
    pred = np.zeros(400, dtype=np.int64)
    gt[0:100] = 1
    gt[100:200] = 2
    gt[200:300] = 3
    pred[0:96] = 1
    pred[100:170] = 2
    pred[200:240] = 3
    return pred, gt


def test_pooled_ap_matches_oracle_on_canonical_fixture():
    pred, gt = canonical_fixture()
    rec = prediction_matches(pred, gt, {1: 1.0, 2: 1.0, 3: 1.0})
    assert sorted(v for _, v in rec.matched) == pytest.approx([0.4, 0.7, 0.96])
    ap = pooled_average_precision([rec])
    oracle = brute_average_precision([(rec.matched, rec.n_gt)])
    assert abs(ap - oracle) < 1e-12
    assert abs(summarize([], [rec]).e_seg - (1.0 - oracle)) < 1e-12


def test_perfect_segmentation_scores_one():
    gt = np.array([0, 1, 1, 2, 2, 2])
    rec = prediction_matches(gt.copy(), gt, {1: 1.0, 2: 1.0})
    assert pooled_average_precision([rec]) == 1.0
    assert summarize([], [rec]).e_seg == 0.0


def test_empty_predictions_score_zero():
    rec = prediction_matches(np.zeros(5, dtype=int), np.array([0, 1, 1, 0, 0]), {})
    assert rec.matched == []
    assert pooled_average_precision([rec]) == 0.0


@st.composite
def one_to_one_records(draw):
    """Shape records honoring the one-to-one matching invariant."""
    shapes = []
    for _ in range(draw(st.integers(1, 5))):
        n_gt = draw(st.integers(1, 5))
        n_hits = draw(st.integers(0, n_gt))
        matched = [
            (draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0)))
            for _ in range(n_hits)
        ]
        matched += [
            (draw(st.floats(0.01, 1.0)), 0.0) for _ in range(draw(st.integers(0, 3)))
        ]
        shapes.append((matched, n_gt))
    return shapes


@settings(max_examples=60, deadline=None)
@given(one_to_one_records())
def test_pooled_ap_equals_oracle_and_stays_bounded(records):
    ours = pooled_average_precision(
        [ShapeAPRecord(list(matched), n_gt) for matched, n_gt in records]
    )
    oracle = brute_average_precision(records)
    assert abs(ours - oracle) < 1e-12
    assert 0.0 <= ours <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(one_to_one_records(), st.integers(1, 4))
def test_missed_parts_dilute_ap_by_the_exact_gt_ratio(records, extra_gt):
    # Adding a shape with no predictions leaves every precision untouched and
    # scales every recall by the same factor, so the pooled score scales too.
    base = pooled_average_precision(
        [ShapeAPRecord(list(matched), n_gt) for matched, n_gt in records]
    )
    total_gt = sum(n_gt for _, n_gt in records)
    diluted = pooled_average_precision(
        [ShapeAPRecord(list(matched), n_gt) for matched, n_gt in records]
        + [ShapeAPRecord([], extra_gt)]
    )
    assert diluted == pytest.approx(base * total_gt / (total_gt + extra_gt), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(one_to_one_records(), st.integers(2, 3), st.randoms(use_true_random=False))
def test_pooling_ignores_shape_order_and_replication(records, copies, rng):
    base = pooled_average_precision(
        [ShapeAPRecord(list(matched), n_gt) for matched, n_gt in records]
    )
    pool = [ShapeAPRecord(list(matched), n_gt) for matched, n_gt in records] * copies
    rng.shuffle(pool)
    assert pooled_average_precision(pool) == pytest.approx(base, abs=1e-12)


def test_ap_of_empty_test_set_is_an_error():
    with pytest.raises(ConfigError):
        pooled_average_precision([])


def test_duplicate_positive_matches_are_rejected():
    with pytest.raises(ConfigError):
        ShapeAPRecord([(1.0, 1.0), (1.0, 1.0)], 1)


def test_cluster_confidence():
    assert cluster_confidence(np.zeros((4, 4))) == 1.0
    d = np.ones((3, 3)) - np.eye(3)
    assert np.isclose(cluster_confidence(d), 0.5)
    assert cluster_confidence(np.zeros((1, 1))) == 1.0


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 300), st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_cluster_confidence_matches_eye_mask_bytes(n, seed, decimals):
    # a change in which entries are summed, or in what order, shows in the bytes
    pts = np.random.default_rng(seed).normal(size=(n, 16))
    d = np.round(np.linalg.norm(pts[:, None] - pts[None], axis=2), decimals)
    assert cluster_confidence(d) == oracles.cluster_confidence(d)


def test_summarize_means_and_pooling():
    evals = [
        MobilityEval(0.0, 0.2, 0.5),
        MobilityEval(1.0, 0.4, None),
    ]
    pred, gt = canonical_fixture()
    records = [prediction_matches(pred, gt, {1: 1.0, 2: 1.0, 3: 1.0})]
    report = summarize(evals, records)
    assert np.isclose(report.e_type, 0.5)
    assert np.isclose(report.e_angle, 0.3)
    assert np.isclose(report.e_dist, 0.5)
    assert report.n_parts == 2 and report.n_shapes == 1
    assert np.isclose(report.e_seg, 1.0 - pooled_average_precision(records))
