"""Training, the prediction pipeline, and the evaluation harness.

All three models (the displacement net, the mobility regressor, and the
direct baseline) are fitted by one optimizer loop, `_fit`. Training is
single-worker and deterministic given the config seed: each model's init
and shuffle order draw from their own RNG lane of it, and every downstream
prediction derives from them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import diffcore as dc
from .cluster import dbscan_labels, default_min_pts
from .config import RunConfig, load_config
from .datagen import ShapeRecord, TrainingInstance, make_instances
from .errors import ConfigError, DataError, NumericError
from .geom import TYPE_T, TYPE_TR, MobilitySpec, moved_spec, normalize_to_unit_box, unit
from .losses import LossBreakdown, knn_radii, l_mob, l_seg_obj, segmentation_loss, total_motion_loss
from .metrics import (
    MetricsReport,
    MobilityEval,
    ShapeAPRecord,
    cluster_confidence,
    evaluate_mobility,
    match_moving_parts,
    prediction_matches,
    summarize,
)
from .mobfit import fit_from_displacements
from .nets import (
    DirectBaseline,
    DisplacementNet,
    EncoderPlan,
    MobilityRegressor,
    PredictionNode,
    ShapePrediction,
    build_plan,
)

# rigid fits worse than this mean squared pair error are treated as
# non-parametric motion and no mobility is reported for the part; generated
# umbrella sequences sit at 9e-4 and above, rigid categories at ~1e-32
NONRIGID_RESIDUAL = 5e-4

MIN_PART_POINTS = 32  # smallest component the recursion re-runs the predictor on

LogFn = Callable[[str], None]


# ---------------------------------------------------------------------------
# instance preparation


@dataclass
class PreparedInstance(TrainingInstance):
    """One training instance with its plan, moving points and the ground truth of l_mov.

    All instances of a shape view one read-only buffer of each of gt_moving and gt_radii.
    """

    plan: EncoderPlan
    mov_idx: np.ndarray           # (M,) points with labels > 0
    gt_moving: np.ndarray         # (n_maps, M, 3) frames[min(t-1+j, n-1)][mov_idx] for maps j = 1..n_maps
    gt_radii: np.ndarray          # (n_maps, M) knn_radii of gt_moving at k_density
    k_density: int


def check_dataset_matches(config: RunConfig, records: Sequence[ShapeRecord]) -> None:
    """DataError unless every shape has the config's point and frame counts."""
    for rec in records:
        n_frames, n_points = rec.frames.shape[:2]
        for key, found, want in (("n_points", n_points, config.n_points), ("n_frames", n_frames, config.n_frames)):
            if found != want:
                raise DataError(f"dataset shape {rec.shape_id} {key}={found} does not match config {key}={want}")


def prepare_instances(records: Sequence[ShapeRecord], config: RunConfig) -> list[PreparedInstance]:
    """Expand shapes into per-state instances and precompute their plans and l_mov ground truth.

    Plans depend only on the points and the network geometry, and radii on
    config.weights.k_density, so one pass here is shared by every training
    run over the same dataset with that k_density. The shapes must have the
    config's point and frame counts, since load_pipeline rebuilds the saved
    networks from the config.
    """
    check_dataset_matches(config, records)
    k = config.weights.k_density
    out = []
    for rec in records:
        n, mov_idx = len(rec.frames), np.flatnonzero(rec.labels > 0)  # one per shape: its instances share labels
        # states 2..n once each, then the last state held, as make_instances pads its maps
        states, held = rec.frames[1:, mov_idx], np.minimum(np.arange(2 * n - 1), n - 2)
        gt_moving, gt_radii = states[held], np.stack([knn_radii(cloud, k) for cloud in states])[held]
        gt_moving.flags.writeable = gt_radii.flags.writeable = False
        for inst in make_instances(rec):
            window = slice(inst.t - 1, inst.t - 1 + n)
            out.append(PreparedInstance(**vars(inst), plan=build_plan(inst.points, config.net), mov_idx=mov_idx,
                                        gt_moving=gt_moving[window], gt_radii=gt_radii[window], k_density=k))
    return out


# ---------------------------------------------------------------------------
# the optimizer loop


def _fit(
    samples: Sequence,
    params: dict[str, dc.Node],
    loss_fn: Callable[[object], LossBreakdown],
    config: RunConfig,
    lane: int,
    epochs: int,
    log: Optional[LogFn],
    prefix: str = "",
    log_every: int = 0,
) -> list[str]:
    """Adam over `epochs` passes of `samples`; returns the loss log lines.

    Each pass visits the samples in an order drawn from the RNG lane
    (config.seed, lane). Every line goes to `log` as it is made. A step
    line is made every `log_every` steps, none when it is 0.
    """
    opt = dc.Adam(
        params,
        lr=config.lr,
        betas=(config.beta1, config.beta2),
        eps=config.adam_eps,
        max_grad_norm=config.max_grad_norm,
    )
    shuffle = np.random.default_rng([config.seed, lane])
    lines: list[str] = []

    def emit(line: str) -> None:
        lines.append(line)
        if log:
            log(line)

    step = 0
    for epoch in range(epochs):
        losses = []
        for idx in shuffle.permutation(len(samples)):
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # a diverging step raises NumericError instead
                    breakdown = loss_fn(samples[int(idx)])
                    value = float(breakdown.total.value)
                    if not np.isfinite(value):
                        raise NumericError("non-finite loss value")
                    opt.zero_grad()
                    dc.backward(breakdown.total)
                    opt.step()
            except NumericError as exc:
                raise NumericError(f"training aborted at step {step}: {exc}") from exc
            terms, breakdown = breakdown.terms, None  # drop the step's graph before the next is built
            losses.append(value)
            if log_every and step % log_every == 0:
                parts = " ".join(f"{k} {v:.6f}" for k, v in terms.items())
                emit(f"step {step} epoch {epoch} loss {value:.6f} {parts}")
            step += 1
        emit(f"{prefix}epoch {epoch} mean_loss {float(np.mean(losses)):.6f}")
    return lines


# ---------------------------------------------------------------------------
# displacement network training


def _check_frame_count(instances: Sequence[PreparedInstance], config: RunConfig) -> None:
    """ConfigError unless every instance has config.n_frames maps, the count load_pipeline rebuilds."""
    if any(inst.targets.shape[0] != config.n_frames for inst in instances):
        raise ConfigError(f"instances were prepared for another frame count than n_frames={config.n_frames}")


def _instance_loss(net: DisplacementNet, inst: PreparedInstance, config: RunConfig):
    maps = net.hallucinate(inst.plan)
    segmentation = None
    if not config.no_seg:
        p0 = np.zeros_like(inst.points) if config.no_p0 else inst.points
        seg_logits, feats = net.segment(p0, maps.value.reshape(inst.targets.shape))
        dist_mov = dc.pairwise_row_distances(dc.gather_rows(feats, inst.mov_idx))
        segmentation = segmentation_loss(seg_logits, dist_mov, inst.labels, config.weights)
    return total_motion_loss(maps, inst.targets, inst.points, inst.labels, inst.gt_moving, inst.gt_radii,
                             segmentation, inst.n_true, config.weights,
                             no_geom=config.no_geom, no_disp=config.no_disp, no_mot=config.no_mot)


def train_displacement(
    instances: Sequence[PreparedInstance],
    config: RunConfig,
    log: Optional[LogFn] = None,
) -> tuple[DisplacementNet, list[str]]:
    """Fit the displacement net; returns it with the loss log lines."""
    if not instances:
        raise DataError("no training instances")
    if any(inst.k_density != config.weights.k_density for inst in instances):
        raise ConfigError(f"instances were prepared for another k_density than {config.weights.k_density}")
    _check_frame_count(instances, config)
    net = DisplacementNet(
        config.n_frames, np.random.default_rng([config.seed, 0]), config.net, use_rnn=not config.no_rnn
    )
    return net, _fit(instances, net.params, lambda inst: _instance_loss(net, inst, config),
                     config, 1, config.epochs, log, log_every=config.log_every)


# ---------------------------------------------------------------------------
# mobility regressor and baseline training (one sample per ground-truth part)


def _start_parts(instances: Sequence[PreparedInstance]) -> list[tuple[PreparedInstance, int, MobilitySpec]]:
    """(instance, part id, spec) of every moving part of a start state with known mobility."""
    return [(inst, part_id, spec) for inst in instances if inst.t == 1 and inst.specs is not None
            for part_id, spec in enumerate(inst.specs, start=1)]


def train_mobility(
    instances: Sequence[PreparedInstance],
    config: RunConfig,
    log: Optional[LogFn] = None,
) -> tuple[Optional[MobilityRegressor], list[str]]:
    """Fit the mobility regressor on ground-truth maps.

    Returns None when no instance carries mobility parameters (purely
    non-parametric corpora such as umbrella-only training).
    """
    _check_frame_count(instances, config)
    samples = []
    for inst, part_id, spec in _start_parts(instances):  # each part's input is built once
        member = np.flatnonzero(inst.labels == part_id)
        samples.append((inst.plan, MobilityRegressor.component_channels(inst.points, inst.targets, member), spec))
    if not samples:
        return None, []
    reg = MobilityRegressor(config.n_frames, np.random.default_rng([config.seed, 2]), config.net)

    def loss_fn(sample) -> LossBreakdown:
        plan, channels, spec = sample
        return LossBreakdown(l_mob(*reg.forward(plan, channels), spec))

    return reg, _fit(samples, reg.params, loss_fn, config, 3, config.mobility_epochs, log, "mobility ")


def train_baseline(
    instances: Sequence[PreparedInstance],
    config: RunConfig,
    log: Optional[LogFn] = None,
) -> tuple[DirectBaseline, list[str]]:
    """Fit the direct baseline: static cloud in, segmentation plus one mobility."""
    samples = _start_parts(instances)
    if not samples:
        raise DataError("baseline training needs shapes with mobility parameters")
    baseline = DirectBaseline(np.random.default_rng([config.seed, 4]), config.net)

    def loss_fn(sample) -> LossBreakdown:
        inst, part_id, spec = sample
        seg, type_logits, axis_out = baseline.forward(inst.plan)
        return LossBreakdown(dc.add(l_seg_obj(seg, inst.labels == part_id), l_mob(type_logits, axis_out, spec)))

    return baseline, _fit(
        samples, baseline.params, loss_fn, config, 5, config.mobility_epochs, log,
        "baseline ",
    )


# ---------------------------------------------------------------------------
# prediction pipeline


def _compose_spec(
    tau: str, d: np.ndarray, x: np.ndarray, part_maps: np.ndarray,
    fit_spec: Optional[MobilitySpec],
) -> MobilitySpec:
    """Regressor (type, axis) plus a motion range read off the maps; the axis
    points along the mean step (T) or, keeping its line, along mobfit's axis,
    about which mobfit measured the range it gives R and TR."""
    d = unit(d)
    if tau == TYPE_T:
        span = float((part_maps.mean(axis=1) @ d).sum())
        if span < 0.0:
            d, span = -d, -span
        return MobilitySpec(TYPE_T, d, None, (0.0, span))
    range_ = (0.0, 0.0)
    if fit_spec is not None and fit_spec.tau != TYPE_T:
        range_ = fit_spec.range_
        if np.dot(d, fit_spec.direction) < 0.0:
            d = -d
    slide = None
    if tau == TYPE_TR:
        slide = (0.0, 0.0)
        if fit_spec is not None and fit_spec.tau == TYPE_TR:
            slide = fit_spec.slide_range
    return MobilitySpec(tau, d, x, range_, slide)


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericError(f"prediction produced non-finite {what}")


@dataclass
class Pipeline:
    """A trained model bundle exposing flat shape prediction."""

    config: RunConfig
    net: Optional[DisplacementNet] = None
    regressor: Optional[MobilityRegressor] = None
    baseline: Optional[DirectBaseline] = None

    def predict(self, points: np.ndarray) -> ShapePrediction:
        points = np.asarray(points, dtype=np.float64)
        plan = build_plan(points, self.config.net)
        if self.baseline is not None:
            return self._predict_baseline(plan)
        if self.net is None:
            raise ConfigError("pipeline has no displacement network")
        n = points.shape[0]
        maps = self.net.hallucinate(plan).value.reshape(self.net.n_maps, n, 3)
        _require_finite(maps, "displacement maps")
        labels, confidences = np.zeros(n, dtype=np.int64), {}
        if self.config.no_seg:
            # trained without the segmentation terms: threshold the motion
            labels[np.linalg.norm(maps, axis=2).mean(axis=0) > self.config.theta_stop] = 1
            confidences = {1: 1.0} if labels.any() else {}
        else:
            p0 = np.zeros_like(points) if self.config.no_p0 else points
            seg_logits, feat_nodes = self.net.segment(p0, maps)
            _require_finite(seg_logits.value, "segmentation logits")
            _require_finite(feat_nodes.value, "clustering features")
            mov_idx = np.flatnonzero(seg_logits.value.argmax(axis=1) == 1)
            if mov_idx.size:
                dist = dc.pairwise_row_distances(feat_nodes.value[mov_idx]).value
                # cluster at half the contrastive margin the features were trained with
                ids = dbscan_labels(dist, self.config.weights.margin / 2, default_min_pts(mov_idx.size))
                labels[mov_idx] = ids + 1
                confidences = {
                    int(c) + 1: cluster_confidence(dist[ids == c][:, ids == c])
                    for c in range(int(ids.max()) + 1)
                }
        mobilities: dict[int, Optional[MobilitySpec]] = {}
        fits: dict[int, Optional[MobilitySpec]] = {}
        for part in sorted(int(p) for p in np.unique(labels) if p != 0):
            member = np.flatnonzero(labels == part)
            mobilities[part], fits[part] = self._part_mobility(plan, maps, member)
        return ShapePrediction(maps, labels, mobilities, confidences, fits)

    def predict_tree(self, points: np.ndarray, depth: int) -> PredictionNode:
        """Predict, then predict again inside each moving component.

        Component points are re-centered and scaled to the unit box before the
        recursive call. Each level maps the whole subtree it gets back through
        its (scale, center) and member indices, so every node's indices and
        mobilities are in the input cloud's frame; maps stay in the frame the
        predictor saw. Recursion stops at the depth limit, when a component's
        predicted motion is already below the config's theta_stop, and at
        components smaller than MIN_PART_POINTS or than the stage-1 centroid
        count, which the encoder cannot plan.
        """
        if depth < 1:
            raise ConfigError("recursion depth must be at least 1")
        points = np.asarray(points, dtype=np.float64)
        prediction = self.predict(points)
        node = PredictionNode(np.arange(points.shape[0]), prediction)
        if depth == 1 or prediction.mean_step < self.config.theta_stop:
            return node
        floor = max(MIN_PART_POINTS, self.config.net.sa_stages[0][0])
        for part_id in sorted(prediction.mobilities):
            member_idx = np.flatnonzero(prediction.labels == part_id)
            if member_idx.size < floor:
                continue
            normed, scale, center = normalize_to_unit_box(points[member_idx])
            child = self.predict_tree(normed, depth - 1)
            subtree = [child]
            for sub in subtree:  # breadth first: the loop reaches what it appends
                subtree += sub.children
                sub.indices = member_idx[sub.indices]
                pred = sub.prediction
                pred.mobilities = {p: s and moved_spec(s, scale, center) for p, s in pred.mobilities.items()}
                pred.fits = {p: s and moved_spec(s, scale, center) for p, s in pred.fits.items()}
            node.children.append(child)
        return node

    def _part_mobility(self, plan: EncoderPlan, maps: np.ndarray, member: np.ndarray):
        """(regressor spec, mobfit cross-check spec) for one component.

        A component mobfit cannot fit (fewer than three points, collinear
        points, a rotation it cannot take an axis from) has no cross-check
        spec; the regressor still reads its mobility.
        """
        fit_spec = None
        try:
            fit = fit_from_displacements(plan.points[member], maps[:, member])
        except DataError:
            fit = None
        if fit is not None and fit.residual <= NONRIGID_RESIDUAL:
            fit_spec = fit.spec
        if self.regressor is None or self.config.no_mob_net:
            return fit_spec, fit_spec
        channels = MobilityRegressor.component_channels(plan.points, maps, member)
        tau, d, x = self.regressor.predict(plan, channels)
        _require_finite(np.concatenate([d, x]), "mobility regressor output")
        return _compose_spec(tau, d, x, maps[:, member], fit_spec), fit_spec

    def _predict_baseline(self, plan: EncoderPlan) -> ShapePrediction:
        moving, tau, d, x = self.baseline.predict(plan)
        labels = moving.astype(np.int64)
        maps = np.zeros((self.config.n_frames, labels.size, 3))
        if not labels.any():
            return ShapePrediction(maps, labels, {}, {}, {})
        # still maps: the range reads (0, 0) for every type
        spec = _compose_spec(tau, d, x, maps[:, moving], None)
        return ShapePrediction(maps, labels, {1: spec}, {1: 1.0}, {1: None})


# ---------------------------------------------------------------------------
# checkpointing

DISP_PARAMS = "displacement.params"
MOB_PARAMS = "mobility.params"
BASE_PARAMS = "baseline.params"


def save_pipeline(out_dir: str | Path, pipeline: Pipeline) -> Path:
    """Write the run's config.json and the parameters of each network it holds.

    config.json is the only description of the networks: load_pipeline
    rebuilds them from it. The parameter file of each network the pipeline
    lacks is removed, so an earlier run into out_dir is never loaded with it.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.config.save(out / "config.json")
    models = {BASE_PARAMS: pipeline.baseline, DISP_PARAMS: pipeline.net, MOB_PARAMS: pipeline.regressor}
    for name, model in models.items():
        if model is not None:
            dc.save_params(out / name, model.params)
        else:
            (out / name).unlink(missing_ok=True)
    return out


def load_pipeline(run_dir: str | Path) -> Pipeline:
    """Rebuild a Pipeline from a run directory written by save_pipeline.

    The networks are built from the run's config.json: n_frames maps, an
    RNN unless no_rnn, the baseline instead when basenet, and the widths of
    net. A regressor is loaded when mobility.params exists. A missing
    config.json is a DataError, a malformed one a ConfigError, and
    parameters that do not fit the networks a DataError naming their file.
    """
    run = Path(run_dir)
    if not (run / "config.json").exists():
        raise DataError(f"no config.json under {run}")
    config = load_config(run / "config.json")
    rng = np.random.default_rng(0)    # values are overwritten by the checkpoint
    if config.basenet:
        baseline = DirectBaseline(rng, config.net)
        dc.load_into(baseline.params, run / BASE_PARAMS)
        return Pipeline(config, baseline=baseline)
    net = DisplacementNet(config.n_frames, rng, config.net, use_rnn=not config.no_rnn)
    dc.load_into(net.params, run / DISP_PARAMS)
    regressor = None
    if (run / MOB_PARAMS).exists():
        regressor = MobilityRegressor(config.n_frames, rng, config.net)
        dc.load_into(regressor.params, run / MOB_PARAMS)
    return Pipeline(config, net=net, regressor=regressor)


def run_training(
    config: RunConfig,
    records: Sequence[ShapeRecord],
    out_dir: Optional[str | Path] = None,
    log: Optional[LogFn] = None,
    instances: Optional[Sequence[PreparedInstance]] = None,
) -> Pipeline:
    """Train whatever the config asks for and optionally persist the run."""
    if instances is None:
        instances = prepare_instances(records, config)
    if out_dir is not None:  # a bad out_dir fails before training
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    if config.basenet:
        baseline, lines = train_baseline(instances, config, log)
        pipeline = Pipeline(config, baseline=baseline)
    else:
        net, lines = train_displacement(instances, config, log)
        regressor = None
        if not config.no_mob_net:
            regressor, mob_lines = train_mobility(instances, config, log)
            lines += mob_lines
        pipeline = Pipeline(config, net=net, regressor=regressor)
    if out_dir is not None:
        out = save_pipeline(out_dir, pipeline)
        (out / "loss.log").write_text("".join(line + "\n" for line in lines))
    return pipeline


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class ShapeEval:
    """Scores for one test shape."""

    shape_id: str
    ap_record: ShapeAPRecord
    net_evals: list[MobilityEval]
    fit_evals: list[MobilityEval]


@dataclass
class EvalResult:
    """Test-set metrics, primary and mobfit cross-check."""

    report: MetricsReport
    fit_report: MetricsReport
    shapes: list[ShapeEval] = field(default_factory=list)


def _eval_result(shapes: list[ShapeEval]) -> EvalResult:
    """Pool the per-shape scores into the primary and cross-check reports."""
    if not shapes:
        raise DataError("no shapes to evaluate")
    ap_records = [s.ap_record for s in shapes]
    return EvalResult(
        report=summarize([e for s in shapes for e in s.net_evals], ap_records),
        fit_report=summarize([e for s in shapes for e in s.fit_evals], ap_records),
        shapes=shapes,
    )


def _eval_shape(rec: ShapeRecord, pred: ShapePrediction) -> ShapeEval:
    """Score one prediction for the start frame of a test shape."""
    ap_record = prediction_matches(pred.labels, rec.labels, pred.confidences)
    net_evals: list[MobilityEval] = []
    fit_evals: list[MobilityEval] = []
    if rec.specs is not None:
        matches = match_moving_parts(pred.labels, rec.labels)
        for m, gt_spec in zip(matches, rec.specs):
            pred_net = pred.mobilities.get(m.pred_part) if m.pred_part is not None else None
            pred_fit = pred.fits.get(m.pred_part) if m.pred_part is not None else None
            net_evals.append(evaluate_mobility(pred_net, gt_spec))
            fit_evals.append(evaluate_mobility(pred_fit, gt_spec))
    return ShapeEval(rec.shape_id, ap_record, net_evals, fit_evals)


def evaluate_model(records: Sequence[ShapeRecord], pipeline: Pipeline) -> EvalResult:
    """Score a test split, one shape after another."""
    return _eval_result([_eval_shape(r, pipeline.predict(r.frames[0])) for r in records])


def evaluate_oracle(records: Sequence[ShapeRecord]) -> EvalResult:
    """Score the ground truth as the prediction; the end-to-end identity check."""
    shapes = []
    for rec in records:
        mobilities = {} if rec.specs is None else dict(enumerate(rec.specs, start=1))
        confidences = {int(p): 1.0 for p in np.unique(rec.labels) if p != 0}
        pred = ShapePrediction(rec.displacement_maps, rec.labels.copy(), mobilities, confidences,
                               fits=mobilities)
        shapes.append(_eval_shape(rec, pred))
    return _eval_result(shapes)
