"""Training, the prediction pipeline, and the evaluation harness.

All three models (the displacement net, the mobility regressor, and the
direct baseline) are fitted by one optimizer loop, `_fit`, which streams its
loss log lines through a `log` callback; only `run_training` keeps them, to
write the run's loss.log. Training is single-worker and deterministic given
the config seed: each model's init and shuffle order draw from their own RNG
lane of it, and every downstream prediction derives from them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import diffcore as dc
from .cluster import dbscan_labels, default_min_pts
from .config import NetConfig, RunConfig, load_config
from .datagen import ShapeRecord, TrainingInstance, make_instances
from .errors import ConfigError, DataError, NumericError
from .geom import TYPE_T, TYPE_TR, MobilitySpec, moved_spec, normalize_to_unit_box, unit
from .losses import knn_radii, l_mob, l_seg_obj, segmentation_loss, total_motion_loss
from .metrics import (
    MetricsReport,
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
    net: NetConfig                # the config.net, n_frames and weights.k_density it was prepared for
    n_frames: int
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

    Plans depend on the points and config.net, radii on config.weights.k_density. Each instance
    records both and n_frames, and the trainers reject it under a config that differs in any.
    The shapes must have the config's point and frame counts.
    """
    check_dataset_matches(config, records)
    k = config.weights.k_density
    prepared_for = dict(net=config.net, n_frames=config.n_frames, k_density=k)
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
                                        gt_moving=gt_moving[window], gt_radii=gt_radii[window], **prepared_for))
    return out


# ---------------------------------------------------------------------------
# the optimizer loop


def _fit(
    samples: Sequence,
    params: dict[str, dc.Node],
    loss_fn: Callable[[object], dict[str, dc.Node]],
    config: RunConfig,
    lane: int,
    epochs: int,
    log: Optional[LogFn],
    prefix: str = "",
    log_every: int = 0,
) -> None:
    """Adam over `epochs` passes of `samples`, fitting `params` in place.

    `loss_fn` returns a step's named pieces, and the sum of them in order
    is minimised. Each pass visits the samples in an order drawn from the
    RNG lane (config.seed, lane). Each loss log line goes to `log` as it
    is made, and is kept nowhere else. A step line (the sum, then each
    piece) is made every `log_every` steps, none when it is 0.
    """
    opt = dc.Adam(params, config.lr, config.max_grad_norm)
    shuffle = np.random.default_rng([config.seed, lane])
    step = 0
    for epoch in range(epochs):
        losses = []
        for idx in shuffle.permutation(len(samples)):
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # a diverging step raises NumericError instead
                    pieces = loss_fn(samples[int(idx)])
                    total = reduce(dc.add, pieces.values())
                    value = float(total.value)
                    if not np.isfinite(value):
                        raise NumericError("non-finite loss value")
                    opt.zero_grad()
                    dc.backward(total)
                    opt.step()
            except NumericError as exc:
                raise NumericError(f"training aborted at step {step}: {exc}") from exc
            losses.append(value)
            if log and log_every and step % log_every == 0:
                parts = " ".join(f"{k} {float(v.value):.6f}" for k, v in pieces.items())
                log(f"step {step} epoch {epoch} loss {value:.6f} {parts}")
            pieces = total = None  # drop the step's graph before the next is built
            step += 1
        if log:
            log(f"{prefix}epoch {epoch} mean_loss {float(np.mean(losses)):.6f}")


# ---------------------------------------------------------------------------
# displacement network training


def _check_prepared_for(instances: Sequence[PreparedInstance], config: RunConfig) -> None:
    """ConfigError unless every instance was prepared for the config's net, n_frames and k_density."""
    for key, want, what in (("net", config.net, "network geometry than the config's net"),
                            ("n_frames", config.n_frames, f"frame count than n_frames={config.n_frames}"),
                            ("k_density", config.weights.k_density, f"k_density than {config.weights.k_density}")):
        if any(getattr(inst, key) != want for inst in instances):
            raise ConfigError(f"instances were prepared for another {what}")


def _instance_loss(net: DisplacementNet, inst: PreparedInstance, config: RunConfig) -> dict[str, dc.Node]:
    maps = net.hallucinate(inst.plan)
    pieces = total_motion_loss(maps, inst.targets, inst.points, inst.labels, inst.gt_moving, inst.gt_radii,
                               inst.n_true, config.weights,
                               no_geom=config.no_geom, no_disp=config.no_disp, no_mot=config.no_mot)
    if not config.no_seg:
        p0 = np.zeros_like(inst.points) if config.no_p0 else inst.points
        seg_logits, _, feats = net.segment(p0, maps.value.reshape(inst.targets.shape), inst.mov_idx)
        dist_mov = dc.pairwise_row_distances(feats)
        pieces["segmentation"] = segmentation_loss(seg_logits, dist_mov, inst.labels, config.weights)
    if not pieces:
        raise ConfigError("all loss terms ablated away")
    return pieces


def train_displacement(
    instances: Sequence[PreparedInstance],
    config: RunConfig,
    log: Optional[LogFn] = None,
) -> DisplacementNet:
    """Fit the displacement net."""
    if not instances:
        raise DataError("no training instances")
    _check_prepared_for(instances, config)
    net = DisplacementNet(
        config.n_frames, np.random.default_rng([config.seed, 0]), config.net, use_rnn=not config.no_rnn
    )
    _fit(instances, net.params, lambda inst: _instance_loss(net, inst, config),
         config, 1, config.epochs, log, log_every=config.log_every)
    return net


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
) -> Optional[MobilityRegressor]:
    """Fit the mobility regressor on ground-truth maps.

    Returns None when no instance carries mobility parameters (purely
    non-parametric corpora such as umbrella-only training).
    """
    _check_prepared_for(instances, config)
    samples = []
    for inst, part_id, spec in _start_parts(instances):  # each part's input is built once
        member = np.flatnonzero(inst.labels == part_id)
        samples.append((inst.plan, MobilityRegressor.component_channels(inst.points, inst.targets, member), spec))
    if not samples:
        return None
    reg = MobilityRegressor(config.n_frames, np.random.default_rng([config.seed, 2]), config.net)

    def loss_fn(sample) -> dict[str, dc.Node]:
        plan, channels, spec = sample
        return {"l_mob": l_mob(*reg.forward(plan, channels), spec)}

    _fit(samples, reg.params, loss_fn, config, 3, config.mobility_epochs, log, "mobility ")
    return reg


def train_baseline(
    instances: Sequence[PreparedInstance],
    config: RunConfig,
    log: Optional[LogFn] = None,
) -> DirectBaseline:
    """Fit the direct baseline: static cloud in, segmentation plus one mobility."""
    _check_prepared_for(instances, config)
    samples = _start_parts(instances)
    if not samples:
        raise DataError("baseline training needs shapes with mobility parameters")
    baseline = DirectBaseline(np.random.default_rng([config.seed, 4]), config.net)

    def loss_fn(sample) -> dict[str, dc.Node]:
        inst, part_id, spec = sample
        seg, type_logits, axis_out = baseline.forward(inst.plan)
        return {"l_seg_obj": l_seg_obj(seg, inst.labels == part_id), "l_mob": l_mob(type_logits, axis_out, spec)}

    _fit(samples, baseline.params, loss_fn, config, 5, config.mobility_epochs, log, "baseline ")
    return baseline


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
    """A trained model bundle exposing flat shape prediction.

    Prediction builds no backward graph: making a pipeline marks every
    parameter of its networks as needing no gradient, so each diffcore op
    keeps no parents and the forward pass computes only what it returns.
    """

    config: RunConfig
    net: Optional[DisplacementNet] = None
    regressor: Optional[MobilityRegressor] = None
    baseline: Optional[DirectBaseline] = None

    def __post_init__(self) -> None:
        for model in (self.net, self.regressor, self.baseline):
            for param in getattr(model, "params", {}).values():  # None, or a stand-in without parameters
                param.requires_grad = False

    @np.errstate(over="ignore", invalid="ignore")  # non-finite values raise NumericError instead
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
            seg_logits, mov_idx, feats = self.net.segment(p0, maps)
            _require_finite(seg_logits.value, "segmentation logits")
            if mov_idx.size:
                dist = dc.pairwise_row_distances(feats).value
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
    """Train whatever the config asks for and optionally persist the run with its loss.log."""
    if instances is None:
        instances = prepare_instances(records, config)
    if out_dir is not None:  # a bad out_dir fails before training
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    lines: list[str] = []

    def keep(line: str) -> None:
        lines.append(line)
        if log:
            log(line)

    if config.basenet:
        pipeline = Pipeline(config, baseline=train_baseline(instances, config, keep))
    else:
        net = train_displacement(instances, config, keep)
        regressor = None if config.no_mob_net else train_mobility(instances, config, keep)
        pipeline = Pipeline(config, net=net, regressor=regressor)
    if out_dir is not None:
        out = save_pipeline(out_dir, pipeline)
        (out / "loss.log").write_text("".join(line + "\n" for line in lines))
    return pipeline


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalResult:
    """Test-set metrics, primary and mobfit cross-check, and each shape's id and part matches."""

    report: MetricsReport
    fit_report: MetricsReport
    shapes: list[tuple[str, ShapeAPRecord]]


def _evaluate(records: Sequence[ShapeRecord], predictions: Iterable[ShapePrediction]) -> EvalResult:
    """Score each prediction for the start frame of its test shape, and pool the scores."""
    if not records:
        raise DataError("no shapes to evaluate")
    ap_records, net_evals, fit_evals = [], [], []
    for rec, pred in zip(records, predictions):
        ap_records.append(prediction_matches(pred.labels, rec.labels, pred.confidences))
        if rec.specs is None:
            continue
        for m, gt_spec in zip(match_moving_parts(pred.labels, rec.labels), rec.specs):
            net_evals.append(evaluate_mobility(pred.mobilities.get(m.pred_part), gt_spec))
            fit_evals.append(evaluate_mobility(pred.fits.get(m.pred_part), gt_spec))
    return EvalResult(summarize(net_evals, ap_records), summarize(fit_evals, ap_records),
                      [(rec.shape_id, ap) for rec, ap in zip(records, ap_records)])


def evaluate_model(records: Sequence[ShapeRecord], pipeline: Pipeline) -> EvalResult:
    """Score a test split, one shape after another."""
    return _evaluate(records, (pipeline.predict(r.frames[0]) for r in records))


def evaluate_oracle(records: Sequence[ShapeRecord]) -> EvalResult:
    """Score the ground truth as the prediction; the end-to-end identity check."""

    def truth(rec: ShapeRecord) -> ShapePrediction:
        mobilities = {} if rec.specs is None else dict(enumerate(rec.specs, start=1))
        confidences = {int(p): 1.0 for p in np.unique(rec.labels) if p != 0}
        return ShapePrediction(rec.displacement_maps, rec.labels.copy(), mobilities, confidences, fits=mobilities)

    return _evaluate(records, map(truth, records))
