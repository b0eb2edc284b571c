"""The three networks: displacement hallucination, mobility regression,
and the direct baseline.

All of them share one point-set encoder: two set-abstraction stages of
farthest-point-sampled centroids with local max-pooled MLPs, followed by a
global max pool. Neighborhood structure depends only on coordinates, with
distance ties broken lexicographically on the coordinates themselves, so
encoding a permuted cloud yields the same global feature. The structure is
precomputed once per cloud as an EncoderPlan and reused across training
steps.

The displacement net decodes a global feature through an LSTM, one step
per future frame, and turns each hidden state plus interpolated per-point
features into an N x 3 displacement map. Segmentation heads consume the
input points concatenated with all n maps. The mobility regressor reads
the same concatenation with displacements zeroed outside one component
and outputs a motion type and an axis. The baseline predicts segmentation
and a single mobility straight from the input points.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import diffcore as dc
from .errors import ConfigError
from .geom import MOBILITY_TYPES, MobilitySpec, normalize_to_unit_box, unit

THETA_STOP = 0.01
# Clustering features are projected onto a sphere of this radius. The
# diameter (160) keeps cross-part distances able to clear the margin (80)
# while ruling out the degenerate optimum where every row shrinks to a
# single point and the margin loss plateaus.
FEATURE_RADIUS = 80.0


@dataclass
class NetConfig:
    """Desk-scale widths for all three networks."""

    sa_stages: tuple = ((64, 0.2, (32, 64)), (16, 0.4, (64, 128)))
    group_sizes: tuple = (16, 8)
    global_width: int = 128
    fp_neighbors: int = 3
    decoder_hidden: int = 128
    head_hidden: int = 64
    feature_width: int = 64

    def __post_init__(self) -> None:
        counts = [stage[0] for stage in self.sa_stages]
        if any(b >= a for a, b in zip(counts, counts[1:])):
            raise ConfigError("set-abstraction sample counts must strictly decrease")
        widths = [w for stage in self.sa_stages for w in stage[2]]
        widths += [self.global_width, self.decoder_hidden, self.head_hidden, self.feature_width]
        if any(w <= 0 for w in widths):
            raise ConfigError("network widths must be positive")
        if self.sa_stages[-1][2][-1] != self.global_width:
            raise ConfigError("global width must equal the last stage output width")


# ---------------------------------------------------------------------------
# deterministic, order-free neighborhood structure


def _lex_order(dist: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Indices sorted by distance, ties broken by coordinates."""
    return np.lexsort((points[:, 2], points[:, 1], points[:, 0], dist))


def farthest_point_indices(points: np.ndarray, count: int) -> np.ndarray:
    if points.shape[0] < count:
        raise ConfigError(f"cannot pick {count} centroids from {points.shape[0]} points")
    center = points.mean(axis=0)
    chosen = [int(_lex_order(-np.linalg.norm(points - center, axis=1), points)[0])]
    min_dist = np.linalg.norm(points - points[chosen[0]], axis=1)
    while len(chosen) < count:
        nxt = int(_lex_order(-min_dist, points)[0])
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(points - points[nxt], axis=1))
    return np.array(chosen, dtype=np.int64)


def _group(points: np.ndarray, centroids: np.ndarray, radius: float, k: int) -> np.ndarray:
    """(len(centroids), k) neighbor indices: nearest within radius, padded."""
    groups = np.empty((centroids.shape[0], k), dtype=np.int64)
    for row, c in enumerate(centroids):
        dist = np.linalg.norm(points - points[c], axis=1)
        order = _lex_order(dist, points)
        inside = order[dist[order] <= radius][:k]
        if inside.size == 0:
            inside = order[:1]
        pad = np.full(k - inside.size, inside[0], dtype=np.int64)
        groups[row] = np.concatenate([inside, pad])
    return groups


def _idw_weights(targets: np.ndarray, sources: np.ndarray, k: int) -> np.ndarray:
    """Dense (len(targets), len(sources)) inverse-square-distance weights."""
    w = np.zeros((targets.shape[0], sources.shape[0]))
    k = min(k, sources.shape[0])
    for row, t in enumerate(targets):
        dist = np.linalg.norm(sources - t, axis=1)
        near = _lex_order(dist, sources)[:k]
        inv = 1.0 / (dist[near] ** 2 + 1e-8)
        w[row, near] = inv / inv.sum()
    return w


@dataclass
class EncoderPlan:
    """Precomputed sampling, grouping, and interpolation for one cloud."""

    points: np.ndarray
    centroids1: np.ndarray
    groups1: np.ndarray
    rel1: np.ndarray
    centroids2: np.ndarray      # indices into centroids1
    groups2: np.ndarray         # indices into stage-1 rows
    rel2: np.ndarray
    fp1: np.ndarray             # (N, S1) interpolation weights
    fp2: np.ndarray             # (N, S2)


def build_plan(points: np.ndarray, cfg: NetConfig) -> EncoderPlan:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ConfigError(f"points must be (N, 3), got {points.shape}")
    (s1, r1, _), (s2, r2, _) = cfg.sa_stages
    k1, k2 = cfg.group_sizes
    c1 = farthest_point_indices(points, s1)
    g1 = _group(points, c1, r1, k1)
    rel1 = (points[g1.ravel()] - np.repeat(points[c1], k1, axis=0))
    p1 = points[c1]
    c2_local = farthest_point_indices(p1, s2)
    g2 = _group(p1, c2_local, r2, k2)
    rel2 = (p1[g2.ravel()] - np.repeat(p1[c2_local], k2, axis=0))
    return EncoderPlan(
        points=points,
        centroids1=c1,
        groups1=g1,
        rel1=rel1,
        centroids2=c2_local,
        groups2=g2,
        rel2=rel2,
        fp1=_idw_weights(points, p1, cfg.fp_neighbors),
        fp2=_idw_weights(points, p1[c2_local], cfg.fp_neighbors),
    )


# ---------------------------------------------------------------------------
# parameter helpers


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _linear_params(rng, name: str, fan_in: int, fan_out: int, params: dict) -> None:
    params[f"{name}.w"] = dc.parameter(glorot(rng, fan_in, fan_out))
    params[f"{name}.b"] = dc.parameter(np.zeros((1, fan_out)))


def _linear(params: dict, name: str, x: dc.Node) -> dc.Node:
    return dc.add(dc.matmul(x, params[f"{name}.w"]), params[f"{name}.b"])


class SAEncoder:
    """Two set-abstraction stages plus a global max pool."""

    def __init__(self, rng: np.random.Generator, cfg: NetConfig, extra_channels: int = 0,
                 prefix: str = "enc"):
        self.cfg = cfg
        self.extra_channels = extra_channels
        self.params: dict[str, dc.Node] = {}
        (_, _, (w1a, w1b)), (_, _, (w2a, w2b)) = cfg.sa_stages
        _linear_params(rng, f"{prefix}.sa1.l1", 3 + extra_channels, w1a, self.params)
        _linear_params(rng, f"{prefix}.sa1.l2", w1a, w1b, self.params)
        _linear_params(rng, f"{prefix}.sa2.l1", 3 + w1b, w2a, self.params)
        _linear_params(rng, f"{prefix}.sa2.l2", w2a, w2b, self.params)
        self.prefix = prefix

    def apply(self, plan: EncoderPlan, channels: Optional[dc.Node] = None):
        """Returns (stage-1 features, stage-2 features, global feature)."""
        cfg = self.cfg
        (s1, _, (_, w1b)), (s2, _, (_, w2b)) = cfg.sa_stages
        k1, k2 = cfg.group_sizes
        x1 = dc.constant(plan.rel1)
        if self.extra_channels:
            if channels is None:
                raise ConfigError("encoder expects per-point channels")
            x1 = dc.concat([x1, dc.gather_rows(channels, plan.groups1.ravel())], axis=1)
        h = dc.relu(_linear(self.params, f"{self.prefix}.sa1.l1", x1))
        h = dc.relu(_linear(self.params, f"{self.prefix}.sa1.l2", h))
        f1, _ = dc.reduce_max_with_index(dc.reshape(h, (s1, k1, w1b)), axis=1)
        x2 = dc.concat(
            [dc.constant(plan.rel2), dc.gather_rows(f1, plan.groups2.ravel())], axis=1
        )
        h = dc.relu(_linear(self.params, f"{self.prefix}.sa2.l1", x2))
        h = dc.relu(_linear(self.params, f"{self.prefix}.sa2.l2", h))
        f2, _ = dc.reduce_max_with_index(dc.reshape(h, (s2, k2, w2b)), axis=1)
        pooled, _ = dc.reduce_max_with_index(f2, axis=0)
        return f1, f2, dc.reshape(pooled, (1, cfg.global_width))


# ---------------------------------------------------------------------------
# displacement hallucination network


class DisplacementNet:
    """Recurrent per-point displacement generator with segmentation heads.

    With use_rnn=False the recurrence is replaced by one fully-connected
    readout emitting all n maps at once from the global feature.
    """

    def __init__(
        self,
        n_maps: int,
        rng: np.random.Generator,
        cfg: Optional[NetConfig] = None,
        use_rnn: bool = True,
    ):
        self.cfg = cfg or NetConfig()
        self.n_maps = int(n_maps)
        self.use_rnn = use_rnn
        if self.n_maps < 1:
            raise ConfigError("need at least one displacement map")
        g = self.cfg.global_width
        f1_w = self.cfg.sa_stages[0][2][-1]
        self.encoder = SAEncoder(rng, self.cfg, prefix="enc")
        self.params = dict(self.encoder.params)
        if use_rnn:
            self.params["lstm.wx"] = dc.parameter(glorot(rng, g, 4 * g))
            self.params["lstm.wh"] = dc.parameter(glorot(rng, g, 4 * g))
            bias = np.zeros(4 * g)
            bias[g : 2 * g] = 1.0  # forget gate open at the start
            self.params["lstm.b"] = dc.parameter(bias)
        per_point = 3 + f1_w + g + g  # raw coords skip keeps part boundaries sharp
        hidden = self.cfg.decoder_hidden
        out_width = 3 if use_rnn else 3 * self.n_maps
        _linear_params(rng, "dec.l1", per_point, hidden, self.params)
        _linear_params(rng, "dec.l2", hidden, out_width, self.params)
        head_in = 3 * (self.n_maps + 1)
        _linear_params(rng, "seg.l1", head_in, self.cfg.head_hidden, self.params)
        _linear_params(rng, "seg.l2", self.cfg.head_hidden, 2, self.params)
        _linear_params(rng, "feat.l1", head_in, self.cfg.head_hidden, self.params)
        _linear_params(rng, "feat.l2", self.cfg.head_hidden, self.cfg.feature_width, self.params)
        # start the raw rows near the sphere radius: the projection's gradient
        # scales with radius/|raw|, and a ~0.5-norm glorot start would blow
        # incoming gradients up by two orders of magnitude
        self.params["feat.l2.w"].value *= FEATURE_RADIUS

    def parameters(self) -> dict[str, dc.Node]:
        return self.params

    def hallucinate(self, plan: EncoderPlan) -> list[dc.Node]:
        """n displacement maps, each (N, 3), for the planned cloud."""
        f1, f2, g_feat = self.encoder.apply(plan)
        n_pts = plan.points.shape[0]
        per_point = dc.concat(
            [
                dc.constant(plan.points),
                dc.matmul(dc.constant(plan.fp1), f1),
                dc.matmul(dc.constant(plan.fp2), f2),
            ],
            axis=1,
        )
        ones = dc.constant(np.ones((n_pts, 1)))
        maps = []
        if self.use_rnn:
            h = dc.constant(np.zeros((1, self.cfg.global_width)))
            c = dc.constant(np.zeros((1, self.cfg.global_width)))
            for _ in range(self.n_maps):
                h, c = dc.lstm_cell(
                    g_feat, h, c,
                    self.params["lstm.wx"], self.params["lstm.wh"], self.params["lstm.b"],
                )
                maps.append(self._decode_step(per_point, ones, h))
        else:
            wide = self._decode_step(per_point, ones, g_feat)
            for t in range(self.n_maps):
                cols = np.arange(3 * t, 3 * t + 3)
                maps.append(dc.transpose(dc.gather_rows(dc.transpose(wide), cols)))
        return maps

    def _decode_step(self, per_point: dc.Node, ones: dc.Node, state: dc.Node) -> dc.Node:
        x = dc.concat([per_point, dc.matmul(ones, state)], axis=1)
        h = dc.relu(_linear(self.params, "dec.l1", x))
        return _linear(self.params, "dec.l2", h)

    def segment(self, p0: dc.Node, maps: list[dc.Node]):
        """Per-point 2-way logits and clustering features."""
        if len(maps) != self.n_maps:
            raise ConfigError(f"expected {self.n_maps} maps, got {len(maps)}")
        x = dc.concat([p0] + list(maps), axis=1)
        seg = _linear(self.params, "seg.l2", dc.relu(_linear(self.params, "seg.l1", x)))
        raw = _linear(self.params, "feat.l2", dc.relu(_linear(self.params, "feat.l1", x)))
        norms = dc.reshape(dc.l2_norm_rows(raw), (raw.value.shape[0], 1))
        feats = dc.scale(dc.div(raw, dc.add(norms, 1e-8)), FEATURE_RADIUS)
        return seg, feats


def feature_distance_matrix(features: np.ndarray) -> np.ndarray:
    """Symmetric zero-diagonal Euclidean distances between feature rows."""
    sq = np.sum(features**2, axis=1)
    gram = features @ features.T
    # gemm output is not exactly symmetric; downstream clustering checks are
    d2 = sq[:, None] + sq[None, :] - (gram + gram.T)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(np.maximum(d2, 0.0))


# ---------------------------------------------------------------------------
# mobility regression network


def _mobility_readout(type_logits: dc.Node, axis_out: dc.Node):
    """(type string, unit direction, position) from a mobility head's outputs."""
    tau = MOBILITY_TYPES[int(np.argmax(type_logits.value[0]))]
    return tau, unit(axis_out.value[0, :3]), axis_out.value[0, 3:].copy()


class MobilityRegressor:
    """Motion type and axis for one moving component.

    Input is the start cloud concatenated with all n displacement maps,
    rows outside the component zeroed, so the component of interest is the
    only thing that moves.
    """

    def __init__(self, n_maps: int, rng: np.random.Generator, cfg: Optional[NetConfig] = None):
        self.cfg = cfg or NetConfig()
        self.n_maps = int(n_maps)
        channels = 3 * (self.n_maps + 1)
        self.encoder = SAEncoder(rng, self.cfg, extra_channels=channels, prefix="mob.enc")
        self.params = dict(self.encoder.params)
        _linear_params(rng, "mob.fc", self.cfg.global_width, self.cfg.head_hidden, self.params)
        _linear_params(rng, "mob.type", self.cfg.head_hidden, 3, self.params)
        _linear_params(rng, "mob.axis", self.cfg.head_hidden, 6, self.params)

    def parameters(self) -> dict[str, dc.Node]:
        return self.params

    @staticmethod
    def component_channels(points: np.ndarray, maps: np.ndarray, member_idx: np.ndarray) -> np.ndarray:
        """(N, 3(n+1)) input with displacements zeroed outside the component."""
        maps = np.asarray(maps, dtype=np.float64)
        masked = np.zeros_like(maps)
        masked[:, member_idx] = maps[:, member_idx]
        return np.concatenate([points] + list(masked), axis=1)

    def forward(self, plan: EncoderPlan, channels: np.ndarray):
        _, _, g_feat = self.encoder.apply(plan, dc.constant(channels))
        h = dc.relu(_linear(self.params, "mob.fc", g_feat))
        return _linear(self.params, "mob.type", h), _linear(self.params, "mob.axis", h)

    def predict(self, plan: EncoderPlan, channels: np.ndarray):
        """(type string, unit direction, position) without gradients."""
        return _mobility_readout(*self.forward(plan, channels))


# ---------------------------------------------------------------------------
# direct baseline


class DirectBaseline:
    """Segmentation plus one shape-level mobility straight from the points."""

    def __init__(self, rng: np.random.Generator, cfg: Optional[NetConfig] = None):
        self.cfg = cfg or NetConfig()
        self.encoder = SAEncoder(rng, self.cfg, prefix="base.enc")
        self.params = dict(self.encoder.params)
        f1_w = self.cfg.sa_stages[0][2][-1]
        per_point = f1_w + self.cfg.global_width
        _linear_params(rng, "base.seg.l1", per_point, self.cfg.head_hidden, self.params)
        _linear_params(rng, "base.seg.l2", self.cfg.head_hidden, 2, self.params)
        _linear_params(rng, "base.fc", self.cfg.global_width, self.cfg.head_hidden, self.params)
        _linear_params(rng, "base.type", self.cfg.head_hidden, 3, self.params)
        _linear_params(rng, "base.axis", self.cfg.head_hidden, 6, self.params)

    def parameters(self) -> dict[str, dc.Node]:
        return self.params

    def forward(self, plan: EncoderPlan):
        """(per-point 2-way logits, type logits, axis output)."""
        f1, f2, g_feat = self.encoder.apply(plan)
        per_point = dc.concat(
            [dc.matmul(dc.constant(plan.fp1), f1), dc.matmul(dc.constant(plan.fp2), f2)],
            axis=1,
        )
        seg = _linear(
            self.params, "base.seg.l2",
            dc.relu(_linear(self.params, "base.seg.l1", per_point)),
        )
        h = dc.relu(_linear(self.params, "base.fc", g_feat))
        return seg, _linear(self.params, "base.type", h), _linear(self.params, "base.axis", h)

    def predict(self, plan: EncoderPlan):
        """(moving-point mask, type string, unit direction, position)."""
        seg, type_logits, axis_out = self.forward(plan)
        return (seg.value.argmax(axis=1) == 1, *_mobility_readout(type_logits, axis_out))


# ---------------------------------------------------------------------------
# recursion


@dataclass
class ShapePrediction:
    """Output of one flat prediction pass over a cloud."""

    maps: np.ndarray                       # (n, N, 3)
    labels: np.ndarray                     # (N,) 0 = reference
    mobilities: dict[int, Optional[MobilitySpec]]
    confidences: dict[int, float] = field(default_factory=dict)
    fits: dict[int, Optional[MobilitySpec]] = field(default_factory=dict)

    @property
    def mean_step(self) -> float:
        return float(np.linalg.norm(self.maps, axis=2).mean())

    @property
    def motion_complete(self) -> bool:
        return self.mean_step < THETA_STOP


@dataclass
class PredictionNode:
    """One level of the recursive decomposition."""

    indices: np.ndarray                    # into the parent's points
    prediction: ShapePrediction
    children: list["PredictionNode"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return 1 + max((c.depth for c in self.children), default=0)


def denormalized_spec(spec: Optional[MobilitySpec], scale: float, center: np.ndarray):
    """Map a spec fitted in normalized coordinates back to the original frame."""
    if spec is None:
        return None
    position = None if spec.position is None else spec.position * scale + center
    range_ = spec.range_
    slide = spec.slide_range
    if spec.tau == "T":
        range_ = (range_[0] * scale, range_[1] * scale)
    if slide is not None:
        slide = (slide[0] * scale, slide[1] * scale)
    return MobilitySpec(spec.tau, spec.direction, position, range_, slide)


def recursive_predict(
    points: np.ndarray,
    predictor: Callable[[np.ndarray], ShapePrediction],
    depth: int = 2,
    min_points: int = 32,
    stop_threshold: float = THETA_STOP,
) -> PredictionNode:
    """Predict, then re-run the predictor inside each moving component.

    Component points are re-centered and scaled to the unit box before the
    recursive call; fitted mobilities come back mapped to the parent frame.
    Recursion stops at the depth limit, below min_points, or when a
    component's predicted motion is already below the stop threshold.
    """
    if depth < 1:
        raise ConfigError("recursion depth must be at least 1")
    points = np.asarray(points, dtype=np.float64)
    prediction = predictor(points)
    node = PredictionNode(np.arange(points.shape[0]), prediction)
    if depth == 1 or prediction.mean_step < stop_threshold:
        return node
    for part_id in sorted(prediction.mobilities):
        member_idx = np.flatnonzero(prediction.labels == part_id)
        if member_idx.size < min_points:
            continue
        normed, scale, center = normalize_to_unit_box(points[member_idx])
        child = recursive_predict(
            normed, predictor, depth - 1, min_points, stop_threshold
        )
        child.indices = member_idx
        child.prediction.mobilities = {
            pid: denormalized_spec(spec, scale, center)
            for pid, spec in child.prediction.mobilities.items()
        }
        child.prediction.fits = {
            pid: denormalized_spec(spec, scale, center)
            for pid, spec in child.prediction.fits.items()
        }
        node.children.append(child)
    return node
