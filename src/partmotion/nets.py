"""The three networks: displacement hallucination, mobility regression,
and the direct baseline.

All of them share one point-set encoder: two set-abstraction stages of
farthest-point-sampled centroids with local max-pooled MLPs, followed by a
global max pool. Neighborhood structure depends only on coordinates. Of
equally distant points, in sampling, grouping and interpolation alike, the
first in coordinate order (x, then y, then z, then index) wins, so a
permuted cloud encodes to the same global feature; with a point set's
columns in that order, each tie-break is a first-wins argmax or a stable
sort. Each point set is sorted into coordinate order once, and one distance
table per cloud serves sampling, both groupings and both interpolations;
`k_smallest`, shared with the loss, ranks each row with one sort of int64 keys.

The displacement net decodes a global feature through an LSTM, one step
per future frame, and turns each hidden state plus interpolated per-point
features into an N x 3 displacement map. The LSTM's input projection is
the same at every step, so it is computed once per cloud, and all n steps
run as one `dc.lstm` node that returns the stacked states. The decoder is
feed-forward given the hidden states, so all n frames are decoded in one
pass: the first decoder layer's weight splits by rows, the per-point block
is applied once per cloud as (N, hidden) and the state block and bias once
to the n stacked states as (n, hidden); one `dc.pair_relu_linear` node runs
the relu and the output layer on every (state, point) sum, giving the maps
stacked frame by frame, (n*N, 3). Segmentation heads consume the
input points concatenated with all n maps, read as data; the loss and
prediction's DBSCAN both compare their clustering features by
`dc.pairwise_row_distances`. The mobility regressor reads the same
concatenation with displacements zeroed outside one component and
outputs a motion type and an axis (its objective is `losses.l_mob`). The
baseline predicts segmentation and a single mobility straight from the
input points. Specs fitted inside a component's unit box go back to the
input frame through `geom.moved_spec`.
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from . import diffcore as dc
from .errors import ConfigError, DataError, NumericError
from .geom import MOBILITY_TYPES, MobilitySpec, unit

THETA_STOP = 0.01
# Clustering features are projected onto a sphere of this radius. The
# diameter (160) keeps cross-part distances able to clear the margin (80)
# while ruling out the degenerate optimum where every row shrinks to a
# single point and the margin loss plateaus.
FEATURE_RADIUS = 80.0


def _whole(value) -> int:  # a count, width or group size: 16.0 is 16; 16.9, inf, true or text are errors
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"network counts, widths and group sizes must be whole numbers, got {value!r}")
    return int(value)


def _radius(value) -> float:  # a set-abstraction radius: a positive finite real number, not true or text
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 < value <= sys.float_info.max:
        raise ConfigError(f"set-abstraction radii must be positive finite numbers, got {value!r}")
    return float(value)


@dataclass
class NetConfig:
    """Desk-scale widths for all three networks.

    It checks its stages, given as tuples or JSON lists, and keeps them as tuples."""

    sa_stages: tuple = ((64, 0.2, (32, 64)), (16, 0.4, (64, 128)))
    group_sizes: tuple = (16, 8)
    global_width: int = 128
    fp_neighbors: int = 3
    decoder_hidden: int = 128
    head_hidden: int = 64
    feature_width: int = 64

    def __post_init__(self) -> None:
        try:
            (s1, r1, (w1a, w1b)), (s2, r2, (w2a, w2b)) = self.sa_stages
            k1, k2 = self.group_sizes
        except (TypeError, ValueError) as exc:
            raise ConfigError("need two (count, radius, (width, width)) stages and two group sizes") from exc
        s1, w1a, w1b, s2, w2a, w2b, k1, k2 = map(_whole, (s1, w1a, w1b, s2, w2a, w2b, k1, k2))
        self.sa_stages = ((s1, _radius(r1), (w1a, w1b)), (s2, _radius(r2), (w2a, w2b)))
        self.group_sizes = (k1, k2)
        if not 0 < s2 < s1:
            raise ConfigError("set-abstraction sample counts must be positive and strictly decrease")
        sizes = [s1, w1a, w1b, w2a, w2b, self.global_width, self.decoder_hidden, self.head_hidden,
                 self.feature_width, self.fp_neighbors, k1, k2]
        if min(sizes) <= 0 or max(sizes) >= 2**31:  # a width of 1e308 would fail in numpy
            raise ConfigError("network counts, widths, group sizes and fp_neighbors must lie in [1, 2**31)")
        if w2b != self.global_width:
            raise ConfigError("global width must equal the last stage output width")


# ---------------------------------------------------------------------------
# deterministic, order-free neighborhood structure


def _coord_order(points: np.ndarray) -> np.ndarray:
    """Indices in coordinate order: x, then y, then z, then index."""
    return np.lexsort((points[:, 2], points[:, 1], points[:, 0]))


def _farthest_points(points: np.ndarray, order: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """count picks as positions in order, and their (count, N) distances to points[order]."""
    if points.shape[0] < count:
        raise ConfigError(f"cannot pick {count} centroids from {points.shape[0]} points")
    ranked = points.take(order, axis=0)
    table = cdist(ranked, ranked)
    # the first pick is farthest from the mean, each next one from all picked
    gap = np.linalg.norm(ranked - points.mean(axis=0), axis=1)
    near, chosen = np.inf, []
    for _ in range(count):
        chosen.append(int(gap.argmax()))
        near = gap = np.minimum(near, table[chosen[-1]])
    return np.array(chosen), table.take(chosen, axis=0)


def k_smallest(table: np.ndarray, k: int) -> np.ndarray:
    """Each row's k smallest columns in ascending order, tied columns lowest first.

    table holds float64 distances as cdist returns them, non-negative finite or
    +inf, whose int64 bits order like the values. Keyed by those bits, column index
    in the low bits, a row sorts once; one whose k+1 leading keys tie is stable-argsorted."""
    cols = table.shape[1]
    k, low = min(k, cols), (cols - 1).bit_length()
    keys = table.view(np.int64) & -(1 << low)
    keys |= np.arange(cols)
    keys.sort(axis=1)
    lead = keys[:, : k + 1] >> low
    tied = np.flatnonzero((lead[:, 1:] == lead[:, :-1]).any(axis=1))
    picked = keys[:, :k] & ((1 << low) - 1)
    if tied.size:
        picked[tied] = np.argsort(table[tied], axis=1, kind="stable")[:, :k]
    return picked


def _take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """np.take_along_axis(a, idx, axis=1) as one flat take."""
    return a.take(idx + np.arange(0, a.size, a.shape[1])[:, None])


def _group(dist: np.ndarray, radius: float, k: int) -> np.ndarray:
    """(rows, k) nearest columns within radius, padded with the nearest."""
    near = k_smallest(dist, k)
    inside = np.sum(_take_rows(dist, near) <= radius, axis=1, keepdims=True)
    return _take_rows(near, np.where(np.arange(k) < inside, np.arange(k), 0))


def _idw_weights(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k nearest columns and their inverse-square-distance weights."""
    near = k_smallest(dist, k)
    inv = 1.0 / (_take_rows(dist, near) ** 2 + 1e-8)
    return near, inv / inv.sum(axis=1, keepdims=True)


def dense_weights(cols: np.ndarray, weights: np.ndarray, width: int) -> np.ndarray:
    """The (N, width) matrix holding weights at cols and zeros elsewhere."""
    w = np.zeros((cols.shape[0], width))
    np.put_along_axis(w, cols, weights, axis=1)
    return w


@dataclass
class EncoderPlan:
    """One cloud's sampling, grouping and interpolation: indices and weights only."""

    points: np.ndarray
    centroids1: np.ndarray
    groups1: np.ndarray         # (s1, k1) point indices
    centroids2: np.ndarray      # indices into centroids1
    groups2: np.ndarray         # (s2, k2) indices into stage-1 rows
    fp1_cols: np.ndarray        # (N, k) stage-1 rows each point interpolates from
    fp1_weights: np.ndarray     # (N, k) their weights, summing to 1 per point
    fp2_cols: np.ndarray        # (N, k) stage-2 rows
    fp2_weights: np.ndarray     # (N, k)


def build_plan(points: np.ndarray, cfg: NetConfig) -> EncoderPlan:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ConfigError(f"points must be (N, 3), got {points.shape}")
    if not np.isfinite(points).all():
        raise DataError("points must be finite")
    (s1, r1, _), (s2, r2, _) = cfg.sa_stages
    k1, k2 = cfg.group_sizes
    # d1: stage-1 centroids to points in coordinate order, for both groupings and both interpolations
    order = _coord_order(points)
    f1, d1 = _farthest_points(points, order, s1)
    p1 = points.take(order[f1], axis=0)
    o1 = _coord_order(p1)
    c2 = o1[_farthest_points(p1, o1, s2)[0]]
    o2 = _coord_order(p1.take(c2, axis=0))
    to_points = d1.take(np.argsort(order), axis=1)
    fp1, fp2 = (_idw_weights(to_points.take(rows, axis=0).T.copy(), cfg.fp_neighbors) for rows in (o1, c2[o2]))
    return EncoderPlan(
        points=points, centroids1=order[f1], groups1=order[_group(d1, r1, k1)],
        centroids2=c2, groups2=o1[_group(d1.take(c2, axis=0).take(f1[o1], axis=1), r2, k2)],
        fp1_cols=o1[fp1[0]], fp1_weights=fp1[1], fp2_cols=o2[fp2[0]], fp2_weights=fp2[1],
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
    return dc.linear(x, params[f"{name}.w"], params[f"{name}.b"])


def _interpolated(plan: EncoderPlan, f1: dc.Node, f2: dc.Node) -> list[dc.Node]:
    """Both stages' features interpolated back onto the plan's points, each
    by one matmul with its weights scattered into a dense (N, S) matrix."""
    return [dc.matmul(dense_weights(cols, w, f.value.shape[0]), f)
            for cols, w, f in ((plan.fp1_cols, plan.fp1_weights, f1), (plan.fp2_cols, plan.fp2_weights, f2))]


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
        """(stage-1, stage-2, global) features; group offsets come from the plan's indices."""
        cfg = self.cfg
        (s1, _, (_, w1b)), (s2, _, (_, w2b)) = cfg.sa_stages
        k1, k2 = cfg.group_sizes
        # take() gathers the same rows as indexing, at under half its cost on these sizes
        p1 = plan.points[plan.centroids1]
        x1 = dc.constant(plan.points.take(plan.groups1.ravel(), axis=0) - np.repeat(p1, k1, axis=0))
        if self.extra_channels:
            if channels is None:
                raise ConfigError("encoder expects per-point channels")
            x1 = dc.concat([x1, dc.gather_rows(channels, plan.groups1.ravel())], axis=1)
        h = dc.relu(_linear(self.params, f"{self.prefix}.sa1.l1", x1))
        h = dc.relu(_linear(self.params, f"{self.prefix}.sa1.l2", h))
        f1 = dc.reduce_max(dc.reshape(h, (s1, k1, w1b)), axis=1)
        rel2 = p1.take(plan.groups2.ravel(), axis=0) - np.repeat(p1[plan.centroids2], k2, axis=0)
        x2 = dc.concat([dc.constant(rel2), dc.gather_rows(f1, plan.groups2.ravel())], axis=1)
        h = dc.relu(_linear(self.params, f"{self.prefix}.sa2.l1", x2))
        h = dc.relu(_linear(self.params, f"{self.prefix}.sa2.l2", h))
        f2 = dc.reduce_max(dc.reshape(h, (s2, k2, w2b)), axis=1)
        pooled = dc.reduce_max(f2, axis=0)
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

    def hallucinate(self, plan: EncoderPlan) -> dc.Node:
        """All n displacement maps stacked frame by frame: (n*N, 3), frame t
        in rows [t*N, (t+1)*N)."""
        f1, f2, g_feat = self.encoder.apply(plan)
        per_point = dc.concat([dc.constant(plan.points)] + _interpolated(plan, f1, f2), axis=1)
        w = self.params["dec.l1.w"]
        split = per_point.value.shape[1]
        base = dc.matmul(per_point, dc.slice_axis(w, 0, split))
        w_state = dc.slice_axis(w, split, w.value.shape[0])
        if self.use_rnn:
            x_proj = dc.linear(g_feat, self.params["lstm.wx"], self.params["lstm.b"])
            states = dc.lstm(x_proj, self.params["lstm.wh"], self.n_maps)
        else:
            states = g_feat
        state_part = dc.linear(states, w_state, self.params["dec.l1.b"])
        out = dc.pair_relu_linear(state_part, base, self.params["dec.l2.w"], self.params["dec.l2.b"])
        if self.use_rnn:
            return out
        # one readout emits all n maps side by side, (N, 3n)
        return dc.concat([dc.slice_axis(out, 3 * t, 3 * t + 3, axis=1) for t in range(self.n_maps)])

    def segment(self, p0: np.ndarray, maps: np.ndarray):
        """Per-point 2-way logits and clustering features.

        maps is (n, N, 3); the heads read it and p0 as data, so the margin
        term cannot trade displacement quality for feature separation.
        """
        maps = np.asarray(maps, dtype=np.float64)
        if maps.shape[0] != self.n_maps:
            raise ConfigError(f"expected {self.n_maps} maps, got {maps.shape[0]}")
        x = dc.constant(np.concatenate([p0, *maps], axis=1))
        seg = _linear(self.params, "seg.l2", dc.relu(_linear(self.params, "seg.l1", x)))
        raw = _linear(self.params, "feat.l2", dc.relu(_linear(self.params, "feat.l1", x)))
        norms = dc.reshape(dc.l2_norm_rows(raw), (raw.value.shape[0], 1))
        feats = dc.mul(dc.div(raw, dc.add(norms, 1e-8)), FEATURE_RADIUS)
        return seg, feats


# ---------------------------------------------------------------------------
# mobility regression network


def _mobility_readout(type_logits: dc.Node, axis_out: dc.Node):
    """(type string, unit direction, position) from a mobility head's outputs."""
    tau = MOBILITY_TYPES[int(np.argmax(type_logits.value[0]))]
    try:
        return tau, unit(axis_out.value[0, :3]), axis_out.value[0, 3:].copy()
    except ConfigError as exc:  # a zero output is a numeric failure, not a bad setting
        raise NumericError(f"mobility regressor output: {exc}") from exc


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
        _linear_params(rng, "mob.type", self.cfg.head_hidden, len(MOBILITY_TYPES), self.params)
        _linear_params(rng, "mob.axis", self.cfg.head_hidden, 6, self.params)

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
        _linear_params(rng, "base.type", self.cfg.head_hidden, len(MOBILITY_TYPES), self.params)
        _linear_params(rng, "base.axis", self.cfg.head_hidden, 6, self.params)

    def forward(self, plan: EncoderPlan):
        """(per-point 2-way logits, type logits, axis output)."""
        f1, f2, g_feat = self.encoder.apply(plan)
        per_point = dc.concat(_interpolated(plan, f1, f2), axis=1)
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


@dataclass
class PredictionNode:
    """One level of the recursive decomposition."""

    indices: np.ndarray                    # into the input cloud's points
    prediction: ShapePrediction
    children: list["PredictionNode"] = field(default_factory=list)
