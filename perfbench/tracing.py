"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps public `partmotion` functions where their callers look
them up (`training.build_plan`, `dataset.write_ply`, ...), not only in the
module that defines them, because `training.py` and `datagen/dataset.py`
import them by name. Nothing is wrapped until `install()`; `uninstall()`
puts every original back, so the untraced run executes unmodified code.

Span times are process CPU time, like the op times, and `scaled_ms` applies
the calibration factor of the phase (see speed.py). A span's self time is
its duration minus the time covered by spans nested inside it. Hooks that
count work (graph census, bytes written) run outside the span, so they do
not inflate its time.
"""
from __future__ import annotations

import os
from collections import Counter, defaultdict
from typing import Callable, Optional

from partmotion import diffcore, losses, nets, plyio, training
from partmotion.datagen import dataset, scan
from speed import CLOCK

LOSS_TERMS = ("l_ref", "l_mov", "l_disp", "l_mot", "l_seg_obj", "l_seg_mov")


def graph_census(root: diffcore.Node) -> Counter:
    """Grad nodes reachable from a backward root, counted by op_tag.

    Walks the same edges as `diffcore.backward`: the root plus every
    ancestor that requires a gradient.
    """
    tags: Counter = Counter()
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        tags[node.op_tag] += 1
        stack.extend(p for p, _ in node.parents if p.requires_grad and id(p) not in seen)
    return tags


class Tracer:
    """In-memory span totals and counters, keyed by layer metric name."""

    def __init__(self) -> None:
        self.ms: defaultdict[str, float] = defaultdict(float)
        self.self_ms: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.nodes: Counter = Counter()
        self.scale = 1.0                       # calibration factor for span times
        self._open: list[float] = []           # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.ms.clear()
        self.self_ms.clear()
        self.calls.clear()
        self.counts.clear()
        self.nodes.clear()

    def scaled_ms(self, name: str) -> float:
        return self.ms[name] * self.scale

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace `owner.attr` by a wrapper that records span `name`."""
        original = getattr(owner, attr)
        open_spans = self._open

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            open_spans.append(0.0)
            start = CLOCK()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = (CLOCK() - start) * 1000.0
                child = open_spans.pop()
                self.ms[name] += elapsed
                self.self_ms[name] += elapsed - child
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        w = self.wrap
        # nets
        w(training, "build_plan", "nets.build_plan")
        w(nets, "build_plan", "nets.build_plan")
        w(nets.DisplacementNet, "hallucinate", "nets.hallucinate")
        w(nets.DisplacementNet, "segment", "nets.segment")
        w(nets.MobilityRegressor, "predict", "nets.regressor")
        # losses: the total where training looks it up, the terms where
        # total_motion_loss looks them up
        w(training, "total_motion_loss", "losses.total")
        for term in LOSS_TERMS:
            w(losses, term, f"losses.{term}")
        # diffcore
        w(diffcore, "backward", "diffcore.backward", before=self._census)
        w(diffcore.Adam, "step", "diffcore.adam")
        # cluster and mobfit, as Pipeline.predict looks them up
        w(training, "dbscan_labels", "cluster.dbscan", before=self._dbscan_points)
        w(training, "fit_from_displacements", "mobfit.fit", after=self._fit_outcome)
        # training
        w(training, "prepare_instances", "training.prepare")
        w(training, "load_pipeline", "training.load_pipeline")
        w(training.Pipeline, "predict", "training.predict", after=self._parts_found)
        # datagen, as generate_dataset and the scan retry loop look them up
        w(dataset, "generate_shape", "datagen.generate_shape")
        w(dataset, "make_sequence", "datagen.make_sequence")
        w(dataset, "scan_with_viewpoint_retries", "datagen.scan")
        w(scan, "partial_scan", "datagen.partial_scan")
        # plyio, where dataset and the benchmark's own input reads look it up
        w(dataset, "write_ply", "plyio.write", after=self._bytes_written)
        w(dataset, "read_ply", "plyio.read")
        w(plyio, "read_ply", "plyio.read")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- counting hooks -----------------------------------------------------

    def _census(self, root, *_args, **_kwargs) -> None:
        self.nodes.update(graph_census(root))

    def _dbscan_points(self, dist, *_args, **_kwargs) -> None:
        self.counts["cluster.dbscan_points"] += len(dist)

    def _fit_outcome(self, fit, *_args, **_kwargs) -> None:
        if fit is not None and fit.residual > training.NONRIGID_RESIDUAL:
            self.counts["mobfit.rejected"] += 1

    def _parts_found(self, prediction, *_args, **_kwargs) -> None:
        if prediction.mobilities:
            self.counts["training.parts_found"] += 1

    def _bytes_written(self, _result, path, *_args, **_kwargs) -> None:
        self.counts["plyio.bytes_written"] += os.path.getsize(path)

