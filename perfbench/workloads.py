"""The partmotion benchmark: workloads, output checks and metrics.

Two closed-loop workloads drive `partmotion` through its public functions:
one process, one client, each call issued only after the previous returns.

    train    one displacement-net optimizer step inside
             `training.train_displacement`, over a fixed corpus of one shape
             per category (64 instances). Set-up: `load_dataset` plus
             `prepare_instances`, so plan building lands in `setup_s`.
    predict  one `Pipeline.predict` on one held-out cloud, with the fixed
             checkpoint in `checkpoint/`; the run cycles through every
             articulation state of 32 held-out shapes in a seed-drawn order,
             less the clouds on which the recorded program raised.
             Set-up: `load_pipeline` plus the PLY reads of those clouds.

Each workload draws its inputs with `--seed` from a fixed pool whose outputs
are recorded in `reference.json` by `make_reference.py`, so every op is
checked whatever the seed: the first steps of every training run against
the recorded loss trace, every prediction against the recorded labels,
mobility types and numeric fields. The train corpus that `generate_dataset`
writes before set-up is checked against its recorded tree digest. A
mismatch or an exception counts as a failed op.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from partmotion import plyio, training
from partmotion.config import RunConfig
from partmotion.datagen import (
    TEMPLATE_NAMES,
    generate_dataset,
    generate_shape,
    load_dataset,
    make_instances,
    make_sequence,
)
from partmotion.metrics import evaluate_mobility, match_moving_parts, prediction_matches, summarize
from partmotion.nets import NetConfig

import common
from speed import CLOCK, Calibrator
from tracing import LOSS_TERMS, Tracer

REFERENCE_FILE = common.HERE / "reference.json"
CHECKPOINT_DIR = common.HERE / "checkpoint"
CHECKPOINT_DIGESTS = common.HERE / "checkpoint.sha256"

# op tags whose per-step node counts are reported; anything else a later
# diffcore adds is counted under diffcore.nodes.other
NODE_TAGS = (
    "leaf", "add", "sub", "mul", "div", "neg", "scale", "matmul", "transpose",
    "reshape", "concat", "gather_rows", "reduce_sum", "reduce_mean",
    "reduce_max_with_index", "relu", "sigmoid", "tanh", "l2_norm_rows",
    "softmax_cross_entropy", "variance_along_axis", "pairwise_row_distances",
)

# relative tolerance for recorded numeric outputs; the train check also
# allows the 6-decimal rounding of the loss log line
RTOL = 1e-9
LOG_ATOL = 1e-6
PREDICT_RTOL = 1e-6


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration; FULL is what `run.py` measures."""

    n_points: int = 256
    n_frames: int = 8
    net: NetConfig = field(default_factory=NetConfig)
    categories: tuple = TEMPLATE_NAMES
    train_corpus_seed: int = 2        # the fixed training corpus
    train_seeds: int = 16             # pool of training seeds with recorded traces
    check_steps: int = 8              # leading steps of each run checked
    predict_pool_seed: int = 1        # held out from the checkpoint's corpus (seed 0)
    predict_shapes: int = 4           # per category; every articulation state is pooled
    setup_repeats: int = 5
    loss_end_steps: int = 16


FULL = Scale()


class Recorder:
    """Latencies, attempts and failures of one timed phase.

    Op times are the process's CPU time (user + system), calibrated by
    speed.Calibrator. The ops are single-threaded (one BLAS thread, one
    client), so CPU time equals wall time on an idle machine and leaves out
    waits for a CPU on a busy one. Run length (--seconds) is wall time.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []     # calibrated seconds, successful ops
        self.calibrator = Calibrator()
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def ok(self, cpu_seconds: float) -> None:
        """Record a successful op that just ended; probes the machine speed."""
        self.attempted += 1
        self.latencies.append(cpu_seconds * self.calibrator.factor())

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def latencies_ms(self) -> list[float]:
        return [1000.0 * s for s in self.latencies]

    def fail(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.calibrator.skip()
        if self.failed == 1:
            traceback.print_exception(exc, file=sys.stderr)

    def mismatch(self, what: str) -> None:
        self.mismatches.append(what)
        self.failed += 1
        if len(self.mismatches) == 1:
            print(f"output check failed: {what}", file=sys.stderr)

    def merge(self, other: "Recorder") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches += other.mismatches


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2**63)


def load_reference() -> dict:
    if not REFERENCE_FILE.is_file():
        raise SystemExit(f"error: missing {REFERENCE_FILE}; run make_reference.py")
    return json.loads(REFERENCE_FILE.read_text())


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def labels_digest(labels: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(labels, dtype="<i8").tobytes()).hexdigest()[:16]


def close(value: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + atol


# ---------------------------------------------------------------------------
# train


def train_config(scale: Scale, seed: int) -> RunConfig:
    return RunConfig(
        seed=seed, n_points=scale.n_points, n_frames=scale.n_frames, net=scale.net,
        epochs=1, log_every=1,
    )


def write_train_corpus(scale: Scale, out: Path) -> None:
    """One shape per category; each is a test shape, so each gets a scan."""
    generate_dataset(
        out, scale.categories, 1, scale.n_points, scale.n_frames, scale.train_corpus_seed,
        scan_fraction=1.0,
    )


def train_setup(corpus: Path, scale: Scale):
    records = load_dataset(corpus)
    return training.prepare_instances(records, train_config(scale, 0))


def parse_step(line: str) -> list[float]:
    """Loss and term values of one `step ...` log line, in order."""
    tok = line.split()
    return [float(tok[i]) for i in range(5, len(tok), 2)]


def timed_train(instances, scale: Scale, seed: int, seconds: float,
                reference: Optional[dict], rec: Recorder, losses_out: list) -> None:
    """Repeat one seed's training call until `seconds` pass; an op is a step.

    Calls run to completion, so every instance is stepped on equally often.
    Step latency comes from the timestamps of the log callback, so the
    untraced run calls `train_displacement` unwrapped; the speed probe runs
    inside the callback, outside the timed steps.
    """
    deadline = time.perf_counter() + seconds
    expected = None if reference is None else reference["seeds"][str(seed)]
    while time.perf_counter() < deadline:
        state = {"last": 0.0, "step": 0, "losses": []}

        def log(line: str) -> None:
            now = CLOCK()
            if not line.startswith("step "):
                return
            values = parse_step(line)
            step = state["step"]
            state["step"] += 1
            rec.ok(now - state["last"])
            state["losses"].append(values[0])
            if expected is not None and step < len(expected):
                want = expected[step]
                if len(values) != len(want) or not all(
                    close(v, w, RTOL, LOG_ATOL) for v, w in zip(values, want)
                ):
                    rec.mismatch(f"train seed {seed} step {step}: {values} != {want}")
            state["last"] = CLOCK()

        state["last"] = CLOCK()
        try:
            training.train_displacement(instances, train_config(scale, seed), log=log)
        except Exception as exc:  # an op that raises is counted, the run goes on
            rec.fail(exc)
            continue
        losses_out.append(state["losses"])


def run_train(scale: Scale, seed: int, seconds: float, trace: bool, work: Path,
              reference: Optional[dict]) -> "Result":
    corpus = work / "train_corpus"
    tracer = Tracer() if trace else None
    corpus_layers = write_corpus(scale, corpus, tracer)
    digest_problem = None
    if reference is not None and tree_digest(corpus) != reference["corpus_digest"]:
        digest_problem = f"train corpus digest {tree_digest(corpus)} != {reference['corpus_digest']}"

    def setup():
        return train_setup(corpus, scale)

    instances, setup_times = timed_setups(setup, scale.setup_repeats, tracer)
    result = Result(setup_times=setup_times, layers=corpus_layers)
    if digest_problem is not None:
        result.rec.mismatch(digest_problem)
    if tracer is not None:
        n_inst = len(instances) * scale.setup_repeats
        result.layers["training.prepare_ms_per_instance"] = tracer.scaled_ms("training.prepare") / n_inst
        result.layers["plyio.read_ms"] = tracer.scaled_ms("plyio.read") / scale.setup_repeats
    train_seed = int(make_rng(seed).integers(scale.train_seeds))
    losses: list[list[float]] = []

    def phase(secs: float, rec: Recorder) -> None:
        timed_train(instances, scale, train_seed, secs, reference, rec, losses)

    run_phases(phase, seconds, tracer, result)
    full = [run for run in losses if len(run) == len(instances)]
    if full:
        result.info["loss_end"] = float(np.mean(full[0][-scale.loss_end_steps:]))
    result.info.update(train_seed=train_seed, train_calls=len(losses))
    return result


# ---------------------------------------------------------------------------
# predict


@dataclass
class Cloud:
    key: str
    points: np.ndarray
    labels: np.ndarray
    targets: np.ndarray
    specs: Optional[list]


def predict_pool(scale: Scale) -> list[Cloud]:
    """Every articulation state of the held-out shapes, shape by shape."""
    pool = []
    for cat_idx, category in enumerate(scale.categories):
        for shape_idx in range(scale.predict_shapes):
            rng = np.random.default_rng([scale.predict_pool_seed, cat_idx, shape_idx])
            seq = make_sequence(generate_shape(category, rng, scale.n_points), scale.n_frames)
            for inst in make_instances(seq):
                pool.append(Cloud(
                    f"{category}/{shape_idx}/{inst.t}", inst.points, inst.labels,
                    inst.targets, inst.specs,
                ))
    return pool


def prediction_record(pred) -> dict:
    """The fields of a prediction that the reference pins."""
    parts = sorted(pred.mobilities)
    return {
        "labels": labels_digest(pred.labels),
        "types": [None if pred.mobilities[p] is None else pred.mobilities[p].tau for p in parts],
        "mean_step": pred.mean_step,
        "confidences": [pred.confidences.get(p, 0.0) for p in parts],
    }


def check_prediction(record: dict, want: Optional[dict]) -> Optional[str]:
    """None when the prediction matches its reference (or has none)."""
    if want is None:
        return None
    if record["labels"] != want["labels"] or record["types"] != want["types"]:
        return f"labels/types {record['labels']} {record['types']} != {want['labels']} {want['types']}"
    numbers = [record["mean_step"]] + record["confidences"]
    expected = [want["mean_step"]] + want["confidences"]
    if not all(close(v, w, PREDICT_RTOL) for v, w in zip(numbers, expected)):
        return f"numeric fields {numbers} != {expected}"
    return None


def verify_checkpoint() -> None:
    for line in CHECKPOINT_DIGESTS.read_text().splitlines():
        digest, name = line.split()
        actual = hashlib.sha256((CHECKPOINT_DIR / name).read_bytes()).hexdigest()
        if actual != digest:
            raise SystemExit(f"error: checkpoint file {name} does not match its recorded digest")


def timed_predict(pipeline, clouds: list[Cloud], seconds: float, reference: Optional[dict],
                  rec: Recorder, quality: dict) -> None:
    deadline = time.perf_counter() + seconds
    i = quality.setdefault("next", 0)
    while time.perf_counter() < deadline:
        cloud = clouds[i % len(clouds)]
        i += 1
        start = CLOCK()
        try:
            pred = pipeline.predict(cloud.points)
        except Exception as exc:  # an op that raises is counted, the run goes on
            rec.fail(exc)
            continue
        rec.ok(CLOCK() - start)
        want = None if reference is None else reference["pool"].get(cloud.key)
        problem = check_prediction(prediction_record(pred), want)
        if problem is not None:
            rec.mismatch(f"predict {cloud.key}: {problem}")
        if cloud.key not in quality["seen"]:
            quality["seen"].add(cloud.key)
            score_prediction(pred, cloud, quality)
    quality["next"] = i


def score_prediction(pred, cloud: Cloud, quality: dict) -> None:
    quality["disp_err"].append(float(np.linalg.norm(pred.maps - cloud.targets, axis=2).mean()))
    quality["ap"].append(prediction_matches(pred.labels, cloud.labels, pred.confidences))
    if cloud.specs is not None:
        for m, spec in zip(match_moving_parts(pred.labels, cloud.labels), cloud.specs):
            quality["mob"].append(
                evaluate_mobility(None if m.pred_part is None else pred.mobilities.get(m.pred_part), spec)
            )


def retry_known_failure(pipeline, cloud: Cloud, recorded: str) -> str:
    """Untimed: whether `predict` still raises what the reference recorded."""
    try:
        pipeline.predict(cloud.points)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        return "still raises" if error == recorded else f"now raises {error}"
    return "now succeeds"


def run_predict(scale: Scale, seed: int, seconds: float, trace: bool, work: Path,
                reference: Optional[dict], pipeline_dir: Path = CHECKPOINT_DIR,
                extra_clouds: tuple = ()) -> "Result":
    if pipeline_dir == CHECKPOINT_DIR:
        verify_checkpoint()
    pool = predict_pool(scale)
    # clouds on which the recorded program raised are left out of the timed
    # loop, so every timed op is expected to succeed; they are retried once
    # after it and reported on the info line
    known_errors = {} if reference is None else reference["errors"]
    raising = [cloud for cloud in pool if cloud.key in known_errors]
    pool = [cloud for cloud in pool if cloud.key not in known_errors]
    clouds = list(extra_clouds) + [pool[i] for i in make_rng(seed).permutation(len(pool))]
    inputs = work / "predict_inputs"
    inputs.mkdir()
    for k, cloud in enumerate(clouds):
        plyio.write_ply(inputs / f"{k:04d}.ply", cloud.points)
    tracer = Tracer() if trace else None

    def setup():
        pipeline = training.load_pipeline(pipeline_dir)
        points = [plyio.read_ply(inputs / f"{k:04d}.ply")[0] for k in range(len(clouds))]
        return pipeline, points

    (pipeline, points), setup_times = timed_setups(setup, scale.setup_repeats, tracer)
    for cloud, pts in zip(clouds, points):
        cloud.points = pts
    result = Result(setup_times=setup_times)
    if tracer is not None:
        result.layers["training.load_pipeline_ms"] = (
            tracer.scaled_ms("training.load_pipeline") / scale.setup_repeats
        )
        result.layers["plyio.read_ms"] = tracer.scaled_ms("plyio.read") / scale.setup_repeats
    quality = {"seen": set(), "disp_err": [], "ap": [], "mob": []}

    def phase(secs: float, rec: Recorder) -> None:
        timed_predict(pipeline, clouds, secs, reference, rec, quality)

    run_phases(phase, seconds, tracer, result)
    result.info["known_failures"] = {
        cloud.key: retry_known_failure(pipeline, cloud, known_errors[cloud.key]) for cloud in raising
    }
    if quality["ap"]:
        report = summarize(quality["mob"], quality["ap"])
        result.info.update(
            scored_clouds=len(quality["ap"]),
            disp_err=float(np.mean(sorted(quality["disp_err"]))),
            e_seg=report.e_seg, e_type=report.e_type, e_angle=report.e_angle,
        )
    return result


# ---------------------------------------------------------------------------
# shared measurement


@dataclass
class Result:
    setup_times: list[float]
    rec: Recorder = field(default_factory=Recorder)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def write_corpus(scale: Scale, out: Path, tracer: Optional[Tracer]) -> dict:
    """Write the train corpus; traced, return its datagen and PLY-write layers.

    These layer numbers are per corpus written (8 shapes, 8 scans), the one
    place the benchmark runs `generate_dataset`; no timed op includes it.
    """
    if tracer is None:
        write_train_corpus(scale, out)
        return {}
    calibrator = Calibrator()
    tracer.install()
    try:
        write_train_corpus(scale, out)
    finally:
        tracer.uninstall()
    tracer.scale = calibrator.factor()
    ms = tracer.scaled_ms
    scans = tracer.calls["datagen.scan"]
    layers = {
        "datagen.generate_shape_ms": ms("datagen.generate_shape"),
        "datagen.make_sequence_ms": ms("datagen.make_sequence"),
        "datagen.scan_ms": ms("datagen.scan"),
        "datagen.scan_attempts_per_scan": tracer.calls["datagen.partial_scan"] / scans if scans else 0.0,
        "plyio.write_ms": ms("plyio.write"),
        "plyio.bytes_written": float(tracer.counts["plyio.bytes_written"]),
    }
    tracer.reset()
    return layers


def timed_setups(setup: Callable, repeats: int, tracer: Optional[Tracer]):
    """Run set-up `repeats` times; returns the last result and every time.

    With a tracer, the set-up spans are recorded and the tracer's `scale`
    is set to the set-ups' median calibration factor.
    """
    times = []
    calibrator = Calibrator()
    if tracer is not None:
        tracer.install()
    try:
        for _ in range(repeats):
            start = CLOCK()
            out = setup()
            times.append((CLOCK() - start) * calibrator.factor())
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.scale = statistics.median(calibrator.factors)
    return out, times


def run_phases(phase: Callable[[float, Recorder], None], seconds: float,
               tracer: Optional[Tracer], result: Result) -> None:
    """Untraced: one phase of `seconds`. Traced: an untraced half, then a
    traced half; the per-layer numbers come from the traced half and the
    overhead is the difference of the two halves' median latency."""
    if not tracer:
        phase(seconds, result.rec)
        return
    plain = Recorder()
    phase(seconds / 2.0, plain)
    tracer.reset()
    tracer.install()
    try:
        phase(seconds / 2.0, result.rec)
    finally:
        tracer.uninstall()
    tracer.scale = statistics.median(result.rec.calibrator.factors or [1.0])
    result.layers.update(layer_metrics(tracer, result.rec))
    if plain.latencies and result.rec.latencies:
        result.layers["trace.overhead_ms"] = (
            statistics.median(result.rec.latencies_ms()) - statistics.median(plain.latencies_ms())
        )
    result.rec.merge(plain)


def layer_metrics(t: Tracer, rec: Recorder) -> dict:
    """Per-op layer numbers of the traced phase (0 where a layer is idle).

    Span times are scaled by the phase's median calibration factor, so they
    are on the same footing as the op latencies.
    """
    ops = max(rec.ops, 1)
    ms = t.scaled_ms
    steps = t.calls["diffcore.backward"]
    fits = t.calls["mobfit.fit"]
    predicts = t.calls["training.predict"]
    out = {
        "nets.build_plan_ms": ms("nets.build_plan") / ops,
        "nets.build_plan_calls": t.calls["nets.build_plan"] / ops,
        "nets.hallucinate_ms": ms("nets.hallucinate") / ops,
        "nets.segment_ms": ms("nets.segment") / ops,
        "nets.regressor_ms": ms("nets.regressor") / ops,
        "losses.total_ms": ms("losses.total") / ops,
    }
    for term in LOSS_TERMS:
        out[f"losses.{term}_ms"] = ms(f"losses.{term}") / ops
        out[f"losses.{term}_calls"] = t.calls[f"losses.{term}"] / ops
    out.update({
        "diffcore.backward_ms": ms("diffcore.backward") / ops,
        "diffcore.adam_ms": ms("diffcore.adam") / ops,
        "diffcore.grad_nodes_per_step": sum(t.nodes.values()) / steps if steps else 0.0,
    })
    for tag in NODE_TAGS:
        out[f"diffcore.nodes.{tag}"] = t.nodes[tag] / steps if steps else 0.0
    other = sum(n for tag, n in t.nodes.items() if tag not in NODE_TAGS)
    out["diffcore.nodes.other"] = other / steps if steps else 0.0
    out.update({
        "cluster.dbscan_ms": ms("cluster.dbscan") / ops,
        "cluster.dbscan_points": t.counts["cluster.dbscan_points"] / ops,
        "mobfit.fit_ms": ms("mobfit.fit") / ops,
        "mobfit.fits": fits / ops,
        "mobfit.rejected_frac": t.counts["mobfit.rejected"] / fits if fits else 0.0,
        "training.predict_self_ms": t.scale * t.self_ms["training.predict"] / ops,
        "training.parts_found_frac": t.counts["training.parts_found"] / predicts if predicts else 0.0,
    })
    return out


SETUP_LAYERS = ("training.prepare_ms_per_instance", "training.load_pipeline_ms", "plyio.read_ms")
CORPUS_LAYERS = (
    "datagen.generate_shape_ms", "datagen.make_sequence_ms", "datagen.scan_ms",
    "datagen.scan_attempts_per_scan", "plyio.write_ms", "plyio.bytes_written",
)


def end_to_end(result: Result) -> dict:
    lat_ms = result.rec.latencies_ms()
    return {
        "setup_s": statistics.median(result.setup_times),
        "op_ms_p50": percentile(lat_ms, 50),
        "op_ms_p90": percentile(lat_ms, 90),
        # closed loop, one client: ops per second of op time
        "ops_per_s": 1000.0 / statistics.mean(lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


UNITS = {
    "setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name in SETUP_LAYERS:
        return "ms"
    if name.endswith("_frac") or name.endswith("_per_scan"):
        return "ratio"
    if name == "plyio.bytes_written":
        return "B/corpus"
    if name in CORPUS_LAYERS:
        return "ms/corpus"
    if name.endswith("_ms"):
        return "ms/op"
    if name == "diffcore.grad_nodes_per_step" or name.startswith("diffcore.nodes."):
        return "count/step"
    return "count/op"


def machine_facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unpinned"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


RUNNERS = {"train": run_train, "predict": run_predict}


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL,
                 reference: Optional[dict] = None, **kwargs) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, info line)."""
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=common.ROOT))
    try:
        result = RUNNERS[name](scale, seed, seconds, trace, work,
                               None if reference is None else reference[name], **kwargs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rec = result.rec
    if trace:
        for name_ in SETUP_LAYERS + CORPUS_LAYERS + ("trace.overhead_ms",):
            result.layers.setdefault(name_, 0.0)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(result.layers.items())}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end(result).items()}
    line = {
        "correct": not rec.mismatches,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    info = dict(result.info, workload=name, seed=seed, ops=rec.ops,
                speed_factor_median=statistics.median(rec.calibrator.factors or [0.0]),
                setup_runs=result.setup_times, machine=machine_facts())
    return line, info
