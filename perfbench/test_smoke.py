"""Sub-second smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

Checks that every workload emits exactly the metric names that
BENCHMARK.json declares, traced and untraced; that an op that raises is
counted as failed without aborting the run; and that a cloud on which the
recorded program raised is left out of the timed loop and retried.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import common
import workloads as wl
from partmotion import training
from partmotion.errors import ConfigError
from partmotion.geom import normalize_to_unit_box
from partmotion.nets import DisplacementNet, MobilityRegressor, NetConfig

BENCH = json.loads((common.ROOT / "BENCHMARK.json").read_text())
TINY_NET = NetConfig(
    sa_stages=((16, 0.35, (8, 16)), (4, 0.8, (16, 24))),
    group_sizes=(8, 4), global_width=24, decoder_hidden=16, head_hidden=8, feature_width=8,
)
TINY = wl.Scale(
    n_points=64, n_frames=4, net=TINY_NET, categories=("drawer_box", "fan"),
    train_seeds=2, check_steps=2, predict_shapes=1,
    setup_repeats=1, loss_end_steps=2,
)
# the default network: its first stage samples 64 centroids, so a cloud of
# fewer than 64 points cannot be planned
TINY_DEFAULT_NET = dataclasses.replace(TINY, net=NetConfig())


def untrained_pipeline(tmp_path, scale):
    config = wl.train_config(scale, 0)
    rng = np.random.default_rng(0)
    pipeline = training.Pipeline(
        config,
        net=DisplacementNet(scale.n_frames, rng, scale.net),
        regressor=MobilityRegressor(scale.n_frames, rng, scale.net),
    )
    return training.save_pipeline(tmp_path / "run", pipeline)


def names(kind):
    return {m["name"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload", sorted(wl.RUNNERS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted(workload, trace, tmp_path):
    kwargs = {"pipeline_dir": untrained_pipeline(tmp_path, TINY)} if workload == "predict" else {}
    line, info = wl.run_workload(workload, 3, 0.05, trace, scale=TINY, **kwargs)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == names("per_layer" if trace else "end_to_end")
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {"nproc", "blas", "blas_version", "blas_threads", "numpy", "scipy"} <= set(info["machine"])


def test_raising_op_is_counted_and_run_continues(tmp_path):
    # the recursion's known defect: recursive_predict hands Pipeline.predict
    # components of 32-63 points, which the default network cannot plan
    component = wl.predict_pool(TINY_DEFAULT_NET)[0]
    part = component.points[:40]
    with pytest.raises(ConfigError):
        training.build_plan(part, NetConfig())
    bad = wl.Cloud("component", normalize_to_unit_box(part)[0], component.labels[:40],
                   component.targets[:, :40], None)
    line, _ = wl.run_workload(
        "predict", 3, 0.05, False, scale=TINY_DEFAULT_NET,
        pipeline_dir=untrained_pipeline(tmp_path, TINY_DEFAULT_NET), extra_clouds=(bad,),
    )
    assert line["failed"] >= 1
    assert line["attempted"] > line["failed"]
    assert line["correct"]


def test_recorded_failure_is_left_out_of_timed_loop_and_retried(tmp_path):
    key = wl.predict_pool(TINY)[0].key
    reference = {"predict": {"pool": {}, "errors": {key: "DataError: recorded"}}}
    line, info = wl.run_workload(
        "predict", 3, 0.05, False, scale=TINY, reference=reference,
        pipeline_dir=untrained_pipeline(tmp_path, TINY),
    )
    assert line["correct"] and line["failed"] == 0
    assert info["known_failures"] == {key: "now succeeds"}
