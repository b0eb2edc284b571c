"""The benchmark's output checks, replayed at full scale against perfbench/reference.json.

A benchmark run counts an op as failed when its output leaves the recorded
reference by more than the benchmark's tolerances. A change that moves the
rounding of training or prediction must stay inside them, and these tests
fail first when it does not. They use perfbench's own pool, tolerances and
checks, and read the reference and the checkpoint without changing them.
"""
import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads as wl  # noqa: E402
from partmotion import training  # noqa: E402

TRAIN_SEED = 0  # one seed of the benchmark's pool of 16


@pytest.fixture(scope="module")
def reference():
    return wl.load_reference()


class _Replayed(Exception):
    """Ends a training call once the checked steps are logged."""


def test_first_train_steps_match_the_benchmark_reference(tmp_path, reference):
    ref = reference["train"]
    wl.write_train_corpus(wl.FULL, tmp_path)
    assert wl.tree_digest(tmp_path) == ref["corpus_digest"]
    expected = ref["seeds"][str(TRAIN_SEED)][: ref["check_steps"]]
    steps = []

    def log(line: str) -> None:
        if line.startswith("step "):
            steps.append(wl.parse_step(line))
            if len(steps) == len(expected):
                raise _Replayed

    with pytest.raises(_Replayed):
        training.train_displacement(wl.train_setup(tmp_path, wl.FULL), wl.train_config(wl.FULL, TRAIN_SEED), log=log)
    for step, (values, want) in enumerate(zip(steps, expected)):
        assert len(values) == len(want), step
        assert all(wl.close(v, w, wl.RTOL, wl.LOG_ATOL) for v, w in zip(values, want)), (step, values, want)


def test_one_held_out_cloud_per_category_matches_the_benchmark_reference(reference):
    ref = reference["predict"]
    wl.verify_checkpoint()
    pipeline = training.load_pipeline(wl.CHECKPOINT_DIR)
    picked = {}
    for cloud in wl.predict_pool(dataclasses.replace(wl.FULL, predict_shapes=1)):
        category = cloud.key.split("/")[0]
        if cloud.key not in ref["errors"]:
            picked.setdefault(category, cloud)
    assert len(picked) == len(wl.FULL.categories)
    for cloud in picked.values():
        problem = wl.check_prediction(wl.prediction_record(pipeline.predict(cloud.points)), ref["pool"][cloud.key])
        assert problem is None, f"{cloud.key}: {problem}"
