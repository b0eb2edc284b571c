"""Record the expected outputs that the benchmark checks every op against.

    python3 perfbench/make_reference.py

Writes `perfbench/reference.json` with, for the full-size workloads:

- train: the loss and term values of the first `check_steps` logged steps
  of `train_displacement` for every training seed in the pool, and the
  tree digest of the train corpus that `generate_dataset` writes;
- predict: labels digest, mobility types, mean step and cluster
  confidences of `Pipeline.predict` on every cloud of the held-out pool,
  or null where the call raises (the error is listed under `errors`, and
  the benchmark leaves that cloud out of its timed loop).

Re-run it only when a change is meant to alter what the program computes,
and say so in the change.
"""
from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import common


class _Enough(Exception):
    """Stops a training call once the checked steps are logged."""


def main() -> int:
    import workloads as wl
    from partmotion import training

    scale = wl.FULL
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=common.ROOT))
    try:
        wl.write_train_corpus(scale, work / "train_corpus")
        instances = wl.train_setup(work / "train_corpus", scale)
        seeds = {}
        for seed in range(scale.train_seeds):
            lines: list[list[float]] = []

            def log(line: str) -> None:
                if line.startswith("step "):
                    lines.append(wl.parse_step(line))
                    if len(lines) == scale.check_steps:
                        raise _Enough

            try:
                training.train_displacement(instances, wl.train_config(scale, seed), log=log)
            except _Enough:
                pass
            seeds[str(seed)] = lines
        train = {
            "check_steps": scale.check_steps,
            "seeds": seeds,
            "corpus_digest": wl.tree_digest(work / "train_corpus"),
        }

        wl.verify_checkpoint()
        pipeline = training.load_pipeline(wl.CHECKPOINT_DIR)
        pool, errors = {}, {}
        for cloud in wl.predict_pool(scale):
            try:
                pool[cloud.key] = wl.prediction_record(pipeline.predict(cloud.points))
            except Exception as exc:  # recorded, so the benchmark leaves the cloud out
                pool[cloud.key] = None
                errors[cloud.key] = f"{type(exc).__name__}: {exc}"
        predict = {"pool": pool, "errors": errors}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {"train": train, "predict": predict}
    wl.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE_FILE}; predict errors: {len(errors)}")
    return 0


if __name__ == "__main__":
    common.prepare()
    raise SystemExit(main())
