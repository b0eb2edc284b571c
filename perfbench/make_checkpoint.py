"""Rebuild the fixed checkpoint that the `predict` workload loads.

    python3 perfbench/make_checkpoint.py

Generates the training corpus (3 shapes of each of the 8 categories, 256
points, 8 frames, corpus seed 0), trains the full model on all 24 shapes
for 3 epochs through `training.run_training`, writes the run directory to
`perfbench/checkpoint/` and records the SHA-256 of every file in
`perfbench/checkpoint.sha256`. Training is deterministic given the config,
so a rebuild on the same BLAS gives the same bytes.
"""
from __future__ import annotations

import hashlib
import shutil
import tempfile

import common

CHECKPOINT_DIR = common.HERE / "checkpoint"
DIGEST_FILE = common.HERE / "checkpoint.sha256"
CHECKPOINT_FILES = ("config.json", "model.json", "displacement.params", "mobility.params")


def checkpoint_config():
    from partmotion.config import RunConfig

    return RunConfig(seed=0, shapes_per_category=3, n_points=256, n_frames=8, epochs=3)


def file_digests(run_dir) -> dict[str, str]:
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in CHECKPOINT_FILES
    }


def main() -> int:
    from partmotion.datagen import generate_dataset, load_dataset
    from partmotion.training import run_training

    config = checkpoint_config()
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=common.ROOT)
    try:
        generate_dataset(
            work, config.categories, config.shapes_per_category,
            config.n_points, config.n_frames, config.seed,
        )
        records = load_dataset(work)
        run_training(config, records, out_dir=work + "/run")
        shutil.rmtree(CHECKPOINT_DIR, ignore_errors=True)
        CHECKPOINT_DIR.mkdir()
        for name in CHECKPOINT_FILES:
            shutil.copyfile(f"{work}/run/{name}", CHECKPOINT_DIR / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    digests = file_digests(CHECKPOINT_DIR)
    DIGEST_FILE.write_text("".join(f"{d}  {n}\n" for n, d in digests.items()))
    print(f"checkpoint written to {CHECKPOINT_DIR}")
    return 0


if __name__ == "__main__":
    common.prepare()
    raise SystemExit(main())
