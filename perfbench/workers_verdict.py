"""One-off verdict on the `--workers` flag: 1 thread against 2.

    python3 perfbench/workers_verdict.py

Times `evaluate_model` on the test split of a 10-per-category corpus (the
split `partmotion eval` scores by default; 8 shapes the checkpoint never
saw) and `generate_dataset` on a 40-shape corpus, each with workers=1 and
workers=2, in pairs whose order alternates, and writes the medians, every
wall time and the verdict to `perfbench/results/workers_verdict.json`. BLAS
stays pinned to one thread, as in the benchmark, so workers=2 means two
Python threads. A side wins only if it is faster in every pair.
"""
from __future__ import annotations

import json
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import common

PAIRS = 5
OUT = common.HERE / "results" / "workers_verdict.json"


def paired(run) -> dict:
    """Time run(workers) for workers 1 and 2 in PAIRS alternating pairs."""
    times = {1: [], 2: []}
    for k in range(PAIRS):
        for workers in ((1, 2) if k % 2 == 0 else (2, 1)):
            start = time.perf_counter()
            run(workers)
            times[workers].append(time.perf_counter() - start)
    m1, m2 = statistics.median(times[1]), statistics.median(times[2])
    wins2 = sum(b < a for a, b in zip(times[1], times[2]))
    if wins2 == PAIRS:
        verdict = "workers=2 faster"
    elif wins2 == 0:
        verdict = "workers=2 slower"
    else:
        verdict = "no consistent difference"
    return {
        "seconds_workers_1": times[1],
        "seconds_workers_2": times[2],
        "median_workers_1": m1,
        "median_workers_2": m2,
        "speedup_workers_2": m1 / m2,
        "pairs_won_by_workers_2": f"{wins2}/{PAIRS}",
        "verdict": verdict,
    }


def main() -> int:
    import make_checkpoint
    import workloads as wl
    from partmotion.cli import format_metrics
    from partmotion.datagen import generate_dataset, load_dataset
    from partmotion.training import evaluate_model, load_pipeline

    wl.verify_checkpoint()
    config = make_checkpoint.checkpoint_config()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=common.ROOT))
    try:
        generate_dataset(
            work / "eval", config.categories, 10, config.n_points, config.n_frames, config.seed,
        )
        records = load_dataset(work / "eval", split="test")
        pipeline = load_pipeline(wl.CHECKPOINT_DIR)
        reports = {}

        def evaluate(workers: int) -> None:
            reports[workers] = format_metrics(evaluate_model(records, pipeline, workers=workers))

        eval_result = paired(evaluate)
        if reports[1] != reports[2]:
            raise SystemExit("error: evaluate_model reports differ between workers=1 and 2")

        def generate(workers: int) -> None:
            out = work / f"gen_{workers}"
            generate_dataset(out, config.categories, 5, config.n_points, config.n_frames,
                             seed=0, workers=workers)
            shutil.rmtree(out)

        gen_result = paired(generate)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    verdict = {
        "evaluate_model": dict(eval_result, shapes=len(records)),
        "generate_dataset": dict(gen_result, shapes=8 * 5),
        "machine": wl.machine_facts(),
    }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(verdict, indent=1) + "\n")
    print(json.dumps({k: v["verdict"] for k, v in verdict.items() if "verdict" in v}))
    return 0


if __name__ == "__main__":
    common.prepare()
    raise SystemExit(main())
