"""Run one benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload {train,predict} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout. The next-to-last line of standard output
holds run facts (machine, BLAS, output-quality figures); the last line is
the result: `correct`, `attempted`, `failed` and `metrics`, which are the
end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`. See workloads.py for what each workload measures.
"""
from __future__ import annotations

import argparse
import json
import sys

import common


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "predict"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    common.prepare()
    import workloads

    line, info = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        reference=workloads.load_reference(),
    )
    print(json.dumps({"info": info}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
