"""Benchmark for seca: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; seca is imported from its ``src/``. With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
the same work runs under the span tracer and the result holds the
per-layer metrics, with the spans written to ``perfbench/out/``. The last
line of standard output is the result; the exit code is 0 only when every
output check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("stream_sgakt", "matrix_replay", "gradcheck")

# Users get these unset: the CLI's pool then runs one worker per core and
# OpenBLAS picks its own thread count. They are cleared before numpy loads
# so that an inherited value cannot change what is measured.
for _var in ("SECA_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ.pop(_var, None)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "seca" / "__init__.py").is_file():
        print(f"error: no seca package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import seca
    if Path(seca.__file__).resolve().parent != src / "seca":
        print(f"error: imported seca from {seca.__file__}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    out = OUT / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    work = workloads.WORKLOADS[args.workload](args.seed, out)
    try:
        setup_s = workloads.measure_setup(work, src)
        work.run(args.seconds)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if not work.unit_s:
        print("error: every operation failed", file=sys.stderr)
        return 1
    for msg in work.failures:
        print(f"check failed: {msg}", file=sys.stderr)

    e2e = work.metrics()
    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **e2e,
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    else:
        metrics = tracer.layer_metrics()
        metrics.update(work.cli_metrics())
        metrics["trace.work_per_s"] = e2e["work_per_s"]
        tracer.write(OUT / f"trace-{args.workload}.jsonl",
                     {"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds})
    correct = not work.failures
    print(json.dumps({"correct": correct, "attempted": work.attempted,
                      "failed": work.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
