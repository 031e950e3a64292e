#!/usr/bin/env python3
"""Paired synthetic benchmark over distillation strategies and classifiers.

Runs `seca ablate-distill` at the default desk-scale stream (10 tasks,
5 classes each, 64-d features): every distillation strategy with and
without prototype refinement, three paired trials per variant. Trial i
shifts the model seed and the data seed together, so all variants inside
a trial see identical task streams.

Prints two blocks of mean/std Last and Avg accuracy, then the headline
margins the acceptance suite checks. Use --json to dump the raw rows.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from seca import cli


def collect(out: Path) -> list[dict]:
    """One row per variant from rows.json, with each trial's leaf summary."""
    table = []
    for row in json.loads((out / "rows.json").read_text())["rows"]:
        leaves = sorted((out / "runs" / row["variant"]).iterdir(),
                        key=lambda p: int(p.name))
        cfg = json.loads((leaves[0] / "manifest.json").read_text())["config"]
        runs = [json.loads((d / "summary.json").read_text()) for d in leaves]
        table.append({
            "distill": cfg["distill"],
            "classifier": cfg["classifier"],
            "last_mean": row["last"],
            "avg_mean": row["avg"],
            "lasts": [r["last"] for r in runs],
            "avgs": [r["avg"] for r in runs],
        })
    return table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", metavar="PATH", help="write raw rows as JSON")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as out:
        t0 = time.time()
        code = cli.main(["ablate-distill", "--out", out])
        wall = time.time() - t0
        if code != 0:
            return code
        table = collect(Path(out))

    for classifier in dict.fromkeys(r["classifier"] for r in table):
        label = "with refinement" if classifier == "se_vpr" else "text-only classifier"
        print(f"\n{label}")
        print(f"  {'strategy':10s} {'Last':>14s} {'Avg':>14s}")
        for r in table:
            if r["classifier"] != classifier:
                continue
            lasts, avgs = np.array(r["lasts"]), np.array(r["avgs"])
            print(
                f"  {r['distill']:10s} {r['last_mean']:7.2f} ± {lasts.std():4.2f}"
                f" {r['avg_mean']:7.2f} ± {avgs.std():4.2f}"
            )

    def mean_last(distill, classifier):
        return next(r["last_mean"] for r in table
                    if (r["distill"], r["classifier"]) == (distill, classifier))

    full = mean_last("sg_akt", "se_vpr")
    seq_base = mean_last("seq", "only_text")
    akt_text = mean_last("sg_akt", "only_text")
    print(f"\nfull ({full:.2f}) vs sequential baseline ({seq_base:.2f}):"
          f" margin {full - seq_base:+.2f}")
    print(f"refinement on ({full:.2f}) vs text-only ({akt_text:.2f}):"
          f" margin {full - akt_text:+.2f}")
    runs = sum(len(r["lasts"]) for r in table)
    print(f"wall time {wall:.1f}s for {runs} runs")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(table, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
