#!/usr/bin/env python3
"""Byte audit of seca's outputs: run a fixed command set, hash every file.

    python3 scripts/audit_outputs.py OUT_DIR

Imports seca from this checkout's ``src/`` and runs, inside OUT_DIR:

- a default ``train`` and an ``eval`` of its checkpoint;
- ``ablate-classifier`` and ``ablate-distill`` on the ``replay`` and
  ``short`` configs below;
- ``train`` and ``eval`` for every classifier variant and every
  distillation strategy on the ``replay``, ``short`` and ``full_cov``
  configs;
- ``gen-data`` on the ``short`` config, then ``train``, ``eval`` and
  ``ablate-classifier`` on the ``bank`` config, which reads that bank by
  a relative path;
- ``theory-check`` over 30 instances;
- ``sweep`` of the pool size over 1 and ALL on the ``short`` config;
- ``report --format md`` over ``ablate-distill`` on ``short`` and that
  sweep.

So every CLI command runs at least once.

OUT_DIR must not exist yet. Paths are relative to it, so manifests do not
name the directory.
OUT_DIR/sha256.txt lists one ``<sha256>  <path>`` line per output file,
sorted by path. Two checkouts that write the same sha256.txt wrote the
same bytes; compare them with ``diff``.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from seca import cli  # noqa: E402
from seca.sevpr import VARIANTS  # noqa: E402
from seca.sgakt import STRATEGIES  # noqa: E402

# "replay" is perfbench's matrix_replay config
CONFIGS = {
    "replay": {"epochs_per_task": 1, "replay": True,
               "data": {"synthetic": {"num_tasks": 5}}},
    "short": {"epochs_per_task": 2, "data": {"synthetic": {"num_tasks": 4}}},
    "full_cov": {"epochs_per_task": 1, "replay": True, "replay_full_cov": True,
                 "data": {"synthetic": {"num_tasks": 5}}},
}
# the bank that gen-data writes from the "short" config
BANK = {"epochs_per_task": 2,
        "data": {"bank": {"path": "gen/short/bank.bin", "num_tasks": 4}}}


def commands() -> list[list[str]]:
    out = [["train", "--out", "train/default"],
           ["eval", "--ckpt", "train/default/run.ckpt", "--out", "eval/default"]]
    for name in ("replay", "short"):
        for command in ("ablate-classifier", "ablate-distill"):
            out.append([command, "--config", f"configs/{name}.json",
                        "--out", f"{command}/{name}"])
    for name in CONFIGS:
        overrides = [("classifier", v) for v in VARIANTS]
        overrides += [("distill", s) for s in STRATEGIES]
        for field, value in overrides:
            leaf = f"{name}/{field}-{value}"
            out.append(["train", "--config", f"configs/{leaf}.json",
                        "--out", f"train/{leaf}"])
            out.append(["eval", "--ckpt", f"train/{leaf}/run.ckpt",
                        "--out", f"eval/{leaf}"])
    out += [["gen-data", "--config", "configs/short.json",
             "--out", "gen/short"],
            ["train", "--config", "configs/bank.json", "--out", "train/bank"],
            ["eval", "--ckpt", "train/bank/run.ckpt", "--out", "eval/bank"],
            ["ablate-classifier", "--config", "configs/bank.json",
             "--out", "ablate-classifier/bank"],
            ["theory-check", "--instances", "30", "--out", "theory-check"],
            ["sweep", "--param", "pool", "--values", "1", "ALL",
             "--config", "configs/short.json", "--out", "sweep/pool-short"],
            ["report", "--format", "md", "--in", "ablate-distill/short",
             "sweep/pool-short", "--out", "report/md"]]
    return out


def write_configs(root: Path) -> None:
    for name, doc in CONFIGS.items():
        (root / "configs" / name).mkdir(parents=True)
        (root / "configs" / f"{name}.json").write_text(json.dumps(doc))
        for field, values in (("classifier", VARIANTS), ("distill", STRATEGIES)):
            for value in values:
                path = root / "configs" / name / f"{field}-{value}.json"
                path.write_text(json.dumps(dict(doc, **{field: value})))
    (root / "configs" / "bank.json").write_text(json.dumps(BANK))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    root = Path(argv[0])
    if root.exists():
        print(f"error: {root} already exists", file=sys.stderr)
        return 2
    root.mkdir(parents=True)
    os.chdir(root)
    write_configs(Path("."))
    for args in commands():
        rc = cli.main(args)
        if rc != 0:
            print(f"error: seca {' '.join(args)} exited {rc}", file=sys.stderr)
            return 1
    lines = []
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.as_posix()}")
    Path("sha256.txt").write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} files hashed into {root / 'sha256.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
