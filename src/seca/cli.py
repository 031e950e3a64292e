"""Command-line surface: runs, ablations, sweeps, theory checks, reports.

Every command writes a manifest.json next to its outputs with the fully
resolved configuration, the seed, and the on-disk format versions, so any
result directory can be re-run exactly. Ablations run each variant over
the same three (data seed, init seed) pairs; the table rows are means
over those paired trials. Leaves run one after another, in variant then
trial order, so the first failing leaf stops the command.

Exit codes: 0 success, 1 internal failure or failed check table, 2 invalid
configuration or protocol misuse, 3 unreadable or malformed input files,
4 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import seeding, theory
from .config import BETA_TASK_INDEX, RunConfig, build_stream, config_dict, \
    load_config, parse_config
from .datastream import BANK_VERSION, flatten_stream, gen_synthetic, \
    write_feature_bank
from .errors import ConfigError, DataFormatError, SecaError
from .sevpr import VARIANTS
from .sgakt import STRATEGIES
from .trainer import CKPT_VERSION, check_width, load_checkpoint, predictor, \
    run_stream, save_checkpoint, write_metrics

MANIFEST_VERSION = 1
FORMAT_VERSIONS = {
    "manifest": MANIFEST_VERSION,
    "checkpoint": CKPT_VERSION,
    "feature_bank": BANK_VERSION,
}
TRIALS = 3


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir, command: str, cfg: RunConfig | None,
                    seed: int | None, **extra) -> None:
    doc = {
        "command": command,
        "config": config_dict(cfg) if cfg is not None else None,
        "seed": seed,
        "versions": FORMAT_VERSIONS,
    }
    doc.update(extra)
    _write_json(Path(out_dir) / "manifest.json", doc)


def _load_base_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _run_leaf(cfg: RunConfig, out_dir, save_ckpt: bool = False):
    """One full training run with its metrics, manifest, and checkpoint."""
    stream = build_stream(cfg.data)
    state, metrics = run_stream(cfg, stream)
    out_dir = Path(out_dir)  # made only now: a failed run leaves none
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics(out_dir, metrics, stream)
    if save_ckpt:
        save_checkpoint(out_dir / "run.ckpt", state)
    _write_manifest(out_dir, "train", cfg, cfg.seed)
    return metrics


def _paired_trials(cfg: RunConfig) -> list[RunConfig]:
    """Three trials stepping the data and init seeds in lockstep."""
    return [
        replace(cfg, seed=cfg.seed + i, data=cfg.data.reseed(cfg.data.seed + i))
        for i in range(TRIALS)
    ]


def _run_matrix(base: RunConfig, variants, out_dir, command: str) -> list[dict]:
    """Train every (variant, trial) pair and aggregate per-variant rows.

    ``variants`` is a list of (name, overrides) where overrides is a dict
    of RunConfig field replacements applied on top of each paired trial.
    """
    out_dir = Path(out_dir)
    trials = _paired_trials(base)
    rows = []
    for name, overrides in variants:
        cfgs = [replace(trial, **overrides) for trial in trials]
        runs = [_run_leaf(cfg, out_dir / "runs" / name / str(i))
                for i, cfg in enumerate(cfgs)]
        per_task = np.mean([m.per_task for m in runs], axis=0)
        rows.append({
            "variant": name,
            "last": float(np.mean([m.last for m in runs])),
            "avg": float(np.mean([m.avg for m in runs])),
            "per_task": [float(a) for a in per_task],
            "seeds": [cfg.seed for cfg in cfgs],
        })
    _write_json(out_dir / "rows.json", {"rows": rows})
    _write_manifest(out_dir, command, base, base.seed,
                    variants=[name for name, _ in variants])
    return rows


def cmd_train(args) -> int:
    cfg = _load_base_config(args)
    _run_leaf(cfg, args.out, save_ckpt=True)
    return 0


def cmd_eval(args) -> int:
    state = load_checkpoint(args.ckpt)
    stream = build_stream(state.cfg.data)
    check_width(state.cfg, stream)
    predict = predictor(state)
    hits = [predict(t.test_x) == t.test_y for t in stream.tasks[:state.task]]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "overall": 100.0 * float(np.mean(np.concatenate(hits))),
        "per_task": [100.0 * float(np.mean(h)) for h in hits],
        "tasks": state.task,
    }
    _write_json(out_dir / "eval.json", doc)
    _write_manifest(out_dir, "eval", state.cfg, state.cfg.seed,
                    checkpoint=str(args.ckpt))
    return 0


def cmd_ablate_distill(args) -> int:
    cfg = _load_base_config(args)
    variants = [(s, {"distill": s, "classifier": "only_text"})
                for s in STRATEGIES]
    variants += [(f"{s}+se_vpr", {"distill": s, "classifier": "se_vpr"})
                 for s in STRATEGIES]
    _run_matrix(cfg, variants, args.out, "ablate-distill")
    return 0


def cmd_ablate_classifier(args) -> int:
    cfg = _load_base_config(args)
    variants = [(v, {"classifier": v}) for v in VARIANTS]
    _run_matrix(cfg, variants, args.out, "ablate-classifier")
    return 0


# sweep parameter -> its key path in the config document
_SWEEPS = {"beta": ("beta",), "tau_prime": ("tau_prime",),
           "pool": ("pool_max",), "width": ("encoder", "adapter_width")}


def _sweep_variants(param: str, tokens: list[str],
                    cfg: RunConfig) -> list[tuple[str, dict]]:
    """One variant per token, each parsed as a config file value would be.

    A token is JSON, or else a bare word; ``dynamic`` names the
    task-index schedule. Every token is checked before any leaf trains,
    and a token whose value an earlier one already gave is refused.
    """
    path = _SWEEPS[param]
    variants, values = [], []
    for tok in tokens:
        doc = config_dict(cfg)
        node = doc
        for key in path[:-1]:
            node = node[key]
        try:
            node[path[-1]] = json.loads(tok)
        except json.JSONDecodeError:
            node[path[-1]] = BETA_TASK_INDEX if tok == "dynamic" else tok
        try:
            value = getattr(parse_config(doc), path[0])
        except ConfigError as e:
            raise ConfigError(f"sweep: bad {param} value {tok!r}: {e}") \
                from None
        if value in values:
            raise ConfigError(f"sweep: repeated {param} value {tok!r}")
        values.append(value)
        variants.append((f"{param}={tok}", {path[0]: value}))
    return variants


def cmd_sweep(args) -> int:
    cfg = _load_base_config(args)
    _run_matrix(cfg, _sweep_variants(args.param, args.values, cfg),
                args.out, "sweep")
    return 0


def cmd_gen_data(args) -> int:
    cfg = _load_base_config(args)
    if cfg.data.synthetic is None:
        raise ConfigError("gen-data: config must use a synthetic data source")
    spec = cfg.data.synthetic
    stream = gen_synthetic(spec)
    feats, labels = flatten_stream(stream)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_feature_bank(out_dir / "bank.bin", feats, labels, stream.names)
    _write_manifest(out_dir, "gen-data", cfg, spec.seed,
                    samples=int(labels.size), classes=len(stream.names))
    return 0


def cmd_theory_check(args) -> int:
    if args.instances < 1:
        raise ConfigError(f"--instances: {args.instances} must be at least 1")
    if args.seed < 0:
        raise ConfigError(f"--seed: {args.seed} must be non-negative")
    taus = (0.1, 1.0, 10.0)
    rows = []
    for i in range(args.instances):
        rng = seeding.rng(args.seed, "theory", i)
        k = int(rng.integers(2, 9))
        tau = taus[i % len(taus)]
        losses = rng.uniform(0.0, 10.0, k)
        closed = theory.closed_form_weights(losses, tau)
        numeric = theory.numeric_minimize(losses, tau)
        max_err = float(np.max(np.abs(closed - numeric)))

        obj = theory.surrogate_objective(closed, losses, tau)
        probes = [np.full(k, 1.0 / k)]
        probes += [np.eye(k)[j] for j in range(k)]
        probes += [rng.dirichlet(np.ones(k)) for _ in range(20)]
        margin = float(max(
            obj - theory.surrogate_objective(p, losses, tau) for p in probes))
        ok = max_err <= 1e-5 and margin <= 1e-9
        rows.append({
            "instance": i, "teachers": k, "tau": tau,
            "max_err": max_err, "objective_margin": margin, "pass": ok,
        })

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_pass = all(r["pass"] for r in rows)
    _write_json(out_dir / "theory.json", {
        "instances": args.instances,
        "taus": list(taus),
        "all_pass": all_pass,
        "rows": rows,
    })
    _write_manifest(out_dir, "theory-check", None, args.seed,
                    instances=args.instances)
    return 0 if all_pass else 1


def _run_rows(d: Path) -> tuple[object, list[dict]]:
    """The format versions and the table rows of one run directory."""
    manifest = json.loads((d / "manifest.json").read_text())
    versions = manifest.get("versions")
    if (d / "rows.json").exists():
        rows = json.loads((d / "rows.json").read_text())["rows"]
    elif (d / "summary.json").exists():
        summary = json.loads((d / "summary.json").read_text())
        cfg = manifest.get("config") or {}
        rows = [{"variant": f"{cfg.get('distill', '?')}+"
                            f"{cfg.get('classifier', '?')}",
                 "seeds": [manifest.get("seed")],
                 **{k: summary[k] for k in ("last", "avg", "per_task")}}]
    else:
        raise DataFormatError("bad-manifest",
                              f"{d}: no rows.json or summary.json")
    return versions, [{**row, "variant": str(row["variant"]),
                       "last": float(row["last"]), "avg": float(row["avg"]),
                       "per_task": [float(a) for a in row["per_task"]]}
                      for row in rows]


def _report_inputs(dirs) -> list[dict]:
    """Collect rows from run directories, enforcing format compatibility."""
    rows, versions, used = [], None, set()
    for d in map(Path, dirs):
        try:
            got, new = _run_rows(d)
        except (ValueError, LookupError, TypeError, AttributeError) as e:
            raise DataFormatError("bad-manifest",
                                  f"{d}: malformed run outputs: {e!r}") \
                from None
        if versions is None:
            versions = got
        elif got != versions:
            raise DataFormatError(
                "bad-manifest",
                f"{d / 'manifest.json'}: format versions {got} do not match "
                f"{versions}")
        for row in new:
            name, n = row["variant"], 1
            while name in used:  # v, then v@dir, v@dir#2, v@dir#3, ...
                name = f"{row['variant']}@{d.name}" + (f"#{n}" if n > 1 else "")
                n += 1
            used.add(name)
            rows.append({**row, "variant": name})
    return rows


def _format_report(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = ["variant,last,avg"]
        for r in rows:
            lines.append(f"{r['variant']},{r['last']!r},{r['avg']!r}")
        return "\n".join(lines) + "\n"
    lines = ["| Variant | Last | Avg |", "| --- | --- | --- |"]
    for r in rows:
        lines.append(f"| {r['variant']} | {r['last']:.2f} | {r['avg']:.2f} |")
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    rows = _report_inputs(args.inputs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = {"csv": "csv", "json": "json", "md": "md"}[args.format]
    (out_dir / f"report.{ext}").write_text(_format_report(rows, args.format))
    curve_lines = ["task,variant,acc"]
    for r in rows:
        for t, acc in enumerate(r["per_task"], start=1):
            curve_lines.append(f"{t},{r['variant']},{acc!r}")
    (out_dir / "curves.csv").write_text("\n".join(curve_lines) + "\n")
    _write_manifest(out_dir, "report", None, None,
                    inputs=[str(p) for p in args.inputs])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seca",
        description="Continual learning over a frozen two-tower encoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the options most commands share, by flag
    shared = {"--config": {"help": "JSON config path (defaults otherwise)"},
              "--out": {"required": True, "help": "output directory"},
              "--seed": {"type": int, "help": "override the init seed"}}

    def add(name, fn, help, *flags):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    run = ("--config", "--out", "--seed")
    add("train", cmd_train, "train a full task stream", *run)
    p = add("eval", cmd_eval, "evaluate a checkpoint on its stream", "--out")
    p.add_argument("--ckpt", required=True)
    add("ablate-distill", cmd_ablate_distill,
        "distillation strategies with and without refinement", *run)
    add("ablate-classifier", cmd_ablate_classifier,
        "the five visual classifier variants", *run)
    p = add("sweep", cmd_sweep, "one hyperparameter over a value list", *run)
    p.add_argument("--param", required=True, choices=tuple(_SWEEPS))
    p.add_argument("--values", required=True, nargs="+",
                   help="values, each what a config file takes for the "
                        "field (JSON, or a bare word such as ALL or "
                        "task-index); beta also takes dynamic")
    p = add("theory-check", cmd_theory_check,
            "closed-form attention weights against the numeric minimizer",
            "--out")
    p.add_argument("--instances", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    add("gen-data", cmd_gen_data, "write a synthetic feature bank",
        "--config", "--out")
    p = add("report", cmd_report, "merge run outputs into one table", "--out")
    p.add_argument("--in", dest="inputs", required=True, nargs="+",
                   help="input run directories")
    p.add_argument("--format", default="csv", choices=("csv", "json", "md"))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SecaError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
