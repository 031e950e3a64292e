"""The three workloads: set-up, timed units and output checks.

A unit is what the end-to-end latencies are taken over: one
``train_task`` call (stream_sgakt), one leaf's ``run_stream`` call
(matrix_replay) or one gradient-check instance (gradcheck). The untraced
run times these boundaries and nothing inside them. Every run does whole
units until ``--seconds`` have passed and at least ``MIN_UNITS`` were
attempted, so at least ten samples lie beyond the 75th percentile.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

import checks
from seca import SecaError, cli, config, tensor as T, trainer as TR
from seca import encoder as E, replay as R, sevpr as V, sgakt as G

MIN_UNITS = 40
SETUP_REPS = 7
# Seeds of one run are 1000 * --seed + k, so runs with different --seed
# share no stream, config or instance.
SEED_STRIDE = 1000

perf = time.perf_counter

# The cli layer's metrics; they read 0 on workloads that run no matrix.
CLI_UNITS = {"cli.matrix_s": "s", "cli.workers": "count",
             "cli.leaf_busy_s": "s", "cli.leaf_wait_s": "s",
             "cli.parallel_efficiency": "ratio"}

# numpy is loaded before the clock starts: its import (which loads
# OpenBLAS) is not this program's work and varied 0.15-0.31 s between runs.
_IMPORT_CODE = ("import sys, time; import numpy; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import seca.cli; "
                "print(time.perf_counter() - t)")


def import_seconds(src) -> float:
    """Time to import seca in a fresh interpreter.

    Interpreter start-up and the numpy import are excluded.
    """
    done = subprocess.run([sys.executable, "-c", _IMPORT_CODE, str(src)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.split()[-1])


def train_steps(cfg, stream) -> int:
    return sum(cfg.epochs_per_task * math.ceil(t.train_x.shape[0] / cfg.batch_size)
               for t in stream.tasks)


def test_union(stream):
    return np.concatenate([t.test_x for t in stream.tasks])


def timed_rates(fn, rows: int, reps: int) -> list[float]:
    rates = []
    for _ in range(reps):
        t0 = perf()
        fn()
        rates.append(rows / (perf() - t0))
    return rates


class Workload:
    """Set-up (``build``), the timed loop (``run``) and its figures."""

    def __init__(self, seed: int, out_dir):
        self.base = SEED_STRIDE * seed
        self.seed = seed
        self.out = out_dir
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.unit_s: list[float] = []
        self.eval_rates: list[float] = []
        self.work = 0
        self.work_s = 0.0

    def more(self, t_start: float, seconds: float) -> bool:
        return perf() - t_start < seconds or self.attempted < MIN_UNITS

    def metrics(self) -> dict[str, dict]:
        p50, p75 = np.percentile(1000.0 * np.asarray(self.unit_s), [50, 75])
        return {
            "work_per_s": {"value": self.work / self.work_s, "unit": "1/s"},
            "latency_p50_ms": {"value": float(p50), "unit": "ms"},
            "latency_p75_ms": {"value": float(p75), "unit": "ms"},
            "eval_rows_per_s": {"value": statistics.median(self.eval_rates),
                                "unit": "1/s"},
        }

    def cli_metrics(self) -> dict[str, dict]:
        return {key: {"value": 0, "unit": unit}
                for key, unit in CLI_UNITS.items()}


class StreamSgakt(Workload):
    """The full method at defaults, one paired seed after another.

    Units are ``train_task`` calls; work is training steps over the time
    spent in ``run_stream``, which includes per-task evaluation.
    ``eval_rows_per_s`` times ``predict`` on each stream's final state.
    """

    SEEDS = 3
    EVAL_REPS = 10

    def build(self):
        self.inputs = []
        for k in range(self.SEEDS):
            cfg = config.RunConfig(seed=self.base + k)
            cfg = replace(cfg, data=cfg.data.reseed(self.base + k))
            self.inputs.append((cfg, config.build_stream(cfg.data)))

    def run(self, seconds: float) -> None:
        train_task = TR.train_task
        live = {}

        def timed_task(state, task):
            live["state"] = state
            t0 = perf()
            train_task(state, task)
            self.unit_s.append(perf() - t0)

        replay_calls = [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                replay_calls[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        TR.train_task = timed_task
        for name in ("draw_pseudo_batch", "replay_losses", "fit_gaussians"):
            setattr(TR, name, counted(getattr(TR, name)))

        t_start = perf()
        k = 0
        while k == 0 or self.more(t_start, seconds):
            cfg, stream = self.inputs[k % self.SEEDS]
            k += 1
            preds = []

            def predict_fn(bx):
                preds.append(TR.predict(live["state"], bx))
                return preds[-1]

            ntasks = len(stream.tasks)
            self.attempted += ntasks
            done = len(self.unit_s)
            t0 = perf()
            try:
                state, metrics = TR.run_stream(cfg, stream, predict_fn=predict_fn)
            except SecaError as e:
                print(f"stream {cfg.seed}: {e}", file=sys.stderr)
                del self.unit_s[done:]
                self.failed += ntasks
                continue
            self.work_s += perf() - t0
            self.work += train_steps(cfg, stream)
            self.check_stream(cfg, stream, state, metrics, preds, replay_calls[0])

    def check_stream(self, cfg, stream, state, metrics, preds, replay_calls):
        f = self.failures
        f += checks.task_accuracy(preds, [t.test_y for t in stream.tasks],
                                  metrics.per_task)
        f += checks.pool_size(len(state.pool), cfg.pool_max, len(stream.tasks))
        f += checks.replay_inert(replay_calls, state.store)
        x = test_union(stream)
        out = {}
        self.eval_rates += timed_rates(
            lambda: out.update(pred=TR.predict(state, x)), x.shape[0],
            self.EVAL_REPS)
        scores = self.scores(state, x)
        f += checks.score_rows(scores)
        ids = np.array(sorted(state.seen_ids()))
        if not np.array_equal(ids[np.argmax(scores, axis=1)], out["pred"]):
            f.append("predict disagrees with the argmax of predict_scores")
        ckpt = self.out / "stream.ckpt"
        TR.save_checkpoint(ckpt, state)
        f += checks.same_scores(scores, self.scores(TR.load_checkpoint(ckpt), x))

    @staticmethod
    def scores(state, x):
        step = TR.EVAL_BATCH
        return np.concatenate([TR.predict_scores(state, x[i:i + step])
                               for i in range(0, x.shape[0], step)])


class MatrixReplay(Workload):
    """``seca ablate-classifier`` in-process, replay on, on the CLI's pool.

    The config cuts the default stream to 5 tasks and 1 epoch per task so
    that one command (15 leaves) takes seconds, not minutes. Units are the
    leaves' ``run_stream`` calls; work is training steps over all leaves per
    second of command wall time. ``eval_rows_per_s`` times ``predict``
    after every command on serial re-runs of one leaf per variant.
    """

    CONFIG = {"epochs_per_task": 1, "replay": True,
              "data": {"synthetic": {"num_tasks": 5}}}
    EVAL_REPS = 4

    def build(self):
        doc = json.loads(json.dumps(self.CONFIG))
        doc["data"]["synthetic"]["seed"] = self.base
        self.cfg_path = self.out / "config.json"
        self.cfg_path.write_text(json.dumps(doc))
        self.root = self.out / "matrix"
        self.argv = ["ablate-classifier", "--config", str(self.cfg_path),
                     "--out", str(self.root), "--seed", str(self.base)]
        self.commands = []

    def run(self, seconds: float) -> None:
        run_stream = cli.run_stream
        leaves = []

        def timed_leaf(cfg, stream):
            t0 = perf()
            out = run_stream(cfg, stream)
            # list.append is atomic, so pool threads need no lock here
            leaves.append((t0, perf(), train_steps(cfg, stream)))
            return out

        cli.run_stream = timed_leaf
        jobs = len(V.VARIANTS) * cli.TRIALS
        first_rows = None
        t_start = perf()
        while not self.commands or self.more(t_start, seconds):
            shutil.rmtree(self.root, ignore_errors=True)
            leaves.clear()
            self.attempted += jobs
            t0 = perf()
            rc = cli.main(self.argv)
            t1 = perf()
            if rc != 0:
                self.failed += jobs
                continue
            self.commands.append((t0, t1, list(leaves)))
            self.unit_s += [b - a for a, b, _ in leaves]
            self.work += sum(steps for _, _, steps in leaves)
            self.work_s += t1 - t0
            rows = (self.root / "rows.json").read_bytes()
            self.check_matrix(json.loads(rows)["rows"])
            if first_rows is None:
                first_rows = rows
                states, x = self.serial_leaves()
            elif rows != first_rows:
                self.failures.append("rows.json differs between repeats")
            # predict is timed after every command, so that its samples
            # spread over the run like the leaves do
            self.eval_rates += timed_rates(
                lambda: [TR.predict(state, x) for state in states],
                len(states) * x.shape[0], self.EVAL_REPS)
        cli.run_stream = run_stream

    def leaf_dir(self, variant, trial):
        return self.root / "runs" / variant / str(trial)

    def check_matrix(self, rows):
        leaves, manifests = {}, []
        for v in V.VARIANTS:
            leaves[v] = []
            for i in range(cli.TRIALS):
                d = self.leaf_dir(v, i)
                leaves[v].append(json.loads((d / "summary.json").read_text()))
                manifests.append(json.loads((d / "manifest.json").read_text()))
        self.failures += checks.matrix_outputs(rows, leaves, manifests)

    def serial_leaves(self):
        """Re-run one leaf of each variant alone, outside the timed part.

        Each must give its parallel twin's per_task exactly. Returns the
        five final states, one per classifier variant, and the test rows
        that ``predict`` is timed on.
        """
        trial = self.seed % cli.TRIALS
        base = replace(config.load_config(self.cfg_path), seed=self.base)
        trial_cfg = replace(base, seed=base.seed + trial,
                            data=base.data.reseed(base.data.seed + trial))
        stream = config.build_stream(trial_cfg.data)
        states = []
        for variant in V.VARIANTS:
            cfg = replace(trial_cfg, classifier=variant)
            leaf = self.leaf_dir(variant, trial)
            manifest = json.loads((leaf / "manifest.json").read_text())
            if manifest["config"] != json.loads(json.dumps(config.config_dict(cfg))):
                self.failures.append(f"leaf {variant}/{trial} ran another config")
            state, metrics = TR.run_stream(cfg, stream)
            summary = json.loads((leaf / "summary.json").read_text())
            self.failures += checks.same_per_task(summary["per_task"],
                                                  metrics.per_task)
            states.append(state)
        return states, test_union(stream)

    def cli_metrics(self):
        matrix_s = sum(t1 - t0 for t0, t1, _ in self.commands)
        busy = sum(b - a for _, _, leaves in self.commands for a, b, _ in leaves)
        wait = sum(a - t0 for t0, _, leaves in self.commands
                   for a, _, _ in leaves)
        workers = max(_most_at_once(leaves) for _, _, leaves in self.commands)
        values = {"cli.matrix_s": matrix_s, "cli.workers": workers,
                  "cli.leaf_busy_s": busy, "cli.leaf_wait_s": wait,
                  "cli.parallel_efficiency": busy / (workers * matrix_s)}
        return {k: {"value": values[k], "unit": u} for k, u in CLI_UNITS.items()}


def _most_at_once(leaves) -> int:
    events = sorted([(a, 1) for a, _, _ in leaves] + [(b, -1) for _, b, _ in leaves],
                    key=lambda e: (e[0], e[1]))
    most = now = 0
    for _, step in events:
        now += step
        most = max(most, now)
    return most


GRAD_TAU = 0.7
GRAD_TAU_PRIME = 8.0
GRAD_STEP = 1e-5


class GradInstance:
    """One gradient-suite instance: d=8, 3 classes, 3 pool entries, 3 prompts.

    Built like acceptance criterion 1's instances. ``check`` runs
    ``grad_check`` on all six losses; ``evals`` counts loss evaluations,
    each a forward pass over the instance's 3-row batch.
    """

    ROWS = 3

    def __init__(self, i: int):
        cfg = E.EncoderConfig(d_v=8, d_t=8, layers=1, adapter_width=3,
                              prompt_tokens=2, seed=1000 + i)
        self.backbone = E.VisualBackbone(cfg)
        self.text_enc = E.TextEncoder(cfg)
        self.bank = E.PromptBank(cfg, class_ids=[0, 1, 2], registry_seed=i)
        for t in (1, 2, 3):
            self.bank.new_prompt(t, seed=i)
        self.bank.freeze_task(1)
        self.bank.freeze_task(2)
        rng = np.random.default_rng(i + 7)

        def noisy(seed):
            st = E.AdapterStack(cfg, seed=seed)
            for layer in st.layers:
                for fld in E.AdapterStack.FIELDS:
                    layer[fld].data += 0.3 * rng.standard_normal(
                        layer[fld].data.shape)
            return st

        self.stack = noisy(i + 1)
        self.pool = G.AdapterPool(max_size=5)
        for k in range(3):
            self.pool.admit_and_prune(noisy(i * 10 + k))
        self.projectors = G.SemanticProjectors.create(cfg, seed=i + 3)
        self.affinity = V.AffinityModel.create(cfg, seed=i + 4, gamma=1.0)
        self.x = rng.standard_normal((3, 8))
        self.ys = rng.integers(0, 3, 3)
        self.raw = rng.standard_normal((3, 8))
        self.snap = rng.standard_normal((2, 8))
        self.pseudo = R.PseudoBatch(rng.standard_normal((4, 8)),
                                    rng.integers(0, 3, 4))
        self.p3 = self.bank.prompts[3]
        # the distillation teacher is a constant under the stop-gradient
        sem = G.semantic_vectors(self.text_enc, self.bank, [0, 1, 2], 3)
        views = G.pooled_views(self.backbone, self.x, self.pool)
        alpha = G.relevance_scores(sem, views, self.ys, self.projectors)
        res = G.aggregate(views, alpha, 1.0)
        with T.no_grad():
            teacher = T.softmax_temp(E.clip_logits(
                T.Tensor(res.v_agg.data.copy()), self.text(), GRAD_TAU_PRIME),
                1.0)
        self.teacher = T.Tensor(teacher.data.copy())
        self.evals = 0

    def text(self, ids=(0, 1, 2)):
        return E.text_features(self.text_enc, self.bank, list(ids), self.p3)

    def feat(self):
        return self.backbone.forward(self.x, self.stack)

    def ce_t(self):
        self.evals += 1
        probs = T.softmax_temp(E.clip_logits(self.feat(), self.text(), GRAD_TAU),
                               1.0)
        return T.cross_entropy_rows(probs, self.ys)

    def agg(self):
        self.evals += 1
        sem = G.semantic_vectors(self.text_enc, self.bank, [0, 1, 2], 3)
        views = G.pooled_views(self.backbone, self.x, self.pool)
        alpha = G.relevance_scores(sem, views, self.ys, self.projectors)
        res = G.aggregate(views, alpha, 1.0)
        return G.loss_agg(res.v_agg, self.text(), self.ys, GRAD_TAU)

    def kd(self):
        self.evals += 1
        student = T.softmax_temp(
            E.clip_logits(self.feat(), self.text(), GRAD_TAU_PRIME), 1.0)
        return T.kl_div_rows(self.teacher, student, T.KL_EPS_DEFAULT)

    def ce_v(self):
        self.evals += 1
        m = V.affinity_matrix(self.text(), self.affinity.h_proj, 1.0)
        return V.loss_ce_v(self.feat(), V.refine_prototypes(m, self.raw),
                           self.ys, GRAD_TAU)

    def reg(self):
        self.evals += 1
        z = E.text_features(self.text_enc, self.bank, [0, 1], self.p3)
        m = V.affinity_matrix(z, self.affinity.h_proj, 1.0)
        return V.loss_reg(V.refine_prototypes(m, self.raw[:2]), self.snap)

    def replay(self):
        self.evals += 1
        m = V.affinity_matrix(self.text(), self.affinity.h_proj, 1.0)
        refined = V.refine_prototypes(m, self.raw)
        lt, lv = R.replay_losses(self.pseudo, self.text(), refined, [0, 1, 2],
                                 GRAD_TAU)
        return T.add(lt, lv)

    def check(self) -> dict[str, float]:
        adapters = self.stack.parameters()
        h = self.affinity.h_proj
        suite = (
            ("ce_t", self.ce_t, adapters + [self.p3]),
            ("agg", self.agg, [self.projectors.w_s, self.projectors.w_v, self.p3]),
            ("kd", self.kd, adapters + [self.p3]),
            ("ce_v", self.ce_v, adapters + [self.p3, h]),
            ("reg", self.reg, [h, self.p3]),
            ("replay", self.replay, [self.p3, h]),
        )
        return {name: T.grad_check(fn, params, step=GRAD_STEP,
                                   tol=checks.GRAD_TOL).max_rel_err
                for name, fn, params in suite}


class Gradcheck(Workload):
    """Gradient-suite instances, one after another, in rounds.

    Units are instances; work is loss checks (one loss on one instance).
    ``eval_rows_per_s`` counts the rows of every loss evaluation, almost all
    of them the no-grad finite-difference probes.
    """

    INSTANCES = 10

    def build(self):
        self.instances = [GradInstance(self.base + k)
                          for k in range(self.INSTANCES)]

    def run(self, seconds: float) -> None:
        t_start = perf()
        k = 0
        evals = 0
        while k == 0 or self.more(t_start, seconds):
            inst = self.instances[k % self.INSTANCES]
            k += 1
            self.attempted += 1
            before = inst.evals
            t0 = perf()
            try:
                errs = inst.check()
            except SecaError as e:
                print(f"instance {self.base + k - 1}: {e}", file=sys.stderr)
                self.failed += 1
                continue
            dt = perf() - t0
            self.unit_s.append(dt)
            self.work += len(errs)
            self.work_s += dt
            evals += inst.evals - before
            self.failures += checks.grad_errors(errs)
        self.eval_rates.append(GradInstance.ROWS * evals / self.work_s)


WORKLOADS = {"stream_sgakt": StreamSgakt, "matrix_replay": MatrixReplay,
             "gradcheck": Gradcheck}


def measure_setup(work: Workload, src) -> float:
    """Median over SETUP_REPS of a fresh import plus building the inputs."""
    import_seconds(src)  # the first import may write bytecode caches
    samples = []
    for _ in range(SETUP_REPS):
        imported = import_seconds(src)
        t0 = perf()
        work.build()
        samples.append(imported + perf() - t0)
    return statistics.median(samples)
