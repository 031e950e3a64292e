"""Task-sequential training loop and hybrid inference.

One task at a time: initialize the task prompt, write the frozen-encoder
prototypes, optimize the composite loss over the task data, then do the
boundary bookkeeping (freeze the prompt, snapshot refined prototypes,
admit the adapter into the pool, fit replay Gaussians). Inference mixes
the visual-branch probabilities with the average of per-prompt text
probabilities over every class seen so far.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import codec, seeding, tensor as T
from .config import RunConfig, beta_value, config_dict, parse_config
from .datastream import TaskData, TaskStream, _lock
from .encoder import AdapterStack, PromptBank, TextEncoder, VisualBackbone, \
    clip_logits, text_features
from .errors import ConfigError, DataFormatError, ProtocolError
from .replay import ClassGaussian, ReplayStore, draw_pseudo_batch, \
    fit_gaussians, replay_losses
from .sevpr import AffinityModel, LinearHead, PrototypeBank, VisualBranch
from .sgakt import AdapterPool, PoolEntry, SemanticProjectors, Teacher, \
    loss_agg, loss_sgakt, semantic_vectors

CKPT_MAGIC = b"SECA-CKPT"
CKPT_VERSION = 2

EVAL_BATCH = 256


def _replay_seed(seed: int, counter: int) -> int:
    seq = seeding.seed_sequence(seed, "replay_draw", int(counter))
    return int(seq.generate_state(1)[0])


class Adam:
    """Adaptive moments keyed by parameter name.

    Slots appear lazily the first time a parameter takes a step, so a
    parameter created mid-run starts from zero moments while persistent
    parameters keep theirs across tasks.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.slots: dict[str, dict] = {}

    def step(self, params) -> None:
        for p in params:
            if not p.requires_grad:
                continue
            slot = self.slots.get(p.name)
            if slot is None:
                slot = self.slots[p.name] = {"m": np.zeros_like(p.data),
                                             "v": np.zeros_like(p.data), "t": 0}
            slot["t"] += 1
            t, g, m, v = slot["t"], p.grad, slot["m"], slot["v"]
            # in place, in the order of b1*m + (1-b1)*g, b2*v + ((1-b2)*g)*g
            # and p - lr*m_hat / (sqrt(v_hat) + eps), so the bits stay
            tmp = np.multiply(g, 1.0 - self.beta1)
            m *= self.beta1
            m += tmp
            np.multiply(g, 1.0 - self.beta2, out=tmp)
            tmp *= g
            v *= self.beta2
            v += tmp
            np.divide(v, 1.0 - self.beta2 ** t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            upd = np.divide(m, 1.0 - self.beta1 ** t)
            upd *= self.lr
            upd /= tmp
            p.data -= upd


@dataclass
class TrainState:
    cfg: RunConfig
    names: dict[int, str]
    backbone: VisualBackbone
    text_enc: TextEncoder
    prompts: PromptBank
    adapter: AdapterStack
    pool: AdapterPool
    projectors: SemanticProjectors
    affinity: AffinityModel
    protos: PrototypeBank
    head: LinearHead | None
    store: ReplayStore | None
    optimizer: Adam
    seen: list[tuple[int, ...]] = field(default_factory=list)
    replay_counter: int = 0

    @property
    def task(self) -> int:
        return len(self.seen)

    def seen_ids(self) -> list[int]:
        return [k for ids in self.seen for k in ids]


def init_state(cfg: RunConfig, names: dict[int, str]) -> TrainState:
    enc = cfg.encoder
    return TrainState(
        cfg=cfg,
        names=dict(names),
        backbone=VisualBackbone(enc),
        text_enc=TextEncoder(enc),
        prompts=PromptBank(enc, sorted(names), cfg.data.seed),
        adapter=AdapterStack(enc, seed=cfg.seed),
        pool=AdapterPool(cfg.pool_max),
        projectors=SemanticProjectors.create(enc, cfg.seed),
        affinity=AffinityModel.create(enc, cfg.seed, cfg.affinity_gamma),
        protos=PrototypeBank(enc.d_v),
        head=VisualBranch.new_head(cfg.classifier, enc.d_v),
        store=ReplayStore(enc.d_v) if cfg.replay else None,
        optimizer=Adam(cfg.lr),
    )


def check_width(cfg: RunConfig, stream: TaskStream) -> None:
    if stream.dim != cfg.encoder.d_v:
        raise ConfigError(f"data: feature dim {stream.dim} must equal "
                          f"encoder.d_v ({cfg.encoder.d_v})")


def state_for_stream(cfg: RunConfig, stream: TaskStream) -> TrainState:
    check_width(cfg, stream)
    return init_state(cfg, stream.names)


def _trainables(state: TrainState) -> list[T.Parameter]:
    params = [state.prompts.prompts[state.task]]
    params += state.adapter.parameters()
    params += state.projectors.parameters()
    params += state.affinity.parameters()
    if state.head is not None:
        params += state.head.parameters()
    return params


class TaskContext:
    """What stays fixed while one task trains, built once per task: the
    visual targets, the teacher's views and the index maps."""

    def __init__(self, state: TrainState, task: TaskData):
        cfg, s = state.cfg, state.task
        self.state, self.x = state, task.train_x
        seen = state.seen_ids()
        self.support = seen if cfg.replay else list(state.seen[-1])
        self.pos = {k: i for i, k in enumerate(self.support)}
        self.ys_local = np.array([self.pos[int(y)] for y in task.train_y],
                                 dtype=np.int64)
        self.past = [k for ids in state.seen[:-1] for k in ids]
        self.visual = VisualBranch(state, self.support, seen, self.past)
        self.teacher = Teacher(cfg.distill, state.backbone, self.x, state.pool,
                               (state.text_enc, state.prompts, self.support, s))


def loss_terms(ctx: TaskContext, idx) -> tuple[dict[str, T.Tensor], np.ndarray]:
    """The named loss terms of the training rows idx in summing order, and
    the teacher's scores; a replay draw advances the replay counter."""
    state = ctx.state
    cfg = state.cfg
    s = state.task
    ys_local = ctx.ys_local[idx]

    f_v = state.backbone.forward(ctx.x[idx], state.adapter)
    text_sup = text_features(state.text_enc, state.prompts, ctx.support,
                             state.prompts.prompts[s])
    probs_t = T.softmax_temp(clip_logits(f_v, text_sup, cfg.tau), 1.0)
    terms = {"ce_t": T.cross_entropy_rows(probs_t, ys_local)}
    terms.update(ctx.visual.terms(f_v, ys_local, cfg.tau))

    res, scores = ctx.teacher.batch(idx, ys_local, state.projectors,
                                    cfg.agg_lambda)
    if res is not None:
        terms["agg"] = loss_agg(res.v_agg, text_sup, ys_local, cfg.tau)
        kl = loss_sgakt(res.v_agg, f_v, text_sup, cfg.tau_prime, cfg.kl_epsilon)
        terms["kl"] = T.mul(kl, beta_value(cfg, s))

    if cfg.replay and s > 1:
        # replay trains on every seen class, so support == seen here
        seed_b = _replay_seed(cfg.seed, state.replay_counter)
        state.replay_counter += 1
        pseudo = draw_pseudo_batch(state.store, ctx.past, cfg.batch_size, seed_b)
        terms["replay_ce_t"], _ = replay_losses(pseudo, text_sup, None,
                                                ctx.support, cfg.tau)
        vis = ctx.visual.probs(T.Tensor(pseudo.x), cfg.tau)
        if vis is not None:
            p_local = np.array([ctx.pos[int(k)] for k in pseudo.y], np.int64)
            terms["replay_ce_v"] = T.cross_entropy_rows(vis, p_local)

    return terms, scores


def batch_loss(ctx: TaskContext, idx) -> tuple[T.Tensor, np.ndarray]:
    """Left-to-right sum of loss_terms(ctx, idx), and the teacher's scores."""
    terms, scores = loss_terms(ctx, idx)
    return reduce(T.add, terms.values()), scores


def _grow(state: TrainState, ids: list[int]) -> None:
    """The data-free part of entering a task: refuse a repeated class,
    record the ids, and make the prompt and any head block."""
    known = state.seen_ids()
    repeated = sorted({k for k in ids if k in known or ids.count(k) > 1})
    if repeated:
        raise ProtocolError(f"classes {repeated} were seen in an earlier "
                            "task or twice in this one")
    state.seen.append(tuple(ids))
    state.prompts.new_prompt(state.task, state.cfg.seed)
    if state.head is not None:
        state.head.add_task(state.task, ids)


def open_task(state: TrainState, task: TaskData) -> TaskContext:
    """Enter the next task, write its class means, and return the
    context its steps share."""
    _grow(state, [int(k) for k in task.class_ids])
    VisualBranch.write_task(state, task.train_x, task.train_y, state.seen[-1])
    return TaskContext(state, task)


def train_task(state: TrainState, task: TaskData) -> None:
    cfg = state.cfg
    ctx = open_task(state, task)
    params = _trainables(state)
    n = task.train_x.shape[0]
    for epoch in range(cfg.epochs_per_task):
        order = seeding.rng(cfg.seed, "order", state.task, epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            for p in params:
                p.zero_grad()
            loss, scores = batch_loss(ctx, order[start:start + cfg.batch_size])
            loss.backward()
            state.optimizer.step(params)
            state.pool.update_utilities(scores, cfg.utility_momentum)

    # boundary bookkeeping; order matters for the snapshot semantics
    state.prompts.freeze_task(state.task)
    ctx.visual.finish_task()
    state.pool.admit_and_prune(state.adapter)
    if cfg.replay:
        with T.no_grad():
            feats = state.backbone.forward(task.train_x, state.adapter).data
        fit_gaussians(state.store, feats, task.train_y, state.seen[-1],
                      full_cov=cfg.replay_full_cov)


def _scorer(state: TrainState):
    """The ascending seen ids and a function giving hybrid score rows; the
    per-prompt text features and refined prototypes are built once here."""
    if state.task < 1:
        raise ProtocolError("no trained task to predict with")
    cfg = state.cfg
    ids = sorted(state.seen_ids())
    with T.no_grad():
        feats = semantic_vectors(state.text_enc, state.prompts, ids, state.task)
        visual = VisualBranch(state, ids)
        visual.refine()

    def scores(x) -> np.ndarray:
        with T.no_grad():
            f = state.backbone.forward(x, state.adapter)
            total = None
            for z in feats:
                p = T.softmax_temp(clip_logits(f, z, cfg.tau_prime), 1.0)
                total = p if total is None else T.add(total, p)
            score = total.data * (1.0 / state.task)
            vis = visual.probs(f, cfg.tau_prime)
            if vis is not None:
                score = score + vis.data
        return score

    return ids, scores


def predict_scores(state: TrainState, x) -> np.ndarray:
    """Hybrid score rows over the ascending list of seen class ids."""
    return _scorer(state)[1](x)


def predictor(state: TrainState):
    """A function giving predicted global class ids of rows x, scored in
    EVAL_BATCH chunks by one scorer; ties fall to the lowest id."""
    ids, scores = _scorer(state)
    ids = np.array(ids, dtype=np.int64)

    def predict_rows(x) -> np.ndarray:
        out = [ids[np.argmax(scores(x[start:start + EVAL_BATCH]), axis=1)]
               for start in range(0, x.shape[0], EVAL_BATCH)]
        return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)

    return predict_rows


def predict(state: TrainState, x) -> np.ndarray:
    """Predicted global class ids; ties fall to the lowest id."""
    return predictor(state)(x)


def accuracy(stream: TaskStream, upto: int, predict_fn) -> float:
    """Percent correct over the union of test splits of tasks 1..upto."""
    xs = [t.test_x for t in stream.tasks[:upto]]
    ys = [t.test_y for t in stream.tasks[:upto]]
    total = sum(y.size for y in ys)
    if total == 0:
        raise ValueError("no test samples in tasks 1..%d" % upto)
    x = np.concatenate(xs, axis=0)
    y = np.concatenate(ys)
    pred = np.asarray(predict_fn(x))
    return 100.0 * float(np.mean(pred == y))


@dataclass(frozen=True)
class Metrics:
    per_task: tuple[float, ...]

    @property
    def last(self) -> float:
        return self.per_task[-1]

    @property
    def avg(self) -> float:
        return float(np.mean(self.per_task))

    def summary(self) -> dict:
        return {"last": self.last, "avg": self.avg,
                "per_task": list(self.per_task)}


def run_stream(cfg: RunConfig, stream: TaskStream,
               predict_fn=None) -> tuple[TrainState, Metrics]:
    """Train every task in order, measuring accuracy after each one."""
    state = state_for_stream(cfg, stream)
    per_task = []
    for t, task in enumerate(stream.tasks, start=1):
        train_task(state, task)
        fn = predict_fn if predict_fn is not None \
            else (lambda bx: predict(state, bx))
        per_task.append(accuracy(stream, t, fn))
    return state, Metrics(tuple(per_task))


def write_metrics(out_dir, metrics: Metrics, stream: TaskStream) -> None:
    """metrics.csv rows per task plus the summary JSON, both deterministic."""
    counts = np.cumsum([len(t.class_ids) for t in stream.tasks])
    lines = ["task,seen_classes,acc"]
    for i, acc in enumerate(metrics.per_task):
        lines.append(f"{i + 1},{counts[i]},{acc!r}")
    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(metrics.summary(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- checkpoint
#
# A checkpoint is a codec artifact under CKPT_MAGIC and CKPT_VERSION: the
# meta and config JSON, the pool utilities, every parameter, the prototype
# stores, the replay store and the optimizer slots, one frame each.

# PrototypeBank stores, each saved as sorted class ids plus one row per id
_PROTO_STORES = ("raw", "adapted", "refined_current", "refined_snapshot")


def _parameter_frames(state: TrainState) -> dict[str, T.Parameter]:
    """Every parameter of the state, keyed by its checkpoint frame name."""
    out = {f"prompt.{t}": p for t, p in sorted(state.prompts.prompts.items())}
    stacks = [("adapter", state.adapter)]
    stacks += [(f"pool.{i}", s) for i, s in enumerate(state.pool.stacks)]
    for prefix, stack in stacks:
        for layer, group in enumerate(stack.layers):
            for name in AdapterStack.FIELDS:
                out[f"{prefix}.{layer}.{name}"] = group[name]
    out["proj.w_s"] = state.projectors.w_s
    out["proj.w_v"] = state.projectors.w_v
    out["affinity.h_proj"] = state.affinity.h_proj
    if state.head is not None:
        for t in sorted(state.head.blocks):
            out[f"head.{t}.w"], out[f"head.{t}.b"] = state.head.blocks[t]
    return out


def _stacked(rows, *shape) -> np.ndarray:
    """Stack float64 rows of one shape; zero rows give a (0, *shape) array."""
    return np.array(rows, dtype=np.float64).reshape(len(rows), *shape)


def save_checkpoint(path, state: TrainState) -> None:
    """Atomic, byte-deterministic snapshot of the whole training state."""
    meta = {
        "task": state.task,
        "seen": [list(ids) for ids in state.seen],
        "replay_counter": state.replay_counter,
        "registry_seed": state.cfg.data.seed,
        "names": {str(k): v for k, v in state.names.items()},
    }
    d = state.cfg.encoder.d_v
    arrays = {"meta": codec.json_array(meta),
              "config": codec.json_array(config_dict(state.cfg)),
              "pool.utilities": state.pool.utilities}
    arrays.update((k, p.data) for k, p in _parameter_frames(state).items())
    bank = state.protos
    for store_name in _PROTO_STORES:
        store = getattr(bank, store_name)
        ids = sorted(store)
        arrays[f"protos.{store_name}.ids"] = np.array(ids, dtype=np.int64)
        arrays[f"protos.{store_name}"] = _stacked([store[k] for k in ids], d)
    arrays["protos.counts"] = np.array(
        [bank.counts[k] for k in sorted(bank.raw)], dtype=np.int64)
    if state.store is not None:
        ids = state.store.class_ids
        gs = [state.store.classes[k] for k in ids]
        cov_shape = (d, d) if state.cfg.replay_full_cov else (d,)
        arrays["replay.ids"] = np.array(ids, dtype=np.int64)
        arrays["replay.counts"] = np.array([g.count for g in gs],
                                           dtype=np.int64)
        arrays["replay.mu"] = _stacked([g.mu for g in gs], d)
        arrays["replay.cov"] = _stacked([g.cov for g in gs], *cov_shape)
    for name, slot in sorted(state.optimizer.slots.items()):
        arrays[f"optim.m.{name}"] = slot["m"]
        arrays[f"optim.v.{name}"] = slot["v"]
        arrays[f"optim.t.{name}"] = np.array([slot["t"]], dtype=np.int64)

    codec.write_atomic(path, codec.encode(arrays, CKPT_MAGIC, CKPT_VERSION))


def load_checkpoint(path) -> TrainState:
    """Rebuild a saved state; malformed content raises DataFormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _restore(codec.decode(blob, CKPT_MAGIC, CKPT_VERSION,
                                     "checkpoint"))
    except (ValueError, LookupError, TypeError, AttributeError, ConfigError,
            ProtocolError) as e:
        raise DataFormatError("corrupt", f"malformed checkpoint: {e}") from e


def _class_ids(arrays: codec.Frames, name: str, allowed: set[int]) -> list[int]:
    ids = arrays.take(name, np.int64, None).tolist()
    if ids != sorted(set(ids)) or not set(ids) <= allowed:
        raise DataFormatError("corrupt", f"checkpoint {name} lists bad ids")
    return ids


def _restore(arrays: codec.Frames) -> TrainState:
    meta = json.loads(arrays.take("meta", np.uint8, None).tobytes())
    config = arrays.take("config", np.uint8, None).tobytes()
    cfg = parse_config(json.loads(config))
    names = {int(k): v for k, v in meta["names"].items()}
    state = init_state(cfg, names)
    # rebuild the parameter skeleton task by task, then fill it frame by frame
    for ids in meta["seen"]:
        _grow(state, [int(k) for k in ids])
        state.prompts.freeze_task(state.task)
    state.replay_counter = int(meta["replay_counter"])
    seen = set(state.seen_ids())
    if int(meta["task"]) != state.task or not seen <= set(names) \
            or meta["registry_seed"] != cfg.data.seed:
        raise ValueError("meta's task count, seen classes or registry seed "
                         "disagree with each other or with the config")
    utilities = arrays.take("pool.utilities", np.float64, None)
    if cfg.pool_max is not None and utilities.size > cfg.pool_max:
        raise ValueError("adapter pool exceeds pool_max")
    for u in utilities.tolist():
        state.pool.entries.append(PoolEntry(state.adapter.freeze_copy(), u))
    by_name = {}
    for frame, p in _parameter_frames(state).items():
        p.data[...] = arrays.take(frame, p.data.dtype, *p.data.shape)
        by_name[p.name] = p

    d = cfg.encoder.d_v
    bank = state.protos
    for store_name in _PROTO_STORES:
        ids = _class_ids(arrays, f"protos.{store_name}.ids", seen)
        rows = arrays.take(f"protos.{store_name}", np.float64, len(ids), d)
        setattr(bank, store_name, dict(zip(ids, _lock(rows))))
    counts = arrays.take("protos.counts", np.int64, len(bank.raw))
    bank.counts = dict(zip(bank.raw, counts.tolist()))
    if state.store is not None:
        ids = _class_ids(arrays, "replay.ids", seen)
        n = len(ids)
        cov_shape = (d, d) if cfg.replay_full_cov else (d,)
        counts = arrays.take("replay.counts", np.int64, n).tolist()
        mu = _lock(arrays.take("replay.mu", np.float64, n, d))
        cov = _lock(arrays.take("replay.cov", np.float64, n, *cov_shape))
        state.store.classes = {k: ClassGaussian(mu[i], cov[i], counts[i])
                               for i, k in enumerate(ids)}
    for frame in [k for k in arrays if k.startswith("optim.t.")]:
        name = frame[len("optim.t."):]
        p = by_name[name]
        state.optimizer.slots[name] = {
            "m": arrays.take(f"optim.m.{name}", p.data.dtype, *p.data.shape),
            "v": arrays.take(f"optim.v.{name}", p.data.dtype, *p.data.shape),
            "t": int(arrays.take(frame, np.int64, 1)[0]),
        }
    if arrays:
        raise ValueError(f"unexpected checkpoint frames {sorted(arrays)[:3]}")
    return state
