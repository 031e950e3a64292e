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
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import seeding, tensor as T
from .config import RunConfig, beta_value, config_dict, parse_config
from .datastream import TaskData, TaskStream
from .encoder import AdapterStack, PromptBank, TextEncoder, VisualBackbone, \
    clip_logits, text_features
from .errors import ConfigError, DataFormatError, ProtocolError
from .replay import ReplayStore, deserialize_store, draw_pseudo_batch, \
    fit_gaussians, replay_losses, serialize_store
from .sevpr import AffinityModel, LinearHead, PrototypeBank, \
    adapted_prototypes, affinity_matrix, classifier_variant, loss_reg, \
    raw_prototypes, refine_prototypes, snapshot_prototypes
from .sgakt import POOL_STRATEGIES, AdapterPool, PoolEntry, \
    SemanticProjectors, loss_agg, loss_sgakt, semantic_vectors, teacher_result

CKPT_MAGIC = b"SECA-CKPT"
CKPT_VERSION = 1

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
            if not p.trainable:
                continue
            slot = self.slots.setdefault(p.name, {
                "m": np.zeros_like(p.data),
                "v": np.zeros_like(p.data),
                "t": 0,
            })
            slot["t"] += 1
            g = p.grad
            slot["m"] = self.beta1 * slot["m"] + (1.0 - self.beta1) * g
            slot["v"] = self.beta2 * slot["v"] + (1.0 - self.beta2) * g * g
            m_hat = slot["m"] / (1.0 - self.beta1 ** slot["t"])
            v_hat = slot["v"] / (1.0 - self.beta2 ** slot["t"])
            p.data[...] = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class TrainState:
    cfg: RunConfig
    names: dict[int, str]
    registry_seed: int
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
    task: int = 0
    seen: list[tuple[int, ...]] = field(default_factory=list)
    replay_counter: int = 0

    def seen_ids(self) -> list[int]:
        return [k for ids in self.seen for k in ids]


def init_state(cfg: RunConfig, registry_ids, names: dict[int, str],
               registry_seed: int) -> TrainState:
    enc = cfg.encoder
    return TrainState(
        cfg=cfg,
        names=dict(names),
        registry_seed=int(registry_seed),
        backbone=VisualBackbone(enc),
        text_enc=TextEncoder(enc),
        prompts=PromptBank(enc, list(registry_ids), registry_seed),
        adapter=AdapterStack(enc, seed=cfg.seed),
        pool=AdapterPool(cfg.pool_max),
        projectors=SemanticProjectors.create(enc, cfg.seed),
        affinity=AffinityModel.create(enc, cfg.seed, cfg.affinity_gamma),
        protos=PrototypeBank(enc.d_v),
        head=LinearHead(enc.d_v) if cfg.classifier == "linear" else None,
        store=ReplayStore(enc.d_v) if cfg.replay else None,
        optimizer=Adam(cfg.lr),
    )


def state_for_stream(cfg: RunConfig, stream: TaskStream) -> TrainState:
    ids = sorted(stream.names)
    return init_state(cfg, ids, stream.names, cfg.data.seed)


def _trainables(state: TrainState) -> list[T.Parameter]:
    params = [state.prompts.prompts[state.task]]
    params += state.adapter.parameters()
    params += state.projectors.parameters()
    params += state.affinity.parameters()
    if state.head is not None:
        params += state.head.parameters()
    return params


def _train_support(state: TrainState) -> list[int]:
    if state.cfg.replay:
        return state.seen_ids()
    return list(state.seen[-1])


def _refined(state: TrainState, prompt, ids) -> T.Tensor:
    z = text_features(state.text_enc, state.prompts, ids, prompt)
    m = affinity_matrix(z, state.affinity.h_proj, state.cfg.affinity_gamma)
    return refine_prototypes(m, state.protos.raw_matrix(ids))


def _rows(ids: list[int], keys) -> np.ndarray:
    return np.array([ids.index(int(k)) for k in keys], dtype=np.int64)


def _visual(state: TrainState, f, class_ids, tau: float, refined):
    return classifier_variant(state.cfg.classifier, f_adapted=f,
                              bank=state.protos, class_ids=class_ids, tau=tau,
                              refined=refined, head=state.head)


def batch_loss(state: TrainState, x, ys_global) -> tuple[T.Tensor, np.ndarray | None]:
    """Composite loss of one batch plus the mean raw relevance scores.

    The score vector is None for strategies whose teacher does not span
    the pool; the caller then applies a pure-decay utility update.
    """
    cfg = state.cfg
    s = state.task
    support = _train_support(state)
    pos = {int(k): i for i, k in enumerate(support)}
    ys_local = np.array([pos[int(y)] for y in ys_global], dtype=np.int64)
    prompt = state.prompts.prompts[s]

    f_v = state.backbone.forward(x, state.adapter)
    text_sup = text_features(state.text_enc, state.prompts, support, prompt)
    probs_t = T.softmax_temp(clip_logits(f_v, text_sup, cfg.tau), 1.0)
    loss = T.cross_entropy_rows(probs_t, ys_local)

    refined_all = refined_sup = None
    if cfg.classifier == "se_vpr":
        seen = state.seen_ids()
        refined_all = _refined(state, prompt, seen)
        refined_sup = T.take_rows(refined_all, _rows(seen, support))
    vis = _visual(state, f_v, support, cfg.tau, refined_sup)
    if vis is not None:
        loss = T.add(loss, T.cross_entropy_rows(vis, ys_local))
    if refined_all is not None and s > 1:
        old = [k for ids in state.seen[:-1] for k in ids]
        loss = T.add(loss, loss_reg(T.take_rows(refined_all, _rows(seen, old)),
                                    state.protos.snapshot_matrix(old)))

    alpha_bar = None
    if s > 1:
        sem = None
        if cfg.distill == "sg_akt":
            sem = semantic_vectors(state.text_enc, state.prompts, support, s)
        res = teacher_result(cfg.distill, state.backbone, x, state.pool, sem,
                             ys_local, state.projectors, cfg.agg_lambda)
        if res is not None:
            loss = T.add(loss, loss_agg(res.v_agg, text_sup, ys_local, cfg.tau))
            kl = loss_sgakt(res.v_agg, f_v, text_sup, cfg.tau_prime,
                            cfg.kl_epsilon)
            loss = T.add(loss, T.mul(kl, beta_value(cfg, s)))
            if cfg.distill in POOL_STRATEGIES:
                alpha_bar = res.alpha.data.mean(axis=0)

    if cfg.replay and s > 1:
        # replay trains on every seen class, so support == seen here
        past = [k for ids in state.seen[:-1] for k in ids]
        seed_b = _replay_seed(cfg.seed, state.replay_counter)
        state.replay_counter += 1
        pseudo = draw_pseudo_batch(state.store, past, cfg.batch_size, seed_b)
        lt, _ = replay_losses(pseudo, text_sup, None, support, cfg.tau)
        loss = T.add(loss, lt)
        vis = _visual(state, T.Tensor(pseudo.x), support, cfg.tau, refined_all)
        if vis is not None:
            p_local = np.array([pos[int(k)] for k in pseudo.y], dtype=np.int64)
            loss = T.add(loss, T.cross_entropy_rows(vis, p_local))

    return loss, alpha_bar


def train_task(state: TrainState, task: TaskData) -> None:
    cfg = state.cfg
    new_ids = [int(k) for k in task.class_ids]
    overlap = set(state.seen_ids()) & set(new_ids)
    if overlap:
        raise ProtocolError(f"classes {sorted(overlap)} were seen in an "
                            "earlier task")
    state.task += 1
    s = state.task
    state.seen.append(tuple(new_ids))
    state.prompts.new_prompt(s, cfg.seed)
    raw_prototypes(state.protos, state.backbone, task.train_x, task.train_y,
                   new_ids)
    if cfg.classifier == "centroid_adapted":
        adapted_prototypes(state.protos, state.backbone, state.adapter,
                           task.train_x, task.train_y, new_ids)
    if state.head is not None:
        state.head.add_task(s, new_ids)

    params = _trainables(state)
    n = task.train_x.shape[0]
    for epoch in range(cfg.epochs_per_task):
        order = seeding.rng(cfg.seed, "order", s, epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            for p in params:
                p.zero_grad()
            loss, alpha_bar = batch_loss(state, task.train_x[idx],
                                         task.train_y[idx])
            loss.backward()
            state.optimizer.step(params)
            if len(state.pool) > 0:
                scores = alpha_bar if alpha_bar is not None \
                    else np.zeros(len(state.pool))
                state.pool.update_utilities(scores, cfg.utility_momentum)

    # boundary bookkeeping; order matters for the snapshot semantics
    state.prompts.freeze_task(s)
    if cfg.classifier == "se_vpr":
        seen = state.seen_ids()
        with T.no_grad():
            refined = _refined(state, state.prompts.prompts[s], seen)
        state.protos.set_refined(seen, refined.data)
        snapshot_prototypes(state.protos)
    state.pool.admit_and_prune(state.adapter)
    if cfg.replay:
        with T.no_grad():
            feats = state.backbone.forward(task.train_x, state.adapter).data
        fit_gaussians(state.store, feats, task.train_y, new_ids,
                      full_cov=cfg.replay_full_cov)


def predict_scores(state: TrainState, x) -> np.ndarray:
    """Hybrid score rows over the ascending list of seen class ids."""
    if state.task < 1:
        raise ProtocolError("no trained task to predict with")
    cfg = state.cfg
    ids = sorted(state.seen_ids())
    with T.no_grad():
        f = state.backbone.forward(x, state.adapter)
        total = None
        for feats in semantic_vectors(state.text_enc, state.prompts, ids,
                                      state.task):
            p = T.softmax_temp(clip_logits(f, feats, cfg.tau_prime), 1.0)
            total = p if total is None else T.add(total, p)
        score = total.data * (1.0 / state.task)
        refined = None
        if cfg.classifier == "se_vpr":
            refined = _refined(state, state.prompts.prompts[state.task], ids)
        vis = _visual(state, f, ids, cfg.tau_prime, refined)
        if vis is not None:
            score = score + vis.data
    return score


def predict(state: TrainState, x) -> np.ndarray:
    """Predicted global class ids; ties fall to the lowest id."""
    ids = np.array(sorted(state.seen_ids()), dtype=np.int64)
    out = []
    for start in range(0, x.shape[0], EVAL_BATCH):
        scores = predict_scores(state, x[start:start + EVAL_BATCH])
        out.append(ids[np.argmax(scores, axis=1)])
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


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

_DTYPES = {0: "<f8", 1: "<f4", 2: "<i8"}
_DTYPE_CODES = {np.dtype("float64"): 0, np.dtype("float32"): 1,
                np.dtype("int64"): 2}


def _pack_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    out = [struct.pack("<I", len(arrays))]
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        if arr.dtype not in _DTYPE_CODES:
            raise ValueError(f"unsupported array dtype {arr.dtype}")
        name = key.encode()
        out.append(struct.pack("<H", len(name)))
        out.append(name)
        out.append(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        out.append(arr.astype(_DTYPES[_DTYPE_CODES[arr.dtype]]).tobytes())
    return b"".join(out)


def _unpack_arrays(blob: bytes) -> dict[str, np.ndarray]:
    def need(n):
        if off[0] + n > len(blob):
            raise DataFormatError("truncated", "checkpoint section ends early")

    off = [0]
    need(4)
    count = struct.unpack_from("<I", blob, 0)[0]
    off[0] = 4
    out = {}
    for _ in range(count):
        need(2)
        klen = struct.unpack_from("<H", blob, off[0])[0]
        off[0] += 2
        need(klen + 2)
        key = blob[off[0]:off[0] + klen].decode()
        off[0] += klen
        code, ndim = struct.unpack_from("<BB", blob, off[0])
        off[0] += 2
        if code not in _DTYPES:
            raise DataFormatError("truncated", f"unknown dtype code {code}")
        need(8 * ndim)
        shape = struct.unpack_from(f"<{ndim}Q", blob, off[0])
        off[0] += 8 * ndim
        dt = np.dtype(_DTYPES[code])
        total = int(np.prod(shape, dtype=np.int64))
        need(dt.itemsize * total)
        if total == 0:
            out[key] = np.zeros(shape, dtype=dt)
        else:
            arr = np.frombuffer(blob, dtype=dt, count=total, offset=off[0])
            out[key] = arr.reshape(shape).copy()
        off[0] += dt.itemsize * total
    if off[0] != len(blob):
        raise DataFormatError("truncated", "trailing bytes in section")
    return out


def _stack_arrays(stack: AdapterStack, prefix: str) -> dict[str, np.ndarray]:
    out = {}
    for layer, group in enumerate(stack.layers):
        for name in AdapterStack.FIELDS:
            out[f"{prefix}{layer}.{name}"] = group[name].data
    return out


def _load_stack_arrays(stack: AdapterStack, arrays, prefix: str) -> None:
    for layer, group in enumerate(stack.layers):
        for name in AdapterStack.FIELDS:
            group[name].data[...] = arrays[f"{prefix}{layer}.{name}"]


def save_checkpoint(path, state: TrainState) -> None:
    """Atomic, byte-deterministic snapshot of the whole training state."""
    sections: list[tuple[str, bytes]] = []
    meta = {
        "task": state.task,
        "seen": [list(ids) for ids in state.seen],
        "replay_counter": state.replay_counter,
        "registry_seed": state.registry_seed,
        "names": {str(k): v for k, v in state.names.items()},
    }
    sections.append(("meta", json.dumps(meta, sort_keys=True).encode()))
    sections.append(("config", json.dumps(config_dict(state.cfg),
                                          sort_keys=True).encode()))
    sections.append(("prompts", _pack_arrays(
        {f"prompt.{t}": p.data for t, p in state.prompts.prompts.items()})))
    sections.append(("adapter", _pack_arrays(_stack_arrays(state.adapter, ""))))
    pool_arrays = {"utilities": state.pool.utilities}
    for i, stack in enumerate(state.pool.stacks):
        pool_arrays.update(_stack_arrays(stack, f"{i}."))
    sections.append(("pool", _pack_arrays(pool_arrays)))
    sections.append(("projectors", _pack_arrays(
        {"w_s": state.projectors.w_s.data, "w_v": state.projectors.w_v.data})))
    sections.append(("affinity", _pack_arrays(
        {"h_proj": state.affinity.h_proj.data})))
    protos = {}
    for k, v in state.protos.raw.items():
        protos[f"raw.{k}"] = v
    for k, v in state.protos.adapted.items():
        protos[f"adapted.{k}"] = v
    for k, v in state.protos.refined_current.items():
        protos[f"cur.{k}"] = v
    for k, v in state.protos.refined_snapshot.items():
        protos[f"snap.{k}"] = v
    counts = sorted(state.protos.counts.items())
    protos["count_ids"] = np.array([k for k, _ in counts], dtype=np.int64)
    protos["count_vals"] = np.array([v for _, v in counts], dtype=np.int64)
    sections.append(("protos", _pack_arrays(protos)))
    if state.head is not None:
        head = {}
        for t in sorted(state.head.blocks):
            w, b = state.head.blocks[t]
            head[f"{t}.w"] = w.data
            head[f"{t}.b"] = b.data
            head[f"{t}.ids"] = np.array(state.head.block_ids[t], dtype=np.int64)
        sections.append(("head", _pack_arrays(head)))
    if state.store is not None:
        sections.append(("replay", serialize_store(state.store)))
    optim = {}
    for name, slot in sorted(state.optimizer.slots.items()):
        optim[f"m.{name}"] = slot["m"]
        optim[f"v.{name}"] = slot["v"]
        optim[f"t.{name}"] = np.array([slot["t"]], dtype=np.int64)
    sections.append(("optim", _pack_arrays(optim)))

    payload = [CKPT_MAGIC, struct.pack("<I", CKPT_VERSION)]
    for name, blob in sections:
        enc = name.encode()
        payload.append(struct.pack("<H", len(enc)))
        payload.append(enc)
        payload.append(struct.pack("<Q", len(blob)))
        payload.append(blob)
    data = b"".join(payload)
    dir_name = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dir_name, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_sections(blob: bytes) -> dict[str, bytes]:
    if len(blob) < 13 or blob[:9] != CKPT_MAGIC:
        raise DataFormatError("bad-magic", "not a SECA checkpoint")
    version = struct.unpack_from("<I", blob, 9)[0]
    if version != CKPT_VERSION:
        raise DataFormatError("bad-version",
                              f"checkpoint version {version} unsupported")
    off = 13
    out = {}
    while off < len(blob):
        if off + 2 > len(blob):
            raise DataFormatError("truncated", "checkpoint ends mid-header")
        nlen = struct.unpack_from("<H", blob, off)[0]
        off += 2
        if off + nlen + 8 > len(blob):
            raise DataFormatError("truncated", "checkpoint ends mid-header")
        name = blob[off:off + nlen].decode()
        off += nlen
        size = struct.unpack_from("<Q", blob, off)[0]
        off += 8
        if off + size > len(blob):
            raise DataFormatError("truncated", f"section {name} ends early")
        out[name] = blob[off:off + size]
        off += size
    return out


def load_checkpoint(path) -> TrainState:
    """Rebuild a saved state; malformed content raises DataFormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _restore(_read_sections(blob))
    except (ValueError, LookupError, ConfigError, ProtocolError) as e:
        raise DataFormatError("corrupt", f"malformed checkpoint: {e}") from e


def _restore(sections: dict[str, bytes]) -> TrainState:
    for required in ("meta", "config", "prompts", "adapter", "pool",
                     "projectors", "affinity", "protos", "optim"):
        if required not in sections:
            raise DataFormatError("truncated", f"missing section {required}")
    meta = json.loads(sections["meta"])
    cfg = parse_config(json.loads(sections["config"]))
    names = {int(k): v for k, v in meta["names"].items()}
    state = init_state(cfg, sorted(names), names, meta["registry_seed"])
    state.task = int(meta["task"])
    state.seen = [tuple(int(k) for k in ids) for ids in meta["seen"]]
    state.replay_counter = int(meta["replay_counter"])
    if not set(state.seen_ids()) <= set(names):
        raise ValueError("seen classes outside the class registry")

    prompts = _unpack_arrays(sections["prompts"])
    for key, arr in prompts.items():
        t = int(key.split(".")[1])
        p = state.prompts.new_prompt(t, cfg.seed)
        p.data[...] = arr
        state.prompts.freeze_task(t)
    _load_stack_arrays(state.adapter, _unpack_arrays(sections["adapter"]), "")
    pool_arrays = _unpack_arrays(sections["pool"])
    utilities = pool_arrays["utilities"]
    for i in range(utilities.size):
        stack = state.adapter.freeze_copy()
        _load_stack_arrays(stack, pool_arrays, f"{i}.")
        state.pool.entries.append(PoolEntry(stack, float(utilities[i])))
    proj = _unpack_arrays(sections["projectors"])
    state.projectors.w_s.data[...] = proj["w_s"]
    state.projectors.w_v.data[...] = proj["w_v"]
    state.affinity.h_proj.data[...] = _unpack_arrays(
        sections["affinity"])["h_proj"]
    protos = _unpack_arrays(sections["protos"])
    for key, arr in protos.items():
        if key in ("count_ids", "count_vals"):
            continue
        kind, cid = key.split(".")
        target = {"raw": state.protos.raw, "adapted": state.protos.adapted,
                  "cur": state.protos.refined_current,
                  "snap": state.protos.refined_snapshot}[kind]
        arr = arr.copy()
        arr.setflags(write=False)
        target[int(cid)] = arr
    state.protos.counts = dict(zip(protos["count_ids"].tolist(),
                                   protos["count_vals"].tolist()))
    if "head" in sections:
        head_arrays = _unpack_arrays(sections["head"])
        tasks = sorted({int(k.split(".")[0]) for k in head_arrays})
        for t in tasks:
            state.head.add_task(t, head_arrays[f"{t}.ids"].tolist())
            w, b = state.head.blocks[t]
            w.data[...] = head_arrays[f"{t}.w"]
            b.data[...] = head_arrays[f"{t}.b"]
    if "replay" in sections:
        state.store = deserialize_store(sections["replay"])
    for key, arr in _unpack_arrays(sections["optim"]).items():
        field_name, name = key.split(".", 1)
        slot = state.optimizer.slots.setdefault(name, {"m": None, "v": None,
                                                       "t": 0})
        if field_name == "t":
            slot["t"] = int(arr[0])
        else:
            slot[field_name] = arr
    return state
