"""Visual prototypes refined through text-affinity mixing.

Raw prototypes are class means of adapter-free frozen-encoder features,
written once when their class first appears. During training they are
mixed through a row-normalized RBF affinity matrix built from projected
class text embeddings, so semantically close classes pull each other's
prototypes together. The refined prototypes act as a cosine classifier on
the adapted visual feature, and a consistency term anchors old classes'
refined prototypes to their snapshot from the previous task.
"""

from __future__ import annotations

import numpy as np

from . import seeding, tensor as T
from .encoder import EncoderConfig, clip_logits, text_features
from .errors import ProtocolError

VARIANTS = ("only_text", "centroid_clip", "centroid_adapted", "linear", "se_vpr")


class PrototypeBank:
    """Per-class prototype stores: raw, adapted, refined, and snapshot.

    Raw and adapted entries are write-once per class. The refined store
    holds whatever the trainer last computed; snapshots deep-copy it at
    task boundaries and are locked thereafter.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.raw: dict[int, np.ndarray] = {}
        self.counts: dict[int, int] = {}
        self.adapted: dict[int, np.ndarray] = {}
        self.refined_current: dict[int, np.ndarray] = {}
        self.refined_snapshot: dict[int, np.ndarray] = {}

    def matrix(self, store: str, class_ids) -> np.ndarray:
        """One row of the named store per class id, in the order given."""
        rows = getattr(self, store)
        missing = [k for k in class_ids if int(k) not in rows]
        if missing:
            raise ProtocolError(f"no {store} prototype for classes {missing}")
        return np.stack([rows[int(k)] for k in class_ids])

    def set_refined(self, class_ids, refined) -> None:
        refined = refined.data if isinstance(refined, T.Tensor) else np.asarray(refined)
        if refined.shape != (len(class_ids), self.dim):
            raise ValueError("one refined row per class required")
        for i, k in enumerate(class_ids):
            self.refined_current[int(k)] = refined[i].copy()


def _class_means(
    bank: PrototypeBank,
    store: dict[int, np.ndarray],
    features: np.ndarray,
    y: np.ndarray,
    class_ids,
    what: str,
) -> None:
    for k in class_ids:
        k = int(k)
        if k in store:
            raise ProtocolError(f"{what} prototype for class {k} already written")
        rows = features[y == k]
        if rows.shape[0] == 0:
            raise ValueError(f"no samples for class {k}")
        proto = rows.mean(axis=0)
        proto.setflags(write=False)
        store[k] = proto
        if what == "raw":
            bank.counts[k] = int(rows.shape[0])


def raw_prototypes(bank: PrototypeBank, backbone, x, y, class_ids) -> None:
    """Adapter-free encoded class means, written once per class."""
    with T.no_grad():
        feats = backbone.forward(x, None).data
    _class_means(bank, bank.raw, feats, np.asarray(y), class_ids, "raw")


def adapted_prototypes(bank: PrototypeBank, backbone, stack, x, y, class_ids) -> None:
    """Class means through the current adapter, for the centroid ablation."""
    with T.no_grad():
        feats = backbone.forward(x, stack).data
    _class_means(bank, bank.adapted, feats, np.asarray(y), class_ids, "adapted")


class AffinityModel:
    """Trainable projection plus the RBF scale for class-affinity modeling."""

    def __init__(self, h_proj: T.Parameter, gamma: float):
        self.h_proj = h_proj
        self.gamma = float(gamma)

    @classmethod
    def create(cls, cfg: EncoderConfig, seed: int, gamma: float):
        rng = seeding.rng(seed, "affinity")
        h = rng.standard_normal((cfg.d_t, cfg.d_t)) / np.sqrt(cfg.d_t)
        return cls(T.Parameter(h, name="affinity.h_proj"), gamma)

    def parameters(self) -> list[T.Parameter]:
        return [self.h_proj]


def affinity_matrix(z: T.Tensor, h_proj, gamma: float) -> T.Tensor:
    """M_kj = exp(-gamma ||z_k H - z_j H||^2), bitwise symmetric.

    The squared distances come out of a symmetrized Gram matrix, which
    pins the diagonal to exactly zero before the exp, so M_kk == 1 with no
    tolerance needed.
    """
    z = z if isinstance(z, T.Tensor) else T.Tensor(z)
    if z.data.ndim != 2 or z.data.shape[0] < 1:
        raise ValueError("need at least one class embedding row")
    return T.rbf_affinity(z, h_proj, gamma)


def mixing_weights(m: T.Tensor) -> T.Tensor:
    """Row-normalized affinity: each row a probability vector."""
    return T.div(m, T.tsum(m, axis=1, keepdims=True))


def refine_prototypes(m: T.Tensor, raw) -> T.Tensor:
    """Affinity-mixed prototypes: row-stochastic M applied to raw rows."""
    raw = raw if isinstance(raw, T.Tensor) else T.Tensor(raw)
    if m.data.shape[0] != m.data.shape[1] or m.data.shape[1] != raw.data.shape[0]:
        raise ValueError("affinity must be square with one row per prototype")
    return T.mix_rows(m, raw)


def visual_prob(f_adapted: T.Tensor, refined, tau: float) -> T.Tensor:
    """Softmax over cosine similarities to the refined prototypes."""
    return T.softmax_temp(clip_logits(f_adapted, refined, tau), 1.0)


def loss_ce_v(f_adapted: T.Tensor, refined, ys_local, tau: float) -> T.Tensor:
    return T.cross_entropy_rows(visual_prob(f_adapted, refined, tau), ys_local)


def loss_reg(refined_old: T.Tensor | None, snapshot: np.ndarray) -> T.Tensor:
    """Mean squared drift of old-class prototypes from their snapshot."""
    if refined_old is None or refined_old.data.shape[0] == 0:
        return T.scalar(0.0)
    snapshot = np.asarray(snapshot)
    if snapshot.shape != refined_old.data.shape:
        raise ValueError("snapshot shape disagrees with refined prototypes")
    diff = T.add(refined_old, T.Tensor(-snapshot))
    return T.tmean(T.tsum(T.mul(diff, diff), axis=1))


def snapshot_prototypes(bank: PrototypeBank) -> None:
    """Deep-copy refined_current into the immutable snapshot store."""
    out = {}
    for k, v in bank.refined_current.items():
        c = v.copy()
        c.setflags(write=False)
        out[k] = c
    bank.refined_snapshot = out


class LinearHead:
    """Per-task affine blocks over adapted features, zero-initialized."""

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.blocks: dict[int, tuple[T.Parameter, T.Parameter]] = {}
        self.block_ids: dict[int, tuple[int, ...]] = {}

    def add_task(self, task: int, class_ids) -> None:
        if task in self.blocks:
            raise ProtocolError(f"head block for task {task} already exists")
        c = len(class_ids)
        self.blocks[task] = (
            T.Parameter(np.zeros((c, self.dim)), name=f"head.{task}.w"),
            T.Parameter(np.zeros(c), name=f"head.{task}.b"),
        )
        self.block_ids[task] = tuple(int(k) for k in class_ids)

    @property
    def class_ids(self) -> tuple[int, ...]:
        out: list[int] = []
        for task in sorted(self.blocks):
            out.extend(self.block_ids[task])
        return tuple(out)

    def columns(self, class_ids) -> np.ndarray:
        """The head's column of each class id, in the order given."""
        cols = {k: i for i, k in enumerate(self.class_ids)}
        try:
            return np.array([cols[int(k)] for k in class_ids], dtype=np.int64)
        except KeyError as e:
            raise ProtocolError(
                f"linear head has no column for class {e.args[0]}") from None

    def logits(self, f: T.Tensor, cols) -> T.Tensor:
        """Logits of the head columns cols: rows of the stacked blocks."""
        if not self.blocks:
            raise ProtocolError("linear head has no task blocks yet")
        blocks = []
        for task in sorted(self.blocks):
            w, b = self.blocks[task]
            blocks.append(T.transpose(T.add(T.matmul(f, T.transpose(w)), b)))
        return T.transpose(T.take_rows(T.concat_rows(blocks), cols))

    def parameters(self) -> list[T.Parameter]:
        return [p for task in sorted(self.blocks) for p in self.blocks[task]]


class VisualBranch:
    """The visual classifier of one variant: the one code that names them.

    only_text has none; centroid_clip and centroid_adapted score against
    class means, linear against head columns and se_vpr against the raw
    means of ``mixed`` (class_ids by default) mixed by the live prompt's
    text affinity, anchoring the refined ``past`` rows to their snapshot.
    A branch serves one task's training or one scorer of the trainer's
    ``state``, so its target is built once.
    """

    def __init__(self, state, class_ids, mixed=None, past=()):
        kind = state.cfg.classifier
        self.kind, self.state, self.snapshot = kind, state, None
        bank = state.protos
        if kind == "centroid_clip":
            self.target = bank.matrix("raw", class_ids)
        elif kind == "centroid_adapted":
            self.target = bank.matrix("adapted", class_ids)
        elif kind == "linear":
            self.target = state.head.columns(class_ids)
        elif kind == "se_vpr":
            self.mixed = list(class_ids if mixed is None else mixed)
            self.raw = bank.matrix("raw", self.mixed)
            row = {k: i for i, k in enumerate(self.mixed)}
            self.rows = np.array([row[k] for k in class_ids], np.int64)
            if past:
                self.past_rows = np.array([row[k] for k in past], np.int64)
                self.snapshot = bank.matrix("refined_snapshot", past)

    @staticmethod
    def new_head(kind: str, dim: int) -> LinearHead | None:
        return LinearHead(dim) if kind == "linear" else None

    @staticmethod
    def write_task(state, x, y, class_ids) -> None:
        """A new task's raw means, and adapted means for centroid_adapted."""
        raw_prototypes(state.protos, state.backbone, x, y, class_ids)
        if state.cfg.classifier == "centroid_adapted":
            adapted_prototypes(state.protos, state.backbone, state.adapter, x,
                               y, class_ids)

    def refine(self) -> None:
        """se_vpr: mix the raw means by the live prompt's text affinity."""
        if self.kind == "se_vpr":
            st = self.state
            z = text_features(st.text_enc, st.prompts, self.mixed,
                              st.prompts.prompts[st.task])
            m = affinity_matrix(z, st.affinity.h_proj, st.affinity.gamma)
            self.refined = refine_prototypes(m, self.raw)

    def probs(self, f: T.Tensor, tau: float) -> T.Tensor | None:
        """Visual probabilities of the features f, or None for only_text."""
        if self.kind == "only_text":
            return None
        if self.kind == "linear":
            return T.softmax_temp(self.state.head.logits(f, self.target), 1.0)
        if self.kind == "se_vpr":
            return visual_prob(f, T.take_rows(self.refined, self.rows), tau)
        return visual_prob(f, self.target, tau)

    def terms(self, f: T.Tensor, ys_local, tau: float) -> dict[str, T.Tensor]:
        """Refine, then the visual cross entropy ``ce_v`` of the training
        features f, and se_vpr's drift ``reg`` of the past rows."""
        self.refine()
        vis = self.probs(f, tau)
        out = {} if vis is None else {"ce_v": T.cross_entropy_rows(vis, ys_local)}
        if self.snapshot is not None:
            out["reg"] = loss_reg(T.take_rows(self.refined, self.past_rows),
                                  self.snapshot)
        return out

    def finish_task(self) -> None:
        """se_vpr: store the refinement by the final prompt, and snapshot it."""
        if self.kind == "se_vpr":
            with T.no_grad():
                self.refine()
            self.state.protos.set_refined(self.mixed, self.refined.data)
            snapshot_prototypes(self.state.protos)
