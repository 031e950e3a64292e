"""Adapter pool, text-queried relevance, and selective distillation.

Past tasks leave frozen adapter snapshots in a bounded pool. Each training
instance is pushed through every pooled adapter, the resulting views are
scored against the instance's per-task text embeddings through two small
projectors, and the softmaxed scores blend the views into one teacher
feature. The teacher is aligned to the current text classifier by a cross
entropy term and distilled into the live visual feature by a KL term with
the teacher branch cut out of the gradient graph.

Pool upkeep is utility-based: each entry keeps an EMA of its raw relevance
score, and admission into a full pool first removes the entry with the
highest utility, the one whose knowledge transferred most.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding, tensor as T
from .encoder import AdapterStack, EncoderConfig, PromptBank, TextEncoder, \
    VisualBackbone, clip_logits, text_features
from .errors import ProtocolError

STRATEGIES = ("seq", "clip_kd", "vanilla", "avg_kd", "sg_akt")
# strategies whose teacher blends every pool entry by per-entry scores
POOL_STRATEGIES = ("avg_kd", "sg_akt")


@dataclass
class PoolEntry:
    stack: AdapterStack
    utility: float


class AdapterPool:
    """Bounded list of frozen adapter snapshots with utility scores."""

    def __init__(self, max_size: int | None = 5):
        self.max_size = max_size
        self.entries: list[PoolEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def stacks(self) -> list[AdapterStack]:
        return [e.stack for e in self.entries]

    @property
    def utilities(self) -> np.ndarray:
        return np.array([e.utility for e in self.entries], dtype=np.float64)

    def update_utilities(self, batch_alpha, momentum: float) -> None:
        """U_p <- mu U_p + (1 - mu) alpha_p with batch-mean raw scores."""
        batch_alpha = np.asarray(batch_alpha, dtype=np.float64)
        if batch_alpha.shape != (len(self.entries),):
            raise ValueError("one score per pool entry required")
        for entry, a in zip(self.entries, batch_alpha):
            entry.utility = momentum * entry.utility + (1.0 - momentum) * float(a)

    def admit_and_prune(self, stack: AdapterStack) -> int | None:
        """Insert a frozen copy, removing the max-utility entry if full.

        Ties break toward the lowest index. The newcomer's utility is the
        uniform value 1/max_size; utilities of survivors are kept as they
        are, not renormalized. Returns the removed index, if any.
        """
        removed = None
        if self.max_size is not None and len(self.entries) == self.max_size:
            removed = int(np.argmax(self.utilities))
            self.entries.pop(removed)
        self.entries.append(PoolEntry(stack.freeze_copy(), 0.0))
        denom = self.max_size if self.max_size is not None else len(self.entries)
        self.entries[-1].utility = 1.0 / denom
        return removed

    def checksums(self) -> list[str]:
        return [e.stack.checksum() for e in self.entries]


@dataclass
class SemanticProjectors:
    """The two trainable maps scoring text embeddings against pool views."""

    w_s: T.Parameter
    w_v: T.Parameter

    @classmethod
    def create(cls, cfg: EncoderConfig, seed: int):
        rng = seeding.rng(seed, "projectors")
        w_s = (rng.standard_normal((cfg.d_t, cfg.d_v)) / np.sqrt(cfg.d_t))
        w_v = (rng.standard_normal((cfg.d_v, cfg.d_v)) / np.sqrt(cfg.d_v))
        return cls(
            w_s=T.Parameter(w_s, name="proj.w_s"),
            w_v=T.Parameter(w_v, name="proj.w_v"),
        )

    def parameters(self) -> list[T.Parameter]:
        return [self.w_s, self.w_v]


@dataclass
class RelevanceResult:
    """Raw scores, their softmax weights, and the blended teacher feature."""

    alpha: T.Tensor
    weights: T.Tensor
    v_agg: T.Tensor


def pooled_views(backbone: VisualBackbone, x, pool: AdapterPool) -> list[T.Tensor]:
    """One frozen visual forward per pool entry; constants in the graph."""
    if len(pool) == 0:
        raise ProtocolError("adapter pool is empty; no teachers to consult")
    return [backbone.forward(x, stack) for stack in pool.stacks]


def semantic_vectors(
    text_enc: TextEncoder, bank: PromptBank, class_ids, upto_task: int
) -> list[T.Tensor]:
    """Text features of the given classes under each prompt 1..upto_task.

    Returns one (num_classes, d_T) block per historical prompt. Frozen past
    prompts contribute no gradient; the active prompt does.
    """
    if upto_task < 1:
        raise ProtocolError("semantic vectors need at least one task")
    out = []
    for task in range(1, upto_task + 1):
        if task not in bank.prompts:
            raise ProtocolError(f"no prompt recorded for task {task}")
        out.append(text_features(text_enc, bank, class_ids, bank.prompts[task]))
    return out


def relevance_scores(
    sem: list[T.Tensor],
    views: list[T.Tensor],
    ys_local,
    projectors: SemanticProjectors,
) -> T.Tensor:
    """Per-instance, per-entry scores (1/s) sum_i (S_y W_S) . (V_p W_V)."""
    if projectors.w_s.data.shape[1] != projectors.w_v.data.shape[1]:
        raise ValueError("projected dimensions disagree")
    return T.relevance(sem, views, ys_local, projectors.w_s, projectors.w_v)


def aggregate(views: list[T.Tensor], alpha: T.Tensor, lam: float) -> RelevanceResult:
    """Blend views with row weights softmax(lam * alpha)."""
    if alpha.data.ndim != 2 or alpha.data.shape[1] != len(views):
        raise ValueError("one score column per view required")
    weights = T.softmax_temp(T.mul(alpha, float(lam)), 1.0)
    v_agg = T.blend(views, weights)
    return RelevanceResult(alpha=alpha, weights=weights, v_agg=v_agg)


def loss_agg(v_agg: T.Tensor, text_feats: T.Tensor, ys_local, tau: float) -> T.Tensor:
    """Cross entropy aligning the blended teacher with the text classifier."""
    probs = T.softmax_temp(clip_logits(v_agg, text_feats, tau), 1.0)
    return T.cross_entropy_rows(probs, ys_local)


def loss_sgakt(
    v_agg: T.Tensor,
    f_v: T.Tensor,
    text_feats: T.Tensor,
    tau_prime: float,
    eps: float = T.KL_EPS_DEFAULT,
) -> T.Tensor:
    """KL from the teacher's class distribution to the live feature's.

    The teacher side is evaluated outside the gradient graph, so the
    projectors and prompts feeding v_agg receive nothing from this term.
    """
    with T.no_grad():
        teacher = T.softmax_temp(clip_logits(v_agg, text_feats, tau_prime), 1.0)
    student = T.softmax_temp(clip_logits(f_v, text_feats, tau_prime), 1.0)
    return T.kl_div_rows(teacher, student, eps)


class Teacher:
    """A strategy's teacher over fixed rows: the one code that names them.

    seq has none; clip_kd distills the adapter-free encoder, vanilla the
    newest pool entry, avg_kd the even blend of every entry and sg_akt the
    blend by learned relevance, so avg_kd is sg_akt with zero scores. There
    is no teacher while the pool is empty. The views of every row of x are
    built once, and so are sg_akt's past semantic blocks when ``text`` is
    (text encoder, prompt bank, support classes, live task).
    """

    def __init__(self, strategy: str, backbone: VisualBackbone, x,
                 pool: AdapterPool, text=None):
        self.strategy, self.entries, self.text = strategy, len(pool), text
        self.views = self.past = None
        if strategy == "seq" or len(pool) == 0:
            return
        with T.no_grad():
            if strategy in POOL_STRATEGIES:
                views = pooled_views(backbone, x, pool)
            elif strategy == "clip_kd":
                views = [backbone.forward(x, None)]
            else:
                views = [backbone.forward(x, pool.stacks[-1])]
            if strategy == "sg_akt" and text is not None:
                text_enc, bank, class_ids, task = text
                self.past = semantic_vectors(text_enc, bank, class_ids,
                                             task - 1)
        self.views = [v.data for v in views]

    def batch(self, idx, ys_local, projectors: SemanticProjectors, lam: float,
              sem=None) -> tuple[RelevanceResult | None, np.ndarray]:
        """The teacher of the rows idx and one utility score per pool entry:
        the batch-mean raw relevance if the teacher blends the pool, else 0.
        sg_akt's blocks are ``sem``, or the past ones plus the live one."""
        if self.views is None:
            return None, np.zeros(self.entries)
        views = [T.Tensor(v[idx]) for v in self.views]
        if self.strategy == "sg_akt":
            if sem is None:
                # the live block is a node apart from the text classifier's,
                # so that the prompt's gradient adds up in one order
                text_enc, bank, class_ids, task = self.text
                sem = self.past + [text_features(text_enc, bank, class_ids,
                                                 bank.prompts[task])]
            alpha = relevance_scores(sem, views, ys_local, projectors)
        else:
            alpha = T.Tensor(np.zeros((views[0].data.shape[0], len(views))))
        res = aggregate(views, alpha, lam)
        return res, (alpha.data.mean(axis=0) if self.strategy in POOL_STRATEGIES
                     else np.zeros(self.entries))


def teacher_result(strategy: str, backbone: VisualBackbone, x,
                   pool: AdapterPool, sem: list[T.Tensor] | None, ys_local,
                   projectors: SemanticProjectors,
                   lam: float) -> RelevanceResult | None:
    """The strategy's teacher feature for the rows x, or None for no teacher."""
    teacher = Teacher(strategy, backbone, x, pool)
    return teacher.batch(slice(None), ys_local, projectors, lam, sem)[0]
