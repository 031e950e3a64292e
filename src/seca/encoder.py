"""Frozen stand-in encoders: residual visual blocks with bottleneck adapters,
and prompt-conditioned text features.

Both towers are seeded random networks frozen at construction. They exist to
exercise the adaptation machinery on top of a fixed Lipschitz map, not to
model images or language. Every weight, frozen or trainable, is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding, tensor as T
from .errors import ConfigError, ProtocolError


@dataclass(frozen=True)
class EncoderConfig:
    d_v: int = 64
    d_t: int = 64
    layers: int = 4
    adapter_width: int = 16
    prompt_tokens: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in ("d_v", "d_t", "layers", "adapter_width", "prompt_tokens"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed: {self.seed} must be non-negative")


def _affine(rng, n_in: int, n_out: int):
    w = rng.standard_normal((n_in, n_out)) / np.sqrt(n_in)
    b = 0.02 * rng.standard_normal(n_out)
    return T.Tensor(w), T.Tensor(b)


class VisualBackbone:
    """L frozen residual feed-forward blocks at width d_v."""

    def __init__(self, cfg: EncoderConfig):
        rng = seeding.rng(cfg.seed, "backbone")
        self.cfg = cfg
        self.blocks = []
        for _ in range(cfg.layers):
            w1, b1 = _affine(rng, cfg.d_v, 4 * cfg.d_v)
            w2, b2 = _affine(rng, 4 * cfg.d_v, cfg.d_v)
            self.blocks.append((w1, b1, w2, b2))

    def forward(self, x, adapters: "AdapterStack | None" = None) -> T.Tensor:
        h = x if isinstance(x, T.Tensor) else T.Tensor(x)
        if h.data.shape[-1] != self.cfg.d_v:
            raise ValueError(
                f"expected feature dim {self.cfg.d_v}, got {h.data.shape[-1]}"
            )
        layers = None if adapters is None else adapters.layer_weights()
        return T.residual_tower(h, self.blocks, layers)

    def weight_arrays(self) -> list[np.ndarray]:
        return [t.data for blk in self.blocks for t in blk]

    def checksum(self) -> str:
        return T.checksum(self.weight_arrays())


class AdapterStack:
    """Per-layer bottleneck adapters, one per visual block.

    Down-projection is seeded Gaussian; up-projection starts at zero so the
    freshly built stack is the identity residual.
    """

    FIELDS = ("down_w", "down_b", "up_w", "up_b")

    def __init__(self, cfg: EncoderConfig, seed: int, _empty=False):
        self.cfg = cfg
        self.layers: list[dict[str, T.Parameter]] = []
        if _empty:
            return
        rng = seeding.rng(seed, "adapter")
        d, w = cfg.d_v, cfg.adapter_width
        for layer in range(cfg.layers):
            down_w = rng.standard_normal((d, w)) / np.sqrt(d)
            self.layers.append(
                {
                    "down_w": T.Parameter(down_w, name=f"adapter.{layer}.down_w"),
                    "down_b": T.Parameter(np.zeros(w), name=f"adapter.{layer}.down_b"),
                    "up_w": T.Parameter(np.zeros((w, d)), name=f"adapter.{layer}.up_w"),
                    "up_b": T.Parameter(np.zeros(d), name=f"adapter.{layer}.up_b"),
                }
            )

    def layer_weights(self) -> list[tuple[T.Parameter, ...]]:
        """One (down_w, down_b, up_w, up_b) tuple per layer."""
        return [tuple(p[f] for f in self.FIELDS) for p in self.layers]

    def parameters(self) -> list[T.Parameter]:
        return [p[f] for p in self.layers for f in self.FIELDS]

    def freeze_copy(self) -> "AdapterStack":
        clone = AdapterStack(self.cfg, seed=0, _empty=True)
        for layer, params in enumerate(self.layers):
            frozen = {}
            for f in self.FIELDS:
                frozen[f] = T.Parameter(params[f].data.copy(), name=f"pool.{layer}.{f}")
                frozen[f].freeze()
            clone.layers.append(frozen)
        return clone

    def weight_arrays(self) -> list[np.ndarray]:
        return [p[f].data for p in self.layers for f in self.FIELDS]

    def checksum(self) -> str:
        return T.checksum(self.weight_arrays())


class TextEncoder:
    """Frozen mixer from pooled tokens to a unit-norm text feature."""

    def __init__(self, cfg: EncoderConfig):
        rng = seeding.rng(cfg.seed, "text")
        self.cfg = cfg
        self.w1, self.b1 = _affine(rng, cfg.d_t, 4 * cfg.d_t)
        self.w2, self.b2 = _affine(rng, 4 * cfg.d_t, cfg.d_t)


class PromptBank:
    """Trainable per-task prompts plus the frozen class-token table."""

    def __init__(self, cfg: EncoderConfig, class_ids: list[int], registry_seed: int):
        self.cfg = cfg
        self.class_ids = sorted(int(c) for c in class_ids)
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ConfigError("class registry contains duplicate ids")
        self.index = {c: i for i, c in enumerate(self.class_ids)}
        rng = seeding.rng(registry_seed, "tokens")
        table = rng.standard_normal((len(self.class_ids), cfg.d_t)) / np.sqrt(cfg.d_t)
        self.token_table = T.Tensor(table)
        self.prompts: dict[int, T.Parameter] = {}

    def new_prompt(self, task: int, seed: int) -> T.Parameter:
        if task in self.prompts:
            raise ProtocolError(f"prompt for task {task} already exists")
        rng = seeding.rng(seed, "prompt", task)
        shape = (self.cfg.prompt_tokens, self.cfg.d_t)
        p = T.Parameter(0.02 * rng.standard_normal(shape), name=f"prompt.{task}")
        self.prompts[task] = p
        return p

    def freeze_task(self, task: int) -> None:
        self.prompts[task].freeze()

    def token_rows(self, class_ids) -> np.ndarray:
        """The frozen class-token rows of class_ids, in order."""
        try:
            idx = [self.index[int(c)] for c in class_ids]
        except KeyError as e:
            raise ValueError(f"unknown class id {e.args[0]}") from None
        return self.token_table.data[np.asarray(idx, dtype=np.int64)]


def text_features(
    text_enc: TextEncoder, bank: PromptBank, class_ids, prompt: T.Tensor
) -> T.Tensor:
    """Unit-norm text features for a class list under one prompt, as rows.

    Pooling of [prompt tokens ; class token] is a plain mean, so the batch
    form is (sum of prompt rows + class token) / (M + 1) broadcast over the
    class rows; the frozen text mixer then adds its residual and normalizes.
    """
    return T.text_embed(bank.token_rows(class_ids), prompt, text_enc.w1,
                        text_enc.b1, text_enc.w2, text_enc.b2)


def clip_logits(f, text_feats, tau: float) -> T.Tensor:
    """Cosine similarities against a row matrix of features, divided by tau."""
    feats = text_feats if isinstance(text_feats, T.Tensor) else T.Tensor(text_feats)
    if feats.data.shape[0] == 0:
        raise ValueError("empty class set")
    return T.cosine_logits(f, feats, tau)
