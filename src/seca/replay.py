"""Gaussian feature replay.

At each task boundary the adapted features of the just-learned classes are
summarized as per-class Gaussians. Later tasks draw pseudo features from
these distributions and add their classification losses to the real-data
losses, which widens the training softmax to every class seen so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import seeding, tensor as T
from .datastream import _lock
from .encoder import clip_logits
from .errors import ProtocolError
from .tensor import cross_entropy_rows, softmax_temp

VAR_FLOOR = 1e-6


@dataclass(frozen=True)
class ClassGaussian:
    """Fitted feature distribution of one class.

    ``cov`` is a (d,) diagonal by default; a (d, d) matrix when the store
    was fitted with full covariance. Flooring guarantees every eigenvalue
    (and hence every diagonal entry) is at least VAR_FLOOR.
    """

    mu: np.ndarray
    cov: np.ndarray
    count: int

    @property
    def diagonal(self) -> bool:
        return self.cov.ndim == 1


@dataclass
class ReplayStore:
    dim: int
    classes: dict[int, ClassGaussian] = field(default_factory=dict)

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.classes))


def _floor_full(cov: np.ndarray) -> np.ndarray:
    # symmetric eigenvalue flooring; keeps the matrix usable for sampling
    sym = (cov + cov.T) * 0.5
    evals, evecs = np.linalg.eigh(sym)
    evals = np.maximum(evals, VAR_FLOOR)
    out = (evecs * evals) @ evecs.T
    return (out + out.T) * 0.5


def fit_gaussians(store: ReplayStore, feats, ys, class_ids,
                  full_cov: bool = False) -> None:
    """Add one Gaussian per class of the current task.

    Means and variances are unbiased sample statistics in float64. A class
    with a single sample gets the floor variance in every dimension.
    Past classes are immutable, so refitting one is a protocol error.
    """
    feats = np.asarray(feats)
    ys = np.asarray(ys)
    if feats.ndim != 2 or feats.shape[1] != store.dim:
        raise ValueError(f"expected features of width {store.dim}, "
                         f"got shape {feats.shape}")
    for k in class_ids:
        if k in store.classes:
            raise ProtocolError(f"class {k} already has a fitted distribution")
        rows = feats[ys == k].astype(np.float64)
        n = rows.shape[0]
        if n == 0:
            raise ValueError(f"no samples for class {k}")
        mu = rows.mean(axis=0)
        if full_cov:
            cov = _floor_full(np.cov(rows, rowvar=False, ddof=1)) if n > 1 \
                else np.eye(store.dim) * VAR_FLOOR
        else:
            var = rows.var(axis=0, ddof=1) if n > 1 else np.zeros(store.dim)
            cov = np.maximum(var, VAR_FLOOR)
        store.classes[k] = ClassGaussian(_lock(mu), _lock(cov), n)


def sample(store: ReplayStore, class_id: int, n: int, seed: int) -> np.ndarray:
    """Draw n pseudo features from one stored class, as float32.

    float32 is the precision features are stored in; the losses convert
    the draws to float64 to compute on them. The stream is keyed by
    (seed, class), so equal seeds reproduce the batch and different
    classes never share draws.
    """
    if class_id not in store.classes:
        raise ProtocolError(f"class {class_id} has no fitted distribution")
    if n < 0:
        raise ValueError("sample count must be non-negative")
    g = store.classes[class_id]
    rng = seeding.rng(seed, "replay", class_id)
    z = rng.standard_normal((n, store.dim))
    if g.diagonal:
        x = g.mu + z * np.sqrt(g.cov)
    else:
        evals, evecs = np.linalg.eigh(g.cov)
        root = (evecs * np.sqrt(np.maximum(evals, VAR_FLOOR))) @ evecs.T
        x = g.mu + z @ root
    return x.astype(np.float32)


@dataclass(frozen=True)
class PseudoBatch:
    x: np.ndarray
    y: np.ndarray


def draw_pseudo_batch(store: ReplayStore, class_ids, batch_size: int,
                      seed: int) -> PseudoBatch:
    """Spread batch_size draws as evenly as possible over the given classes."""
    ids = list(class_ids)
    if not ids:
        raise ProtocolError("no past classes to replay")
    base, extra = divmod(batch_size, len(ids))
    xs, ys = [], []
    for i, k in enumerate(ids):
        m = base + (1 if i < extra else 0)
        xs.append(sample(store, k, m, seed))
        ys.append(np.full(m, k, dtype=np.int64))
    return PseudoBatch(np.concatenate(xs, axis=0), np.concatenate(ys))


def replay_losses(batch: PseudoBatch, text_feats, refined, support,
                  tau: float) -> tuple[T.Tensor, T.Tensor]:
    """Text and visual cross-entropies of a pseudo batch.

    ``support`` lists the global class ids behind the rows of text_feats
    and refined; it must already span every seen class so the softmax
    covers the joint label set. Pseudo features are used as-is since they
    live in the adapted feature space. A classifier design without a
    prototype-style visual branch passes refined=None and gets a zero
    visual add-on.
    """
    index = {k: i for i, k in enumerate(support)}
    rows = text_feats.data if isinstance(text_feats, T.Tensor) else text_feats
    if len(index) != rows.shape[0]:
        raise ValueError("support does not match classifier rows")
    if batch.x.shape[0] == 0:
        zero = T.scalar(0.0)
        return zero, zero
    try:
        local = np.array([index[int(k)] for k in batch.y], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"pseudo label {exc.args[0]} outside support") from None
    f = T.Tensor(batch.x)
    lt = cross_entropy_rows(softmax_temp(clip_logits(f, text_feats, tau), 1.0), local)
    if refined is None:
        return lt, T.scalar(0.0)
    lv = cross_entropy_rows(softmax_temp(clip_logits(f, refined, tau), 1.0), local)
    return lt, lv
