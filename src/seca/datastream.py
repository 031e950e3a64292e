"""Task streams: synthetic clustered classes and binary feature banks.

A stream is an ordered sequence of tasks with pairwise disjoint label
sets. The synthetic generator plants superclass structure by drawing each
class mean as a mix of a shared superclass center and a private
perturbation; superclasses are assigned round-robin over the global class
index, so with enough superclasses the related classes land in different
tasks and cross-task transfer has something to find.

Feature banks are the ingestion path for features extracted by external
tools: one codec artifact holding the features, the labels and the class
names, each in its own digest-checked frame. Both sources cut their
class-ordered blocks into tasks with one splitter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import codec, seeding
from .errors import ConfigError, DataFormatError

BANK_MAGIC = b"SECAFB1\x00"
BANK_VERSION = 2


def _lock(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TaskData:
    """One task: its sorted class ids and train/test labeled features."""

    class_ids: tuple[int, ...]
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


@dataclass(frozen=True)
class TaskStream:
    tasks: tuple[TaskData, ...]
    names: dict[int, str]
    dim: int

    def __post_init__(self):
        seen: set[int] = set()
        for task in self.tasks:
            ids = set(task.class_ids)
            if ids & seen:
                raise ValueError("task label sets must be pairwise disjoint")
            seen |= ids
            for split_x, split_y in (
                (task.train_x, task.train_y),
                (task.test_x, task.test_y),
            ):
                if split_x.shape != (split_y.size, self.dim):
                    raise ValueError("feature block shape disagrees with labels")
                if ids != set(np.unique(split_y).tolist()):
                    raise ValueError(
                        "every task class needs at least one train and one "
                        "test sample"
                    )
        if seen != set(self.names):
            raise ValueError("name manifest must cover exactly the stream classes")


@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale stand-in for a split of an extracted-feature dataset."""

    num_tasks: int = 10
    classes_per_task: int = 5
    dim: int = 64
    superclasses: int = 10
    mean_correlation: float = 0.8
    noise: float = 0.6
    train_per_class: int = 50
    test_per_class: int = 20
    seed: int = 0

    def __post_init__(self):
        for field in ("num_tasks", "classes_per_task", "dim", "superclasses",
                      "train_per_class", "test_per_class"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field}: must be at least 1")
        for field in ("mean_correlation", "noise"):
            if not math.isfinite(getattr(self, field)):
                raise ConfigError(f"{field}: must be finite")
        if not 0.0 <= self.mean_correlation <= 1.0:
            raise ConfigError("mean_correlation: must lie in [0, 1]")
        if self.noise < 0.0:
            raise ConfigError("noise: must be non-negative")
        if self.seed < 0:
            raise ConfigError(f"seed: {self.seed} must be non-negative")
        total = self.num_tasks * self.classes_per_task
        # sign patterns bound how many means stay pairwise separable
        if self.dim < 31 and total > 2 ** self.dim:
            raise ConfigError(
                f"dim: {total} classes cannot get distinct means at dim "
                f"{self.dim}"
            )


def _cut_tasks(num_tasks, per_task, train, test) -> tuple[TaskData, ...]:
    """Tasks of consecutive class ranges, cut from class-ordered blocks.

    ``train`` and ``test`` are (features, labels) pairs whose rows are
    sorted by label; task s holds classes s*per_task .. (s+1)*per_task-1,
    its rows in the order the blocks give them.
    """
    tasks = []
    for s in range(num_tasks):
        ids = tuple(range(s * per_task, (s + 1) * per_task))
        blocks = []
        for x, y in (train, test):
            rows = np.isin(y, ids)
            blocks += [_lock(x[rows]), _lock(y[rows])]
        tasks.append(TaskData(ids, *blocks))
    return tuple(tasks)


def gen_synthetic(spec: SyntheticSpec) -> TaskStream:
    """Seeded stream of Gaussian class clusters with superclass structure.

    Class k belongs to superclass k mod G; its mean mixes the superclass
    center and a private direction so that same-superclass means correlate
    at exactly spec.mean_correlation.
    """
    rng = seeding.rng(spec.seed, "synth")
    total = spec.num_tasks * spec.classes_per_task
    centers = rng.standard_normal((spec.superclasses, spec.dim))
    perts = rng.standard_normal((total, spec.dim))
    rho = spec.mean_correlation
    group = np.arange(total) % spec.superclasses
    means = np.sqrt(rho) * centers[group] + np.sqrt(1.0 - rho) * perts

    def draw_block(count: int) -> tuple[np.ndarray, np.ndarray]:
        x = np.repeat(means, count, axis=0)
        if spec.noise > 0.0:
            x = x + spec.noise * rng.standard_normal(x.shape)
        y = np.repeat(np.arange(total, dtype=np.int64), count)
        return x.astype(np.float32), y

    tasks = _cut_tasks(spec.num_tasks, spec.classes_per_task,
                       draw_block(spec.train_per_class),
                       draw_block(spec.test_per_class))
    names = {k: f"sc{k % spec.superclasses}-class-{k}" for k in range(total)}
    return TaskStream(tasks=tasks, names=names, dim=spec.dim)


def write_feature_bank(path, features, labels, names: dict[int, str]) -> None:
    """Atomically write features, labels and class names as one bank file."""
    features = np.asarray(features, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ValueError("features must be (n, d) with one label per row")
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    num_classes = len(names)
    if set(names) != set(range(num_classes)):
        raise ValueError("manifest keys must be exactly 0..num_classes-1")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels must fall inside the manifest range")
    arrays = {"features": features, "labels": labels,
              "names": codec.json_array({str(k): v for k, v in names.items()})}
    codec.write_atomic(path, codec.encode(arrays, BANK_MAGIC, BANK_VERSION))


def read_feature_bank(path) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Parse a bank file into (features, labels, names), validating content."""
    what = f"feature bank {path}"
    frames = codec.decode(Path(path).read_bytes(), BANK_MAGIC, BANK_VERSION,
                          what)
    features = frames.take("features", np.float32, None, None)
    labels = frames.take("labels", np.int64, features.shape[0])
    raw = frames.take("names", np.uint8, None).tobytes()
    if frames:
        raise DataFormatError("corrupt", f"{what} has extra frames "
                              f"{sorted(frames)}")
    if features.shape[1] < 1 or not np.isfinite(features).all():
        raise DataFormatError("corrupt",
                              f"{what} features are empty or non-finite")
    try:
        names = {int(k): str(v) for k, v in json.loads(raw).items()}
    except (ValueError, AttributeError) as exc:
        raise DataFormatError("bad-manifest",
                              f"{what} names do not parse: {exc}") from exc
    num_classes = len(names)
    if not names or set(names) != set(range(num_classes)):
        raise DataFormatError("bad-manifest", f"{what} must name classes "
                              f"0..k-1 for some k >= 1")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DataFormatError("id-range", f"{what} has labels outside "
                              f"classes 0..{num_classes - 1}")
    return _lock(features), _lock(labels), dict(sorted(names.items()))


@dataclass(frozen=True)
class SplitRule:
    """A bank as a stream source: its file, task count, split ratio, seed."""

    path: str
    num_tasks: int
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.num_tasks < 1:
            raise ConfigError("num_tasks: must be at least 1")
        if not math.isfinite(self.train_fraction):
            raise ConfigError("train_fraction: must be finite")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction: must lie strictly in (0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed: {self.seed} must be non-negative")


def load_feature_bank(rule: SplitRule) -> TaskStream:
    """Bank file -> stream: equal class groups by sorted id, seeded split.

    Every class keeps at least one sample on each side of the split, which
    needs two samples per class in the bank.
    """
    try:
        features, labels, names = read_feature_bank(rule.path)
    except OSError as e:
        raise OSError(f"data.bank.path {rule.path}: {e.strerror}; a relative "
                      "path is read from the working directory") from e
    num_classes = len(names)
    if num_classes % rule.num_tasks != 0:
        raise ConfigError(
            f"{num_classes} classes do not divide into {rule.num_tasks} tasks"
        )

    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for k in range(num_classes):
        rows = np.flatnonzero(labels == k)
        if rows.size < 2:
            raise DataFormatError(
                "id-range", f"class {k} needs at least 2 samples to split"
            )
        order = seeding.rng(rule.seed, "split", k).permutation(rows.size)
        cut = int(round(rule.train_fraction * rows.size))
        cut = min(max(cut, 1), rows.size - 1)
        train_idx.append(rows[order[:cut]])
        test_idx.append(rows[order[cut:]])

    tr, te = np.concatenate(train_idx), np.concatenate(test_idx)
    tasks = _cut_tasks(rule.num_tasks, num_classes // rule.num_tasks,
                       (features[tr], labels[tr]), (features[te], labels[te]))
    return TaskStream(tasks=tasks, names=names, dim=features.shape[1])


def flatten_stream(stream: TaskStream) -> tuple[np.ndarray, np.ndarray]:
    """All samples of a stream as one (features, labels) pair, train first."""
    xs = [t.train_x for t in stream.tasks] + [t.test_x for t in stream.tasks]
    ys = [t.train_y for t in stream.tasks] + [t.test_y for t in stream.tasks]
    return np.concatenate(xs), np.concatenate(ys)
