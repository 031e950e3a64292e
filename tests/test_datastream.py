"""Synthetic stream generation and feature-bank serialization."""

import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seca.codec import decode, encode, json_array

from seca.datastream import (
    BANK_MAGIC,
    BANK_VERSION,
    SplitRule,
    SyntheticSpec,
    TaskData,
    TaskStream,
    flatten_stream,
    gen_synthetic,
    load_feature_bank,
    read_feature_bank,
    write_feature_bank,
)
from seca.errors import ConfigError, DataFormatError

SMALL = SyntheticSpec(num_tasks=3, classes_per_task=2, dim=16, superclasses=2,
                      mean_correlation=0.5, noise=0.3, train_per_class=8,
                      test_per_class=4, seed=11)


def centroids(stream):
    xs = np.concatenate([t.train_x for t in stream.tasks])
    ys = np.concatenate([t.train_y for t in stream.tasks])
    ids = sorted(stream.names)
    return np.stack([xs[ys == k].mean(axis=0) for k in ids]), xs, ys


class TestSynthetic:
    def test_noise_free_samples_sit_on_means(self):
        spec = SyntheticSpec(num_tasks=2, classes_per_task=3, dim=8,
                             superclasses=3, noise=0.0, train_per_class=5,
                             test_per_class=3, seed=4)
        stream = gen_synthetic(spec)
        for task in stream.tasks:
            for k in task.class_ids:
                rows = task.train_x[task.train_y == k]
                assert np.array_equal(rows, np.repeat(rows[:1], 5, axis=0))

    def test_noise_free_nearest_mean_is_perfect(self):
        spec = SyntheticSpec(num_tasks=2, classes_per_task=3, dim=8,
                             superclasses=3, noise=0.0, seed=4)
        stream = gen_synthetic(spec)
        means, _, _ = centroids(stream)
        hits = total = 0
        for task in stream.tasks:
            d2 = ((task.test_x[:, None, :] - means[None]) ** 2).sum(axis=2)
            hits += int((np.argmin(d2, axis=1) == task.test_y).sum())
            total += task.test_y.size
        assert hits == total

    def test_same_spec_same_bits(self):
        a = gen_synthetic(SMALL)
        b = gen_synthetic(SMALL)
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.train_x, tb.train_x)
            assert np.array_equal(ta.test_x, tb.test_x)
            assert np.array_equal(ta.train_y, tb.train_y)

    def test_uncorrelated_means_near_orthogonal(self):
        # Pure Gaussian means at dim 256 over 100 fixed seeds. Observed max
        # |cos| is 0.236; the bound leaves sampling headroom.
        worst = 0.0
        for seed in range(100):
            spec = SyntheticSpec(num_tasks=4, classes_per_task=3, dim=256,
                                 superclasses=12, mean_correlation=0.0,
                                 noise=0.0, train_per_class=1,
                                 test_per_class=1, seed=seed)
            stream = gen_synthetic(spec)
            m = np.concatenate([t.train_x for t in stream.tasks]).astype(np.float64)
            m /= np.linalg.norm(m, axis=1, keepdims=True)
            cos = m @ m.T
            np.fill_diagonal(cos, 0.0)
            worst = max(worst, float(np.abs(cos).max()))
        assert worst < 0.3

    def test_superclass_mates_land_in_other_tasks(self):
        # G >= classes-per-task spaces same-superclass classes >= C apart.
        stream = gen_synthetic(SyntheticSpec(num_tasks=5, classes_per_task=2,
                                             dim=8, superclasses=2, seed=0))
        task_of = {k: s for s, t in enumerate(stream.tasks) for k in t.class_ids}
        by_group: dict[str, set[int]] = {}
        for k, name in stream.names.items():
            by_group.setdefault(name.split("-")[0], set()).add(task_of[k])
        for tasks_hit in by_group.values():
            assert len(tasks_hit) == 5

    def test_disjoint_and_covering(self):
        stream = gen_synthetic(SMALL)
        seen: set[int] = set()
        for task in stream.tasks:
            assert not (set(task.class_ids) & seen)
            seen |= set(task.class_ids)
        assert seen == set(range(6)) == set(stream.names)

    def test_arrays_are_frozen(self):
        stream = gen_synthetic(SMALL)
        with pytest.raises(ValueError):
            stream.tasks[0].train_x[0, 0] = 1.0

    @pytest.mark.parametrize("kwargs", [
        {"dim": 1, "num_tasks": 2, "classes_per_task": 2, "superclasses": 1},
        {"mean_correlation": 1.5},
        {"noise": -0.1},
        {"train_per_class": 0},
        {"superclasses": 0},
    ])
    def test_bad_specs(self, kwargs):
        with pytest.raises(ConfigError):
            SyntheticSpec(**kwargs)


class TestStreamInvariants:
    def test_overlapping_labels_rejected(self):
        x = np.zeros((1, 2), dtype=np.float32)
        y = np.zeros(1, dtype=np.int64)
        task = TaskData((0,), x, y, x, y)
        with pytest.raises(ValueError):
            TaskStream(tasks=(task, task), names={0: "a"}, dim=2)

    def test_missing_test_samples_rejected(self):
        x = np.zeros((1, 2), dtype=np.float32)
        task = TaskData((0, 1), x, np.array([0]), x, np.array([0]))
        with pytest.raises(ValueError):
            TaskStream(tasks=(task,), names={0: "a", 1: "b"}, dim=2)


@pytest.fixture
def bank(tmp_path):
    stream = gen_synthetic(SMALL)
    x, y = flatten_stream(stream)
    path = tmp_path / "small.fb"
    write_feature_bank(path, x, y, stream.names)
    return path, x, y, stream.names


@pytest.fixture(scope="module")
def bank_blob(tmp_path_factory):
    stream = gen_synthetic(SMALL)
    path = tmp_path_factory.mktemp("bank") / "small.fb"
    write_feature_bank(path, *flatten_stream(stream), stream.names)
    return path.read_bytes()


class TestBankIO:
    def test_round_trip_bitwise(self, bank):
        path, x, y, names = bank
        rx, ry, rnames = read_feature_bank(path)
        assert np.array_equal(rx, x) and rx.dtype == np.float32
        assert np.array_equal(ry, y)
        assert rnames == names

    def test_one_class_per_task(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 4)).astype(np.float32)
        y = np.repeat(np.arange(10), 4)
        write_feature_bank(tmp_path / "b.fb", x, y, {k: str(k) for k in range(10)})
        stream = load_feature_bank(SplitRule(tmp_path / "b.fb", num_tasks=10))
        assert [t.class_ids for t in stream.tasks] == [(k,) for k in range(10)]

    def test_non_divisible_is_strict(self, bank):
        with pytest.raises(ConfigError):
            load_feature_bank(SplitRule(bank[0], num_tasks=4))

    def test_split_is_seeded(self, bank):
        a = load_feature_bank(SplitRule(bank[0], num_tasks=3, seed=1))
        b = load_feature_bank(SplitRule(bank[0], num_tasks=3, seed=1))
        c = load_feature_bank(SplitRule(bank[0], num_tasks=3, seed=2))
        assert np.array_equal(a.tasks[0].train_x, b.tasks[0].train_x)
        assert not np.array_equal(a.tasks[0].train_x, c.tasks[0].train_x)

    def test_split_fraction(self, bank):
        stream = load_feature_bank(SplitRule(bank[0], num_tasks=3,
                                                train_fraction=0.75))
        for task in stream.tasks:
            for k in task.class_ids:
                assert int((task.train_y == k).sum()) == 9  # round(0.75 * 12)
                assert int((task.test_y == k).sum()) == 3

    def test_split_keeps_both_sides(self, tmp_path):
        x = np.zeros((4, 2), dtype=np.float32)
        y = np.array([0, 0, 1, 1])
        write_feature_bank(tmp_path / "b.fb", x, y, {0: "a", 1: "b"})
        stream = load_feature_bank(
            SplitRule(tmp_path / "b.fb", num_tasks=1, train_fraction=0.99))
        assert stream.tasks[0].train_y.size == 2
        assert stream.tasks[0].test_y.size == 2


def recoded(path, tmp_path, **frames):
    """A copy of a bank with some frames replaced, framed by the codec."""
    arrays = decode(path.read_bytes(), BANK_MAGIC, BANK_VERSION, "bank")
    arrays.update(frames)
    out = tmp_path / "recoded.fb"
    out.write_bytes(encode(arrays, BANK_MAGIC, BANK_VERSION))
    return out


class TestBankErrors:
    def test_bad_magic(self, bank, tmp_path):
        blob = bank[0].read_bytes()
        bad = tmp_path / "bad.fb"
        bad.write_bytes(b"NOTABANK" + blob[8:])
        with pytest.raises(DataFormatError) as exc:
            read_feature_bank(bad)
        assert exc.value.code == "bad-magic"

    def test_bad_version(self, bank, tmp_path):
        blob = bytearray(bank[0].read_bytes())
        struct.pack_into("<I", blob, 8, 1)  # the retired record layout
        bad = tmp_path / "v1.fb"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError) as exc:
            read_feature_bank(bad)
        assert exc.value.code == "bad-version"

    @pytest.mark.parametrize("surgery", [lambda b: b[:-3], lambda b: b + b"xx"])
    def test_truncated(self, bank, tmp_path, surgery):
        blob = bank[0].read_bytes()
        bad = tmp_path / "cut.fb"
        bad.write_bytes(surgery(blob))
        with pytest.raises(DataFormatError) as exc:
            read_feature_bank(bad)
        # bytes after the end frame make a malformed end frame
        grown = bad.stat().st_size > len(blob)
        assert exc.value.code == ("corrupt" if grown else "truncated")

    def test_id_out_of_range(self, bank, tmp_path):
        for label in (999, 6, -1):
            labels = bank[2].copy()
            labels[0] = label
            with pytest.raises(DataFormatError) as exc:
                read_feature_bank(recoded(bank[0], tmp_path, labels=labels))
            assert exc.value.code == "id-range"

    def test_manifest_gap(self, bank, tmp_path):
        for names in ({str(k): "x" for k in range(6) if k != 2}, {}, [],
                      {"a": "x"}):
            gap = recoded(bank[0], tmp_path, names=json_array(names))
            with pytest.raises(DataFormatError) as exc:
                read_feature_bank(gap)
            assert exc.value.code == "bad-manifest"

    @pytest.mark.parametrize("fault", ["nan", "inf", "no columns",
                                       "short labels", "u8 labels", "extra"])
    def test_well_framed_bad_content_is_corrupt(self, bank, tmp_path, fault):
        x, y = bank[1].copy(), bank[2]
        x[3, 5] = {"nan": np.nan, "inf": -np.inf}.get(fault, x[3, 5])
        frames = {"features": x, "labels": y}
        frames.update({"no columns": {"features": x[:, :0]},
                       "short labels": {"labels": y[1:]},
                       "u8 labels": {"labels": y.astype(np.uint8)},
                       "extra": {"extra": np.zeros(1)}}.get(fault, {}))
        with pytest.raises(DataFormatError) as exc:
            read_feature_bank(recoded(bank[0], tmp_path, **frames))
        assert exc.value.code == "corrupt"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_writer_refuses_non_finite_features(self, tmp_path, value):
        x = np.zeros((2, 3))
        x[1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            write_feature_bank(tmp_path / "b.fb", x, [0, 0], {0: "a"})
        assert not (tmp_path / "b.fb").exists()

    def test_failed_overwrite_keeps_the_old_bank(self, bank, tmp_path,
                                                 monkeypatch):
        path, x, y, names = bank
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("no space left")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_feature_bank(path, x + 1, y, names)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["small.fb"]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_flipped_byte_or_truncation_raises(self, bank_blob, data):
        blob = bytearray(bank_blob)
        pos = data.draw(st.integers(0, len(blob) - 1))
        if data.draw(st.booleans()):
            blob[pos] ^= data.draw(st.integers(1, 255))
        else:
            del blob[pos:]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.fb"
            path.write_bytes(bytes(blob))
            with pytest.raises(DataFormatError):
                read_feature_bank(path)

    def test_magic_value(self):
        assert BANK_MAGIC == b"SECAFB1\x00" and len(BANK_MAGIC) == 8
