"""Gaussian feature replay: fitting, sampling, replayed losses, wire format."""

import numpy as np
import pytest

import seca.tensor as T
from seca.config import DataConfig, RunConfig, build_stream
from seca.datastream import SyntheticSpec, read_feature_bank, write_feature_bank
from seca.encoder import EncoderConfig
from seca.errors import DataFormatError, ProtocolError
from seca.replay import (
    VAR_FLOOR,
    PseudoBatch,
    ReplayStore,
    draw_pseudo_batch,
    fit_gaussians,
    replay_losses,
    sample,
)
from seca.trainer import load_checkpoint, save_checkpoint, state_for_stream, \
    train_task


class TestFit:
    def test_constant_features(self):
        store = ReplayStore(4)
        feats = np.tile([1.0, -2.0, 0.5, 3.0], (6, 1))
        fit_gaussians(store, feats, np.zeros(6, dtype=int), [0])
        g = store.classes[0]
        assert np.array_equal(g.mu, feats[0])
        assert np.all(g.cov == VAR_FLOOR)
        assert g.count == 6

    def test_two_samples(self):
        a = np.array([1.0, 0.0, 4.0])
        b = np.array([3.0, 0.0, 2.0])
        store = ReplayStore(3)
        fit_gaussians(store, np.stack([a, b]), np.array([5, 5]), [5])
        g = store.classes[5]
        np.testing.assert_allclose(g.mu, (a + b) / 2, atol=1e-15)
        np.testing.assert_allclose(g.cov, np.maximum((a - b) ** 2 / 2, VAR_FLOOR),
                                   atol=1e-15)

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(77)
        true_mu = np.array([1.0, -0.5, 2.0, 0.0])
        true_sd = np.array([0.3, 1.0, 0.7, 2.0])
        rows = true_mu + rng.standard_normal((1000, 4)) * true_sd
        store = ReplayStore(4)
        fit_gaussians(store, rows, np.zeros(1000, dtype=int), [0])
        g = store.classes[0]
        assert np.all(np.abs(g.mu - true_mu) <= 3 * true_sd / np.sqrt(1000))
        assert np.all(np.abs(g.cov - true_sd**2) <= 0.15 * true_sd**2)

    def test_single_sample_floors_everything(self):
        store = ReplayStore(3)
        fit_gaussians(store, np.array([[1.0, 2.0, 3.0]]), np.array([0]), [0])
        assert np.all(store.classes[0].cov == VAR_FLOOR)

    def test_empty_class(self):
        store = ReplayStore(2)
        with pytest.raises(ValueError):
            fit_gaussians(store, np.ones((2, 2)), np.array([0, 0]), [0, 1])

    def test_refit_rejected(self):
        store = ReplayStore(2)
        fit_gaussians(store, np.ones((2, 2)), np.array([0, 0]), [0])
        with pytest.raises(ProtocolError):
            fit_gaussians(store, np.ones((2, 2)), np.array([0, 0]), [0])

    def test_width_mismatch(self):
        store = ReplayStore(3)
        with pytest.raises(ValueError):
            fit_gaussians(store, np.ones((2, 2)), np.array([0, 0]), [0])

    def test_parameters_locked(self):
        store = ReplayStore(2)
        fit_gaussians(store, np.random.default_rng(0).standard_normal((5, 2)),
                      np.zeros(5, dtype=int), [0])
        with pytest.raises(ValueError):
            store.classes[0].mu[0] = 9.0

    def test_full_covariance_fit(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((4000, 2))
        rows = z @ np.linalg.cholesky(np.array([[1.0, 0.8], [0.8, 1.0]])).T
        store = ReplayStore(2)
        fit_gaussians(store, rows, np.zeros(4000, dtype=int), [0], full_cov=True)
        g = store.classes[0]
        assert not g.diagonal
        np.testing.assert_allclose(g.cov, np.cov(rows, rowvar=False, ddof=1),
                                   atol=1e-10)
        assert np.array_equal(g.cov, g.cov.T)

    def test_full_covariance_eigenvalue_floor(self):
        # rank-1 data: without flooring the second eigenvalue would be ~0
        t = np.linspace(-1, 1, 50)
        rows = np.stack([t, 2 * t], axis=1)
        store = ReplayStore(2)
        fit_gaussians(store, rows, np.zeros(50, dtype=int), [0], full_cov=True)
        evals = np.linalg.eigvalsh(store.classes[0].cov)
        assert evals.min() >= VAR_FLOOR - 1e-12


class TestSample:
    def degenerate_store(self):
        store = ReplayStore(8)
        mu = np.linspace(0, 7, 8)
        fit_gaussians(store, np.tile(mu, (3, 1)), np.zeros(3, dtype=int), [0])
        return store, mu

    def test_floor_variance_hugs_the_mean(self):
        store, mu = self.degenerate_store()
        x = sample(store, 0, 50, seed=1)
        assert np.abs(x - mu).max() < 3e-3

    def test_same_seed_identical(self):
        store, _ = self.degenerate_store()
        assert np.array_equal(sample(store, 0, 20, seed=4),
                              sample(store, 0, 20, seed=4))

    def test_seeds_and_classes_decorrelate(self):
        store = ReplayStore(4)
        rows = np.random.default_rng(3).standard_normal((40, 4))
        ys = np.repeat([0, 1], 20)
        fit_gaussians(store, rows, ys, [0, 1])
        a = sample(store, 0, 10, seed=5)
        assert not np.array_equal(a, sample(store, 0, 10, seed=6))
        assert not np.array_equal(a, sample(store, 1, 10, seed=5))

    def test_moment_fidelity(self):
        from seca.replay import ClassGaussian
        store = ReplayStore(6)
        mu = np.linspace(-2, 2, 6)
        var = np.linspace(0.5, 3.0, 6)
        store.classes[3] = ClassGaussian(mu, var, 2)
        x = sample(store, 3, 10_000, seed=0).astype(np.float64)
        assert np.all(np.abs(x.mean(0) - mu) <= 3 * np.sqrt(var / 10_000))
        assert np.all(np.abs(x.var(0, ddof=1) - var) <= 0.15 * var)

    def test_full_covariance_moments(self):
        from seca.replay import ClassGaussian
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        store = ReplayStore(2)
        store.classes[1] = ClassGaussian(np.zeros(2), cov, 2)
        x = sample(store, 1, 10_000, seed=0).astype(np.float64)
        assert np.abs(np.cov(x, rowvar=False, ddof=1) - cov).max() < 0.05

    def test_unknown_class(self):
        store = ReplayStore(2)
        with pytest.raises(ProtocolError):
            sample(store, 7, 1, seed=0)

    def test_zero_and_negative_counts(self):
        store, _ = self.degenerate_store()
        assert sample(store, 0, 0, seed=0).shape == (0, 8)
        with pytest.raises(ValueError):
            sample(store, 0, -1, seed=0)

    def test_float32_output(self):
        store, _ = self.degenerate_store()
        assert sample(store, 0, 2, seed=0).dtype == np.float32


class TestPseudoBatch:
    def make_store(self, classes):
        store = ReplayStore(4)
        rng = np.random.default_rng(8)
        for k in classes:
            fit_gaussians(store, rng.standard_normal((5, 4)),
                          np.full(5, k), [k])
        return store

    def test_even_spread_with_remainder(self):
        store = self.make_store([0, 1, 2])
        batch = draw_pseudo_batch(store, [0, 1, 2], 7, seed=1)
        assert batch.x.shape == (7, 4)
        counts = {k: int((batch.y == k).sum()) for k in (0, 1, 2)}
        assert counts == {0: 3, 1: 2, 2: 2}

    def test_labels_stay_in_past_set(self):
        store = self.make_store([4, 9])
        batch = draw_pseudo_batch(store, [4, 9], 10, seed=2)
        assert set(np.unique(batch.y)) == {4, 9}

    def test_deterministic(self):
        store = self.make_store([0, 1])
        a = draw_pseudo_batch(store, [0, 1], 6, seed=3)
        b = draw_pseudo_batch(store, [0, 1], 6, seed=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_no_past_classes(self):
        store = self.make_store([0])
        with pytest.raises(ProtocolError):
            draw_pseudo_batch(store, [], 4, seed=0)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestReplayLosses:
    def test_empty_batch_is_zero(self):
        batch = PseudoBatch(np.zeros((0, 4), dtype=np.float32),
                            np.zeros(0, dtype=np.int64))
        lt, lv = replay_losses(batch, np.eye(3, 4), np.eye(3, 4), [0, 1, 2], 0.5)
        assert lt.data.item() == 0.0 and lv.data.item() == 0.0

    def test_separable_store_near_zero_loss(self):
        store = ReplayStore(4)
        for k in range(3):
            mu = np.zeros(4)
            mu[k] = 1.0
            fit_gaussians(store, np.tile(mu, (3, 1)), np.full(3, k), [k])
        batch = draw_pseudo_batch(store, [0, 1, 2], 9, seed=1)
        protos = np.eye(3, 4)
        lt, lv = replay_losses(batch, protos, protos, [0, 1, 2], tau=0.01)
        assert lt.data.item() < 1e-3 and lv.data.item() < 1e-3

    def test_manual_composition(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((5, 6)).astype(np.float32)
        y = np.array([9, 2, 5, 2, 9], dtype=np.int64)
        support = [2, 5, 9]
        text = rng.standard_normal((3, 6))
        refined = rng.standard_normal((3, 6))
        tau = 0.2
        lt, lv = replay_losses(PseudoBatch(x, y), text, refined, support, tau)

        def oracle(protos):
            fn = x.astype(np.float64)
            fn = fn / np.linalg.norm(fn, axis=1, keepdims=True)
            cn = protos / np.linalg.norm(protos, axis=1, keepdims=True)
            z = fn @ cn.T / tau
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            local = [support.index(k) for k in y]
            return -np.mean(np.log(p[np.arange(5), local]))

        assert lt.data.item() == pytest.approx(oracle(text), rel=1e-5)
        assert lv.data.item() == pytest.approx(oracle(refined), rel=1e-5)
        # float32 draws are computed on in float64
        lt64, lv64 = replay_losses(PseudoBatch(x.astype(np.float64), y), text,
                                   refined, support, tau)
        assert lt.data.tobytes() == lt64.data.tobytes()
        assert lv.data.tobytes() == lv64.data.tobytes()

    def test_gradient_reaches_classifiers_not_features(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        y = np.array([0, 1, 0, 1], dtype=np.int64)
        text = T.Parameter(rng.standard_normal((2, 6)))
        refined = T.Parameter(rng.standard_normal((2, 6)))
        lt, lv = replay_losses(PseudoBatch(x, y), text, refined, [0, 1], 0.5)
        T.add(lt, lv).backward()
        assert np.any(text.grad != 0) and np.any(refined.grad != 0)

    def test_label_outside_support(self):
        batch = PseudoBatch(np.ones((1, 4), dtype=np.float32),
                            np.array([7], dtype=np.int64))
        with pytest.raises(ValueError):
            replay_losses(batch, np.eye(2, 4), np.eye(2, 4), [0, 1], 0.5)

    def test_support_row_mismatch(self):
        batch = PseudoBatch(np.ones((1, 4), dtype=np.float32),
                            np.array([0], dtype=np.int64))
        with pytest.raises(ValueError):
            replay_losses(batch, np.eye(3, 4), np.eye(3, 4), [0, 1], 0.5)


class TestWireFormat:
    """A replay store is written and read as the checkpoint's replay frames."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        spec = SyntheticSpec(num_tasks=2, classes_per_task=2, dim=8,
                             superclasses=2, mean_correlation=0.2, noise=0.05,
                             train_per_class=6, test_per_class=2, seed=30)
        cfg = RunConfig(epochs_per_task=1, batch_size=8, replay=True,
                        replay_full_cov=True,
                        encoder=EncoderConfig(d_v=8, d_t=8, layers=1,
                                              adapter_width=2, seed=1),
                        data=DataConfig(synthetic=spec))
        stream = build_stream(cfg.data)
        state = state_for_stream(cfg, stream)
        for task in stream.tasks:
            train_task(state, task)
        path = tmp_path_factory.mktemp("wire") / "store.ckpt"
        save_checkpoint(path, state)
        return state.store, path

    def test_round_trip_bitwise(self, saved):
        store, path = saved
        back = load_checkpoint(path).store
        assert back.dim == store.dim and back.class_ids == (0, 1, 2, 3)
        for k in back.class_ids:
            a, b = store.classes[k], back.classes[k]
            assert a.mu.tobytes() == b.mu.tobytes()
            assert a.cov.shape == b.cov.shape == (store.dim, store.dim)
            assert a.cov.tobytes() == b.cov.tobytes()
            assert a.count == b.count and not b.diagonal

    def test_samples_survive_round_trip(self, saved):
        store, path = saved
        back = load_checkpoint(path).store
        for k in store.class_ids:
            assert np.array_equal(sample(store, k, 5, seed=9),
                                  sample(back, k, 5, seed=9))

    def test_bad_magic(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOTASTORE" + b"\x00" * 16)
        with pytest.raises(DataFormatError) as err:
            load_checkpoint(bad)
        assert err.value.code == "bad-magic"

    def test_truncated(self, saved, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(saved[1].read_bytes()[:-4])
        with pytest.raises(DataFormatError) as err:
            load_checkpoint(bad)
        assert err.value.code == "truncated"

    def test_trailing_bytes(self, saved, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(saved[1].read_bytes() + b"\x00")
        with pytest.raises(DataFormatError) as err:
            load_checkpoint(bad)
        assert err.value.code == "corrupt"


class TestExport:
    def test_bank_round_trip(self, tmp_path):
        store = ReplayStore(4)
        rng = np.random.default_rng(31)
        for k in range(3):
            fit_gaussians(store, rng.standard_normal((5, 4)), np.full(5, k), [k])
        path = tmp_path / "replay.fb"
        names = {0: "ant", 1: "bee", 2: "cat"}
        write_feature_bank(path, np.concatenate([sample(store, k, 4, seed=2)
                                                 for k in range(3)]),
                           np.repeat(np.arange(3), 4), names)
        x, y, got_names = read_feature_bank(path)
        assert x.shape == (12, 4) and got_names == names
        for k in range(3):
            assert np.array_equal(x[y == k], sample(store, k, 4, seed=2))
