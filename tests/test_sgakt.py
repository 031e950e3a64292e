"""Adapter-pool distillation: views, relevance, aggregation, pruning."""

import numpy as np
import pytest

import seca.tensor as T
from seca.encoder import (
    AdapterStack,
    EncoderConfig,
    PromptBank,
    TextEncoder,
    VisualBackbone,
    text_features,
)
from seca.errors import ProtocolError
from seca.sgakt import (
    STRATEGIES,
    AdapterPool,
    SemanticProjectors,
    Teacher,
    aggregate,
    loss_agg,
    loss_sgakt,
    pooled_views,
    relevance_scores,
    semantic_vectors,
    teacher_result,
)

CFG = EncoderConfig(d_v=12, d_t=12, layers=2, adapter_width=4,
                    prompt_tokens=2, seed=3)


def text_forward(text_enc, bank, class_id, prompt) -> T.Tensor:
    """One class's text feature under one prompt, as a 1-D vector."""
    feats = text_features(text_enc, bank, [class_id], prompt)
    return T.reshape(feats, (text_enc.cfg.d_t,))


def zero_projectors() -> SemanticProjectors:
    projectors = SemanticProjectors.create(CFG, seed=0)
    projectors.w_s.data[...] = 0.0
    projectors.w_v.data[...] = 0.0
    return projectors


def noisy_stack(seed: int) -> AdapterStack:
    stack = AdapterStack(CFG, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for layer in stack.layers:
        for field in AdapterStack.FIELDS:
            layer[field].data += 0.3 * rng.standard_normal(layer[field].data.shape)
    return stack


@pytest.fixture
def world():
    backbone = VisualBackbone(CFG)
    text_enc = TextEncoder(CFG)
    bank = PromptBank(CFG, class_ids=list(range(6)), registry_seed=CFG.seed)
    for task in (1, 2, 3):
        bank.new_prompt(task, seed=CFG.seed)
    bank.freeze_task(1)
    bank.freeze_task(2)
    pool = AdapterPool(max_size=5)
    for k in (1, 2, 3):
        pool.admit_and_prune(noisy_stack(k))
    x = np.random.default_rng(9).standard_normal((4, CFG.d_v))
    return backbone, text_enc, bank, pool, x


class TestPooledViews:
    def test_empty_pool_rejected(self, world):
        backbone, _, _, _, x = world
        with pytest.raises(ProtocolError):
            pooled_views(backbone, x, AdapterPool())

    def test_single_entry_matches_direct_forward(self, world):
        backbone, _, _, _, x = world
        pool = AdapterPool()
        pool.admit_and_prune(noisy_stack(7))
        views = pooled_views(backbone, x, pool)
        direct = backbone.forward(x, pool.stacks[0])
        assert np.array_equal(views[0].data, direct.data)

    def test_identical_adapters_identical_views(self, world):
        backbone, _, _, _, x = world
        pool = AdapterPool()
        pool.admit_and_prune(noisy_stack(7))
        pool.admit_and_prune(noisy_stack(7))
        views = pooled_views(backbone, x, pool)
        assert np.array_equal(views[0].data, views[1].data)

    def test_per_entry_oracle(self, world):
        backbone, _, _, pool, x = world
        views = pooled_views(backbone, x, pool)
        assert len(views) == 3
        for view, stack in zip(views, pool.stacks):
            assert np.array_equal(view.data, backbone.forward(x, stack).data)

    def test_views_are_graph_constants(self, world):
        backbone, _, _, pool, x = world
        for view in pooled_views(backbone, x, pool):
            assert not view.requires_grad


class TestSemanticVectors:
    def test_single_task_matches_text_forward(self, world):
        _, text_enc, bank, _, _ = world
        sem = semantic_vectors(text_enc, bank, [4], upto_task=1)
        assert len(sem) == 1
        direct = text_forward(text_enc, bank, 4, bank.prompts[1])
        assert np.array_equal(sem[0].data[0], direct.data)

    def test_identical_prompts_identical_vectors(self, world):
        _, text_enc, bank, _, _ = world
        bank.prompts[2].data[:] = bank.prompts[1].data
        sem = semantic_vectors(text_enc, bank, [0, 1], upto_task=2)
        assert np.array_equal(sem[0].data, sem[1].data)

    def test_per_prompt_oracle(self, world):
        _, text_enc, bank, _, _ = world
        sem = semantic_vectors(text_enc, bank, [4, 5], upto_task=3)
        for task, block in zip((1, 2, 3), sem):
            direct = text_features(text_enc, bank, [4, 5], bank.prompts[task])
            assert np.array_equal(block.data, direct.data)

    def test_missing_prompt(self, world):
        _, text_enc, bank, _, _ = world
        with pytest.raises(ProtocolError):
            semantic_vectors(text_enc, bank, [0], upto_task=4)


def build_relevance(world, projectors):
    backbone, text_enc, bank, pool, x = world
    sem = semantic_vectors(text_enc, bank, [4, 5], upto_task=3)
    views = pooled_views(backbone, x, pool)
    ys = np.array([0, 1, 1, 0])
    return sem, views, ys, relevance_scores(sem, views, ys, projectors)


class TestRelevance:
    def test_zero_projectors_zero_scores(self, world):
        projectors = zero_projectors()
        _, _, _, alpha = build_relevance(world, projectors)
        assert alpha.data.shape == (4, 3)
        assert np.all(alpha.data == 0.0)

    def test_single_pair_is_plain_inner_product(self, world):
        backbone, text_enc, bank, _, x = world
        projectors = SemanticProjectors.create(CFG, seed=21)
        sem = semantic_vectors(text_enc, bank, [4, 5], upto_task=1)
        pool = AdapterPool()
        pool.admit_and_prune(noisy_stack(8))
        views = pooled_views(backbone, x, pool)
        ys = np.array([1, 0, 1, 1])
        alpha = relevance_scores(sem, views, ys, projectors)
        for b in range(4):
            want = (sem[0].data[ys[b]] @ projectors.w_s.data) @ (
                views[0].data[b] @ projectors.w_v.data)
            assert alpha.data[b, 0] == pytest.approx(want, abs=1e-12)

    def test_double_loop_oracle(self, world):
        projectors = SemanticProjectors.create(CFG, seed=21)
        sem, views, ys, alpha = build_relevance(world, projectors)
        ws, wv = projectors.w_s.data, projectors.w_v.data
        for b in range(4):
            for p in range(3):
                acc = 0.0
                for block in sem:
                    acc += (block.data[ys[b]] @ ws) @ (views[p].data[b] @ wv)
                assert alpha.data[b, p] == pytest.approx(acc / 3, abs=1e-10)

    def test_gradients_reach_projectors_and_active_prompt(self, world):
        _, _, bank, _, _ = world
        projectors = SemanticProjectors.create(CFG, seed=21)
        _, _, _, alpha = build_relevance(world, projectors)
        T.tsum(alpha).backward()
        assert np.any(projectors.w_s.grad != 0)
        assert np.any(projectors.w_v.grad != 0)
        assert np.any(bank.prompts[3].grad != 0)

    def test_projection_dim_mismatch(self, world):
        projectors = SemanticProjectors(
            w_s=T.Parameter(np.zeros((CFG.d_t, 5))),
            w_v=T.Parameter(np.zeros((CFG.d_v, 6))),
        )
        with pytest.raises(ValueError):
            build_relevance(world, projectors)


class TestAggregate:
    def views(self):
        rng = np.random.default_rng(2)
        return [T.Tensor(rng.standard_normal((4, 6))) for _ in range(3)]

    def test_equal_scores_give_plain_mean(self):
        views = self.views()
        alpha = T.Tensor(np.full((4, 3), 1.7))
        res = aggregate(views, alpha, lam=3.0)
        mean = (views[0].data + views[1].data + views[2].data) / 3
        np.testing.assert_allclose(res.v_agg.data, mean, atol=1e-14)

    def test_zero_lambda_ignores_scores(self):
        views = self.views()
        alpha = T.Tensor(np.random.default_rng(3).standard_normal((4, 3)))
        res = aggregate(views, alpha, lam=0.0)
        mean = (views[0].data + views[1].data + views[2].data) / 3
        np.testing.assert_allclose(res.v_agg.data, mean, atol=1e-14)

    def test_saturated_scores_pick_one_view(self):
        views = self.views()
        alpha = T.Tensor(np.tile([1.0, 0.0, 0.0], (4, 1)))
        res = aggregate(views, alpha, lam=50.0)
        np.testing.assert_allclose(
            res.weights.data, np.tile([1.0, 0.0, 0.0], (4, 1)), atol=1e-15)
        np.testing.assert_allclose(res.v_agg.data, views[0].data, atol=1e-13)

    def test_weights_stochastic_and_agg_in_hull(self):
        views = self.views()
        alpha = T.Tensor(np.random.default_rng(4).standard_normal((4, 3)))
        res = aggregate(views, alpha, lam=2.5)
        for row in res.weights.data:
            assert np.all(row >= 0.0) and abs(row.sum() - 1.0) <= 1e-9
        stackv = np.stack([v.data for v in views])
        lo, hi = stackv.min(axis=0), stackv.max(axis=0)
        assert np.all(res.v_agg.data >= lo - 1e-12)
        assert np.all(res.v_agg.data <= hi + 1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            aggregate(self.views(), T.Tensor(np.zeros((4, 2))), lam=1.0)


class TestLossAgg:
    def test_collinear_limit(self):
        feats = T.Tensor(np.eye(3, 12))
        v_agg = T.Tensor(np.eye(3, 12) * 2.0)
        loss = loss_agg(v_agg, feats, np.array([0, 1, 2]), tau=0.001)
        assert loss.data.item() < 1e-6

    def test_uniform_logits(self):
        feats = T.Tensor(np.eye(3, 12))
        v_agg = T.Tensor(np.tile(np.ones(12) / np.sqrt(12), (2, 1)))
        loss = loss_agg(v_agg, feats, np.array([0, 2]), tau=0.5)
        assert loss.data.item() == pytest.approx(np.log(3), abs=1e-10)

    def test_composition_oracle(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((4, 12))
        feats = rng.standard_normal((3, 12))
        ys = np.array([2, 0, 1, 2])
        tau = 0.07
        loss = loss_agg(T.Tensor(v), T.Tensor(feats), ys, tau)
        fn = v / np.linalg.norm(v, axis=1, keepdims=True)
        tn = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        z = fn @ tn.T / tau
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        want = -np.log(p[np.arange(4), ys] + 1e-12).mean()
        assert loss.data.item() == pytest.approx(want, abs=1e-12)

    def test_label_outside_support(self):
        feats = T.Tensor(np.eye(3, 12))
        with pytest.raises(ValueError):
            loss_agg(T.Tensor(np.eye(2, 12)), feats, np.array([0, 3]), tau=0.1)


class TestLossSgakt:
    def test_identical_features_zero(self):
        rng = np.random.default_rng(6)
        v = T.Tensor(rng.standard_normal((4, 12)))
        feats = T.Tensor(rng.standard_normal((3, 12)))
        loss = loss_sgakt(v, v, feats, tau_prime=20.0)
        assert abs(loss.data.item()) <= 1e-9

    def test_one_hot_teacher_uniform_student(self):
        feats = T.Tensor(np.eye(4, 12))
        teacher_f = T.Tensor(np.eye(1, 12))
        student_f = T.Tensor(np.ones((1, 12)) / np.sqrt(12))
        loss = loss_sgakt(teacher_f, student_f, feats, tau_prime=0.001)
        assert loss.data.item() == pytest.approx(np.log(4), abs=1e-6)

    def test_summation_oracle(self):
        rng = np.random.default_rng(7)
        va = rng.standard_normal((4, 12))
        fv = rng.standard_normal((4, 12))
        feats = rng.standard_normal((3, 12))
        tau_p, eps = 20.0, 1e-8

        def probs(f):
            fn = f / np.linalg.norm(f, axis=1, keepdims=True)
            tn = feats / np.linalg.norm(feats, axis=1, keepdims=True)
            z = fn @ tn.T / tau_p
            z -= z.max(axis=1, keepdims=True)
            return np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)

        t, s = probs(va), probs(fv)
        want = (t * (np.log(t + eps) - np.log(s + eps))).sum() / 4
        loss = loss_sgakt(T.Tensor(va), T.Tensor(fv), T.Tensor(feats), tau_p, eps)
        assert loss.data.item() == pytest.approx(want, abs=1e-12)


class TestGradientRouting:
    def full_chain(self, world, current):
        backbone, text_enc, bank, pool, x = world
        projectors = SemanticProjectors.create(CFG, seed=21)
        sem = semantic_vectors(text_enc, bank, [4, 5], upto_task=3)
        views = pooled_views(backbone, x, pool)
        ys = np.array([0, 1, 1, 0])
        alpha = relevance_scores(sem, views, ys, projectors)
        res = aggregate(views, alpha, lam=1.0)
        feats = text_features(text_enc, bank, [4, 5], bank.prompts[3])
        f_v = backbone.forward(x, current)
        return projectors, res, feats, f_v, ys, bank

    def test_distill_term_never_touches_projectors(self, world):
        current = noisy_stack(55)
        projectors, res, feats, f_v, ys, _ = self.full_chain(world, current)
        loss_sgakt(res.v_agg, f_v, feats, tau_prime=20.0).backward()
        assert np.all(projectors.w_s.grad == 0)
        assert np.all(projectors.w_v.grad == 0)
        assert any(np.any(p.grad != 0) for p in current.parameters())

    def test_agg_term_never_touches_current_adapter(self, world):
        current = noisy_stack(55)
        projectors, res, feats, _, ys, _ = self.full_chain(world, current)
        loss_agg(res.v_agg, feats, ys, tau=0.01).backward()
        assert all(np.all(p.grad == 0) for p in current.parameters())
        assert np.any(projectors.w_s.grad != 0)
        assert np.any(projectors.w_v.grad != 0)

    def test_pool_frozen_through_training_step(self, world):
        backbone, text_enc, bank, pool, x = world
        before = pool.checksums()
        current = noisy_stack(55)
        projectors, res, feats, f_v, ys, _ = self.full_chain(world, current)
        total = T.add(loss_agg(res.v_agg, feats, ys, tau=0.01),
                      loss_sgakt(res.v_agg, f_v, feats, tau_prime=20.0))
        total.backward()
        for stack in pool.stacks:
            for p in stack.parameters():
                assert not p.requires_grad
        assert pool.checksums() == before


class TestPool:
    def test_grows_to_capacity_without_removal(self):
        pool = AdapterPool(max_size=5)
        for k in range(4):
            assert pool.admit_and_prune(noisy_stack(k)) is None
        assert pool.admit_and_prune(noisy_stack(9)) is None
        assert len(pool) == 5

    def test_removes_running_max(self):
        pool = AdapterPool(max_size=5)
        for k in range(5):
            pool.admit_and_prune(noisy_stack(k))
        for entry, u in zip(pool.entries, [0.3, 0.5, 0.2, 0.1, 0.4]):
            entry.utility = u
        keep2 = pool.entries[2].stack.checksum()
        removed = pool.admit_and_prune(noisy_stack(99))
        assert removed == 1
        assert len(pool) == 5
        assert pool.entries[1].stack.checksum() == keep2
        assert pool.entries[-1].utility == pytest.approx(0.2)

    def test_tie_breaks_to_lowest_index(self):
        pool = AdapterPool(max_size=3)
        for k in range(3):
            pool.admit_and_prune(noisy_stack(k))
        for entry in pool.entries:
            entry.utility = 0.7
        assert pool.admit_and_prune(noisy_stack(50)) == 0

    def test_ten_inserts_replay_simulator(self):
        rng = np.random.default_rng(17)
        pool = AdapterPool(max_size=5)
        sim: list[list] = []  # [tag, utility]
        sums = {k: noisy_stack(k).checksum() for k in range(10)}
        for k in range(10):
            if len(sim) == 5:
                drop = max(range(5), key=lambda i: (sim[i][1], -i))
                sim.pop(drop)
            sim.append([k, 1 / 5])
            pool.admit_and_prune(noisy_stack(k))
            assert len(pool) == len(sim) <= 5
            scores = rng.uniform(-1, 1, size=len(sim))
            mu = 0.6
            for row, a in zip(sim, scores):
                row[1] = mu * row[1] + (1 - mu) * a
            pool.update_utilities(scores, momentum=mu)
            assert pool.checksums() == [sums[row[0]] for row in sim]

    def test_unbounded_pool(self):
        pool = AdapterPool(max_size=None)
        for k in range(7):
            pool.admit_and_prune(noisy_stack(k))
        assert len(pool) == 7
        assert pool.entries[-1].utility == pytest.approx(1 / 7)

    def test_utility_updates(self):
        pool = AdapterPool(max_size=3)
        pool.admit_and_prune(noisy_stack(0))
        pool.entries[0].utility = 0.2
        pool.update_utilities([0.5], momentum=1.0)
        assert pool.entries[0].utility == pytest.approx(0.2)
        pool.update_utilities([0.5], momentum=0.0)
        assert pool.entries[0].utility == pytest.approx(0.5)
        pool.entries[0].utility = 0.2
        pool.update_utilities([0.5], momentum=0.9)
        assert pool.entries[0].utility == pytest.approx(0.23, abs=1e-15)

    def test_update_errors(self):
        pool = AdapterPool(max_size=3)
        pool.admit_and_prune(noisy_stack(0))
        with pytest.raises(ValueError):
            pool.update_utilities([0.5, 0.1], momentum=0.5)


def distill_loss(strategy, *, backbone, x, f_v, pool, projectors, text_feats,
                 ys_local, sem=None, lam=1.0, tau_prime=20.0):
    """The strategy's KL distillation term, or None when it has no teacher."""
    res = teacher_result(strategy, backbone, x, pool, sem, ys_local,
                         projectors, lam)
    if res is None:
        return None
    return loss_sgakt(res.v_agg, f_v, text_feats, tau_prime)


class TestDistillVariants:
    def pieces(self, world, pool):
        backbone, text_enc, bank, _, x = world
        current = noisy_stack(55)
        f_v = backbone.forward(x, current)
        feats = text_features(text_enc, bank, [4, 5], bank.prompts[3])
        sem = semantic_vectors(text_enc, bank, [4, 5], upto_task=3)
        ys = np.array([0, 1, 1, 0])
        return dict(backbone=backbone, x=x, f_v=f_v, pool=pool,
                    text_feats=feats, ys_local=ys, sem=sem)

    def test_seq_is_zero(self, world):
        kw = self.pieces(world, world[3])
        assert distill_loss("seq", projectors=zero_projectors(),
                            **kw) is None

    def test_vanilla_at_task_one_is_zero(self, world):
        kw = self.pieces(world, AdapterPool())
        assert distill_loss("vanilla", projectors=zero_projectors(),
                            **kw) is None

    def test_degenerate_pool_avg_kd_equals_vanilla(self, world):
        pool = AdapterPool(max_size=5)
        pool.admit_and_prune(noisy_stack(31))
        kw = self.pieces(world, pool)
        zeros = zero_projectors()
        a = distill_loss("avg_kd", projectors=zeros, **kw)
        b = distill_loss("vanilla", projectors=zeros, **kw)
        assert a.data.item() == b.data.item()

    def test_zero_projectors_collapse_to_avg_kd(self, world):
        zeros = zero_projectors()
        for batch_seed in range(5):
            x = np.random.default_rng(batch_seed).standard_normal((3, CFG.d_v))
            kw = self.pieces((world[0], world[1], world[2], world[3], x), world[3])
            kw["ys_local"] = np.array([1, 0, 1])
            a = distill_loss("sg_akt", projectors=zeros, **kw)
            b = distill_loss("avg_kd", projectors=zeros, **kw)
            assert a.data.item() == b.data.item()

    def test_clip_kd_uses_adapter_free_teacher(self, world):
        backbone = world[0]
        kw = self.pieces(world, world[3])
        loss = distill_loss("clip_kd", projectors=zero_projectors(),
                            **kw)
        raw_view = backbone.forward(kw["x"], None)
        want = loss_sgakt(raw_view, kw["f_v"], kw["text_feats"], tau_prime=20.0)
        assert loss.data.item() == want.data.item()

    def test_teacher_result_weights_uniform_for_avg_kd(self, world):
        kw = self.pieces(world, world[3])
        res = teacher_result("avg_kd", kw["backbone"], kw["x"], kw["pool"],
                             None, kw["ys_local"], zero_projectors(), 1.0)
        np.testing.assert_array_equal(res.weights.data,
                                      np.full((4, 3), 1 / 3))


class TestTeacherViews:
    """Views of all rows, taken by index, equal the views of a batch."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rows_by_index_match_per_batch_teacher(self, strategy):
        # the default encoder width and float32 rows, as training uses
        enc = EncoderConfig(seed=3)
        backbone = VisualBackbone(enc)
        text_enc = TextEncoder(enc)
        bank = PromptBank(enc, class_ids=list(range(4)), registry_seed=3)
        for task in (1, 2):
            bank.new_prompt(task, seed=3)
        bank.freeze_task(1)
        pool = AdapterPool(max_size=5)
        for k in (1, 2, 3):
            stack = AdapterStack(enc, seed=k)
            for p in stack.parameters():
                p.data += 0.1 * np.random.default_rng(k).standard_normal(
                    p.data.shape)
            pool.admit_and_prune(stack)
        projectors = SemanticProjectors.create(enc, seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((130, enc.d_v)).astype(np.float32)
        ys = rng.integers(0, 2, 130)
        text = (text_enc, bank, [2, 3], 2)
        whole = Teacher(strategy, backbone, x, pool, text)
        if strategy == "seq":
            assert whole.views is None
            res, scores = whole.batch(np.arange(4), ys[:4], projectors, 1.0)
            assert res is None and scores.tolist() == [0.0, 0.0, 0.0]
            return
        assert len(whole.views) == (3 if strategy in ("avg_kd", "sg_akt") else 1)
        for n in range(2, 65):
            idx = rng.permutation(130)[:n]
            part = Teacher(strategy, backbone, x[idx], pool, text)
            for a, b in zip(part.views, whole.views, strict=True):
                assert a.tobytes() == b[idx].tobytes(), n
            want, want_s = part.batch(slice(None), ys[idx], projectors, 1.0)
            got, got_s = whole.batch(idx, ys[idx], projectors, 1.0)
            assert want.alpha.data.tobytes() == got.alpha.data.tobytes(), n
            assert want.v_agg.data.tobytes() == got.v_agg.data.tobytes(), n
            assert want_s.tobytes() == got_s.tobytes(), n

    def test_utility_scores(self, world):
        backbone, text_enc, bank, pool, x = world
        ys = np.array([0, 1, 1, 0])
        sem = semantic_vectors(text_enc, bank, [4, 5], upto_task=3)
        projectors = SemanticProjectors.create(CFG, seed=8)
        for strategy in STRATEGIES:
            res, scores = Teacher(strategy, backbone, x, pool).batch(
                slice(None), ys, projectors, 1.0, sem)
            if strategy == "sg_akt":
                # the mean raw relevance of each pool entry over the batch
                want = relevance_scores(sem, pooled_views(backbone, x, pool),
                                        ys, projectors).data.mean(axis=0)
                assert scores.tobytes() == want.tobytes()
                assert np.all(scores != 0.0)
            else:
                assert scores.tolist() == [0.0] * len(pool)

    def test_past_blocks_plus_live_prompt(self, world):
        # the blocks built from text equal all the blocks passed as sem
        backbone, text_enc, bank, pool, x = world
        ys = np.array([0, 1, 1, 0])
        projectors = SemanticProjectors.create(CFG, seed=8)
        built = Teacher("sg_akt", backbone, x, pool, (text_enc, bank, [4, 5], 3))
        assert len(built.past) == 2
        got, got_s = built.batch([3, 0, 2], ys[[3, 0, 2]], projectors, 1.0)
        sem = semantic_vectors(text_enc, bank, [4, 5], upto_task=3)
        want, want_s = Teacher("sg_akt", backbone, x, pool).batch(
            [3, 0, 2], ys[[3, 0, 2]], projectors, 1.0, sem)
        assert got.v_agg.data.tobytes() == want.v_agg.data.tobytes()
        assert got_s.tobytes() == want_s.tobytes()

    def test_no_teacher_cases(self, world):
        backbone, _, _, pool, x = world
        assert Teacher("seq", backbone, x, pool).views is None
        # no strategy has a teacher before a first task has finished
        for strategy in STRATEGIES:
            teacher = Teacher(strategy, backbone, x, AdapterPool())
            res, scores = teacher.batch(slice(None), np.zeros(4, np.int64),
                                        zero_projectors(), 1.0)
            assert res is None and scores.shape == (0,)
