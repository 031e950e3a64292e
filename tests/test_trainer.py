"""Trainer loop: loss assembly, routing, metrics, checkpoints, parity.

The composition oracles rebuild the batch loss from the public pieces in
the same order the trainer does, so agreement is required to be bitwise,
not approximate. The parity tests drive full multi-task runs and compare
complete state digests.
"""

import hashlib
import json
import struct
from functools import reduce

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seca import tensor as T
from seca.codec import decode, encode, json_array
from seca.config import DataConfig, RunConfig, beta_value, build_stream
from seca.datastream import BANK_MAGIC, BANK_VERSION, SyntheticSpec, \
    gen_synthetic
from seca.encoder import EncoderConfig, clip_logits, text_features
from seca.errors import DataFormatError, ProtocolError
from seca.replay import draw_pseudo_batch, replay_losses, sample
from seca.sevpr import VARIANTS, LinearHead, PrototypeBank, \
    affinity_matrix, loss_ce_v, loss_reg, refine_prototypes, visual_prob
from seca.sgakt import STRATEGIES, loss_agg, loss_sgakt, semantic_vectors, \
    teacher_result
from seca.trainer import CKPT_MAGIC, CKPT_VERSION, Adam, Metrics, \
    TaskContext, _replay_seed, _trainables, accuracy, batch_loss, \
    load_checkpoint, loss_terms, open_task, predict, predict_scores, \
    run_stream, save_checkpoint, state_for_stream, train_task, write_metrics

ENC = EncoderConfig(d_v=16, d_t=16, layers=2, adapter_width=4, seed=1)
SPEC3 = SyntheticSpec(num_tasks=3, classes_per_task=2, dim=16, superclasses=3,
                      mean_correlation=0.2, noise=0.05, train_per_class=8,
                      test_per_class=4, seed=3)


def make_cfg(**kw) -> RunConfig:
    base = dict(epochs_per_task=1, lr=0.005, batch_size=8, encoder=ENC,
                data=DataConfig(synthetic=SPEC3))
    base.update(kw)
    return RunConfig(**base)


def run_tasks(cfg, upto=None):
    stream = build_stream(cfg.data)
    state = state_for_stream(cfg, stream)
    for task in stream.tasks[:upto]:
        train_task(state, task)
    return state, stream


def open_first_task(cfg):
    """Mid-task-1 state: a fresh state with its first task opened."""
    state, stream = run_tasks(cfg, upto=0)
    open_task(state, stream.tasks[0])
    return state, stream


def state_digest(state) -> str:
    """Byte digest of every trained array, pool entry, and Adam slot."""
    h = hashlib.sha256()
    for p in state.adapter.parameters():
        h.update(p.data.tobytes())
    for t in sorted(state.prompts.prompts):
        h.update(state.prompts.prompts[t].data.tobytes())
    h.update(state.projectors.w_s.data.tobytes())
    h.update(state.projectors.w_v.data.tobytes())
    h.update(state.affinity.h_proj.data.tobytes())
    for e in state.pool.entries:
        h.update(np.float64(e.utility).tobytes())
        for p in e.stack.parameters():
            h.update(p.data.tobytes())
    for d in (state.protos.raw, state.protos.adapted,
              state.protos.refined_current, state.protos.refined_snapshot):
        for k in sorted(d):
            h.update(d[k].tobytes())
    if state.head is not None:
        for p in state.head.parameters():
            h.update(p.data.tobytes())
    if state.store is not None:
        for k in sorted(state.store.classes):
            g = state.store.classes[k]
            h.update(g.mu.tobytes())
            h.update(g.cov.tobytes())
    for name in sorted(state.optimizer.slots):
        slot = state.optimizer.slots[name]
        h.update(slot["m"].tobytes())
        h.update(slot["v"].tobytes())
        h.update(np.int64(slot["t"]).tobytes())
    return h.hexdigest()


def mirror_loss(state, x, ys_global, with_kl=True):
    """Rebuild the trainer's batch loss from the public pieces."""
    cfg = state.cfg
    s = state.task
    support = list(state.seen_ids()) if cfg.replay \
        else [int(k) for k in state.seen[-1]]
    pos = {int(k): i for i, k in enumerate(support)}
    ys_local = np.array([pos[int(y)] for y in ys_global], dtype=np.int64)
    prompt = state.prompts.prompts[s]

    f_v = state.backbone.forward(x, state.adapter)
    text_sup = text_features(state.text_enc, state.prompts, support, prompt)
    loss = T.cross_entropy_rows(
        T.softmax_temp(clip_logits(f_v, text_sup, cfg.tau), 1.0), ys_local)

    vis = None
    if cfg.classifier == "se_vpr":
        seen = state.seen_ids()
        z = text_features(state.text_enc, state.prompts, seen, prompt)
        m = affinity_matrix(z, state.affinity.h_proj, cfg.affinity_gamma)
        refined_all = vis = refine_prototypes(m, state.protos.matrix("raw", seen))
        sup_idx = np.array([seen.index(int(k)) for k in support],
                           dtype=np.int64)
        loss = T.add(loss, loss_ce_v(f_v, T.take_rows(refined_all, sup_idx),
                                     ys_local, cfg.tau))
        if s > 1:
            old = [k for ids in state.seen[:-1] for k in ids]
            old_idx = np.array([seen.index(int(k)) for k in old],
                               dtype=np.int64)
            loss = T.add(loss, loss_reg(T.take_rows(refined_all, old_idx),
                                        state.protos.matrix("refined_snapshot", old)))
    elif cfg.classifier in ("centroid_clip", "centroid_adapted"):
        vis = state.protos.matrix("raw", support) \
            if cfg.classifier == "centroid_clip" \
            else state.protos.matrix("adapted", support)
        loss = T.add(loss, loss_ce_v(f_v, vis, ys_local, cfg.tau))
    elif cfg.classifier == "linear":
        loss = T.add(loss, head_ce(state.head, f_v, support, ys_local))

    if s > 1 and cfg.distill != "seq":
        sem = None
        if cfg.distill == "sg_akt":
            sem = semantic_vectors(state.text_enc, state.prompts, support, s)
        res = teacher_result(cfg.distill, state.backbone, x, state.pool, sem,
                             ys_local, state.projectors, cfg.agg_lambda)
        if res is not None:
            loss = T.add(loss, loss_agg(res.v_agg, text_sup, ys_local, cfg.tau))
            if with_kl:
                kl = loss_sgakt(res.v_agg, f_v, text_sup, cfg.tau_prime,
                                cfg.kl_epsilon)
                loss = T.add(loss, T.mul(kl, beta_value(cfg, s)))

    if cfg.replay and s > 1:
        past = [k for ids in state.seen[:-1] for k in ids]
        seed_b = _replay_seed(cfg.seed, state.replay_counter)
        pseudo = draw_pseudo_batch(state.store, past, cfg.batch_size, seed_b)
        lt, lv = replay_losses(pseudo, text_sup, vis, support, cfg.tau)
        loss = T.add(loss, lt)
        if vis is not None:
            loss = T.add(loss, lv)
        elif cfg.classifier == "linear":
            p_local = np.array([pos[int(k)] for k in pseudo.y], dtype=np.int64)
            loss = T.add(loss, head_ce(state.head, T.Tensor(pseudo.x), support,
                                       p_local))
    return loss


def first_rows_loss(state, task, rows=8):
    """batch_loss over the task's first rows, through a fresh task context."""
    return batch_loss(TaskContext(state, task), np.arange(rows))


def head_ce(head, f, support, ys_local):
    """Cross entropy of the linear head's logits over the support columns,
    picked from the logits of every column through a transpose round trip."""
    cols = np.array([head.class_ids.index(int(k)) for k in support],
                    dtype=np.int64)
    every = T.transpose(T.concat_rows([
        T.transpose(T.add(T.matmul(f, T.transpose(w)), b))
        for w, b in (head.blocks[t] for t in sorted(head.blocks))]))
    logits = T.transpose(T.take_rows(T.transpose(every), cols))
    return T.cross_entropy_rows(T.softmax_temp(logits, 1.0), ys_local)


class TestAdam:
    def test_matches_reference_updates(self):
        rng = np.random.default_rng(4)
        p = T.Parameter(rng.standard_normal(5), name="w")
        ref = p.data.copy()
        opt = Adam(lr=0.1)
        m = np.zeros(5)
        v = np.zeros(5)
        for t in range(1, 6):
            g = rng.standard_normal(5)
            p.zero_grad()
            p.grad[...] = g
            opt.step([p])
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref = ref - 0.1 * (m / (1 - 0.9 ** t)) \
                / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert np.allclose(p.data, ref, rtol=1e-12, atol=0)
        assert opt.slots["w"]["t"] == 5

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_step_keeps_the_bits(self, dtype):
        # the moments and the parameter are updated in place; the bits
        # must equal the out-of-place formula's, step after step
        rng = np.random.default_rng(8)
        p = T.Parameter(rng.standard_normal((3, 5)).astype(dtype), name="w")
        opt = Adam(lr=0.01)
        ref = p.data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t in range(1, 7):
            g = rng.standard_normal((3, 5)).astype(dtype)
            p.zero_grad()
            p.grad[...] = g
            opt.step([p])
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat = m / (1.0 - 0.9 ** t)
            v_hat = v / (1.0 - 0.999 ** t)
            ref = ref - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            slot = opt.slots["w"]
            assert slot["m"].tobytes() == m.tobytes()
            assert slot["v"].tobytes() == v.tobytes()
            assert p.data.dtype == dtype and p.data.tobytes() == ref.tobytes()

    def test_restored_moments_are_owned_and_writable(self, tmp_path):
        state, _ = run_tasks(make_cfg(), upto=1)
        save_checkpoint(tmp_path / "a.ckpt", state)
        loaded = load_checkpoint(tmp_path / "a.ckpt")
        assert set(loaded.optimizer.slots) == set(state.optimizer.slots)
        for slot in loaded.optimizer.slots.values():
            for key in ("m", "v"):
                assert slot[key].flags.owndata and slot[key].flags.writeable

    def test_new_param_starts_from_zero_moments(self):
        g = np.full(3, 0.7)
        opt = Adam(lr=0.01)
        a = T.Parameter(np.ones(3), name="a")
        for _ in range(3):
            a.zero_grad()
            a.grad[...] = g
            opt.step([a])
        b = T.Parameter(np.ones(3), name="b")
        b.grad[...] = g
        opt.step([b])

        fresh = T.Parameter(np.ones(3), name="solo")
        fresh.grad[...] = g
        Adam(lr=0.01).step([fresh])
        assert np.array_equal(b.data, fresh.data)
        assert opt.slots["a"]["t"] == 3
        assert opt.slots["b"]["t"] == 1

    def test_frozen_param_skipped(self):
        p = T.Parameter(np.ones(4), name="w")
        p.grad[...] = 1.0
        p.freeze()
        Adam(lr=0.5).step([p])
        assert np.array_equal(p.data, np.ones(4))

    def test_zero_gradient_means_no_motion(self):
        p = T.Parameter(np.arange(4.0), name="w")
        before = p.data.copy()
        opt = Adam(lr=0.5)
        for _ in range(3):
            p.zero_grad()
            opt.step([p])
        assert np.array_equal(p.data, before)

    def test_trainer_slot_lifecycle(self):
        # 16 train rows per task, batch 8: two steps per task
        state, _ = run_tasks(make_cfg(distill="seq"), upto=2)
        t = {k: v["t"] for k, v in state.optimizer.slots.items()}
        assert t["prompt.1"] == 2
        assert t["prompt.2"] == 2
        assert t["adapter.0.down_w"] == 4
        assert t["affinity.h_proj"] == 4


class TestBatchLoss:
    def test_task1_composition(self):
        state, stream = open_first_task(make_cfg())
        x = stream.tasks[0].train_x[:8]
        y = stream.tasks[0].train_y[:8]
        loss, scores = first_rows_loss(state, stream.tasks[0])
        assert scores.shape == (0,)
        assert np.array_equal(loss.data, mirror_loss(state, x, y).data)

    def test_task1_projector_gradients_are_zero(self):
        state, stream = open_first_task(make_cfg())
        for p in (state.projectors.w_s, state.projectors.w_v):
            p.zero_grad()
        loss, _ = first_rows_loss(state, stream.tasks[0])
        loss.backward()
        assert np.all(state.projectors.w_s.grad == 0.0)
        assert np.all(state.projectors.w_v.grad == 0.0)

    def test_task3_composition_sum(self):
        state, stream = run_tasks(make_cfg(), upto=2)
        open_task(state, stream.tasks[2])
        x = stream.tasks[2].train_x[:8]
        y = stream.tasks[2].train_y[:8]
        loss, scores = first_rows_loss(state, stream.tasks[2])
        assert scores.shape == (2,) and np.all(scores != 0.0)
        assert np.array_equal(loss.data, mirror_loss(state, x, y).data)

    def test_beta_zero_drops_kl_gradients(self):
        state, stream = run_tasks(make_cfg(beta=0.0), upto=2)
        open_task(state, stream.tasks[2])
        x = stream.tasks[2].train_x[:8]
        y = stream.tasks[2].train_y[:8]
        params = _trainables(state)

        for p in params:
            p.zero_grad()
        loss, _ = first_rows_loss(state, stream.tasks[2])
        loss.backward()
        with_term = {p.name: p.grad.copy() for p in params}

        for p in params:
            p.zero_grad()
        mirror_loss(state, x, y, with_kl=False).backward()
        for p in params:
            assert np.array_equal(with_term[p.name], p.grad), p.name

    def test_only_text_is_text_ce_alone(self):
        state, stream = open_first_task(make_cfg(classifier="only_text"))
        x = stream.tasks[0].train_x[:8]
        y = stream.tasks[0].train_y[:8]
        loss, _ = first_rows_loss(state, stream.tasks[0])
        support = [int(k) for k in state.seen[-1]]
        pos = {k: i for i, k in enumerate(support)}
        ys_local = np.array([pos[int(v)] for v in y], dtype=np.int64)
        f_v = state.backbone.forward(x, state.adapter)
        feats = text_features(state.text_enc, state.prompts, support,
                              state.prompts.prompts[1])
        ce = T.cross_entropy_rows(
            T.softmax_temp(clip_logits(f_v, feats, state.cfg.tau), 1.0),
            ys_local)
        assert np.array_equal(loss.data, ce.data)

    def test_replay_terms_and_counter(self):
        state, stream = run_tasks(make_cfg(replay=True), upto=2)
        x = stream.tasks[1].train_x[:8]
        y = stream.tasks[1].train_y[:8]
        c0 = state.replay_counter
        mirrored = mirror_loss(state, x, y)  # consumes counter value c0
        loss, _ = first_rows_loss(state, stream.tasks[1])
        assert state.replay_counter == c0 + 1
        assert np.array_equal(loss.data, mirrored.data)

    @pytest.mark.parametrize("replay", [False, True])
    @pytest.mark.parametrize("classifier", ["only_text", "centroid_clip",
                                            "centroid_adapted", "linear",
                                            "se_vpr"])
    def test_variant_composition(self, classifier, replay):
        state, stream = run_tasks(
            make_cfg(classifier=classifier, replay=replay), upto=2)
        open_task(state, stream.tasks[2])
        x = stream.tasks[2].train_x[:8]
        y = stream.tasks[2].train_y[:8]
        params = _trainables(state)

        for p in params:
            p.zero_grad()
        mirrored = mirror_loss(state, x, y)  # consumes the replay counter
        mirrored.backward()
        want = {p.name: p.grad.copy() for p in params}

        for p in params:
            p.zero_grad()
        loss, _ = first_rows_loss(state, stream.tasks[2])
        loss.backward()
        assert np.array_equal(loss.data, mirrored.data)
        for p in params:
            assert np.array_equal(want[p.name], p.grad), p.name

    @pytest.mark.parametrize("distill", STRATEGIES)
    def test_strategy_composition_on_scattered_rows(self, distill):
        # task 3 with two pool entries; the rows are out of order, so the
        # context's views, labels and semantic blocks are taken by index
        state, stream = run_tasks(make_cfg(distill=distill), upto=2)
        task = stream.tasks[2]
        ctx = open_task(state, task)
        idx = np.array([13, 2, 7, 11, 0, 5, 9])
        params = _trainables(state)

        for p in params:
            p.zero_grad()
        mirrored = mirror_loss(state, task.train_x[idx], task.train_y[idx])
        mirrored.backward()
        want = {p.name: p.grad.copy() for p in params}

        for p in params:
            p.zero_grad()
        loss, scores = batch_loss(ctx, idx)
        loss.backward()
        assert len(state.pool) == 2 and scores.shape == (2,)
        # only learned relevance scores the entries; the rest only decay
        assert np.all(scores != 0.0) == (distill == "sg_akt")
        assert np.all(scores == 0.0) == (distill != "sg_akt")
        assert np.array_equal(loss.data, mirrored.data)
        for p in params:
            assert np.array_equal(want[p.name], p.grad), p.name

    @pytest.mark.parametrize("replay", [False, True])
    @pytest.mark.parametrize("classifier", VARIANTS)
    @pytest.mark.parametrize("distill", STRATEGIES)
    def test_term_order_and_fold(self, distill, classifier, replay):
        # task 3: a non-empty pool and past classes, so every term can occur
        state, stream = run_tasks(make_cfg(distill=distill, replay=replay,
                                           classifier=classifier), upto=2)
        ctx, counter = open_task(state, stream.tasks[2]), state.replay_counter
        terms, scores = loss_terms(ctx, np.arange(8))
        visual = classifier != "only_text"
        want = ["ce_t"] + ["ce_v"] * visual + ["reg"] * (classifier == "se_vpr")
        want += ["agg", "kl"] * (distill != "seq")
        want += ["replay_ce_t"] * replay + ["replay_ce_v"] * (replay and visual)
        assert list(terms) == want

        state.replay_counter = counter
        loss, got = batch_loss(ctx, np.arange(8))
        assert state.replay_counter == counter + replay
        assert np.array_equal(got, scores)
        assert np.array_equal(loss.data, reduce(np.add, [
            t.data for t in terms.values()]))

    def test_repeated_labels_rejected(self):
        state, stream = run_tasks(make_cfg(epochs_per_task=0), upto=1)
        with pytest.raises(ProtocolError, match="seen in an earlier task"):
            train_task(state, stream.tasks[0])


# the trainable parameter groups of a routing table
PROMPT, ADAPTER, PROJ, H_PROJ, HEAD = \
    "prompt", "adapter", "w_s/w_v", "h_proj", "head"


def routing_table(distill, classifier, replay) -> dict:
    """The groups each loss term trains at a step of a task with a
    non-empty pool, after that task's first step."""
    table = {"ce_t": {PROMPT, ADAPTER}}
    if classifier == "se_vpr":
        table["ce_v"] = {PROMPT, ADAPTER, H_PROJ}
        table["reg"] = {PROMPT, H_PROJ}
    elif classifier == "linear":
        table["ce_v"] = {ADAPTER, HEAD}
    if distill != "seq":
        # the views are pool constants, and only learned relevance puts
        # the projectors into the blend; the text side is the live prompt's
        table["agg"] = {PROMPT, PROJ} if distill == "sg_akt" else {PROMPT}
        table["kl"] = {PROMPT, ADAPTER}  # the teacher side is cut
    if replay:
        # pseudo features are constants: only the classifiers train
        table["replay_ce_t"] = {PROMPT}
        if classifier == "se_vpr":
            table["replay_ce_v"] = {PROMPT, H_PROJ}
        elif classifier == "linear":
            table["replay_ce_v"] = {HEAD}
    return table


class TestRouting:
    @pytest.mark.parametrize("replay", [False, True])
    @pytest.mark.parametrize("classifier", ["only_text", "linear", "se_vpr"])
    @pytest.mark.parametrize("distill", ["seq", "avg_kd", "sg_akt"])
    def test_routing_table(self, distill, classifier, replay):
        state, stream = run_tasks(make_cfg(distill=distill,
                                           classifier=classifier,
                                           replay=replay), upto=2)
        ctx = open_task(state, stream.tasks[2])
        live = {PROMPT: [state.prompts.prompts[3]],
                ADAPTER: state.adapter.parameters(),
                PROJ: state.projectors.parameters(),
                H_PROJ: state.affinity.parameters(),
                HEAD: state.head.parameters() if state.head else []}
        params = [p for group in live.values() for p in group]
        assert params == _trainables(state)
        # one step first: the linear head's new block starts at zero, and
        # a zero block passes no gradient on to the adapter
        for p in params:
            p.zero_grad()
        loss, _ = batch_loss(ctx, np.arange(8))
        loss.backward()
        state.optimizer.step(params)
        frozen = [state.prompts.prompts[1], state.prompts.prompts[2]]
        frozen += [p for stack in state.pool.stacks for p in stack.parameters()]
        frozen += [t for blk in state.backbone.blocks for t in blk]
        for p in frozen[:2] + params:
            p.zero_grad()
        rows = np.arange(8, 16)

        routes, total = {}, {p.name: 0.0 for p in params}
        counter = state.replay_counter
        for name, term in loss_terms(ctx, rows)[0].items():
            term.backward()
            routes[name] = {g for g, group in live.items()
                            if any(np.any(p.grad != 0.0) for p in group)}
            for t in frozen:
                assert t.grad is None or not np.any(t.grad), (name, t)
            for p in params:
                total[p.name] = total[p.name] + p.grad
                p.zero_grad()
        assert len(state.pool) == 2
        assert routes == routing_table(distill, classifier, replay)

        # the terms are the whole loss: their gradients add up to its own
        state.replay_counter = counter
        loss, _ = batch_loss(ctx, rows)
        loss.backward()
        for p in params:
            np.testing.assert_allclose(p.grad, total[p.name], rtol=1e-9,
                                       atol=1e-15, err_msg=p.name)

    def test_kl_gradient_stops_at_projectors(self):
        state, stream = run_tasks(make_cfg(), upto=2)
        open_task(state, stream.tasks[2])
        cfg = state.cfg
        x = stream.tasks[2].train_x[:8]
        y = stream.tasks[2].train_y[:8]
        support = [int(k) for k in state.seen[-1]]
        pos = {k: i for i, k in enumerate(support)}
        ys_local = np.array([pos[int(v)] for v in y], dtype=np.int64)
        prompt = state.prompts.prompts[3]

        f_v = state.backbone.forward(x, state.adapter)
        text_sup = text_features(state.text_enc, state.prompts, support, prompt)
        sem = semantic_vectors(state.text_enc, state.prompts, support, 3)
        res = teacher_result("sg_akt", state.backbone, x, state.pool, sem,
                             ys_local, state.projectors, cfg.agg_lambda)

        params = [state.projectors.w_s, state.projectors.w_v, prompt] \
            + state.adapter.parameters()
        for p in params:
            p.zero_grad()
        loss_sgakt(res.v_agg, f_v, text_sup, cfg.tau_prime,
                   cfg.kl_epsilon).backward()
        assert np.all(state.projectors.w_s.grad == 0.0)
        assert np.all(state.projectors.w_v.grad == 0.0)
        assert any(np.any(p.grad != 0.0) for p in state.adapter.parameters())
        assert np.any(prompt.grad != 0.0)

        # positive control: the alignment term does reach the projectors
        for p in params:
            p.zero_grad()
        loss_agg(res.v_agg, text_sup, ys_local, cfg.tau).backward()
        assert np.any(state.projectors.w_s.grad != 0.0)
        assert np.any(state.projectors.w_v.grad != 0.0)

    def test_frozen_parts_survive_later_tasks(self):
        cfg = make_cfg()
        stream = build_stream(cfg.data)
        state = state_for_stream(cfg, stream)
        backbone_sum = state.backbone.checksum()
        train_task(state, stream.tasks[0])
        train_task(state, stream.tasks[1])
        prompt1 = state.prompts.prompts[1].data.copy()
        pool_sums = state.pool.checksums()
        raw1 = {k: state.protos.raw[k].copy() for k in stream.tasks[0].class_ids}

        train_task(state, stream.tasks[2])
        assert state.backbone.checksum() == backbone_sum
        assert state.pool.checksums()[:2] == pool_sums
        assert np.array_equal(state.prompts.prompts[1].data, prompt1)
        for k, arr in raw1.items():
            assert np.array_equal(state.protos.raw[k], arr)


class TestTaskContext:
    def test_frozen_work_runs_once_per_task(self, monkeypatch):
        import seca.sevpr as V
        import seca.sgakt as G
        import seca.trainer as TR
        state, stream = run_tasks(make_cfg(epochs_per_task=2), upto=2)
        steps, pooled, text_calls = [0], [], []

        def wrap(fn, log, key):
            def inner(*args):
                log.append(key(args))
                return fn(*args)
            return inner

        monkeypatch.setattr(TR, "batch_loss", wrap(
            TR.batch_loss, [], lambda a: steps.__setitem__(0, steps[0] + 1)))
        monkeypatch.setattr(G, "pooled_views", wrap(
            G.pooled_views, pooled, lambda a: (steps[0], a[1].shape[0])))
        for mod in (G, TR, V):
            monkeypatch.setattr(mod, "text_features", wrap(
                mod.text_features, text_calls, lambda a: (steps[0], a[3].name)))
        train_task(state, stream.tasks[2])

        # 16 rows, batch 8, 2 epochs: 4 steps; one pool pass over all rows
        assert steps[0] == 4
        assert pooled == [(0, 16)]
        past = [c for c in text_calls if c[1] != "prompt.3"]
        assert sorted(past) == [(0, "prompt.1"), (0, "prompt.2")]
        # per step: text_sup, the refinement and the active semantic block;
        # then the boundary refinement
        active = [c[0] for c in text_calls if c[1] == "prompt.3"]
        assert active == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4]

    @pytest.mark.parametrize("classifier,build", [
        ("centroid_clip", "raw"), ("centroid_adapted", "adapted"),
        ("linear", "columns")])
    def test_targets_built_once_per_task(self, monkeypatch, classifier, build):
        # replay on: each step scores a batch and a replay batch
        import seca.trainer as TR
        state, stream = run_tasks(make_cfg(epochs_per_task=2, replay=True,
                                           classifier=classifier), upto=2)
        steps, builds = [0], []
        batch_loss_fn = TR.batch_loss
        matrix, columns = PrototypeBank.matrix, LinearHead.columns

        def counted_batch_loss(*args):
            steps[0] += 1
            return batch_loss_fn(*args)

        def counted_matrix(self, store, class_ids):
            builds.append((steps[0], store))
            return matrix(self, store, class_ids)

        def counted_columns(self, class_ids):
            builds.append((steps[0], "columns"))
            return columns(self, class_ids)

        monkeypatch.setattr(TR, "batch_loss", counted_batch_loss)
        monkeypatch.setattr(PrototypeBank, "matrix", counted_matrix)
        monkeypatch.setattr(LinearHead, "columns", counted_columns)
        train_task(state, stream.tasks[2])
        assert steps[0] == 4
        assert builds == [(0, build)]


class TestTrainTask:
    def test_epochs_zero_is_bookkeeping_only(self):
        cfg = make_cfg(epochs_per_task=0)
        stream = build_stream(cfg.data)
        state = state_for_stream(cfg, stream)
        adapter_sum = state.adapter.checksum()
        train_task(state, stream.tasks[0])
        assert state.task == 1
        assert state.adapter.checksum() == adapter_sum
        assert not state.prompts.prompts[1].requires_grad
        assert len(state.pool) == 1
        ids = set(stream.tasks[0].class_ids)
        assert set(state.protos.raw) == ids
        assert set(state.protos.refined_current) == ids
        assert set(state.protos.refined_snapshot) == ids

    def test_two_identical_runs_agree_everywhere(self, tmp_path):
        cfg = make_cfg()
        digests, blobs, metrics = [], [], []
        for i in range(2):
            stream = build_stream(cfg.data)
            state = state_for_stream(cfg, stream)
            per = []
            for t, task in enumerate(stream.tasks, start=1):
                train_task(state, task)
                per.append(accuracy(stream, t, lambda bx: predict(state, bx)))
            digests.append(state_digest(state))
            path = tmp_path / f"run{i}.ckpt"
            save_checkpoint(path, state)
            blobs.append(path.read_bytes())
            metrics.append(tuple(per))
        assert digests[0] == digests[1]
        assert blobs[0] == blobs[1]
        assert metrics[0] == metrics[1]

    def test_replay_run_is_deterministic(self):
        cfg = make_cfg(replay=True)
        a, _ = run_tasks(cfg)
        b, _ = run_tasks(cfg)
        assert state_digest(a) == state_digest(b)
        assert a.replay_counter == b.replay_counter > 0

    def test_separable_toy_reaches_100(self):
        spec = SyntheticSpec(num_tasks=2, classes_per_task=2, dim=16,
                             superclasses=4, mean_correlation=0.0, noise=0.0,
                             train_per_class=6, test_per_class=3, seed=2)
        cfg = make_cfg(epochs_per_task=10, lr=0.01,
                       data=DataConfig(synthetic=spec))
        _, metrics = run_stream(cfg, build_stream(cfg.data))
        assert metrics.last == 100.0
        assert metrics.avg == 100.0

    def test_adapted_prototypes_only_for_that_variant(self):
        plain, _ = run_tasks(make_cfg(epochs_per_task=0), upto=1)
        assert plain.protos.adapted == {}
        adapted, stream = run_tasks(
            make_cfg(epochs_per_task=0, classifier="centroid_adapted"), upto=1)
        assert set(adapted.protos.adapted) == set(stream.tasks[0].class_ids)

    def test_replay_store_lifecycle(self):
        off, _ = run_tasks(make_cfg(epochs_per_task=0), upto=1)
        assert off.store is None
        on, stream = run_tasks(make_cfg(epochs_per_task=0, replay=True), upto=2)
        seen = [k for t in stream.tasks[:2] for k in t.class_ids]
        assert sorted(on.store.classes) == sorted(seen)


class TestPredict:
    def test_untrained_state_rejected(self):
        cfg = make_cfg()
        state = state_for_stream(cfg, build_stream(cfg.data))
        with pytest.raises(ProtocolError, match="no trained task"):
            predict_scores(state, np.zeros((1, 16)))

    def test_enumeration_oracle(self):
        state, stream = run_tasks(make_cfg(), upto=2)
        cfg = state.cfg
        x = np.concatenate([t.test_x for t in stream.tasks[:2]])
        ids = sorted(state.seen_ids())

        def unit(a):
            return a / np.linalg.norm(a, axis=-1, keepdims=True)

        with T.no_grad():
            f = unit(state.backbone.forward(x, state.adapter).data)
            total = np.zeros((x.shape[0], len(ids)))
            for t in (1, 2):
                feats = text_features(state.text_enc, state.prompts, ids,
                                      state.prompts.prompts[t]).data
                logits = f @ unit(feats).T / cfg.tau_prime
                e = np.exp(logits - logits.max(axis=1, keepdims=True))
                total += e / e.sum(axis=1, keepdims=True)
            total /= 2.0
            z = text_features(state.text_enc, state.prompts, ids,
                              state.prompts.prompts[2])
            m = affinity_matrix(z, state.affinity.h_proj, cfg.affinity_gamma)
            refined = refine_prototypes(m, state.protos.matrix("raw", ids)).data
            logits = f @ unit(refined).T / cfg.tau_prime
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            total += e / e.sum(axis=1, keepdims=True)

        scores = predict_scores(state, x)
        assert np.allclose(scores, total, atol=1e-12, rtol=0)

        # argmax with explicit lowest-id tie break must match predict
        want = []
        for row in scores:
            best = 0
            for j in range(1, len(ids)):
                if row[j] > row[best]:
                    best = j
            want.append(ids[best])
        assert np.array_equal(predict(state, x), np.array(want))

    def test_chunked_prediction_consistent(self):
        state, stream = run_tasks(make_cfg(), upto=2)
        base = np.concatenate([t.test_x for t in stream.tasks[:2]])
        x = np.tile(base, (20, 1))  # 320 rows, beyond one eval chunk
        preds = predict(state, x)
        assert preds.shape == (320,)
        for i in (0, 255, 256, 319):
            assert preds[i] == predict(state, x[i:i + 1])[0]
        assert np.array_equal(preds[:16], predict(state, base))

    def test_only_text_ignores_prototypes(self):
        state, stream = run_tasks(make_cfg(classifier="only_text"), upto=2)
        x = stream.tasks[0].test_x
        before = predict(state, x)
        for k in list(state.protos.raw):
            state.protos.raw[k] = np.full(16, 1e6)
        assert np.array_equal(predict(state, x), before)

    def test_refinement_recomputed_at_inference(self):
        state, stream = run_tasks(make_cfg(), upto=2)
        x = stream.tasks[0].test_x
        before = predict_scores(state, x)
        for k in list(state.protos.refined_current):
            state.protos.refined_current[k] = np.full(16, -1e6)
            state.protos.refined_snapshot[k] = np.full(16, -1e6)
        assert np.array_equal(predict_scores(state, x), before)


    @pytest.mark.parametrize("classifier", VARIANTS)
    def test_scores_match_per_batch_mirror(self, classifier):
        state, stream = run_tasks(make_cfg(classifier=classifier))
        base = np.concatenate([t.test_x for t in stream.tasks])
        x = np.tile(base, (25, 1))  # 600 rows: batches of 256, 256, 88
        parts = [predict_scores(state, x[i:i + 256])
                 for i in range(0, x.shape[0], 256)]
        for i, part in enumerate(parts):
            want = mirror_scores(state, x[256 * i:256 * (i + 1)])
            assert part.tobytes() == want.tobytes()
        ids = np.array(sorted(state.seen_ids()))
        assert np.array_equal(predict(state, x),
                              ids[np.argmax(np.concatenate(parts), axis=1)])


def mirror_scores(state, x):
    """Hybrid scores with every text feature recomputed for this batch."""
    cfg = state.cfg
    ids = sorted(state.seen_ids())
    with T.no_grad():
        f = state.backbone.forward(x, state.adapter)
        total = None
        for t in range(1, state.task + 1):
            z = text_features(state.text_enc, state.prompts, ids,
                              state.prompts.prompts[t])
            p = T.softmax_temp(clip_logits(f, z, cfg.tau_prime), 1.0)
            total = p if total is None else T.add(total, p)
        score = total.data * (1.0 / state.task)
        if cfg.classifier == "se_vpr":
            z = text_features(state.text_enc, state.prompts, ids,
                              state.prompts.prompts[state.task])
            m = affinity_matrix(z, state.affinity.h_proj, cfg.affinity_gamma)
            protos = refine_prototypes(m, state.protos.matrix("raw", ids))
        elif cfg.classifier == "centroid_clip":
            protos = state.protos.matrix("raw", ids)
        elif cfg.classifier == "centroid_adapted":
            protos = state.protos.matrix("adapted", ids)
        elif cfg.classifier == "linear":
            head = state.head
            logits = np.concatenate([f.data @ w.data.T + b.data for w, b in
                                     (head.blocks[t] for t in sorted(head.blocks))],
                                    axis=1)
            cols = [head.class_ids.index(k) for k in ids]
            return score + T.softmax_temp(T.Tensor(logits[:, cols]), 1.0).data
        else:
            return score
        return score + visual_prob(f, protos, cfg.tau_prime).data


class TestMetrics:
    def test_hand_computed_last_and_avg(self):
        spec = SyntheticSpec(num_tasks=2, classes_per_task=2, dim=8,
                             superclasses=2, mean_correlation=0.1, noise=0.1,
                             train_per_class=4, test_per_class=3, seed=9)
        stream = gen_synthetic(spec)
        y1 = stream.tasks[0].test_y
        y12 = np.concatenate([t.test_y for t in stream.tasks[:2]])
        a, b = stream.tasks[0].class_ids

        def wrong(y):
            return np.where(y == a, b, a)

        p1 = y1.copy()
        p1[4:] = wrong(p1[4:])  # 4 of 6 correct
        p2 = y12.copy()
        p2[9:] = wrong(p2[9:])  # 9 of 12 correct

        per = (accuracy(stream, 1, lambda x: p1),
               accuracy(stream, 2, lambda x: p2))
        m = Metrics(per)
        e1 = 100.0 * (4.0 / 6.0)
        assert m.per_task == (e1, 75.0)
        assert m.last == 75.0
        assert m.avg == (e1 + 75.0) / 2.0

    def test_single_task_last_equals_avg(self):
        m = Metrics((62.5,))
        assert m.last == m.avg == 62.5
        assert m.summary() == {"last": 62.5, "avg": 62.5, "per_task": [62.5]}

    def test_accuracy_requires_samples(self):
        stream = gen_synthetic(SPEC3)
        with pytest.raises(ValueError, match="no test samples"):
            accuracy(stream, 0, lambda x: x)

    def test_write_metrics_deterministic_and_parsable(self, tmp_path):
        stream = gen_synthetic(SPEC3)
        m = Metrics((100.0 / 3.0, 50.0, 2.0 / 3.0))
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            write_metrics(tmp_path / sub, m, stream)
        assert (tmp_path / "a" / "metrics.csv").read_bytes() \
            == (tmp_path / "b" / "metrics.csv").read_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() \
            == (tmp_path / "b" / "summary.json").read_bytes()

        lines = (tmp_path / "a" / "metrics.csv").read_text().splitlines()
        assert lines[0] == "task,seen_classes,acc"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert [r[1] for r in rows] == ["2", "4", "6"]
        # repr round trip keeps accuracies exact
        assert [float(r[2]) for r in rows] == list(m.per_task)
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary == m.summary()


def edited_meta(edit):
    """A change that applies edit to the parsed meta document."""
    def change(frame):
        meta = json.loads(frame.tobytes())
        edit(meta)
        return json_array(meta)
    return change


# (frame, change) pairs that frame and digest correctly but do not fit the
# state the stored config builds; a change is an array, a function of the
# stored array, or None to drop the frame
MISFIT = {
    "w_s-broadcastable": ("proj.w_s", np.zeros(1)),
    "w_s-float32": ("proj.w_s", lambda a: a.astype(np.float32)),
    "prompt-transposed": ("prompt.2", lambda a: a.T.copy()),
    "adapter-longer": ("adapter.0.up_b", lambda a: np.zeros(a.size + 1)),
    "pool-entry-short": ("pool.0.1.down_w", lambda a: a[:-1]),
    "raw-protos-narrow": ("protos.raw", lambda a: a[:, :-1]),
    "raw-ids-unsorted": ("protos.raw.ids", lambda a: a[::-1].copy()),
    "raw-ids-unseen": ("protos.raw.ids", lambda a: a + 100),
    "counts-short": ("protos.counts", lambda a: a[:-1]),
    "replay-cov-full": ("replay.cov", lambda a: np.stack(
        [np.diag(row) for row in a])),
    "replay-mu-int": ("replay.mu", lambda a: a.astype(np.int64)),
    "optim-m": ("optim.m.proj.w_s", np.zeros(3)),
    "optim-t-unknown": ("optim.t.proj.w_x", np.ones(1, dtype=np.int64)),
    "meta-float": ("meta", lambda a: a.astype(np.float64)),
    # the registry seed is the config's data seed (3 here)
    "meta-registry-seed": ("meta", edited_meta(
        lambda m: m.update(registry_seed=7))),
    # the last task also lists the first task's first class
    "meta-class-repeated": ("meta", edited_meta(
        lambda m: m["seen"][-1].append(m["seen"][0][0]))),
    "meta-class-twice-in-a-task": ("meta", edited_meta(
        lambda m: m["seen"][-1].append(m["seen"][-1][0]))),
    "meta-task-count": ("meta", edited_meta(
        lambda m: m.update(task=m["task"] - 1))),
    "affinity-missing": ("affinity.h_proj", None),
    "unexpected-frame": ("bogus", np.zeros(1)),
}


class TestCheckpoint:
    @pytest.mark.parametrize("full_cov", [False, True])
    def test_full_round_trip(self, tmp_path, full_cov):
        state, stream = run_tasks(make_cfg(replay=True,
                                           replay_full_cov=full_cov))
        x = np.concatenate([t.test_x for t in stream.tasks])
        p1 = tmp_path / "run.ckpt"
        save_checkpoint(p1, state)
        loaded = load_checkpoint(p1)
        assert np.array_equal(predict(state, x), predict(loaded, x))
        assert state_digest(loaded) == state_digest(state)
        assert loaded.store.class_ids == state.store.class_ids
        for k in state.store.class_ids:
            a, b = state.store.classes[k], loaded.store.classes[k]
            assert a.mu.shape == b.mu.shape and a.cov.shape == b.cov.shape
            assert a.mu.tobytes() == b.mu.tobytes()
            assert a.cov.tobytes() == b.cov.tobytes()
            assert a.count == b.count and b.diagonal == (not full_cov)
            assert np.array_equal(sample(state.store, k, 5, seed=9),
                                  sample(loaded.store, k, 5, seed=9))
        p2 = tmp_path / "again.ckpt"
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_training_matches_uninterrupted(self, tmp_path):
        self.check_resume(tmp_path, make_cfg(replay=True))

    @pytest.mark.parametrize("distill", ["seq", "vanilla", "sg_akt"])
    @pytest.mark.parametrize("classifier", VARIANTS)
    def test_resume_matches_uninterrupted_for_each_variant(
            self, tmp_path, classifier, distill):
        # what a task builds once comes only from checkpointed state
        self.check_resume(tmp_path, make_cfg(replay=True,
                                             classifier=classifier,
                                             distill=distill))

    @staticmethod
    def check_resume(tmp_path, cfg):
        """Resuming task 3 from a checkpoint taken after task 2 ends in the
        same state as training straight through."""
        stream = build_stream(cfg.data)
        state = state_for_stream(cfg, stream)
        train_task(state, stream.tasks[0])
        train_task(state, stream.tasks[1])
        path = tmp_path / "mid.ckpt"
        save_checkpoint(path, state)

        train_task(state, stream.tasks[2])
        resumed = load_checkpoint(path)
        train_task(resumed, stream.tasks[2])
        assert state_digest(resumed) == state_digest(state)

    def test_linear_head_round_trip(self, tmp_path):
        state, stream = run_tasks(make_cfg(classifier="linear"), upto=2)
        x = np.concatenate([t.test_x for t in stream.tasks[:2]])
        path = tmp_path / "lin.ckpt"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert loaded.head.class_ids == state.head.class_ids
        assert np.array_equal(predict(state, x), predict(loaded, x))

    def test_malformed_files_carry_codes(self, tmp_path):
        state, _ = run_tasks(make_cfg(), upto=1)
        path = tmp_path / "ok.ckpt"
        save_checkpoint(path, state)
        blob = path.read_bytes()

        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"WRONGMAGI" + blob[9:])
        with pytest.raises(DataFormatError) as e:
            load_checkpoint(bad)
        assert e.value.code == "bad-magic" and e.value.exit_code == 3

        bad.write_bytes(blob[:9] + struct.pack("<I", 99) + blob[13:])
        with pytest.raises(DataFormatError) as e:
            load_checkpoint(bad)
        assert e.value.code == "bad-version"

        bad.write_bytes(blob[:-5])
        with pytest.raises(DataFormatError) as e:
            load_checkpoint(bad)
        assert e.value.code == "truncated"

    def test_damaged_frames_are_corrupt(self, tmp_path):
        state, _ = run_tasks(make_cfg(), upto=1)
        path = tmp_path / "ok.ckpt"
        save_checkpoint(path, state)
        blob = path.read_bytes()
        nlen = struct.unpack_from("<H", blob, 13)[0]
        first = blob[13:13 + 10 + nlen
                     + struct.unpack_from("<Q", blob, 15 + nlen)[0]]
        end = len(blob) - 10  # the end frame: empty name, empty body
        bad = tmp_path / "bad.ckpt"
        for damaged in (blob + b"\x00",  # trailing byte
                        blob[:end - 1] + bytes([blob[end - 1] ^ 1]) + blob[end:],
                        blob[:end] + first + blob[end:]):  # duplicate name
            bad.write_bytes(damaged)
            with pytest.raises(DataFormatError) as e:
                load_checkpoint(bad)
            assert e.value.code == "corrupt" and e.value.exit_code == 3

        bad.write_bytes(blob[:9] + struct.pack("<I", 1) + blob[13:])
        with pytest.raises(DataFormatError) as e:
            load_checkpoint(bad)
        assert e.value.code == "bad-version" and "version 1 " in str(e.value)

    @pytest.mark.parametrize("case", sorted(MISFIT))
    def test_misfit_arrays_are_corrupt(self, tmp_path, case):
        state, _ = run_tasks(make_cfg(replay=True, pool_max=1))
        path = tmp_path / "ok.ckpt"
        save_checkpoint(path, state)
        load_checkpoint(path)
        frame, change = MISFIT[case]
        arrays = decode(path.read_bytes(), CKPT_MAGIC, CKPT_VERSION,
                        "checkpoint")
        if change is None:
            del arrays[frame]
        else:
            arrays[frame] = change(arrays[frame]) if callable(change) \
                else change
        path.write_bytes(encode(arrays, CKPT_MAGIC, CKPT_VERSION))
        with pytest.raises(DataFormatError) as e:
            load_checkpoint(path)
        assert e.value.code == "corrupt"

    def test_pool_beyond_pool_max_is_corrupt(self, tmp_path):
        state, _ = run_tasks(make_cfg(pool_max=1))
        path = tmp_path / "ok.ckpt"
        save_checkpoint(path, state)
        arrays = decode(path.read_bytes(), CKPT_MAGIC, CKPT_VERSION,
                        "checkpoint")
        # a second well-formed pool entry, beyond pool_max=1
        arrays.update({k.replace("pool.0.", "pool.1."): v
                       for k, v in arrays.items() if k.startswith("pool.0.")})
        arrays["pool.utilities"] = np.ones(2)
        path.write_bytes(encode(arrays, CKPT_MAGIC, CKPT_VERSION))
        with pytest.raises(DataFormatError) as e:
            load_checkpoint(path)
        assert e.value.code == "corrupt"

    def test_stream_built_apart_from_cfg_data_round_trips(self, tmp_path):
        # cfg.data keeps its 64-wide default; the 16-wide stream is built
        # apart, as the acceptance gate does, and the checkpoint still loads
        cfg = RunConfig(encoder=ENC, epochs_per_task=1, batch_size=8)
        stream = build_stream(DataConfig(synthetic=SPEC3))
        state = state_for_stream(cfg, stream)
        train_task(state, stream.tasks[0])
        path = tmp_path / "apart.ckpt"
        save_checkpoint(path, state)
        assert state_digest(load_checkpoint(path)) == state_digest(state)

    def test_overwrite_in_place(self, tmp_path):
        state, _ = run_tasks(make_cfg(), upto=1)
        path = tmp_path / "same.ckpt"
        save_checkpoint(path, state)
        first = path.read_bytes()
        save_checkpoint(path, state)
        assert path.read_bytes() == first


ARRAY_DICTS = st.dictionaries(
    st.text(min_size=1, max_size=12),
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.uint8]),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                max_side=4)),
    max_size=5)


# both artifact headers: a 9-byte and an 8-byte magic
HEADERS = st.sampled_from([(CKPT_MAGIC, CKPT_VERSION),
                           (BANK_MAGIC, BANK_VERSION)])


class TestCodec:
    @given(HEADERS, ARRAY_DICTS)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_bitwise(self, head, arrays):
        back = decode(encode(arrays, *head), *head, "artifact")
        assert list(back) == list(arrays)
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype
            assert back[name].shape == arr.shape
            assert back[name].tobytes() == arr.tobytes()

    @given(HEADERS, ARRAY_DICTS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_flipped_byte_raises(self, head, arrays, data):
        blob = bytearray(encode(arrays, *head))
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= \
            data.draw(st.integers(1, 255))
        with pytest.raises(DataFormatError):
            decode(bytes(blob), *head, "artifact")

    @given(HEADERS, ARRAY_DICTS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_truncation_raises(self, head, arrays, data):
        blob = encode(arrays, *head)
        with pytest.raises(DataFormatError):
            decode(blob[:data.draw(st.integers(0, len(blob) - 1))], *head,
                   "artifact")

    def test_errors_name_the_artifact(self):
        blob = encode({"x": np.zeros(2)}, BANK_MAGIC, BANK_VERSION)
        with pytest.raises(DataFormatError, match="not a SECA checkpoint"):
            decode(blob, CKPT_MAGIC, CKPT_VERSION, "checkpoint")
        with pytest.raises(DataFormatError,
                           match="bank version 2 unsupported; this build "
                                 "reads version 3"):
            decode(blob, BANK_MAGIC, 3, "bank")
        with pytest.raises(DataFormatError, match="bank ends mid-frame"):
            decode(blob[:-1], BANK_MAGIC, BANK_VERSION, "bank")
        frames = decode(blob, BANK_MAGIC, BANK_VERSION, "bank")
        with pytest.raises(DataFormatError, match="bank lacks y"):
            frames.take("y", np.float64, 2)
        with pytest.raises(DataFormatError, match=r"bank x is float64 \(2,\)"):
            frames.take("x", np.float64, 3)


class TestStrategyParity:
    def test_zeroed_projectors_reduce_to_plain_averaging(self):
        digests = {}
        for strategy in ("sg_akt", "avg_kd"):
            cfg = make_cfg(epochs_per_task=2, distill=strategy)
            stream = build_stream(cfg.data)
            state = state_for_stream(cfg, stream)
            state.projectors.w_s.data[...] = 0.0
            state.projectors.w_v.data[...] = 0.0
            for task in stream.tasks:
                train_task(state, task)
            digests[strategy] = state_digest(state)
        assert digests["sg_akt"] == digests["avg_kd"]

    def test_single_entry_pool_averaging_is_vanilla(self):
        a, _ = run_tasks(make_cfg(epochs_per_task=2, distill="avg_kd",
                                  pool_max=1))
        b, _ = run_tasks(make_cfg(epochs_per_task=2, distill="vanilla",
                                  pool_max=1))
        assert state_digest(a) == state_digest(b)

    def test_distillation_changes_the_trajectory(self):
        a, _ = run_tasks(make_cfg(distill="seq"))
        b, _ = run_tasks(make_cfg(distill="avg_kd"))
        assert state_digest(a) != state_digest(b)

    def test_utility_decay_without_scores(self):
        # seq updates never produce scores, so utilities only decay:
        # two batches of U <- 0.99 U after admission at 1/pool_max
        state, _ = run_tasks(make_cfg(distill="seq"), upto=2)
        u = 1.0 / 5
        for _ in range(2):
            u = 0.99 * u + 0.01 * 0.0
        assert state.pool.utilities[0] == u
        assert state.pool.utilities[1] == 1.0 / 5
