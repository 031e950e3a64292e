"""Prototype refinement: affinity mixing, visual classifier, drift anchor."""

from types import SimpleNamespace

import numpy as np
import pytest

import seca.tensor as T
from seca.encoder import AdapterStack, EncoderConfig, PromptBank, \
    TextEncoder, VisualBackbone
from seca.errors import ProtocolError
from seca.sevpr import (
    AffinityModel,
    LinearHead,
    PrototypeBank,
    VisualBranch,
    adapted_prototypes,
    affinity_matrix,
    loss_ce_v,
    loss_reg,
    mixing_weights,
    raw_prototypes,
    refine_prototypes,
    snapshot_prototypes,
    visual_prob,
)

CFG = EncoderConfig(d_v=10, d_t=10, layers=2, adapter_width=4,
                    prompt_tokens=2, seed=6)


def unit_rows(seed, k, d=10):
    z = np.random.default_rng(seed).standard_normal((k, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def raw_digest(bank: PrototypeBank) -> str:
    return T.checksum([bank.raw[k] for k in sorted(bank.raw)])


def snapshot_digest(bank: PrototypeBank) -> str:
    return T.checksum([bank.refined_snapshot[k]
                       for k in sorted(bank.refined_snapshot)])


@pytest.fixture
def backbone():
    return VisualBackbone(CFG)


class TestRawPrototypes:
    def test_single_sample_is_its_feature(self, backbone):
        bank = PrototypeBank(CFG.d_v)
        x = np.random.default_rng(0).standard_normal((2, CFG.d_v))
        raw_prototypes(bank, backbone, x, np.array([3, 4]), [3, 4])
        feats = backbone.forward(x, None).data
        assert np.array_equal(bank.raw[3], feats[0])
        assert np.array_equal(bank.raw[4], feats[1])
        assert bank.counts == {3: 1, 4: 1}

    def test_duplicates_leave_mean_unchanged(self, backbone):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, CFG.d_v))
        one, three = PrototypeBank(CFG.d_v), PrototypeBank(CFG.d_v)
        raw_prototypes(one, backbone, x, np.array([0]), [0])
        raw_prototypes(three, backbone, np.repeat(x, 3, axis=0),
                       np.array([0, 0, 0]), [0])
        np.testing.assert_allclose(three.raw[0], one.raw[0], atol=1e-14)

    def test_mean_oracle(self, backbone):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, CFG.d_v))
        y = np.repeat([0, 1, 2], 10)
        bank = PrototypeBank(CFG.d_v)
        raw_prototypes(bank, backbone, x, y, [0, 1, 2])
        for k in range(3):
            rows = [backbone.forward(x[i:i + 1], None).data[0]
                    for i in range(30) if y[i] == k]
            np.testing.assert_allclose(bank.raw[k], np.mean(rows, axis=0),
                                       atol=1e-12)

    def test_rewrite_rejected(self, backbone):
        bank = PrototypeBank(CFG.d_v)
        x = np.ones((1, CFG.d_v))
        raw_prototypes(bank, backbone, x, np.array([0]), [0])
        with pytest.raises(ProtocolError):
            raw_prototypes(bank, backbone, x, np.array([0]), [0])

    def test_empty_class_rejected(self, backbone):
        bank = PrototypeBank(CFG.d_v)
        with pytest.raises(ValueError):
            raw_prototypes(bank, backbone, np.ones((1, CFG.d_v)),
                           np.array([0]), [0, 1])

    def test_prototypes_locked_and_checksum_stable(self, backbone):
        bank = PrototypeBank(CFG.d_v)
        x = np.random.default_rng(3).standard_normal((4, CFG.d_v))
        raw_prototypes(bank, backbone, x, np.array([0, 0, 1, 1]), [0, 1])
        before = raw_digest(bank)
        with pytest.raises(ValueError):
            bank.raw[0][0] = 5.0
        raw_prototypes(bank, backbone, x[:2], np.array([2, 2]), [2])
        assert T.checksum([bank.raw[0], bank.raw[1]]) == before
        assert raw_digest(bank) != before  # new class extends the digest
        assert np.array_equal(bank.matrix("raw", [0, 1]),
                              np.stack([bank.raw[0], bank.raw[1]]))


class TestAffinity:
    def test_unit_diagonal_exact(self):
        z = unit_rows(4, 5)
        h = T.Parameter(np.random.default_rng(5).standard_normal((10, 10)))
        m = affinity_matrix(T.Tensor(z), h, gamma=2.3)
        assert np.all(np.diag(m.data) == 1.0)

    def test_zero_gamma_all_ones(self):
        z = unit_rows(4, 4)
        h = T.Parameter(np.random.default_rng(5).standard_normal((10, 10)))
        m = affinity_matrix(T.Tensor(z), h, gamma=0.0)
        assert np.all(m.data == 1.0)

    def test_pairwise_formula(self):
        z = unit_rows(6, 2)
        h = np.random.default_rng(7).standard_normal((10, 10))
        gamma = 1.7
        m = affinity_matrix(T.Tensor(z), T.Parameter(h), gamma)
        d2 = ((z[0] @ h - z[1] @ h) ** 2).sum()
        assert m.data[0, 1] == pytest.approx(np.exp(-gamma * d2), rel=1e-12)

    def test_symmetric_bitwise_and_bounded(self):
        for seed in range(5):
            z = unit_rows(seed, 6)
            h = T.Parameter(np.random.default_rng(seed + 50).standard_normal((10, 10)))
            m = affinity_matrix(T.Tensor(z), h, gamma=0.8).data
            assert np.array_equal(m, m.T)
            assert np.all(m > 0) and np.all(m <= 1.0)


class TestRefine:
    def test_identity_mixing_is_exact(self):
        raw = np.random.default_rng(8).standard_normal((4, 10))
        refined = refine_prototypes(T.Tensor(np.eye(4)), raw)
        assert np.array_equal(refined.data, raw)

    def test_huge_gamma_gives_identity_affinity(self):
        z = unit_rows(9, 4)
        h = T.Parameter(np.random.default_rng(9).standard_normal((10, 10)))
        m = affinity_matrix(T.Tensor(z), h, gamma=1e6)
        assert np.array_equal(m.data, np.eye(4))

    def test_all_ones_gives_global_mean(self):
        raw = np.random.default_rng(10).standard_normal((5, 10))
        refined = refine_prototypes(T.Tensor(np.ones((5, 5))), raw).data
        for row in refined[1:]:
            assert np.array_equal(row, refined[0])
        np.testing.assert_allclose(refined[0], raw.mean(axis=0), atol=1e-12)

    def test_matmul_oracle(self):
        rng = np.random.default_rng(11)
        m = np.exp(rng.standard_normal((4, 4)))
        raw = rng.standard_normal((4, 10))
        refined = refine_prototypes(T.Tensor(m), raw).data
        want = (m / m.sum(axis=1, keepdims=True)) @ raw
        np.testing.assert_allclose(refined, want, atol=1e-12)

    def test_rows_stochastic_and_hull(self):
        z = unit_rows(12, 5)
        h = T.Parameter(np.random.default_rng(12).standard_normal((10, 10)))
        m = affinity_matrix(T.Tensor(z), h, gamma=1.1)
        w = mixing_weights(m).data
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-9
        raw = np.random.default_rng(13).standard_normal((5, 10))
        refined = refine_prototypes(m, raw).data
        assert np.all(refined >= raw.min(axis=0) - 1e-12)
        assert np.all(refined <= raw.max(axis=0) + 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            refine_prototypes(T.Tensor(np.ones((3, 3))), np.ones((4, 10)))


class TestVisualProb:
    def test_single_class(self):
        p = visual_prob(T.Tensor(np.ones((2, 10))), np.ones((1, 10)), tau=0.5)
        assert np.all(p.data == 1.0)

    def test_aligned_limit(self):
        protos = np.eye(2, 10)
        f = T.Tensor(np.eye(1, 10) * 3.0)
        p = visual_prob(f, protos, tau=0.01).data[0]
        assert abs(p[0] - 1.0) < 1e-4 and p[1] < 1e-4

    def test_composition_oracle(self):
        rng = np.random.default_rng(14)
        f = rng.standard_normal((4, 10))
        protos = rng.standard_normal((3, 10))
        tau = 0.2
        p = visual_prob(T.Tensor(f), protos, tau).data
        fn = f / np.linalg.norm(f, axis=1, keepdims=True)
        cn = protos / np.linalg.norm(protos, axis=1, keepdims=True)
        z = fn @ cn.T / tau
        z -= z.max(axis=1, keepdims=True)
        want = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(p, want, atol=1e-12)

    def test_zero_norm_prototype(self):
        with pytest.raises(ValueError):
            visual_prob(T.Tensor(np.ones((1, 10))), np.zeros((2, 10)), tau=0.5)


class TestLossCeV:
    def test_perfect_alignment_is_zero(self):
        protos = np.eye(3, 10)
        f = T.Tensor(np.eye(3, 10) * 2.0)
        loss = loss_ce_v(f, protos, np.array([0, 1, 2]), tau=0.005)
        assert abs(loss.data.item()) < 1e-9

    def test_uniform_is_log_k(self):
        protos = np.eye(4, 10)
        f = T.Tensor(np.tile(np.ones(10) / np.sqrt(10), (2, 1)))
        loss = loss_ce_v(f, protos, np.array([1, 3]), tau=0.3)
        assert loss.data.item() == pytest.approx(np.log(4), abs=1e-10)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            loss_ce_v(T.Tensor(np.ones((1, 10))), np.eye(2, 10),
                      np.array([2]), tau=0.5)

    def test_h_proj_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        z = unit_rows(16, 3)
        raw = rng.standard_normal((3, 10))
        f = rng.standard_normal((2, 10))
        ys = np.array([2, 0])
        snap = rng.standard_normal((2, 10))
        h = T.Parameter(rng.standard_normal((10, 10)) / np.sqrt(10),
                        name="affinity.h_proj")

        def loss_fn():
            m = affinity_matrix(T.Tensor(z), h, gamma=0.9)
            refined = refine_prototypes(m, raw)
            ce = loss_ce_v(T.Tensor(f), refined, ys, tau=0.5)
            reg = loss_reg(T.take_rows(refined, np.array([0, 1])), snap)
            return T.add(ce, reg)

        report = T.grad_check(loss_fn, [h], tol=1e-6)
        assert report.passed, report.per_param


class TestLossReg:
    def test_identical_prototypes_zero(self):
        cur = T.Tensor(np.random.default_rng(17).standard_normal((3, 10)))
        loss = loss_reg(cur, cur.data.copy())
        assert loss.data.item() == 0.0

    def test_unit_difference(self):
        cur = T.Tensor(np.zeros((1, 10)))
        snap = np.zeros((1, 10))
        snap[0, 0] = -1.0
        assert loss_reg(cur, snap).data.item() == 1.0

    def test_first_task_convention(self):
        assert loss_reg(None, np.zeros((0, 10))).data.item() == 0.0
        empty = T.Tensor(np.zeros((0, 10)))
        assert loss_reg(empty, np.zeros((0, 10))).data.item() == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss_reg(T.Tensor(np.zeros((2, 10))), np.zeros((3, 10)))

    def test_snapshot_side_carries_no_gradient(self):
        h = T.Parameter(np.random.default_rng(18).standard_normal((10, 10)))
        z = unit_rows(19, 3)
        raw = np.random.default_rng(20).standard_normal((3, 10))
        m = affinity_matrix(T.Tensor(z), h, gamma=1.0)
        refined = refine_prototypes(m, raw)
        snap = refined.data.copy()
        loss_reg(refined, snap).backward()
        # loss is exactly zero at cur == snap, and its gradient is 2(cur-snap)
        assert np.all(h.grad == 0)


class TestSnapshots:
    def test_snapshot_survives_current_mutation(self):
        bank = PrototypeBank(10)
        bank.set_refined([0, 1], np.ones((2, 10)))
        snapshot_prototypes(bank)
        bank.set_refined([0, 1], np.zeros((2, 10)))
        assert np.all(bank.matrix("refined_snapshot", [0, 1]) == 1.0)

    def test_double_snapshot_identical(self):
        bank = PrototypeBank(10)
        bank.set_refined([0], np.random.default_rng(21).standard_normal((1, 10)))
        snapshot_prototypes(bank)
        first = snapshot_digest(bank)
        snapshot_prototypes(bank)
        assert snapshot_digest(bank) == first

    def test_snapshot_locked(self):
        bank = PrototypeBank(10)
        bank.set_refined([0], np.ones((1, 10)))
        snapshot_prototypes(bank)
        with pytest.raises(ValueError):
            bank.refined_snapshot[0][0] = 2.0

    def test_missing_class(self):
        bank = PrototypeBank(10)
        bank.set_refined([0], np.ones((1, 10)))
        snapshot_prototypes(bank)
        with pytest.raises(ProtocolError):
            bank.matrix("refined_snapshot", [0, 1])


def branch_state(kind, bank, head=None, gamma=1.0):
    """What VisualBranch reads of the trainer's state, at task 1."""
    prompts = PromptBank(CFG, class_ids=[0, 1, 2], registry_seed=0)
    prompts.new_prompt(1, seed=0)
    return SimpleNamespace(cfg=SimpleNamespace(classifier=kind), protos=bank,
                           head=head, text_enc=TextEncoder(CFG),
                           prompts=prompts, task=1,
                           affinity=AffinityModel.create(CFG, 0, gamma))


def head_logits(head, f):
    """Every column of a linear head, computed in numpy."""
    return np.concatenate([f @ w.data.T + b.data for w, b in
                           (head.blocks[t] for t in sorted(head.blocks))],
                          axis=1)


class TestClassifierVariants:
    def fill_bank(self, backbone):
        bank = PrototypeBank(CFG.d_v)
        rng = np.random.default_rng(22)
        x = rng.standard_normal((6, CFG.d_v))
        y = np.repeat([0, 1, 2], 2)
        raw_prototypes(bank, backbone, x, y, [0, 1, 2])
        stack = AdapterStack(CFG, seed=1)
        adapted_prototypes(bank, backbone, stack, x, y, [0, 1, 2])
        return bank, rng.standard_normal((2, CFG.d_v))

    def probs(self, kind, bank, f, class_ids=(0, 1, 2), **kw):
        branch = VisualBranch(branch_state(kind, bank, **kw), list(class_ids))
        with T.no_grad():
            branch.refine()
            return branch.probs(T.Tensor(f), 0.1)

    def test_identity_refinement_equals_centroid_clip(self, backbone):
        # so large an affinity scale underflows every off-diagonal entry
        bank, f = self.fill_bank(backbone)
        a = self.probs("se_vpr", bank, f, gamma=1e6)
        b = self.probs("centroid_clip", bank, f)
        assert np.array_equal(a.data, b.data)

    def test_refinement_reads_the_models_scale(self, backbone):
        # scale 0 mixes every class into the mean of all: uniform scores;
        # the state's config carries no scale to read
        bank, f = self.fill_bank(backbone)
        p = self.probs("se_vpr", bank, f, gamma=0.0)
        assert np.all(p.data == 1 / 3)

    def test_fresh_adapter_matches_raw_centroids(self, backbone):
        # zero-initialized up-projections make the adapted encoder identical
        bank, f = self.fill_bank(backbone)
        a = self.probs("centroid_adapted", bank, f)
        b = self.probs("centroid_clip", bank, f)
        assert np.array_equal(a.data, b.data)

    def test_only_text_has_no_visual_branch(self, backbone):
        bank, f = self.fill_bank(backbone)
        assert self.probs("only_text", bank, f) is None
        branch = VisualBranch(branch_state("only_text", bank), [0, 1, 2])
        assert branch.terms(T.Tensor(f), [0, 1], 0.1) == {}

    def test_zero_linear_head_uniform(self, backbone):
        bank, f = self.fill_bank(backbone)
        head = LinearHead(CFG.d_v)
        head.add_task(1, [0, 1])
        head.add_task(2, [2])
        p = self.probs("linear", bank, f, head=head)
        assert np.all(p.data == pytest.approx(1 / 3, abs=0))

    def test_linear_head_selects_requested_columns(self, backbone):
        bank, f = self.fill_bank(backbone)
        head = LinearHead(CFG.d_v)
        head.add_task(1, [0, 1])
        head.add_task(2, [2])
        rng = np.random.default_rng(25)
        for p in head.parameters():
            p.data[...] = rng.standard_normal(p.data.shape)
        logits = head_logits(head, f)[:, [2, 0]]
        want = np.exp(logits - logits.max(axis=1, keepdims=True))
        want /= want.sum(axis=1, keepdims=True)
        p = self.probs("linear", bank, f, class_ids=[2, 0], head=head)
        np.testing.assert_allclose(p.data, want, rtol=1e-12, atol=0)

    def test_linear_head_unknown_class(self, backbone):
        bank, f = self.fill_bank(backbone)
        head = LinearHead(CFG.d_v)
        head.add_task(1, [0, 1])
        with pytest.raises(ProtocolError, match="no column for class 2"):
            VisualBranch(branch_state("linear", bank, head=head), [0, 2])


class TestLinearHead:
    def test_grows_and_orders_blocks(self):
        head = LinearHead(10)
        head.add_task(2, [4, 5])
        head.add_task(1, [0, 1])
        assert head.class_ids == (0, 1, 4, 5)
        assert head.columns([5, 0]).tolist() == [3, 0]
        f = T.Tensor(np.random.default_rng(23).standard_normal((3, 10)))
        assert head.logits(f, head.columns([5, 0])).data.shape == (3, 2)

    def test_logits_match_manual_affine(self):
        head = LinearHead(10)
        head.add_task(1, [0, 1])
        w, b = head.blocks[1]
        rng = np.random.default_rng(24)
        w.data[:] = rng.standard_normal(w.data.shape)
        b.data[:] = rng.standard_normal(b.data.shape)
        f = rng.standard_normal((4, 10))
        got = head.logits(T.Tensor(f), [1, 0]).data
        want = f @ w.data.T + b.data
        np.testing.assert_allclose(got, want[:, [1, 0]], atol=1e-12)

    def test_gradients_reach_blocks(self):
        head = LinearHead(10)
        head.add_task(1, [0])
        head.add_task(2, [1])
        f = T.Tensor(np.ones((2, 10)))
        T.tsum(head.logits(f, [0, 1])).backward()
        assert all(np.any(p.grad != 0) or p.data.size == 0
                   for p in [head.blocks[1][1], head.blocks[2][1]])

    def test_duplicate_task(self):
        head = LinearHead(10)
        head.add_task(1, [0])
        with pytest.raises(ProtocolError, match="task 1 already exists") as e:
            head.add_task(1, [1])
        assert e.value.exit_code == 2

    def test_empty_head_logits(self):
        with pytest.raises(ProtocolError):
            LinearHead(10).logits(T.Tensor(np.ones((1, 10))), [])
