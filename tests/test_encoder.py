"""Encoder contracts: frozen towers, adapter identity at init, logit geometry."""

from __future__ import annotations

import numpy as np
import pytest

import seca.tensor as T
from seca.encoder import (
    AdapterStack,
    EncoderConfig,
    PromptBank,
    TextEncoder,
    VisualBackbone,
    clip_logits,
    text_features,
)
from seca.errors import ProtocolError

CFG = EncoderConfig(d_v=16, d_t=16, layers=3, adapter_width=4, prompt_tokens=2, seed=5)


def _independent_visual(backbone: VisualBackbone, adapters, x: np.ndarray) -> np.ndarray:
    """Straight-line numpy re-evaluation, no Tensor machinery involved."""
    h = x.astype(np.float64).copy()
    for layer, (w1, b1, w2, b2) in enumerate(backbone.blocks):
        f = np.tanh(h @ w1.data + b1.data) @ w2.data + b2.data
        a = 0.0
        if adapters is not None:
            p = adapters.layers[layer]
            a = np.tanh(h @ p["down_w"].data + p["down_b"].data) @ p["up_w"].data + p["up_b"].data
        h = h + f + a
    return h / np.linalg.norm(h)


class TestVisualForward:
    def test_zero_adapter_identity_bitwise(self):
        backbone = VisualBackbone(CFG)
        fresh = AdapterStack(CFG, seed=9)
        x = np.random.default_rng(0).standard_normal(CFG.d_v)
        with_adapter = backbone.forward(x, fresh).data
        without = backbone.forward(x, None).data
        assert np.array_equal(with_adapter, without)

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(1).standard_normal(CFG.d_v)
        a = VisualBackbone(CFG).forward(x).data
        b = VisualBackbone(CFG).forward(x).data
        assert np.array_equal(a, b)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(2)
        backbone = VisualBackbone(CFG)
        adapters = AdapterStack(CFG, seed=3)
        # make the adapters non-trivial, as after training
        for p in adapters.parameters():
            p.data += 0.1 * rng.standard_normal(p.data.shape)
        x = rng.standard_normal(CFG.d_v)
        got = backbone.forward(x, adapters).data
        want = _independent_visual(backbone, adapters, x)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert abs(np.linalg.norm(got) - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            VisualBackbone(CFG).forward(np.zeros(CFG.d_v + 1))

    def test_batched_rows_match_single(self):
        rng = np.random.default_rng(3)
        backbone = VisualBackbone(CFG)
        xs = rng.standard_normal((4, CFG.d_v))
        batch = backbone.forward(xs).data
        for i in range(4):
            np.testing.assert_allclose(
                batch[i], backbone.forward(xs[i]).data, atol=1e-12
            )

    def test_frozen_checksum_stable_across_forwards(self):
        backbone = VisualBackbone(CFG)
        before = backbone.checksum()
        backbone.forward(np.ones(CFG.d_v))
        assert backbone.checksum() == before


class TestTextForward:
    def _bank(self):
        return PromptBank(CFG, class_ids=[0, 1, 2, 3, 4], registry_seed=7)

    def test_deterministic(self):
        bank = self._bank()
        enc = TextEncoder(CFG)
        p = bank.new_prompt(1, seed=0)
        a = text_features(enc, bank, [2], p).data
        b = text_features(enc, bank, [2], p).data
        assert np.array_equal(a, b)

    def test_distinct_classes_distinct_outputs(self):
        bank = self._bank()
        enc = TextEncoder(CFG)
        p = bank.new_prompt(1, seed=0)
        feats = text_features(enc, bank, [0, 1, 2, 3, 4], p).data
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.allclose(feats[i], feats[j], atol=1e-6)

    def test_unit_norm(self):
        bank = self._bank()
        enc = TextEncoder(CFG)
        p = bank.new_prompt(1, seed=0)
        for c in bank.class_ids:
            out = text_features(enc, bank, [c], p).data[0]
            assert abs(np.linalg.norm(out) - 1.0) < 1e-6

    def test_repeated_task_prompt(self):
        bank = self._bank()
        p = bank.new_prompt(1, seed=0)
        with pytest.raises(ProtocolError, match="task 1 already exists") as e:
            bank.new_prompt(1, seed=0)
        assert e.value.exit_code == 2 and bank.prompts[1] is p

    def test_unknown_class(self):
        bank = self._bank()
        enc = TextEncoder(CFG)
        p = bank.new_prompt(1, seed=0)
        with pytest.raises(ValueError):
            text_features(enc, bank, [99], p)

    def test_gradient_reaches_active_prompt_only_when_unfrozen(self):
        bank = self._bank()
        enc = TextEncoder(CFG)
        p1 = bank.new_prompt(1, seed=0)
        out = T.tsum(text_features(enc, bank, [0, 1], p1))
        out.backward()
        assert np.any(p1.grad != 0.0)
        bank.freeze_task(1)
        p1.zero_grad()
        out2 = T.tsum(text_features(enc, bank, [0, 1], p1))
        assert not out2.requires_grad
        assert np.all(p1.grad == 0.0)


class TestClipLogits:
    def test_onehot_geometry(self):
        f = np.array([1.0, 0.0, 0.0])
        feats = np.eye(3)
        logits = clip_logits(f, feats, 1.0).data
        np.testing.assert_allclose(logits, [1.0, 0.0, 0.0], atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal(8)
        feats = rng.standard_normal((3, 8))
        base = clip_logits(f, feats, 0.5).data
        np.testing.assert_allclose(clip_logits(10.0 * f, feats, 0.5).data, base, atol=1e-12)
        scaled = feats.copy()
        scaled[1] *= 7.5  # rescale a single feature
        np.testing.assert_allclose(clip_logits(f, scaled, 0.5).data, base, atol=1e-12)

    def test_matches_independent_cosines(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(6)
        feats = rng.standard_normal((3, 6))
        tau = 0.07
        got = clip_logits(f, feats, tau).data
        want = np.array(
            [
                float(np.dot(f, r) / (np.linalg.norm(f) * np.linalg.norm(r))) / tau
                for r in feats
            ]
        )
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_empty_class_set(self):
        with pytest.raises(ValueError):
            clip_logits(np.ones(4), np.zeros((0, 4)), 1.0)
