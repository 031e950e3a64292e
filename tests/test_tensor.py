"""Kernel contract tests: frozen oracle values, properties, gradient checks."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seca.tensor as T
from seca.errors import ConfigError, NumericsError

# Frozen oracle values, each computed once by an independent direct formula
# at 64-bit (see the generating expressions in the comments).

# (v - mean(v)) / sqrt(popvar(v) + 1e-5) evaluated directly for [2,0,0,0]
LAYERNORM_2000 = [
    1.7320392606789625,
    -0.5773464202263208,
    -0.5773464202263208,
    -0.5773464202263208,
]

# exp([0.05, 0]) / sum(exp([0.05, 0]))
SOFTMAX_1_0_TAU20 = [0.5124973964842103, 0.4875026035157896]

# independent term-by-term summation of sum_i t_i (ln(t_i + 1e-8) - ln(s_i + 1e-8))
KL_TEACHER = [
    0.27985412820574934,
    0.0975568530640164,
    0.37340892234407475,
    0.12182859252073974,
    0.12735150386541977,
]
KL_STUDENT = [
    0.054810856585883055,
    0.03987012759832703,
    0.11111401698971224,
    0.44985287357366116,
    0.34435212525241654,
]
KL_VALUE = 0.7103549667614046


class TestLayernorm:
    def test_constant_vector_maps_to_zero(self):
        out = T.layernorm(T.Tensor([1.0, 1.0, 1.0, 1.0]))
        assert np.allclose(out.data, 0.0)

    def test_already_normalized(self):
        out = T.layernorm(T.Tensor([1.0, -1.0]))
        assert np.allclose(out.data, [1.0, -1.0], atol=1e-5)

    def test_frozen_oracle(self):
        out = T.layernorm(T.Tensor([2.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, LAYERNORM_2000, rtol=0, atol=1e-15)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            T.layernorm(T.Tensor([1.0]))

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100),
            min_size=2,
            max_size=64,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_mean_and_variance(self, vals):
        arr = np.asarray(vals, dtype=np.float64)
        out = T.layernorm(T.Tensor(arr)).data
        assert abs(out.mean()) < 1e-9
        v = arr.var()
        if v > 1e-6:
            # epsilon shrinks the output variance to v / (v + eps)
            expect = v / (v + T.LAYERNORM_EPS)
            assert abs(out.var() - expect) < 1e-9

    def test_rows_normalized_independently(self):
        rows = np.array([[2.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        out = T.layernorm(T.Tensor(rows)).data
        np.testing.assert_allclose(out[0], LAYERNORM_2000, atol=1e-15)
        assert np.allclose(out[1], 0.0)


class TestSoftmaxTemp:
    def test_uniform(self):
        for tau in (0.01, 1.0, 20.0):
            out = T.softmax_temp(T.Tensor([0.0, 0.0, 0.0]), tau)
            np.testing.assert_allclose(out.data, 1.0 / 3.0, rtol=1e-15)

    def test_analytic_two_to_one(self):
        out = T.softmax_temp(T.Tensor([math.log(2.0), 0.0]), 1.0)
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], rtol=1e-12)

    def test_frozen_oracle_tau20(self):
        out = T.softmax_temp(T.Tensor([1.0, 0.0]), 20.0)
        np.testing.assert_allclose(out.data, SOFTMAX_1_0_TAU20, rtol=0, atol=1e-15)

    def test_nonpositive_tau_rejected(self):
        for tau in (0.0, -1.0):
            with pytest.raises(ConfigError):
                T.softmax_temp(T.Tensor([1.0, 2.0]), tau)

    @given(
        st.lists(st.floats(min_value=-200, max_value=200), min_size=1, max_size=32),
        st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, logits, tau):
        arr = np.asarray(logits, dtype=np.float64)
        out = T.softmax_temp(T.Tensor(arr), tau).data
        assert abs(out.sum() - 1.0) <= 1e-9
        assert np.all((out >= 0.0) & (out <= 1.0))
        shifted = T.softmax_temp(T.Tensor(arr + 7.25), tau).data
        np.testing.assert_allclose(out, shifted, atol=1e-12)


class TestCosine:
    def test_self_similarity(self):
        a = T.Tensor([1.0, 2.0, -3.0])
        assert T.cosine_sim(a, a).data.item() == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert T.cosine_sim(T.Tensor([1.0, 0.0]), T.Tensor([0.0, 1.0])).data.item() == 0.0

    def test_analytic(self):
        got = T.cosine_sim(T.Tensor([3.0, 4.0]), T.Tensor([4.0, 3.0])).data.item()
        assert got == pytest.approx(24 / 25, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            T.cosine_sim(T.Tensor([0.0, 0.0]), T.Tensor([1.0, 0.0]))


class TestCrossEntropy:
    def test_certain_prediction(self):
        assert T.cross_entropy(T.Tensor([0.0, 1.0]), 1).data.item() == pytest.approx(
            0.0, abs=1e-9
        )

    def test_uniform(self):
        k = 7
        p = T.Tensor(np.full(k, 1.0 / k))
        assert T.cross_entropy(p, 3).data.item() == pytest.approx(math.log(k), abs=1e-9)

    def test_analytic(self):
        got = T.cross_entropy(T.Tensor([0.7, 0.3]), 1).data.item()
        assert got == pytest.approx(-math.log(0.3), abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            T.cross_entropy(T.Tensor([0.5, 0.5]), 2)

    def test_rows_is_mean_of_vector_form(self):
        p = np.array([[0.7, 0.3], [0.2, 0.8]])
        ys = np.array([1, 0])
        got = T.cross_entropy_rows(T.Tensor(p), ys).data.item()
        want = np.mean(
            [T.cross_entropy(T.Tensor(p[i]), ys[i]).data.item() for i in range(2)]
        )
        assert got == pytest.approx(want, abs=1e-12)


class TestKL:
    def test_identical_distributions(self):
        p = T.Tensor([0.2, 0.3, 0.5])
        assert abs(T.kl_div(p, p).data.item()) < 1e-9

    def test_analytic_onehot_teacher(self):
        got = T.kl_div(T.Tensor([1.0, 0.0]), T.Tensor([0.5, 0.5])).data.item()
        assert got == pytest.approx(math.log(2.0), abs=1e-6)

    def test_frozen_random_pair(self):
        got = T.kl_div(T.Tensor(KL_TEACHER), T.Tensor(KL_STUDENT)).data.item()
        assert got == pytest.approx(KL_VALUE, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            T.kl_div(T.Tensor([1.0, 0.0]), T.Tensor([1.0, 0.0, 0.0]))

    @given(st.integers(min_value=1, max_value=1024), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_up_to_eps_slack(self, k, seed):
        rng = np.random.default_rng(seed)
        t = rng.random(k) + 1e-12
        t /= t.sum()
        s = rng.random(k) + 1e-12
        s /= s.sum()
        assert T.kl_div(T.Tensor(t), T.Tensor(s), 1e-8).data.item() >= -1e-6

    def test_teacher_receives_no_gradient(self):
        t = T.Parameter([0.4, 0.6], name="t")
        s = T.Parameter([0.5, 0.5], name="s")
        T.kl_div(t, s).backward()
        assert np.all(t.grad == 0.0)
        assert np.any(s.grad != 0.0)


class TestGradCheck:
    def test_quadratic(self):
        x = T.Parameter([1.0, 2.0], name="x")
        rep = T.grad_check(lambda: T.mul(T.tsum(T.mul(x, x)), 0.5), [x], tol=1e-9)
        np.testing.assert_allclose(x.grad, [1.0, 2.0], atol=1e-12)
        assert rep.passed

    def test_ce_of_softmax_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            logits = T.Parameter(rng.standard_normal(5), name="logits")
            y = int(rng.integers(5))
            rep = T.grad_check(
                lambda: T.cross_entropy(T.softmax_temp(logits, 0.7), y),
                [logits],
                tol=1e-6,
            )
            assert rep.passed, rep.per_param

    def test_kl_student_side_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            t = rng.random(6)
            t /= t.sum()
            logits = T.Parameter(rng.standard_normal(6), name="logits")
            rep = T.grad_check(
                lambda: T.kl_div(t, T.softmax_temp(logits, 1.3)),
                [logits],
                tol=1e-6,
            )
            assert rep.passed, rep.per_param

    def test_nonfinite_loss_is_diagnostic_failure(self):
        x = T.Parameter([1e308], name="x")
        with pytest.raises(NumericsError):
            T.grad_check(lambda: T.mul(T.tsum(T.mul(x, x)), 1e10), [x])

    def test_every_op_100_random_instances(self):
        """Composite touching every differentiable op in one scalar loss."""
        rng = np.random.default_rng(8)
        for _ in range(100):
            n, d = 3, 4
            a = T.Parameter(rng.standard_normal((n, d)), name="a")
            w = T.Parameter(rng.standard_normal((d, d)), name="w")
            v = T.Parameter(rng.standard_normal(d), name="v")
            t_probs = rng.random((n, n))
            t_probs /= t_probs.sum(axis=1, keepdims=True)
            ys = rng.integers(0, n, size=n)
            tau = float(rng.uniform(0.5, 3.0))

            def loss():
                h = T.matmul(a, w)
                h = T.tanh(T.add(h, v))
                h = T.layernorm(h)
                g = T.matmul(h, T.transpose(h))
                g = T.mul(T.add(g, T.transpose(g)), 0.5)
                sq = T.diag(g)
                dist = T.maximum0(
                    T.add(
                        T.add(T.reshape(sq, (n, 1)), T.reshape(sq, (1, n))),
                        T.mul(g, -2.0),
                    )
                )
                aff = T.exp(T.mul(dist, -0.5))
                mixed = T.matmul(T.div(aff, T.tsum(aff, axis=1, keepdims=True)), h)
                f = T.l2_normalize(mixed)
                probs = T.softmax_temp(
                    T.matmul(f, T.transpose(T.l2_normalize(a))), tau
                )
                ce = T.cross_entropy_rows(probs, ys)
                kl = T.kl_div_rows(t_probs, probs)
                picked = T.tmean(T.log(T.add(T.pick_rows(probs, ys), 1.0)))
                cols = T.stack_cols([T.tsum(probs, axis=1), T.tmean(probs, axis=1)])
                extra = T.tmean(T.mul(T.col(cols, 0), T.col(cols, 1)))
                rows2 = T.tmean(T.concat_rows([f, h]))
                return T.add(T.add(T.add(ce, kl), picked), T.add(extra, rows2))

            rep = T.grad_check(loss, [a, w, v], tol=1e-6)
            assert rep.passed, (dict(rep.per_param), tau)


def _ffn_inputs(rng, dtype=np.float64, n=3, d=4, w=6):
    return [
        T.Parameter(rng.standard_normal(shape).astype(dtype), name=name)
        for name, shape in (
            ("h", (n, d)),
            ("w1", (d, w)),
            ("b1", (w,)),
            ("w2", (w, d)),
            ("b2", (d,)),
        )
    ]


def _ffn_chain(h, w1, b1, w2, b2):
    return T.add(T.matmul(T.tanh(T.add(T.matmul(h, w1), b1)), w2), b2)


class TestFfn:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bitwise_equals_chain(self, dtype):
        # float32 inputs are converted on the way in: both compute in float64
        rng = np.random.default_rng(3)
        for _ in range(20):
            args = _ffn_inputs(rng, dtype)
            fused = T.ffn(*args)
            chain = _ffn_chain(*args)
            assert fused.data.dtype == np.float64
            assert fused.data.tobytes() == chain.data.tobytes()

    def test_backward_equals_chain(self):
        rng = np.random.default_rng(4)
        args = _ffn_inputs(rng)
        weights = rng.standard_normal((3, 4))
        grads = []
        for op in (T.ffn, _ffn_chain):
            for p in args:
                p.zero_grad()
            T.tsum(T.mul(op(*args), weights)).backward()
            grads.append([p.grad.copy() for p in args])
        for fused, chain in zip(*grads):
            np.testing.assert_array_equal(fused, chain)

    def test_grad_check_all_five_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            args = _ffn_inputs(rng)
            weights = rng.standard_normal((3, 4))
            rep = T.grad_check(
                lambda: T.tsum(T.mul(T.ffn(*args), weights)), args, tol=1e-6
            )
            assert set(rep.per_param) == {"h", "w1", "b1", "w2", "b2"}
            assert rep.passed, rep.per_param

    def test_vector_input(self):
        rng = np.random.default_rng(6)
        h, w1, b1, w2, b2 = _ffn_inputs(rng)
        v = T.Parameter(h.data[0].copy(), name="v")
        assert T.ffn(v, w1, b1, w2, b2).data.tobytes() == (
            _ffn_chain(v, w1, b1, w2, b2).data.tobytes()
        )
        rep = T.grad_check(lambda: T.tsum(T.ffn(v, w1, b1, w2, b2)), [v, w1, b2])
        assert rep.passed, rep.per_param

    def test_nonfinite_output_raises(self):
        h = T.Tensor([[1.0, 1.0]])
        w1 = T.Tensor(np.full((2, 2), 5.0))
        b = T.Tensor(np.zeros(2))
        w2 = T.Tensor(np.full((2, 2), 1e308))  # tanh(10) * 1e308 * 2 overflows
        for ctx in (T.no_grad, contextlib.nullcontext):
            with ctx(), pytest.raises(NumericsError):
                T.ffn(h, w1, b, w2, b)

    def test_nonfinite_preactivation_raises(self):
        # tanh(inf) is finite; the chain would refuse the inf before tanh
        h = T.Tensor([[1e308, 1e308]])
        w = T.Tensor(np.full((2, 2), 10.0))
        b = T.Tensor(np.zeros(2))
        with pytest.raises(NumericsError):
            _ffn_chain(h, w, b, w, b)
        with pytest.raises(NumericsError):
            T.ffn(h, w, b, w, b)


# Fused composite ops. Each reference below is the chain of kernel ops the
# fused op replaced, written out as its callers used to write it.


def _p(rng, shape, name, scale=1.0, dtype=np.float64):
    return T.Parameter((scale * rng.standard_normal(shape)).astype(dtype), name=name)


def _text_chain(table, idx, prompt, w1, b1, w2, b2):
    rows = T.take_rows(table, idx)
    m = prompt.data.shape[0]
    pooled = T.mul(T.add(rows, T.tsum(prompt, axis=0)), 1.0 / (m + 1))
    return T.l2_normalize(T.add(pooled, T.ffn(pooled, w1, b1, w2, b2)))


def _cosine_chain(a, b, tau):
    return T.mul(T.matmul(T.l2_normalize(a), T.transpose(T.l2_normalize(b))), 1.0 / tau)


def _affinity_chain(z, h, gamma):
    k = z.data.shape[0]
    a = T.matmul(z, h)
    g0 = T.matmul(a, T.transpose(a))
    g = T.mul(T.add(g0, T.transpose(g0)), 0.5)
    s = T.diag(g)
    d2 = T.add(T.add(T.reshape(s, (k, 1)), T.reshape(s, (1, k))), T.mul(g, -2.0))
    return T.exp(T.mul(T.maximum0(d2), -float(gamma)))


def _mix_chain(m, x):
    return T.matmul(T.div(m, T.tsum(m, axis=1, keepdims=True)), x)


def _relevance_chain(sem, views, rows, w_s, w_v):
    q = None
    for block in sem:
        r = T.take_rows(T.matmul(block, w_s), rows)
        q = r if q is None else T.add(q, r)
    q = T.mul(q, 1.0 / len(sem))
    return T.stack_cols([T.tsum(T.mul(q, T.matmul(v, w_v)), axis=1) for v in views])


def _blend_chain(views, weights):
    out = None
    for p, v in enumerate(views):
        term = T.mul(v, T.col(weights, p))
        out = term if out is None else T.add(out, term)
    return out


def _tower_chain(x, blocks, adapters):
    h = x
    for i, blk in enumerate(blocks):
        f = T.ffn(h, *blk)
        h = T.add(T.add(h, f), T.ffn(h, *adapters[i])) if adapters else T.add(h, f)
    return T.l2_normalize(h)


def _tower_inputs(rng, dtype=np.float64, with_adapters=True, x_shape=(3, 4)):
    d, w = x_shape[-1], 5
    x = _p(rng, x_shape, "x", dtype=dtype)
    blocks = [tuple(T.Tensor((0.5 * rng.standard_normal(sh)).astype(dtype))
                    for sh in ((d, 2 * d), (2 * d,), (2 * d, d), (d,)))
              for _ in range(2)]
    adapters = None
    if with_adapters:
        adapters = [tuple(_p(rng, sh, f"a{i}.{j}", 0.5, dtype)
                          for j, sh in enumerate(((d, w), (w,), (w, d), (d,))))
                    for i in range(2)]
    params = [x] + ([t for a in adapters for t in a] if adapters else [])
    return x, blocks, adapters, params


# name -> builder(rng, dtype) returning (fused thunk, chain thunk, parameters)
def _case_text(rng, dtype):
    table = T.Tensor(rng.standard_normal((5, 4)).astype(dtype))
    idx = np.array([3, 0, 4, 3])
    prompt = _p(rng, (2, 4), "prompt", 0.3, dtype)
    w = [T.Tensor((0.5 * rng.standard_normal(sh)).astype(dtype))
         for sh in ((4, 6), (6,), (6, 4), (4,))]
    return (lambda: T.text_embed(table.data[idx], prompt, *w),
            lambda: _text_chain(table, idx, prompt, *w), [prompt])


def _case_cosine(rng, dtype):
    a, b = _p(rng, (3, 4), "a", dtype=dtype), _p(rng, (5, 4), "b", dtype=dtype)
    return (lambda: T.cosine_logits(a, b, 0.7), lambda: _cosine_chain(a, b, 0.7),
            [a, b])


def _case_cosine_vector(rng, dtype):
    a, b = _p(rng, (4,), "a", dtype=dtype), _p(rng, (5, 4), "b", dtype=dtype)
    return (lambda: T.cosine_logits(a, b, 2.0), lambda: _cosine_chain(a, b, 2.0),
            [a, b])


def _case_affinity(rng, dtype):
    z, h = _p(rng, (5, 4), "z", dtype=dtype), _p(rng, (4, 4), "h", 0.5, dtype)
    return (lambda: T.rbf_affinity(z, h, 1.3), lambda: _affinity_chain(z, h, 1.3),
            [z, h])


def _case_mix(rng, dtype):
    m = T.Parameter(rng.uniform(0.1, 1.0, (4, 4)).astype(dtype), name="m")
    x = _p(rng, (4, 3), "x", dtype=dtype)
    return lambda: T.mix_rows(m, x), lambda: _mix_chain(m, x), [m, x]


def _case_relevance(rng, dtype):
    sem = [_p(rng, (3, 4), f"sem{k}", dtype=dtype) for k in range(3)]
    views = [_p(rng, (5, 4), f"view{p}", dtype=dtype) for p in range(3)]
    w_s, w_v = _p(rng, (4, 6), "w_s", dtype=dtype), _p(rng, (4, 6), "w_v", dtype=dtype)
    rows = np.array([0, 2, 1, 2, 0])
    return (lambda: T.relevance(sem, views, rows, w_s, w_v),
            lambda: _relevance_chain(sem, views, rows, w_s, w_v),
            sem + views + [w_s, w_v])


def _case_blend(rng, dtype):
    views = [_p(rng, (4, 3), f"view{p}", dtype=dtype) for p in range(3)]
    weights = T.Parameter(rng.uniform(0.0, 1.0, (4, 3)).astype(dtype), name="weights")
    return (lambda: T.blend(views, weights), lambda: _blend_chain(views, weights),
            views + [weights])


def _case_tower(rng, dtype):
    x, blocks, adapters, params = _tower_inputs(rng, dtype)
    return (lambda: T.residual_tower(x, blocks, adapters),
            lambda: _tower_chain(x, blocks, adapters), params)


def _case_tower_plain(rng, dtype):
    x, blocks, _, params = _tower_inputs(rng, dtype, with_adapters=False)
    return (lambda: T.residual_tower(x, blocks),
            lambda: _tower_chain(x, blocks, None), params)


def _case_tower_vector(rng, dtype):
    x, blocks, adapters, params = _tower_inputs(rng, dtype, x_shape=(4,))
    return (lambda: T.residual_tower(x, blocks, adapters),
            lambda: _tower_chain(x, blocks, adapters), params)


FUSED_CASES = {
    "text_embed": _case_text,
    "cosine_logits": _case_cosine,
    "cosine_logits_vector": _case_cosine_vector,
    "rbf_affinity": _case_affinity,
    "mix_rows": _case_mix,
    "relevance": _case_relevance,
    "blend": _case_blend,
    "residual_tower": _case_tower,
    "residual_tower_plain": _case_tower_plain,
    "residual_tower_vector": _case_tower_vector,
}


def _weighted(out, w):
    return T.tsum(T.mul(out, w))


class TestFusedOps:
    @pytest.mark.parametrize("name", sorted(FUSED_CASES))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bitwise_equals_chain(self, name, dtype):
        # float32 inputs are converted on the way in: both compute in float64
        rng = np.random.default_rng(21)
        for _ in range(10):
            fused, chain, _ = FUSED_CASES[name](rng, dtype)
            a, b = fused(), chain()
            assert a.data.dtype == b.data.dtype == np.float64
            assert a.data.shape == b.data.shape
            assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("name", sorted(FUSED_CASES))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_bitwise_equals_chain(self, name, dtype):
        rng = np.random.default_rng(22)
        for _ in range(10):
            fused, chain, params = FUSED_CASES[name](rng, dtype)
            w = rng.standard_normal(fused().data.shape).astype(dtype)
            grads = []
            for op in (fused, chain):
                for p in params:
                    p.zero_grad()
                _weighted(op(), w).backward()
                grads.append([p.grad.copy() for p in params])
            for p, got, want in zip(params, *grads):
                assert got.tobytes() == want.tobytes(), p.name

    @pytest.mark.parametrize("name", sorted(FUSED_CASES))
    def test_grad_check(self, name):
        rng = np.random.default_rng(23)
        for _ in range(5):
            fused, _, params = FUSED_CASES[name](rng, np.float64)
            w = rng.standard_normal(fused().data.shape)
            rep = T.grad_check(lambda: _weighted(fused(), w), params, tol=1e-6)
            assert set(rep.per_param) == {p.name for p in params}
            assert rep.passed, rep.per_param

    @pytest.mark.parametrize("name", sorted(FUSED_CASES))
    def test_no_grad_output_has_no_parents(self, name):
        fused, _, _ = FUSED_CASES[name](np.random.default_rng(24), np.float64)
        graph = fused()
        with T.no_grad():
            plain = fused()
        assert graph.requires_grad and graph._parents
        assert not plain.requires_grad
        assert plain._parents == () and plain._backward is None
        assert plain.data.tobytes() == graph.data.tobytes()

    def test_frozen_inputs_get_no_gradient(self):
        rng = np.random.default_rng(25)
        x, blocks, adapters, _ = _tower_inputs(rng)
        frozen = [tuple(T.Tensor(t.data) for t in a) for a in adapters]
        out = T.residual_tower(T.Tensor(x.data), blocks, frozen)
        assert not out.requires_grad and out._backward is None
        out = T.residual_tower(x, blocks, frozen)
        assert out._parents[0] is x
        grads = out._backward(np.ones_like(out.data))
        assert grads[0] is not None and all(g is None for g in grads[1:])

    def test_trainable_weights_refused_where_frozen(self):
        rng = np.random.default_rng(26)
        x, blocks, _, _ = _tower_inputs(rng, with_adapters=False)
        blocks[0] = (_p(rng, (4, 8), "w1"),) + blocks[0][1:]
        with pytest.raises(ValueError):
            T.residual_tower(x, blocks)
        prompt = _p(rng, (2, 4), "prompt")
        w1 = _p(rng, (4, 6), "w1")
        w = [T.Tensor(rng.standard_normal(sh)) for sh in ((6,), (6, 4), (4,))]
        with pytest.raises(ValueError):
            T.text_embed(np.ones((2, 4)), prompt, w1, *w)

    def test_zero_norm_raises_value_error(self):
        blocks = [tuple(T.Tensor(np.zeros(sh)) for sh in ((2, 2), (2,), (2, 2), (2,)))]
        for ctx in (T.no_grad, contextlib.nullcontext):
            with ctx():
                with pytest.raises(ValueError):
                    T.residual_tower(T.Tensor(np.zeros((1, 2))), blocks)
                with pytest.raises(ValueError):
                    T.cosine_logits(np.zeros((1, 2)), np.ones((2, 2)), 1.0)


def _big(shape, value=1e308):
    return np.full(shape, value)


# name -> builder(parameter or plain tensor factory) returning (fused, chain)
# thunks that both meet a non-finite intermediate
NONFINITE_CASES = {
    # the prompt rows sum to inf
    "text_embed_prompt_sum": lambda mk: (
        lambda: T.text_embed(np.ones((2, 2)), mk(_big((2, 2))), *_small_ffn()),
        lambda: _text_chain(T.Tensor(np.ones((2, 2))), [0, 1], mk(_big((2, 2))),
                            *_small_ffn())),
    # as above with no token rows: only the prompt sum sees it
    "text_embed_empty_tokens": lambda mk: (
        lambda: T.text_embed(np.ones((0, 2)), mk(_big((2, 2))), *_small_ffn()),
        lambda: _text_chain(T.Tensor(np.ones((1, 2))), np.zeros(0, dtype=int),
                            mk(_big((2, 2))), *_small_ffn())),
    # the ffn output overflows: only the residual sum sees it
    "text_embed_residual": lambda mk: (
        lambda: T.text_embed(np.ones((1, 2)), mk(np.ones((2, 2))), *_small_ffn(1.0, 1e308)),
        lambda: _text_chain(T.Tensor(np.ones((1, 2))), [0], mk(np.ones((2, 2))),
                            *_small_ffn(1.0, 1e308))),
    # tanh would turn an overflowed pre-activation into a finite value
    "text_embed_preactivation": lambda mk: (
        lambda: T.text_embed(np.ones((1, 2)), mk(_big((2, 2), 1e300)), *_small_ffn(1e10)),
        lambda: _text_chain(T.Tensor(np.ones((1, 2))), [0], mk(_big((2, 2), 1e300)),
                            *_small_ffn(1e10))),
    # 1 / tau overflows
    "cosine_logits_scale": lambda mk: (
        lambda: T.cosine_logits(mk(np.ones((2, 2))), np.eye(2), 1e-320),
        lambda: _cosine_chain(mk(np.ones((2, 2))), T.Tensor(np.eye(2)), 1e-320)),
    # the exponent overflows to -inf, which exp would turn into 0
    "rbf_affinity_exponent": lambda mk: (
        lambda: T.rbf_affinity(mk(np.eye(2)), np.eye(2), 1e308),
        lambda: _affinity_chain(mk(np.eye(2)), T.Tensor(np.eye(2)), 1e308)),
    # the Gram matrix overflows; the clamp at zero would hide the -inf
    "rbf_affinity_gram": lambda mk: (
        lambda: T.rbf_affinity(mk(np.array([[1e200, 0.0], [0.0, 1.0]])), np.eye(2), 1.0),
        lambda: _affinity_chain(mk(np.array([[1e200, 0.0], [0.0, 1.0]])),
                                T.Tensor(np.eye(2)), 1.0)),
    # an infinite row sum would give finite zero weights
    "mix_rows_row_sum": lambda mk: (
        lambda: T.mix_rows(mk(np.array([[1e308, 1e308], [1.0, 1.0]])), np.eye(2)),
        lambda: _mix_chain(mk(np.array([[1e308, 1e308], [1.0, 1.0]])), T.Tensor(np.eye(2)))),
    # the overflowing projected row is not among the rows taken
    "relevance_unselected_row": lambda mk: (
        lambda: T.relevance([mk(np.array([[1.0, 1.0], [1e308, 1e308]]))], [np.ones((1, 2))],
                            [0], np.full((2, 2), 10.0), np.eye(2)),
        lambda: _relevance_chain([mk(np.array([[1.0, 1.0], [1e308, 1e308]]))],
                                 [T.Tensor(np.ones((1, 2)))], [0],
                                 T.Tensor(np.full((2, 2), 10.0)), T.Tensor(np.eye(2)))),
    "blend_sum": lambda mk: (
        lambda: T.blend([mk(_big((1, 2))), mk(_big((1, 2)))], np.ones((1, 2))),
        lambda: _blend_chain([mk(_big((1, 2))), mk(_big((1, 2)))], T.Tensor(np.ones((1, 2))))),
    "residual_tower_preactivation": lambda mk: (
        lambda: T.residual_tower(mk(_big((1, 2), 1e300)), [_small_ffn(1e10)]),
        lambda: _tower_chain(mk(_big((1, 2), 1e300)), [_small_ffn(1e10)], None)),
    # an adapter output overflows: only the layer's sum sees it
    "residual_tower_adapter": lambda mk: (
        lambda: T.residual_tower(np.ones((1, 2)), [_small_ffn()], [_adapter(mk)]),
        lambda: _tower_chain(T.Tensor(np.ones((1, 2))), [_small_ffn()], [_adapter(mk)])),
}


def _small_ffn(scale=1.0, out_scale=None):
    w2 = np.eye(2) if out_scale is None else np.full((2, 2), out_scale)
    return (T.Tensor(np.full((2, 2), scale)), T.Tensor(np.zeros(2)),
            T.Tensor(w2), T.Tensor(np.zeros(2)))


def _adapter(mk):
    # tanh(10) * 1e308 summed over two rows overflows
    return (mk(10.0 * np.eye(2)), mk(np.zeros(2)), mk(_big((2, 2))), mk(np.zeros(2)))


class TestFusedNonFinite:
    @pytest.mark.parametrize("name", sorted(NONFINITE_CASES))
    @pytest.mark.parametrize("ctx", [T.no_grad, contextlib.nullcontext])
    @pytest.mark.parametrize("trainable", [False, True])
    def test_raises_where_chain_raises(self, name, ctx, trainable):
        def mk(a):
            return T.Parameter(a, name="p") if trainable else T.Tensor(a)

        fused, chain = NONFINITE_CASES[name](mk)
        with ctx():
            with pytest.raises(NumericsError):
                chain()
            with pytest.raises(NumericsError):
                fused()


class TestPlumbing:
    def test_nan_raises(self):
        with pytest.raises(NumericsError):
            T.Tensor([np.nan])
        with pytest.raises(NumericsError):
            T.log(T.Tensor([0.0]))  # -inf

    def test_no_grad_blocks_graph(self):
        p = T.Parameter([1.0, 2.0], name="p")
        with T.no_grad():
            out = T.tsum(T.mul(p, p))
        assert not out.requires_grad

    def test_nan_raises_under_no_grad(self):
        with T.no_grad(), pytest.raises(NumericsError):
            T.log(T.Tensor([0.0]))  # -inf

    @pytest.mark.parametrize("ctx", [T.no_grad, contextlib.nullcontext])
    @pytest.mark.parametrize(
        "op", [lambda x: T.mul(x, float("nan")), lambda x: T.div(x, float("inf")),
               lambda x: T.add(float("-inf"), x)],
    )
    def test_nonfinite_scalar_operand_raises(self, ctx, op):
        x = T.Parameter([1.0, 2.0], name="x")
        with ctx(), pytest.raises(NumericsError):
            op(x)

    def test_no_grad_outputs_match_graph_outputs(self):
        rng = np.random.default_rng(8)
        a = T.Parameter(rng.standard_normal((3, 4)), name="a")
        w = T.Parameter(rng.standard_normal((4, 4)), name="w")

        def chain():
            h = T.ffn(a, w, T.Tensor(np.zeros(4)), w, 0.5 * a.data[0])
            return [h, T.mul(h, 2.0), T.div(1.0, T.add(T.exp(h), 1.0)),
                    T.softmax_temp(h, 0.7)]

        graph = chain()
        with T.no_grad():
            plain = chain()
        for g, p in zip(graph, plain):
            assert g.requires_grad and g._parents
            assert not p.requires_grad
            assert p._parents == () and p._backward is None
            assert p.data.tobytes() == g.data.tobytes()

    def test_finite_array_with_overflowing_sum_accepted(self):
        with np.errstate(over="ignore"):
            assert T.Tensor([1e308, 1e308]).data[0] == 1e308

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_raises(self, bad):
        with np.errstate(invalid="ignore"):
            for vals in ([bad], [1.0, bad, 2.0], [np.inf, -np.inf, bad]):
                with pytest.raises(NumericsError):
                    T.Tensor(vals)

    def test_first_gradient_is_a_fresh_positive_zero_buffer(self):
        a = T.Tensor(np.ones(3), requires_grad=True)
        b = T.Tensor(np.ones(3), requires_grad=True)
        # add hands one gradient array to both parents
        T.tsum(T.mul(T.add(a, b), np.array([-0.0, 1.0, -0.0]))).backward()
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        assert a.grad.tobytes() == np.array([0.0, 1.0, 0.0]).tobytes()

    def test_float32_and_int_inputs_compute_in_float64(self):
        def ops(x):
            return T.softmax_temp(T.mul(T.add(x, 1.0), 0.5), 2.0)

        for arr in (np.linspace(0.1, 0.4, 4, dtype=np.float32), np.arange(4)):
            want = ops(arr.astype(np.float64)).data.tobytes()
            for leaf in (T.Tensor(arr), T.Parameter(arr, name="p")):
                assert leaf.data.dtype == np.float64
                assert ops(leaf).data.tobytes() == want
        # the KL ops' teacher is the one operand that bypasses Tensor
        t32 = np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3]], dtype=np.float32)
        s = T.softmax_temp(T.Tensor([[0.1, 0.2, 0.3], [0.3, 0.1, 0.2]]), 1.0)
        for kl, t, student in ((T.kl_div_rows, t32, s), (T.kl_div, t32[0], s.data[0])):
            want = kl(t.astype(np.float64), student).data.tobytes()
            assert kl(t, student).data.tobytes() == want

    def test_gradient_accumulates_on_reuse(self):
        x = T.Parameter([3.0], name="x")
        y = T.add(T.mul(x, x), T.mul(x, 2.0))  # x^2 + 2x
        T.tsum(y).backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_checksum_sensitivity(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        base = T.checksum([a])
        assert base == T.checksum([a.copy()])
        b = a.copy()
        b[0, 0] += 1e-12
        assert base != T.checksum([b])
        assert base != T.checksum([a.astype(np.float32)])
