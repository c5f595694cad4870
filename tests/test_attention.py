import numpy as np
import pytest

from speechmotion import (
    AttentionProjections,
    AudioInput,
    DegenerateRowError,
    Var,
    encode,
    head_slopes,
    mh_attention,
)
from speechmotion import autodiff as ad
from speechmotion.attention import KeyValues
from speechmotion.decoder import layer_caches
from speechmotion.positional import BiasMatrix, alignment_bias

from reference import attention_oracle, biased_attention, temporal_bias


def _random_bias(r, t, s):
    """Either kind of bias with every row keeping at least one finite entry."""
    if r.random() < 0.5 and t <= s:
        data = np.where(r.random((t, s)) < 0.3, -np.inf, 0.0)
        np.fill_diagonal(data, 0.0)
        return BiasMatrix(data, "alignment")
    data = np.where(r.random((t, s)) < 0.3, -np.inf, r.normal(size=(t, s)))
    data[:, 0] = 0.0
    return BiasMatrix(data, "temporal")


class TestBiasedAttention:
    def test_zero_queries_give_uniform_mean(self, rng):
        s, d = 5, 3
        v = rng.normal(size=(s, d))
        out, weights = biased_attention(
            np.zeros((2, d)), np.zeros((s, d)), v, bias=None
        )
        assert np.allclose(weights.data, 1.0 / s, atol=1e-15)
        assert np.allclose(out.data, np.repeat(v.mean(axis=0, keepdims=True), 2, 0), atol=1e-12)

    def test_single_key_returns_value_row(self, rng):
        v = rng.normal(size=(1, 4))
        out, _ = biased_attention(rng.normal(size=(3, 2)), rng.normal(size=(1, 2)), v, None)
        assert np.allclose(out.data, np.repeat(v, 3, axis=0), atol=1e-12)

    def test_matches_loop_oracle(self, rng):
        q, k, v = (rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5, 4)))
        bias = _random_bias(rng, 3, 5)
        out, _ = biased_attention(q, k, v, bias)
        assert np.abs(out.data - attention_oracle(q, k, v, bias)).max() < 1e-12

    def test_fully_masked_row_raises(self, rng):
        bias = BiasMatrix(np.full((2, 3), -np.inf), "temporal")
        with pytest.raises(DegenerateRowError):
            biased_attention(rng.normal(size=(2, 2)), rng.normal(size=(3, 2)),
                             rng.normal(size=(3, 2)), bias)

    def test_weight_rows_stochastic(self, rng):
        _, weights = biased_attention(
            rng.normal(size=(4, 3)), rng.normal(size=(6, 3)),
            rng.normal(size=(6, 2)), _random_bias(rng, 4, 6),
        )
        w = weights.data
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)
        assert ((w >= 0) & (w <= 1)).all()


def _proj(rng, d, heads=2):
    return AttentionProjections(
        wq=Var(rng.normal(size=(d, d))), wk=Var(rng.normal(size=(d, d))),
        wv=Var(rng.normal(size=(d, d))), wo=Var(rng.normal(size=(d, d))),
    )


def _kv(proj, x, heads):
    """The keys and values of every row of x, as attention reads them."""
    k, v = proj.keys_values(x)
    return KeyValues.of(k.data, v.data, heads)


class TestMhAttention:
    def test_single_head_equals_plain_attention(self, rng):
        d = 4
        proj = _proj(rng, d)
        x = rng.normal(size=(3, d))
        base = temporal_bias(3, 2, 1.0)
        out, _, _ = mh_attention(Var(x), _kv(proj, x, 1), proj, 1, base.scaled(head_slopes(1)))
        q = x @ proj.wq.data
        k = x @ proj.wk.data
        v = x @ proj.wv.data
        plain, _ = biased_attention(q, k, v, base.scaled(head_slopes(1)[0]))
        assert np.allclose(out, plain.data @ proj.wo.data, atol=1e-12)

    def test_output_shape(self, rng):
        d = 8
        x_q, x_kv = rng.normal(size=(5, d)), rng.normal(size=(7, d))
        proj = _proj(rng, d)
        out, _, _ = mh_attention(Var(x_q), _kv(proj, x_kv, 2), proj, 2, None)
        assert out.shape == (5, d)

    def test_single_token_is_identity_weight_pass(self, rng):
        # one key: every head's softmax is exactly [[1.0]], so the block
        # reduces to the value path x @ wv @ wo
        d = 4
        proj = _proj(rng, d)
        x = rng.normal(size=(1, d))
        bias = temporal_bias(1, 3, 1.0)
        out, weights, _ = mh_attention(
            Var(x), _kv(proj, x, 2), proj, 2, bias.scaled(head_slopes(2))
        )
        assert np.array_equal(weights, np.ones((2, 1, 1)))
        assert np.allclose(out, x @ proj.wv.data @ proj.wo.data, atol=1e-12)

    def test_per_head_weights_match_oracle_with_slopes(self, rng):
        d, heads, t = 8, 2, 4
        assert head_slopes(2) == [2.0**-4, 2.0**-8]
        proj = _proj(rng, d)
        x = rng.normal(size=(t, d))
        base = temporal_bias(t, 3, 1.0)
        out, weights, _ = mh_attention(
            Var(x), _kv(proj, x, heads), proj, heads, base.scaled(head_slopes(2))
        )
        q, k, v = x @ proj.wq.data, x @ proj.wk.data, x @ proj.wv.data
        dk = d // heads
        head_outs = []
        for h, slope in enumerate(head_slopes(2)):
            cols = slice(h * dk, (h + 1) * dk)
            scaled = BiasMatrix(base.data * slope, "temporal")
            expect = attention_oracle(q[:, cols], k[:, cols], v[:, cols], scaled)
            head_outs.append(expect)
            assert np.allclose(weights[h].sum(axis=1), 1.0, atol=1e-9)
        joined = np.concatenate(head_outs, axis=1) @ proj.wo.data
        assert np.abs(out - joined).max() < 1e-10

    def test_alignment_bias_shared_across_heads(self, rng):
        d, t = 4, 3
        bias = alignment_bias(t, t, 2)
        x_q = rng.normal(size=(t, d))
        x_kv = rng.normal(size=(2 * t, d))
        proj = _proj(rng, d)
        _, weights, _ = mh_attention(Var(x_q), _kv(proj, x_kv, 2), proj, 2, bias)
        for w in weights:
            assert np.array_equal(w != 0.0, np.isfinite(bias.data))


class TestKeyValues:
    @pytest.mark.parametrize("start, stop", [(0, 1), (0, 5), (2, 4), (4, 5)])
    def test_windows_are_views_and_gradients_cover_their_rows(
        self, tiny_cfg, tiny_params, rng, start, stop
    ):
        # a decoder step's self and cross windows read the cache's buffers
        # without a copy, and attention_vjp gives exactly their rows
        cfg, frames = tiny_cfg, 5
        feats = rng.normal(size=(cfg.frame_ratio * frames, cfg.feature_dim))
        enc = encode(AudioInput.from_features(feats, cfg.feature_rate), frames, tiny_params, cfg)
        (cache,) = layer_caches(enc, frames, tiny_params, cfg)
        cache.keys[:] = rng.normal(size=cache.keys.shape)
        cache.values[:] = rng.normal(size=cache.values.shape)
        x = Var(rng.normal(size=(1, cfg.dim)))
        for kv, (k, v), proj in (
            (cache.own, (cache.keys, cache.values), cache.self_proj),
            (cache.audio, (a.data for a in cache.audio_kv), cache.cross_proj),
        ):
            window = kv.window(start, stop)
            assert window.rows == stop - start
            assert np.shares_memory(window.kt, k) and np.shares_memory(window.vh, v)
            out, weights, saved = mh_attention(x, window, proj, cfg.heads, None)
            assert weights.shape == (cfg.heads, 1, stop - start)
            _, _, dk, dv, _ = ad.attention_vjp(saved, rng.normal(size=out.shape))
            assert dk.shape == dv.shape == (stop - start, cfg.dim)


class TestCausalityAndLocality:
    def test_causal_outputs_ignore_future(self, rng):
        t, d = 5, 3
        q = rng.normal(size=(t, d))
        k = rng.normal(size=(t, d))
        v = rng.normal(size=(t, d))
        bias = temporal_bias(t, 2, 0.5)
        base, _ = biased_attention(q, k, v, bias)
        k2, v2 = k.copy(), v.copy()
        k2[4] += rng.normal(size=d)
        v2[4] -= rng.normal(size=d)
        changed, _ = biased_attention(q, k2, v2, bias)
        assert np.array_equal(base.data[:4], changed.data[:4])
        assert not np.allclose(base.data[4], changed.data[4])

    def test_alignment_outputs_local_to_window(self, rng):
        t, k_ratio, d = 3, 2, 4
        bias = alignment_bias(t, t, k_ratio)
        q = rng.normal(size=(t, d))
        keys = rng.normal(size=(k_ratio * t, d))
        vals = rng.normal(size=(k_ratio * t, d))
        base, _ = biased_attention(q, keys, vals, bias)
        for i in range(t):
            keys2, vals2 = keys.copy(), vals.copy()
            outside = [j for j in range(k_ratio * t) if not (k_ratio * i <= j < k_ratio * (i + 1))]
            keys2[outside] += 1.0
            vals2[outside] -= 2.0
            changed, _ = biased_attention(q, keys2, vals2, bias)
            assert np.array_equal(base.data[i], changed.data[i])

    def test_bias_row_shift_leaves_weights(self, rng):
        t, s = 4, 4
        bias = temporal_bias(t, 2, 0.3)
        q, k, v = (rng.normal(size=(t, 3)) for _ in range(3))
        _, w1 = biased_attention(q, k, v, bias)
        shifted = bias.data.copy()
        shifted[np.isfinite(shifted)] += 5.0
        _, w2 = biased_attention(q, k, v, BiasMatrix(shifted, "temporal"))
        assert np.allclose(w1.data, w2.data, atol=1e-12)


class TestOracle:
    def test_agreement_sweep(self):
        worst = 0.0
        for seed in range(100):
            r = np.random.Generator(np.random.PCG64(seed))
            t, s, d = int(r.integers(1, 7)), int(r.integers(1, 7)), int(r.integers(1, 9))
            q, k, v = r.normal(size=(t, d)), r.normal(size=(s, d)), r.normal(size=(s, d))
            bias = _random_bias(r, t, s) if r.random() < 0.7 else None
            out, _ = biased_attention(q, k, v, bias)
            worst = max(worst, np.abs(out.data - attention_oracle(q, k, v, bias)).max())
        assert worst < 1e-10

    def test_uniform_case(self):
        out = attention_oracle(np.zeros((2, 3)), np.zeros((4, 3)), np.eye(4), None)
        assert np.allclose(out, 0.25, atol=1e-15)

    def test_masked_column_gets_zero_weight(self, rng):
        t, s, d = 2, 3, 2
        bias = BiasMatrix(np.array([[0.0, 0.0, -np.inf]] * 2), "alignment")
        v = np.zeros((s, 1))
        v[2, 0] = 100.0
        out = attention_oracle(rng.normal(size=(t, d)), rng.normal(size=(s, d)), v, bias)
        assert np.array_equal(out, np.zeros((2, 1)))
