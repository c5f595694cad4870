import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechmotion import (
    AudioInput,
    DegenerateRowError,
    GradientError,
    ModelConfig,
    ShapeError,
    Tape,
    TrainingSample,
    Var,
    backward,
    init_params,
    profile,
)
from speechmotion import autodiff as ad
from speechmotion import decoder
from speechmotion.positional import alignment_bias, head_slopes
from speechmotion.training import rollout_loss

from conftest import finite_diff, rel_err
import reference
from reference import (
    add, add_norm, attention, concat_rows, feed_forward, gather_patches, layer_norm, mul, relu,
    softmax_rows, sub, sum_all, temporal_bias, write_row,
)


def grad(loss, wrt):
    """The gradient of a scalar taped value for one variable."""
    return backward(loss, {"_": wrt})["_"]


class TestMatmul:
    def test_identity(self, rng):
        m = rng.normal(size=(3, 5))
        out = ad.matmul(np.eye(3), m)
        assert np.array_equal(out.data, m)

    def test_hand_arithmetic(self):
        out = ad.matmul([[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0]])
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self, rng):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))

    def test_gradient_matches_finite_differences(self, rng):
        a = Var(rng.normal(size=(4, 5)))
        b = Var(rng.normal(size=(5, 3)))
        with Tape():
            loss = sum_all(ad.matmul(a, b))
            ga = grad(loss, a)
        with Tape():
            gb = grad(sum_all(ad.matmul(a, b)), b)
        fa = finite_diff(lambda: sum_all(ad.matmul(a, b)).item(), a.data)
        fb = finite_diff(lambda: sum_all(ad.matmul(a, b)).item(), b.data)
        assert rel_err(ga, fa) < 1e-6
        assert rel_err(gb, fb) < 1e-6

    def test_associative_with_identity(self, rng):
        a, b, c = (rng.normal(size=(4, 4)) for _ in range(3))
        left = ad.matmul(ad.matmul(a, b), c).data
        right = ad.matmul(a, ad.matmul(b, c)).data
        assert np.allclose(left, right, atol=1e-12, rtol=0)


class TestSoftmaxRows:
    def test_uniform(self):
        out = softmax_rows([[0.0, 0.0, 0.0]])
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_full_mask_entry(self):
        out = softmax_rows([[0.0, -np.inf]])
        assert np.array_equal(out.data, [[1.0, 0.0]])

    def test_matches_direct_evaluation(self):
        out = softmax_rows([[1.0, 2.0, 3.0]])
        denom = math.exp(1.0) + math.exp(2.0) + math.exp(3.0)
        expect = [[math.exp(x) / denom for x in (1.0, 2.0, 3.0)]]
        assert np.allclose(out.data, expect, atol=1e-12, rtol=0)

    def test_all_masked_row_raises(self):
        with pytest.raises(DegenerateRowError, match="row 1"):
            softmax_rows([[0.0, 1.0], [-np.inf, -np.inf]])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rows_sum_to_one_and_shift_invariant(self, seed):
        r = np.random.Generator(np.random.PCG64(seed))
        x = r.normal(size=(3, 5)) * 3.0
        mask = r.random((3, 5)) < 0.3
        mask[:, 0] = False  # keep one finite entry per row
        x[mask] = -np.inf
        y = softmax_rows(x).data
        assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12, rtol=0)
        assert ((y >= 0) & (y <= 1)).all()
        per_row = r.normal(size=(3, 1)) * 2.0
        shifted = softmax_rows(x + per_row).data
        assert np.allclose(y, shifted, atol=1e-12, rtol=0)

    def test_gradient(self, rng):
        x = Var(rng.normal(size=(3, 4)))
        w = rng.normal(size=(4, 1))

        def loss_var():
            return sum_all(ad.matmul(softmax_rows(x), w))

        with Tape():
            g = grad(loss_var(), x)
        fd = finite_diff(lambda: loss_var().item(), x.data)
        assert rel_err(g, fd) < 1e-5


def _attention_inputs(rng, heads, t, rows, d=5, d_k=3, d_v=2):
    """Query rows x (t x d) with the projections wq (d x heads*d_k) and wo
    (heads*d_v x d), and keys and values of ``rows`` rows: the inputs of
    ``attention`` in order."""
    return (
        Var(rng.normal(size=(t, d))), Var(rng.normal(size=(d, heads * d_k))),
        Var(rng.normal(size=(rows, heads * d_k))), Var(rng.normal(size=(rows, heads * d_v))),
        Var(rng.normal(size=(heads * d_v, d))),
    )


def _attention_bias(kind, heads, t):
    """A bias with -inf entries and s != t: the last t rows of a slope-scaled
    (t + 2) x (t + 2) temporal bias, or a frame-ratio-2 alignment bias."""
    if kind == "temporal":
        base = temporal_bias(t + 2, 2, 1.0).data[2:]
        return np.multiply.outer(head_slopes(heads), base)
    return alignment_bias(t, t, 2).data


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("kind", ["temporal", "alignment", "none"])
    def test_gradients_match_finite_differences(self, rng, heads, kind):
        # x, wq, k, v and wo; the keys are rows [1, s + 1) of 3 more rows
        t = 3
        bias = None if kind == "none" else _attention_bias(kind, heads, t)
        s = 4 if bias is None else bias.shape[-1]
        inputs = _attention_inputs(rng, heads, t, s + 3)
        readout = rng.normal(size=(t, 5))
        assert bias is None or (np.isneginf(bias).any() and s != t)

        def loss_var():
            out, _ = attention(*inputs, bias, heads, slice(1, s + 1))
            return sum_all(mul(out, readout))

        for var in inputs:
            with Tape():
                g = grad(loss_var(), var)
            fd = finite_diff(lambda: loss_var().item(), var.data)
            assert rel_err(g, fd) < 1e-6
        for var in inputs[2:4]:  # rows outside the range get exactly zero
            with Tape():
                g = grad(loss_var(), var)
            assert not g[[0, s + 1, s + 2]].any() and g[1 : s + 1].any()

    def test_masked_keys_get_exactly_zero_gradient(self, rng):
        heads, t, s = 4, 3, 6
        bias = np.zeros((t, s))
        bias[:, [1, 4]] = -np.inf
        x, wq, k, v, wo = _attention_inputs(rng, heads, t, s)
        with Tape():
            out, weights = attention(x, wq, k, v, wo, bias, heads)
            grads = backward(sum_all(mul(out, out)), {"k": k, "v": v})
        assert np.array_equal(weights[:, :, [1, 4]], np.zeros((heads, t, 2)))
        for g in grads.values():
            assert np.array_equal(g[[1, 4]], np.zeros_like(g[[1, 4]]))
            assert np.abs(g[[0, 2, 3, 5]]).max() > 0

    @pytest.mark.parametrize("heads", [1, 4])
    def test_fully_masked_row_raises(self, rng, heads):
        bias = np.zeros((heads, 3, 4))
        bias[:, 2] = -np.inf
        with pytest.raises(DegenerateRowError, match="row 2"):
            attention(*_attention_inputs(rng, heads, 3, 4), bias, heads)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_buffer_rows_gradients_match_finite_differences(self, rng, heads):
        # the decoder's cached step: row i of each buffer is written at step
        # i, and step i's row reads buffer rows [0, i] under the last i + 1
        # columns of a per-head bias row, and rows [2i, 2i + 2) of a
        # projected audio matrix with no bias
        n, d = 4, 4
        xs, audio = Var(rng.normal(size=(n, d))), Var(rng.normal(size=(2 * n, d)))
        wq, wk, wv, wo = (Var(rng.normal(size=(d, d))) for _ in range(4))
        bias_row = rng.normal(size=(heads, 1, n))
        readout = rng.normal(size=(2 * n, d))

        def loss_var():
            keys, values = Var(np.zeros((n, d))), Var(np.zeros((n, d)))
            audio_k, audio_v = ad.matmul(audio, wk), ad.matmul(audio, wv)
            outs = []
            for i in range(n):
                x = ad.take_row(xs, i)
                write_row(keys, i, x, wk)
                write_row(values, i, x, wv)
                own, _ = attention(
                    x, wq, keys, values, wo, bias_row[:, :, n - 1 - i :], heads, slice(0, i + 1)
                )
                window, _ = attention(
                    x, wq, audio_k, audio_v, wo, None, heads, slice(2 * i, 2 * i + 2)
                )
                outs += [own, window]
            return sum_all(mul(concat_rows(outs), readout))

        for var in (xs, audio, wq, wk, wv, wo):
            with Tape():
                g = grad(loss_var(), var)
            fd = finite_diff(lambda: loss_var().item(), var.data)
            assert rel_err(g, fd) < 1e-6

    def test_write_row_gradients_match_finite_differences(self, rng):
        x, w = Var(rng.normal(size=(1, 4))), Var(rng.normal(size=(4, 3)))
        readout = rng.normal(size=(5, 3))

        def loss_var():
            buf = Var(np.zeros((5, 3)))
            write_row(buf, 2, x, w)
            return sum_all(mul(buf, readout))

        for var in (x, w):
            with Tape():
                g = grad(loss_var(), var)
            fd = finite_diff(lambda: loss_var().item(), var.data)
            assert rel_err(g, fd) < 1e-6

    def test_write_row_has_the_bits_of_matmul(self, rng):
        buf = Var(rng.normal(size=(5, 32)))
        before = buf.data.copy()
        x, w = Var(rng.normal(size=(1, 32))), Var(rng.normal(size=(32, 32)))
        write_row(buf, 3, x, w)
        assert np.array_equal(buf.data[3:4], ad.matmul(x, w).data)
        assert np.array_equal(np.delete(buf.data, 3, 0), np.delete(before, 3, 0))

    def test_write_row_checks_its_target(self, rng):
        buf = Var(np.zeros((3, 2)))
        w = rng.normal(size=(2, 2))
        with pytest.raises(ShapeError, match="row 3"):
            write_row(buf, 3, rng.normal(size=(1, 2)), w)
        with pytest.raises(ShapeError, match=r"\(2, 2\)"):
            write_row(buf, 0, rng.normal(size=(2, 2)), w)
        with pytest.raises(ShapeError, match=r"\(2, 3\)"):
            write_row(buf, 0, rng.normal(size=(1, 2)), rng.normal(size=(2, 3)))

    def test_training_rollout_records(self, rng):
        # the decoder's 20 steps are one record for the whole rollout: its
        # input rows, key and value row writes and blocks. The other 24 are
        # recorded once per rollout too: the encoder, the feedback fold, the
        # embed table, the audio keys and values, the head and the loss.
        # Neither the resampling of the feature rows nor the frozen extractor
        # is recorded, so a waveform adds no record
        cfg = ModelConfig().validate()
        params, frames = init_params(cfg, seed=0), 20
        features = rng.normal(size=(cfg.frame_ratio * frames, cfg.feature_dim))
        for audio in (
            AudioInput.from_features(features, cfg.feature_rate),
            AudioInput.from_waveform(rng.normal(size=12800) * 0.3, 16000.0),
        ):
            sample = TrainingSample(audio, rng.normal(size=(frames, cfg.motion_dim)), identity=0)
            with Tape() as tape:
                rollout_loss(sample, params, cfg)
                assert len(tape) == 25


class TestFusedRecords:
    """linear, conv1d_strided, squared_error and the attention, add-norm and
    feed-forward pairs are one record each, with the bits of the composition
    they replace, forward and backward."""

    @staticmethod
    def _compare(rng, fused, composed, inputs):
        readout = None
        results = []
        for build in (fused, composed):
            with Tape():
                out = build(*inputs)
                if readout is None:
                    readout = rng.normal(size=out.shape)
                loss = sum_all(mul(out, readout))
                grads = backward(loss, {str(i): v for i, v in enumerate(inputs)})
            results.append((out.data, grads))
        (out_f, grads_f), (out_c, grads_c) = results
        assert np.array_equal(out_f, out_c)
        for name in grads_f:
            assert np.array_equal(grads_f[name], grads_c[name]), name

    def test_linear(self, rng):
        inputs = [Var(rng.normal(size=s)) for s in ((5, 6), (6, 7), (1, 7))]
        self._compare(rng, ad.linear, lambda x, w, b: ad.add_row(ad.matmul(x, w), b), inputs)

    def test_add_norm(self, rng):
        # many rows, and one row, whose statistics are Python floats
        for rows in (5, 1):
            inputs = [Var(rng.normal(size=s)) for s in ((rows, 6), (rows, 6), (1, 6), (1, 6))]
            self._compare(
                rng, add_norm, lambda a, b, g, o: layer_norm(add(a, b), g, o), inputs
            )

    def test_feed_forward(self, rng):
        inputs = [Var(rng.normal(size=s)) for s in ((5, 6), (6, 7), (1, 7), (7, 6), (1, 6))]

        def composed(x, w1, b1, w2, b2):
            hidden = relu(ad.add_row(ad.matmul(x, w1), b1))
            return ad.add_row(ad.matmul(hidden, w2), b2)

        assert (inputs[0].data @ inputs[1].data + inputs[2].data < 0).any()
        self._compare(rng, feed_forward, composed, inputs)

    def test_conv1d_strided(self, rng):
        inputs = [Var(rng.normal(size=s)) for s in ((9, 2), (6, 3), (1, 3))]

        def composed(x, k, b):  # kernel width 6 // 2 channels = 3, stride 2
            return relu(ad.add_row(ad.matmul(gather_patches(x, 3, 2), k), b))

        pre = gather_patches(inputs[0], 3, 2).data @ inputs[1].data + inputs[2].data
        assert (pre < 0).any() and (pre > 0).any()
        self._compare(rng, lambda x, k, b: ad.conv1d_strided(x, k, 2, b), composed, inputs)

    def test_squared_error(self, rng):
        # a non-unit incoming gradient; only pred is compared, since the truth
        # is data and the fused record gives it no gradient
        pred, truth = Var(rng.normal(size=(4, 6))), rng.normal(size=(4, 6))
        scale = rng.normal(size=(1, 1))

        def composed(pred, truth):
            diff = sub(pred, truth)
            return sum_all(mul(diff, diff))

        results = []
        for loss_of in (ad.squared_error, composed):
            with Tape():
                out = loss_of(pred, truth)
                results.append((out.data, grad(mul(out, scale), pred)))
        (out_f, grad_f), (out_c, grad_c) = results
        assert out_f.tobytes() == out_c.tobytes()
        assert grad_f.tobytes() == grad_c.tobytes()

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("t", [1, 3])
    def test_attention(self, rng, heads, t):
        # the query projection, the attention of the projected rows (identity
        # projections change no bit) and the output projection, recorded
        # one after another; the keys are a row range of a longer buffer
        bias = np.multiply.outer(head_slopes(heads), -rng.random((t, 5)))
        keys = slice(2, 7)

        def fused(x, wq, k, v, wo):
            return attention(x, wq, k, v, wo, bias, heads, keys)[0]

        def composed(x, wq, k, v, wo):
            q = ad.matmul(x, wq)
            out, _ = attention(q, np.eye(q.cols), k, v, np.eye(v.cols), bias, heads, keys)
            return ad.matmul(out, wo)

        self._compare(rng, fused, composed, list(_attention_inputs(rng, heads, t, 9)))

    @pytest.mark.parametrize("width", [1, 7, 32, 129, 768])
    def test_add_norm_one_row_matches_rows(self, rng, width):
        # a one-row input takes its statistics as Python floats: the same
        # bits as that row of a many-row input
        a, b = rng.normal(size=(6, width)) * 30.0, rng.normal(size=(6, width))
        gain, offset = rng.normal(size=(1, width)), rng.normal(size=(1, width))
        readout = rng.normal(size=(6, width))
        a_all = Var(a)
        with Tape():
            rows = add_norm(a_all, b, gain, offset)
            grad_rows = grad(sum_all(mul(rows, readout)), a_all)
        for i in range(6):
            a_one = Var(a[i : i + 1])
            with Tape():
                one = add_norm(a_one, b[i : i + 1], gain, offset)
                grad_one = grad(sum_all(mul(one, readout[i : i + 1])), a_one)
            assert one.data.tobytes() == rows.data[i : i + 1].tobytes()
            assert grad_one.tobytes() == grad_rows[i : i + 1].tobytes()


def _signed_zeros(a: np.ndarray) -> np.ndarray:
    """A copy of a with every fourth column +0 and the next one -0."""
    a = a.copy()
    a[:, ::4] = 0.0
    a[:, 1::4] = -0.0
    return a


class TestProducts:
    """The records' 2-D products call ``np.dot``, which must give the bytes
    of ``@``, the sign of zero included, for every class of product they
    run."""

    @pytest.mark.parametrize("name", ["synthetic", "vocaset", "biwi"])
    def test_dot_has_the_bytes_of_matmul(self, rng, name):
        cfg = profile(name)
        products = []
        for n, m in ((cfg.dim, cfg.ff_dim), (cfg.ff_dim, cfg.dim), (cfg.dim, cfg.dim),
                     (cfg.motion_dim, cfg.dim)):
            x, g = (_signed_zeros(rng.normal(size=(1, k))) for k in (n, m))
            w = rng.normal(size=(n, m))
            products += [
                (x, w), (np.full_like(x, -0.0), w),  # one row x W
                (g, w.T),                             # one row x W^T
                (x.T, g),                             # rank-1 x^T g
            ]
        # multi-row x W, x W^T and x^T g, over a biwi clip's 25 frames
        x, g = (_signed_zeros(rng.normal(size=(25, k))) for k in (cfg.dim, cfg.ff_dim))
        w = rng.normal(size=(cfg.dim, cfg.ff_dim))
        products += [(x, w), (g, w.T), (x.T, g)]
        for a, b in products:
            assert np.dot(a, b).tobytes() == (a @ b).tobytes(), (a.shape, b.shape)

    def test_rank_one_gradients_keep_the_sign_of_zero(self, rng):
        # BLAS sums from +0, so a -0 product comes out +0, where a broadcast
        # x.T * g keeps it -0. A rectifier's masked units give -0 entries of
        # the feed-forward's pre-activation gradient.
        x, g = _signed_zeros(rng.normal(size=(1, 8))), _signed_zeros(rng.normal(size=(1, 6)))
        w1, b1, w2, b2 = (rng.normal(size=s) for s in ((8, 7), (1, 7), (7, 6), (1, 6)))
        _, saved = ad.feed_forward_fwd(x, w1, b1, w2, b2)
        _, dw1, _, dw2, _ = ad.feed_forward_vjp(saved, g)
        pre = x @ w1 + b1
        hidden, gpre = np.where(pre > 0, pre, 0.0), (g @ w2.T) * (pre > 0)
        assert np.signbit(gpre[pre <= 0]).any()
        assert dw1.tobytes() == (x.T @ gpre).tobytes()
        assert dw2.tobytes() == (hidden.T @ g).tobytes()
        w = Var(w1)
        with Tape():
            gw = grad(sum_all(mul(ad.linear(x, w, b1), gpre)), w)
        assert gw.tobytes() == (x.T @ gpre).tobytes()

    def test_feedback_map_gradient_keeps_positive_zero(self, rng, monkeypatch):
        # the rollout's gradient of the feedback map M adds h^T g for each
        # fed-back hidden row h. With ln3's gain 0 and offset -0 on every
        # fourth column, those entries of h are -0 where the normalized row
        # is negative and +0 elsewhere, so their rows of h^T g are products
        # of a zero, which BLAS gives as +0; a broadcast h.T * g would give
        # -0 wherever the signs differ
        cfg = ModelConfig().validate()
        params = init_params(cfg, seed=0)
        params["motion_dec.w"] = Var(rng.normal(size=(cfg.dim, cfg.motion_dim)) * 0.1)
        zero = np.arange(0, cfg.dim, 4)
        for name, value in (("gain", 0.0), ("offset", -0.0)):
            data = params[f"dec.layer0.ln3.{name}"].data.copy()
            data[:, zero] = value
            params[f"dec.layer0.ln3.{name}"] = Var(data)
        fold, bias = decoder.feedback_map(params)
        params["motion_fold.M"], params["motion_fold.c"] = Var(fold.data), Var(bias.data)
        seen = []
        head = decoder.decode_motion

        def spy(hidden, p):
            seen.append(hidden.data)
            return head(hidden, p)

        monkeypatch.setattr(decoder, "decode_motion", spy)
        features = rng.normal(size=(2 * cfg.frame_ratio, cfg.feature_dim))
        audio = AudioInput.from_features(features, cfg.feature_rate)
        sample = TrainingSample(audio, rng.normal(size=(2, cfg.motion_dim)), identity=0)
        with Tape():
            loss, _ = rollout_loss(sample, params, cfg)
            gm = backward(loss, params)["motion_fold.M"]
        (hidden,) = seen
        assert np.signbit(hidden[0, zero]).any() and not hidden[:, zero].any()
        assert gm[zero].tobytes() == np.zeros((zero.size, cfg.dim)).tobytes()
        assert np.abs(np.delete(gm, zero, axis=0)).min() > 0

    def test_one_step_key_weight_gradient_is_positive_zero(self, rng):
        # a one-frame rollout's step attends to one key, whose row gets an
        # exactly zero gradient, so the key write's weight gradient x^T 0 is
        # +0 throughout; a broadcast x.T * g would give -0 wherever x < 0
        cfg = ModelConfig().validate()
        features = rng.normal(size=(cfg.frame_ratio, cfg.feature_dim))
        audio = AudioInput.from_features(features, cfg.feature_rate)
        sample = TrainingSample(audio, rng.normal(size=(1, cfg.motion_dim)), identity=0)
        params = init_params(cfg, seed=0)
        with Tape():
            loss, _ = rollout_loss(sample, params, cfg)
            gk = backward(loss, params)["dec.layer0.self.wk"]
        assert gk.tobytes() == np.zeros_like(gk).tobytes()


class TestLayerNorm:
    def test_constant_row_zeroed_by_eps(self):
        gain, offset = np.ones((1, 4)), np.zeros((1, 4))
        out = layer_norm(np.full((2, 4), 3.0), gain, offset, eps=1e-5)
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized_row(self):
        out = layer_norm([[1.0, -1.0]], np.ones((1, 2)), np.zeros((1, 2)), eps=1e-12)
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_row_statistics(self, rng):
        x = rng.normal(size=(3, 8)) * 2.0 + 1.0
        out = layer_norm(x, np.ones((1, 8)), np.zeros((1, 8)), eps=1e-12).data
        assert np.abs(out.mean(axis=1)).max() < 1e-12
        assert np.abs(out.var(axis=1) - 1.0).max() < 1e-6

    def test_gradients(self, rng):
        x = Var(rng.normal(size=(3, 6)))
        gain = Var(rng.normal(size=(1, 6)))
        offset = Var(rng.normal(size=(1, 6)))
        w = rng.normal(size=(6, 1))

        def loss_var():
            return sum_all(ad.matmul(layer_norm(x, gain, offset), w))

        for var in (x, gain, offset):
            with Tape():
                g = grad(loss_var(), var)
            fd = finite_diff(lambda: loss_var().item(), var.data)
            assert rel_err(g, fd) < 1e-5


class TestLinear:
    def test_identity_weight(self, rng):
        x = rng.normal(size=(3, 4))
        out = ad.linear(x, np.eye(4), np.zeros((1, 4)))
        assert np.allclose(out.data, x, atol=1e-15)

    def test_zero_input_gives_bias_rows(self, rng):
        b = rng.normal(size=(1, 4))
        out = ad.linear(np.zeros((3, 2)), rng.normal(size=(2, 4)), b)
        assert np.allclose(out.data, np.repeat(b, 3, axis=0), atol=1e-15)

    def test_gradients_all_arguments(self, rng):
        x = Var(rng.normal(size=(3, 4)))
        w = Var(rng.normal(size=(4, 2)))
        b = Var(rng.normal(size=(1, 2)))

        def loss_var():
            return sum_all(mul(ad.linear(x, w, b), ad.linear(x, w, b)))

        for var in (x, w, b):
            with Tape():
                g = grad(loss_var(), var)
            fd = finite_diff(lambda: loss_var().item(), var.data)
            assert rel_err(g, fd) < 1e-6


class TestConv1dStrided:
    def test_width_one_identity_is_rectifier(self, rng):
        x = rng.normal(size=(6, 3))
        out = ad.conv1d_strided(x, np.eye(3), 1, np.zeros((1, 3)))
        assert np.array_equal(out.data, np.maximum(x, 0.0))

    def test_output_length_formula(self, rng):
        x = rng.normal(size=(10, 2))
        kernels = rng.normal(size=(3 * 2, 5))
        out = ad.conv1d_strided(x, kernels, 2, np.zeros((1, 5)))
        assert out.shape == (4, 5)

    def test_too_short_input(self, rng):
        with pytest.raises(ShapeError, match="shorter"):
            ad.conv1d_strided(
                rng.normal(size=(2, 1)), rng.normal(size=(3, 2)), 1, np.zeros((1, 2))
            )

    def test_gradient(self, rng):
        x = Var(rng.normal(size=(9, 2)))
        k = Var(rng.normal(size=(6, 3)))
        b = Var(rng.normal(size=(1, 3)))

        def loss_var():
            return sum_all(ad.conv1d_strided(x, k, 2, b))

        for var in (x, k, b):
            with Tape():
                g = grad(loss_var(), var)
            fd = finite_diff(lambda: loss_var().item(), var.data)
            assert rel_err(g, fd) < 1e-5


class TestStructuralOps:
    def test_concat_slice_roundtrip_gradient(self, rng):
        a = Var(rng.normal(size=(2, 3)))
        b = Var(rng.normal(size=(4, 3)))

        def build():
            joined = concat_rows([a, b])
            piece = concat_rows([ad.take_row(joined, i) for i in range(1, 5)])
            return sum_all(mul(piece, piece))

        for var in (a, b):
            with Tape():
                g = grad(build(), var)
            fd = finite_diff(lambda: build().item(), var.data)
            assert rel_err(g, fd) < 1e-6

    def test_take_row_gradient_scatters(self, rng):
        x = Var(rng.normal(size=(4, 3)))
        with Tape():
            g = grad(sum_all(ad.take_row(x, 2)), x)
        expect = np.zeros((4, 3))
        expect[2] = 1.0
        assert np.array_equal(g, expect)


class TestBackward:
    def test_sum_of_parameter_gives_ones(self, rng):
        w = Var(rng.normal(size=(3, 4)))
        with Tape():
            grads = backward(sum_all(w), {"w": w})
        assert np.array_equal(grads["w"], np.ones((3, 4)))

    def test_least_squares_matches_analytic(self, rng):
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 2))
        w = Var(rng.normal(size=(3, 2)))
        with Tape():
            diff = sub(ad.matmul(x, w), y)
            grads = backward(sum_all(mul(diff, diff)), {"w": w})
        analytic = 2.0 * x.T @ (x @ w.data - y)
        assert rel_err(grads["w"], analytic) < 1e-12

    def test_non_scalar_loss_rejected(self, rng):
        w = Var(rng.normal(size=(2, 2)))
        with Tape():
            out = ad.matmul(w, w)
            with pytest.raises(GradientError, match="scalar"):
                backward(out, {"w": w})

    def test_untaped_loss_rejected(self, rng):
        w = Var(rng.normal(size=(1, 1)))
        with pytest.raises(GradientError, match="tape"):
            backward(w, {"w": w})

    def test_unreachable_parameter_gets_zeros(self, rng):
        w = Var(rng.normal(size=(2, 2)))
        other = Var(rng.normal(size=(3, 3)))
        with Tape():
            grads = backward(sum_all(mul(w, w)), {"w": w, "other": other})
        assert np.array_equal(grads["other"], np.zeros((3, 3)))

    def test_deterministic_bitwise(self, rng):
        x = Var(rng.normal(size=(4, 4)))
        w = Var(rng.normal(size=(4, 4)))
        with Tape():
            loss = sum_all(softmax_rows(ad.matmul(x, w)))
            first = backward(loss, {"x": x, "w": w})
            second = backward(loss, {"x": x, "w": w})
        for key in first:
            assert np.array_equal(first[key], second[key])

    def test_reused_variable_accumulates(self, rng):
        x = Var(rng.normal(size=(2, 2)))
        with Tape():
            loss = sum_all(add(x, x))
            grads = backward(loss, {"x": x})
        assert np.array_equal(grads["x"], np.full((2, 2), 2.0))

    def test_block_end_frees_activations(self, rng):
        # without the cyclic collector, only dropping the records at the end
        # of the block can free what they hold
        x, w = Var(rng.normal(size=(3, 4))), Var(rng.normal(size=(4, 4)))
        gc.disable()
        try:
            with Tape():
                hidden = relu(ad.matmul(x, w))
                ref = weakref.ref(hidden.data)
                loss = sum_all(mul(hidden, hidden))
                del hidden
                assert ref() is not None
            assert ref() is None
            assert loss.item() > 0
        finally:
            gc.enable()

    def test_backward_after_block_end_rejected(self, rng):
        w = Var(rng.normal(size=(2, 2)))
        with Tape():
            loss = sum_all(mul(w, w))
        with pytest.raises(GradientError, match="ended"):
            backward(loss, {"w": w})

    @staticmethod
    def _same_as_reference(loss, params):
        got, want = backward(loss, params), reference.backward(loss, params)
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
        return got

    def test_one_array_for_two_inputs(self, rng):
        # add_norm's VJP returns one array for both summands, add its
        # incoming gradient for both, and mul(d, d) two equal arrays. A later
        # contribution to one input must not be added into an array another
        # holds: c reads a before the add-norm of a and b, so the reverse
        # pass adds to a's gradient before it reaches b's record
        x, y, w, gain, offset = (
            Var(rng.normal(size=s)) for s in ((3, 5), (3, 5), (5, 5), (1, 5), (1, 5))
        )
        readout = rng.normal(size=(3, 5))
        with Tape():
            b = ad.matmul(y, w)
            a = ad.matmul(x, w)
            c = mul(a, readout)
            twice = add_norm(x, x, gain, offset)
            d = sub(add(add_norm(a, b, gain, offset), c), twice)
            loss = sum_all(mul(d, d))
            grads = self._same_as_reference(
                loss, {"x": x, "y": y, "w": w, "gain": gain, "offset": offset}
            )
        assert all(grads[name].any() for name in ("x", "y", "w", "gain"))

    def test_record_returning_its_gradient_shares_no_sum(self, rng):
        # a second record of a returns a's gradient to x2 as it is, while s's
        # contribution to a is still to come: adding that into a's array in
        # place would change x2's gradient too, and so those of p and w2
        p, w2, x, w = (Var(rng.normal(size=(3, 3))) for _ in range(4))
        r0, r1, r2 = (rng.normal(size=(3, 3)) for _ in range(3))
        with Tape():
            x2 = ad.matmul(p, w2)
            a = ad.matmul(x, w)
            s = mul(a, r0)
            ad.record(a, (x2,), lambda g: (g,))
            loss = sum_all(add(add(mul(a, r1), mul(a, r2)), s))
            grads = self._same_as_reference(loss, {"p": p, "w2": w2, "x": x, "w": w})
        assert all(g.any() for g in grads.values())

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("kind", ["features", "waveform"])
    def test_every_vjp_gives_none_or_an_array_of_its_input_shape(self, rng, layers, kind):
        cfg = ModelConfig(decoder_layers=layers).validate()
        params, frames = init_params(cfg, seed=0), 6
        if kind == "features":
            features = rng.normal(size=(cfg.frame_ratio * frames, cfg.feature_dim))
            audio = AudioInput.from_features(features, cfg.feature_rate)
        else:
            audio = AudioInput.from_waveform(rng.normal(size=3840) * 0.3, 16000.0)
        sample = TrainingSample(audio, rng.normal(size=(frames, cfg.motion_dim)), identity=1)
        with Tape() as tape:
            rollout_loss(sample, params, cfg)
            for out, inputs, vjp in tape._records:
                contribs = vjp(rng.normal(size=out.shape))
                assert len(contribs) == len(inputs)
                for inp, contrib in zip(inputs, contribs):
                    assert contrib is None or (
                        type(contrib) is np.ndarray and contrib.shape == inp.shape
                    ), (vjp, inp.shape)

    def test_buffer_rows_no_window_reads(self, rng):
        # attention windows [1, 3), [2, 5) and [6, 8) of a 9-row buffer
        # leave rows 0, 5 and 8 unread, and the first two overlap
        heads = 2
        x, wq, k, v, wo = _attention_inputs(rng, heads, 2, 9, d_k=4, d_v=4)
        readout = rng.normal(size=(2, 5))
        with Tape():
            outs = [
                attention(x, wq, k, v, wo, None, heads, slice(a, b))[0]
                for a, b in ((1, 3), (2, 5), (6, 8))
            ]
            total = concat_rows([concat_rows(outs[:2]), outs[2]])
            loss = sum_all(mul(total, np.concatenate([readout] * 3)))
            grads = self._same_as_reference(loss, {"x": x, "k": k, "v": v, "wq": wq})
        for name in ("k", "v"):
            assert not grads[name][[0, 5, 8]].any()
            assert np.abs(grads[name][[1, 2, 3, 4, 6, 7]]).min() > 0
        # the package's VJP gives the gradients of the rows it was given,
        # which the reference's take_rows records scatter into zeros
        x, wq, k, v, wo = (a.data for a in _attention_inputs(rng, heads, 2, 9))
        kt, vh = ad.head_views(k[2:5], v[2:5], heads)
        _, _, saved = ad.attention_fwd(x, wq, kt, vh, wo, None)
        dk, dv = ad.attention_vjp(saved, rng.normal(size=(2, 5)))[2:4]
        assert dk.shape == (3, heads * 3) and dv.shape == (3, heads * 2)

    def test_no_tape_means_plain_computation(self, rng):
        out = ad.matmul(rng.normal(size=(2, 3)), rng.normal(size=(3, 2)))
        assert out.tape is None
