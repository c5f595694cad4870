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
    grad,
    init_params,
)
from speechmotion import autodiff as ad
from speechmotion.positional import alignment_bias, head_slopes
from speechmotion.training import rollout_loss

from conftest import finite_diff, rel_err
from reference import temporal_bias


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
            loss = ad.sum_all(ad.matmul(a, b))
            ga = grad(loss, a)
        with Tape():
            gb = grad(ad.sum_all(ad.matmul(a, b)), b)
        fa = finite_diff(lambda: ad.sum_all(ad.matmul(a, b)).item(), a.data)
        fb = finite_diff(lambda: ad.sum_all(ad.matmul(a, b)).item(), b.data)
        assert rel_err(ga, fa) < 1e-6
        assert rel_err(gb, fb) < 1e-6

    def test_associative_with_identity(self, rng):
        a, b, c = (rng.normal(size=(4, 4)) for _ in range(3))
        left = ad.matmul(ad.matmul(a, b), c).data
        right = ad.matmul(a, ad.matmul(b, c)).data
        assert np.allclose(left, right, atol=1e-12, rtol=0)


class TestSoftmaxRows:
    def test_uniform(self):
        out = ad.softmax_rows([[0.0, 0.0, 0.0]])
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_full_mask_entry(self):
        out = ad.softmax_rows([[0.0, -np.inf]])
        assert np.array_equal(out.data, [[1.0, 0.0]])

    def test_matches_direct_evaluation(self):
        out = ad.softmax_rows([[1.0, 2.0, 3.0]])
        denom = math.exp(1.0) + math.exp(2.0) + math.exp(3.0)
        expect = [[math.exp(x) / denom for x in (1.0, 2.0, 3.0)]]
        assert np.allclose(out.data, expect, atol=1e-12, rtol=0)

    def test_all_masked_row_raises(self):
        with pytest.raises(DegenerateRowError, match="row 1"):
            ad.softmax_rows([[0.0, 1.0], [-np.inf, -np.inf]])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rows_sum_to_one_and_shift_invariant(self, seed):
        r = np.random.Generator(np.random.PCG64(seed))
        x = r.normal(size=(3, 5)) * 3.0
        mask = r.random((3, 5)) < 0.3
        mask[:, 0] = False  # keep one finite entry per row
        x[mask] = -np.inf
        y = ad.softmax_rows(x).data
        assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12, rtol=0)
        assert ((y >= 0) & (y <= 1)).all()
        per_row = r.normal(size=(3, 1)) * 2.0
        shifted = ad.softmax_rows(x + per_row).data
        assert np.allclose(y, shifted, atol=1e-12, rtol=0)

    def test_gradient(self, rng):
        x = Var(rng.normal(size=(3, 4)))
        w = rng.normal(size=(4, 1))

        def loss_var():
            return ad.sum_all(ad.matmul(ad.softmax_rows(x), w))

        with Tape():
            g = grad(loss_var(), x)
        fd = finite_diff(lambda: loss_var().item(), x.data)
        assert rel_err(g, fd) < 1e-5


def _attention_inputs(rng, heads, t, s, d_k=3, d_v=2):
    return (Var(rng.normal(size=(t, heads * d_k))), Var(rng.normal(size=(s, heads * d_k))),
            Var(rng.normal(size=(s, heads * d_v))))


def _attention_bias(kind, heads, t):
    """A bias with -inf entries and s != t: the last t rows of a slope-scaled
    (t + 2) x (t + 2) temporal bias, or a frame-ratio-2 alignment bias."""
    if kind == "temporal":
        base = temporal_bias(t + 2, 2, 1.0).data[2:]
        return np.multiply.outer(head_slopes(heads), base)
    return alignment_bias(t, t, 2).data


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("kind", ["temporal", "alignment"])
    def test_gradients_match_finite_differences(self, rng, heads, kind):
        t = 3
        bias = _attention_bias(kind, heads, t)
        q, k, v = _attention_inputs(rng, heads, t, bias.shape[-1])
        readout = rng.normal(size=(t, v.cols))
        assert np.isneginf(bias).any() and k.rows != t

        def loss_var():
            out, _ = ad.attention(q, k, v, bias, heads)
            return ad.sum_all(ad.mul(out, readout))

        for var in (q, k, v):
            with Tape():
                g = grad(loss_var(), var)
            fd = finite_diff(lambda: loss_var().item(), var.data)
            assert rel_err(g, fd) < 1e-6

    def test_masked_keys_get_exactly_zero_gradient(self, rng):
        heads, t, s = 4, 3, 6
        bias = np.zeros((t, s))
        bias[:, [1, 4]] = -np.inf
        q, k, v = _attention_inputs(rng, heads, t, s)
        with Tape():
            out, weights = ad.attention(q, k, v, bias, heads)
            grads = backward(ad.sum_all(ad.mul(out, out)), {"k": k, "v": v})
        assert np.array_equal(weights[:, :, [1, 4]], np.zeros((heads, t, 2)))
        for g in grads.values():
            assert np.array_equal(g[[1, 4]], np.zeros_like(g[[1, 4]]))
            assert np.abs(g[[0, 2, 3, 5]]).max() > 0

    @pytest.mark.parametrize("heads", [1, 4])
    def test_fully_masked_row_raises(self, rng, heads):
        bias = np.zeros((heads, 3, 4))
        bias[:, 2] = -np.inf
        q, k, v = _attention_inputs(rng, heads, 3, 4)
        with pytest.raises(DegenerateRowError, match="row 2"):
            ad.attention(q, k, v, bias, heads)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_buffer_rows_gradients_match_finite_differences(self, rng, heads):
        # the decoder's cached step: row i of each buffer is written at step
        # i, and step i's query reads buffer rows [0, i] under the last i + 1
        # columns of a per-head bias row, and rows [2i, 2i + 2) of a
        # projected audio matrix with no bias
        n, d = 4, 4
        xs, audio = Var(rng.normal(size=(n, d))), Var(rng.normal(size=(2 * n, d)))
        wq, wk, wv = (Var(rng.normal(size=(d, d))) for _ in range(3))
        bias_row = rng.normal(size=(heads, 1, n))
        readout = rng.normal(size=(2 * n, d))

        def loss_var():
            keys, values = Var(np.zeros((n, d))), Var(np.zeros((n, d)))
            audio_k, audio_v = ad.matmul(audio, wk), ad.matmul(audio, wv)
            outs = []
            for i in range(n):
                x = ad.take_row(xs, i)
                ad.write_row(keys, i, ad.matmul(x, wk))
                ad.write_row(values, i, ad.matmul(x, wv))
                q = ad.matmul(x, wq)
                own, _ = ad.attention(
                    q, keys, values, bias_row[:, :, n - 1 - i :], heads, slice(0, i + 1)
                )
                window, _ = ad.attention(q, audio_k, audio_v, None, heads, slice(2 * i, 2 * i + 2))
                outs += [own, window]
            return ad.sum_all(ad.mul(ad.concat_rows(outs), readout))

        for var in (xs, audio, wq, wk, wv):
            with Tape():
                g = grad(loss_var(), var)
            fd = finite_diff(lambda: loss_var().item(), var.data)
            assert rel_err(g, fd) < 1e-6

    def test_write_row_checks_its_target(self, rng):
        buf = Var(np.zeros((3, 2)))
        with pytest.raises(ShapeError, match="row 3"):
            ad.write_row(buf, 3, rng.normal(size=(1, 2)))
        with pytest.raises(ShapeError, match=r"\(2, 2\)"):
            ad.write_row(buf, 0, rng.normal(size=(2, 2)))

    def test_training_rollout_records(self, rng):
        # one record per multi-head attention, one per linear, add-norm and
        # feed-forward, and a cached step that projects only its new row:
        # the per-head composition of slices, transposes and softmaxes made
        # 2,106 records, the fused attention alone 598
        cfg = ModelConfig().validate()
        frames = 20
        sample = TrainingSample(
            AudioInput.from_features(
                rng.normal(size=(cfg.frame_ratio * frames, cfg.feature_dim)), cfg.feature_rate
            ),
            rng.normal(size=(frames, cfg.motion_dim)), identity=0,
        )
        with Tape() as tape:
            rollout_loss(sample, init_params(cfg, seed=0), cfg)
            assert len(tape) <= 387


class TestFusedRecords:
    """linear, add_norm and feed_forward are one record each, with the bits
    of the composition they replace, forward and backward."""

    @staticmethod
    def _compare(rng, fused, composed, inputs):
        readout = None
        results = []
        for build in (fused, composed):
            with Tape():
                out = build(*inputs)
                if readout is None:
                    readout = rng.normal(size=out.shape)
                loss = ad.sum_all(ad.mul(out, readout))
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
        inputs = [Var(rng.normal(size=s)) for s in ((5, 6), (5, 6), (1, 6), (1, 6))]
        self._compare(
            rng, ad.add_norm, lambda a, b, g, o: ad.layer_norm(ad.add(a, b), g, o), inputs
        )

    def test_feed_forward(self, rng):
        inputs = [Var(rng.normal(size=s)) for s in ((5, 6), (6, 7), (1, 7), (7, 6), (1, 6))]

        def composed(x, w1, b1, w2, b2):
            hidden = ad.relu(ad.add_row(ad.matmul(x, w1), b1))
            return ad.add_row(ad.matmul(hidden, w2), b2)

        assert (inputs[0].data @ inputs[1].data + inputs[2].data < 0).any()
        self._compare(rng, ad.feed_forward, composed, inputs)


class TestLayerNorm:
    def test_constant_row_zeroed_by_eps(self):
        gain, offset = np.ones((1, 4)), np.zeros((1, 4))
        out = ad.layer_norm(np.full((2, 4), 3.0), gain, offset, eps=1e-5)
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized_row(self):
        out = ad.layer_norm([[1.0, -1.0]], np.ones((1, 2)), np.zeros((1, 2)), eps=1e-12)
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_row_statistics(self, rng):
        x = rng.normal(size=(3, 8)) * 2.0 + 1.0
        out = ad.layer_norm(x, np.ones((1, 8)), np.zeros((1, 8)), eps=1e-12).data
        assert np.abs(out.mean(axis=1)).max() < 1e-12
        assert np.abs(out.var(axis=1) - 1.0).max() < 1e-6

    def test_gradients(self, rng):
        x = Var(rng.normal(size=(3, 6)))
        gain = Var(rng.normal(size=(1, 6)))
        offset = Var(rng.normal(size=(1, 6)))
        w = rng.normal(size=(6, 1))

        def loss_var():
            return ad.sum_all(ad.matmul(ad.layer_norm(x, gain, offset), w))

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
            return ad.sum_all(ad.mul(ad.linear(x, w, b), ad.linear(x, w, b)))

        for var in (x, w, b):
            with Tape():
                g = grad(loss_var(), var)
            fd = finite_diff(lambda: loss_var().item(), var.data)
            assert rel_err(g, fd) < 1e-6


class TestConv1dStrided:
    def test_width_one_identity_is_rectifier(self, rng):
        x = rng.normal(size=(6, 3))
        out = ad.conv1d_strided(x, np.eye(3), stride=1)
        assert np.array_equal(out.data, np.maximum(x, 0.0))

    def test_output_length_formula(self, rng):
        x = rng.normal(size=(10, 2))
        kernels = rng.normal(size=(3 * 2, 5))
        out = ad.conv1d_strided(x, kernels, stride=2)
        assert out.shape == (4, 5)

    def test_too_short_input(self, rng):
        with pytest.raises(ShapeError, match="shorter"):
            ad.conv1d_strided(rng.normal(size=(2, 1)), rng.normal(size=(3, 2)), 1)

    def test_gradient(self, rng):
        x = Var(rng.normal(size=(9, 2)))
        k = Var(rng.normal(size=(6, 3)))
        b = Var(rng.normal(size=(1, 3)))

        def loss_var():
            return ad.sum_all(ad.conv1d_strided(x, k, 2, b))

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
            joined = ad.concat_rows([a, b])
            piece = ad.slice_rows(joined, 1, 5)
            return ad.sum_all(ad.mul(piece, piece))

        for var in (a, b):
            with Tape():
                g = grad(build(), var)
            fd = finite_diff(lambda: build().item(), var.data)
            assert rel_err(g, fd) < 1e-6

    def test_resample_gradient(self, rng):
        # (source rows, target rows), including one source row and one target row
        for rows, target in ((5, 8), (1, 4), (5, 1)):
            x = Var(rng.normal(size=(rows, 3)))

            def build():
                y = ad.resample_rows(x, target)
                return ad.sum_all(ad.mul(y, y))

            with Tape():
                g = grad(build(), x)
            fd = finite_diff(lambda: build().item(), x.data)
            assert rel_err(g, fd) < 1e-6

    def test_take_row_gradient_scatters(self, rng):
        x = Var(rng.normal(size=(4, 3)))
        with Tape():
            g = grad(ad.sum_all(ad.take_row(x, 2)), x)
        expect = np.zeros((4, 3))
        expect[2] = 1.0
        assert np.array_equal(g, expect)


class TestBackward:
    def test_sum_of_parameter_gives_ones(self, rng):
        w = Var(rng.normal(size=(3, 4)))
        with Tape():
            grads = backward(ad.sum_all(w), {"w": w})
        assert np.array_equal(grads["w"], np.ones((3, 4)))

    def test_least_squares_matches_analytic(self, rng):
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 2))
        w = Var(rng.normal(size=(3, 2)))
        with Tape():
            diff = ad.sub(ad.matmul(x, w), y)
            grads = backward(ad.sum_all(ad.mul(diff, diff)), {"w": w})
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
            grads = backward(ad.sum_all(ad.mul(w, w)), {"w": w, "other": other})
        assert np.array_equal(grads["other"], np.zeros((3, 3)))

    def test_deterministic_bitwise(self, rng):
        x = Var(rng.normal(size=(4, 4)))
        w = Var(rng.normal(size=(4, 4)))
        with Tape():
            loss = ad.sum_all(ad.softmax_rows(ad.matmul(x, w)))
            first = backward(loss, {"x": x, "w": w})
            second = backward(loss, {"x": x, "w": w})
        for key in first:
            assert np.array_equal(first[key], second[key])

    def test_reused_variable_accumulates(self, rng):
        x = Var(rng.normal(size=(2, 2)))
        with Tape():
            loss = ad.sum_all(ad.add(x, x))
            grads = backward(loss, {"x": x})
        assert np.array_equal(grads["x"], np.full((2, 2), 2.0))

    def test_block_end_frees_activations(self, rng):
        # without the cyclic collector, only dropping the records at the end
        # of the block can free what they hold
        x, w = Var(rng.normal(size=(3, 4))), Var(rng.normal(size=(4, 4)))
        gc.disable()
        try:
            with Tape():
                hidden = ad.relu(ad.matmul(x, w))
                ref = weakref.ref(hidden.data)
                loss = ad.sum_all(ad.mul(hidden, hidden))
                del hidden
                assert ref() is not None
            assert ref() is None
            assert loss.item() > 0
        finally:
            gc.enable()

    def test_backward_after_block_end_rejected(self, rng):
        w = Var(rng.normal(size=(2, 2)))
        with Tape():
            loss = ad.sum_all(ad.mul(w, w))
        with pytest.raises(GradientError, match="ended"):
            backward(loss, {"w": w})

    def test_no_tape_means_plain_computation(self, rng):
        out = ad.matmul(rng.normal(size=(2, 3)), rng.normal(size=(3, 2)))
        assert out.tape is None
