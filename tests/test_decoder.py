import dataclasses

import numpy as np
import pytest

from speechmotion import (
    AudioInput,
    ModelConfig,
    ShapeError,
    Var,
    autoregress,
    decode_motion,
    decoder_layer,
    embed_step,
    encode,
    rollout,
)
from speechmotion import autodiff as ad
from speechmotion import decoder, init_params, training
from speechmotion.positional import head_slopes, ppe_row

from conftest import finite_diff, rel_err
from reference import causal_mask, temporal_bias


def _audio(rng, rows=8):
    return AudioInput.from_features(rng.normal(size=(rows, 4)), 50.0)


@pytest.fixture
def live_params(tiny_params, rng):
    """Bundle with a nonzero vertex projection so rollouts produce varying,
    history-dependent motion (the default init starts that layer at zero)."""
    params = dict(tiny_params)
    params["motion_dec.w"] = Var(rng.normal(size=(8, 9)))
    params["motion_dec.b"] = Var(rng.normal(size=(1, 9)))
    return params


def _vertex_map(params):
    """The motion encoder, which embeds a vertex-space frame."""
    return params["motion_enc.w"], params["motion_enc.b"]


class TestEmbedStep:
    def test_step_zero_is_style_plus_position(self, tiny_cfg, tiny_params):
        out = embed_step(None, _vertex_map(tiny_params), 1, 0, tiny_params, tiny_cfg)
        style = tiny_params["style.table"].data[1]
        assert np.allclose(out.data[0] - ppe_row(0, tiny_cfg)[0], style, atol=1e-15)

    def test_zero_motion_encoder_leaves_style_plus_position(self, tiny_cfg, tiny_params, rng):
        params = dict(tiny_params)
        params["motion_enc.w"] = Var(np.zeros((9, 8)))
        params["motion_enc.b"] = Var(np.zeros((1, 8)))
        prev = rng.normal(size=(1, 9))
        for t in (1, 3):
            out = embed_step(prev, _vertex_map(params), 0, t, params, tiny_cfg)
            expect = params["style.table"].data[0:1] + ppe_row(t, tiny_cfg)
            assert np.allclose(out.data, expect, atol=1e-15)

    def test_identities_differ(self, tiny_cfg, tiny_params, rng):
        prev = rng.normal(size=(1, 9))
        vmap = _vertex_map(tiny_params)
        a = embed_step(prev, vmap, 0, 2, tiny_params, tiny_cfg)
        b = embed_step(prev, vmap, 1, 2, tiny_params, tiny_cfg)
        assert not np.allclose(a.data, b.data)

    def test_identity_out_of_range(self, tiny_cfg, tiny_params):
        with pytest.raises(ShapeError, match="identity"):
            embed_step(None, _vertex_map(tiny_params), 2, 0, tiny_params, tiny_cfg)

    def test_prev_motion_presence_contract(self, tiny_cfg, tiny_params, rng):
        vmap = _vertex_map(tiny_params)
        with pytest.raises(ShapeError):
            embed_step(rng.normal(size=(1, 9)), vmap, 0, 0, tiny_params, tiny_cfg)
        with pytest.raises(ShapeError):
            embed_step(None, vmap, 0, 1, tiny_params, tiny_cfg)


class TestDecoderLayer:
    def test_single_token_prefix(self, tiny_cfg, tiny_params, rng):
        enc = encode(_audio(rng), 4, tiny_params, tiny_cfg)
        fhat = Var(rng.normal(size=(1, 8)))
        out, records = decoder_layer(fhat, enc, tiny_params, tiny_cfg, capture=True)
        assert out.shape == (1, 8)
        rec_self, _ = records
        for w in rec_self.head_weights:  # single key: identity-weight pass
            assert np.array_equal(w, [[1.0]])

    def test_row_count_preserved(self, tiny_cfg, tiny_params, rng):
        enc = encode(_audio(rng), 4, tiny_params, tiny_cfg)
        for t in (1, 2, 4):
            out, _ = decoder_layer(Var(rng.normal(size=(t, 8))), enc, tiny_params, tiny_cfg)
            assert out.shape == (t, 8)

    def test_cross_attention_stays_in_window(self, tiny_cfg, tiny_params, rng):
        enc = encode(_audio(rng), 4, tiny_params, tiny_cfg)
        _, records = decoder_layer(
            Var(rng.normal(size=(3, 8))), enc, tiny_params, tiny_cfg, capture=True
        )
        _, rec_cross = records
        k = tiny_cfg.frame_ratio
        for w in rec_cross.head_weights:
            for i in range(3):
                support = np.flatnonzero(w[i])
                assert support.min() >= k * i and support.max() < k * (i + 1)

    def test_future_row_perturbation_leaves_past(self, tiny_cfg, tiny_params, rng):
        enc = encode(_audio(rng), 4, tiny_params, tiny_cfg)
        fhat = rng.normal(size=(4, 8))
        base, _ = decoder_layer(Var(fhat), enc, tiny_params, tiny_cfg)
        bumped = fhat.copy()
        bumped[3] += rng.normal(size=8)
        changed, _ = decoder_layer(Var(bumped), enc, tiny_params, tiny_cfg)
        assert np.array_equal(base.data[:3], changed.data[:3])
        assert not np.allclose(base.data[3], changed.data[3])

    def test_cached_step_takes_one_row(self, tiny_cfg, tiny_params, rng):
        enc = encode(_audio(rng), 4, tiny_params, tiny_cfg)
        past = decoder.layer_caches(enc, 4, tiny_params, tiny_cfg)[0]
        with pytest.raises(ShapeError, match="one row"):
            decoder_layer(Var(rng.normal(size=(2, 8))), enc, tiny_params, tiny_cfg, past=past)

    def test_prefix_longer_than_audio_rejected(self, tiny_cfg, tiny_params, rng):
        enc = encode(_audio(rng), 2, tiny_params, tiny_cfg)
        with pytest.raises(ShapeError, match="exceeds"):
            decoder_layer(Var(rng.normal(size=(3, 8))), enc, tiny_params, tiny_cfg)


class TestDecodeMotion:
    def test_zero_hidden_gives_bias(self, tiny_params, rng):
        b = rng.normal(size=(1, 9))
        params = dict(tiny_params)
        params["motion_dec.b"] = Var(b)
        out = decode_motion(np.zeros((4, 8)), params)
        assert np.allclose(out.data, np.repeat(b, 4, axis=0), atol=1e-15)

    def test_zero_weight_constant_output(self, tiny_params, rng):
        params = dict(tiny_params)
        params["motion_dec.w"] = Var(np.zeros((8, 9)))
        params["motion_dec.b"] = Var(rng.normal(size=(1, 9)))
        out = decode_motion(rng.normal(size=(5, 8)), params)
        assert np.allclose(out.data, np.repeat(params["motion_dec.b"].data, 5, 0), atol=1e-15)

    def test_prefix_rows_bitwise_at_blas_width(self, rng):
        # at 128 x 300 BLAS runs its blocked GEMM kernels, where a plain
        # H[:t] @ W rounds most prefixes differently from the full product
        params = {
            "motion_dec.w": Var(rng.normal(size=(128, 300))),
            "motion_dec.b": Var(rng.normal(size=(1, 300))),
        }
        hidden = rng.normal(size=(69, 128))
        full = decode_motion(hidden, params).data
        differ = [
            t for t in range(1, 70)
            if not np.array_equal(decode_motion(hidden[:t], params).data, full[:t])
        ]
        assert differ == []

    def test_gradients(self, tiny_params, rng):
        hidden = rng.normal(size=(3, 8))
        params = {
            "motion_dec.w": Var(rng.normal(size=(8, 9))),
            "motion_dec.b": Var(rng.normal(size=(1, 9))),
        }

        def loss_var():
            out = decode_motion(hidden, params)
            return ad.sum_all(ad.mul(out, out))

        for name in params:
            with ad.Tape():
                g = ad.backward(loss_var(), params)[name]
            fd = finite_diff(lambda: loss_var().item(), params[name].data)
            assert rel_err(g, fd) < 1e-6


class TestAutoregress:
    def test_output_shape(self, tiny_cfg, live_params, rng):
        out = autoregress(_audio(rng), 0, 4, live_params, tiny_cfg)
        assert out.shape == (4, 3 * tiny_cfg.vertices)

    def test_deterministic_bitwise(self, tiny_cfg, live_params, rng):
        audio = _audio(rng)
        a = autoregress(audio, 1, 4, live_params, tiny_cfg)
        b = autoregress(audio, 1, 4, live_params, tiny_cfg)
        assert np.array_equal(a, b)

    def test_prefix_consistency_over_fixed_encoding(self, tiny_cfg, live_params, rng):
        enc = encode(_audio(rng), 4, live_params, tiny_cfg)
        full = rollout(enc, 0, 4, live_params, tiny_cfg).data
        assert np.abs(np.diff(full, axis=0)).max() > 0  # rollout really varies
        for t in (1, 2, 3):
            prefix = rollout(enc, 0, t, live_params, tiny_cfg).data
            assert np.array_equal(prefix, full[:t])

    def test_first_frame_ignores_motion_history(self, tiny_cfg, live_params, rng):
        # the first predicted frame must match across any longer run
        enc = encode(_audio(rng), 4, live_params, tiny_cfg)
        one = rollout(enc, 1, 1, live_params, tiny_cfg).data
        four = rollout(enc, 1, 4, live_params, tiny_cfg).data
        assert np.array_equal(one[0], four[0])

    def test_one_embed_per_step_and_one_head_call(self, tiny_cfg, live_params, rng, monkeypatch):
        calls = {"embed": 0, "head_rows": []}
        embed, head = decoder.embed_step, decoder.decode_motion

        def counted_embed(*args):
            calls["embed"] += 1
            return embed(*args)

        def counted_head(hidden, params):
            calls["head_rows"].append(hidden.rows)
            return head(hidden, params)

        monkeypatch.setattr(decoder, "embed_step", counted_embed)
        monkeypatch.setattr(decoder, "decode_motion", counted_head)
        enc = encode(_audio(rng), 4, live_params, tiny_cfg)
        assert rollout(enc, 0, 4, live_params, tiny_cfg).shape == (4, 9)
        assert calls == {"embed": 4, "head_rows": [4]}

    def test_prefix_bitwise_at_blas_width(self, rng):
        # BLAS picks its kernel by a product's shape, so a row can round
        # differently in products of different row counts (at frame ratio 1,
        # projecting only a one-step rollout's audio rows would be a GEMV):
        # the audio keys and values are projected over all of enc.a, however
        # many steps the rollout takes
        cfg = ModelConfig(
            dim=128, heads=4, period=5, feature_rate=25.0, encoder_layers=1,
            decoder_layers=2, ff_dim=256, encoder_dim=128, encoder_heads=4,
        ).validate()
        params = init_params(cfg, seed=3)
        params["motion_dec.w"] = Var(rng.normal(size=(128, cfg.motion_dim)) * 0.1)
        frames = 40
        audio = AudioInput.from_features(
            rng.normal(size=(cfg.frame_ratio * frames, cfg.feature_dim)), cfg.feature_rate
        )
        enc = encode(audio, frames, params, cfg)
        full = rollout(enc, 0, frames, params, cfg).data
        differ = [
            t for t in range(1, frames)
            if not np.array_equal(rollout(enc, 0, t, params, cfg).data, full[:t])
        ]
        assert differ == []

    def test_one_bias_row_per_rollout(self, tiny_cfg, rng, monkeypatch):
        cfg = dataclasses.replace(tiny_cfg, decoder_layers=2).validate()
        params = init_params(cfg, seed=0)
        calls = {"decoder_self_bias": 0, "alignment_bias": 0}

        def counted(name):
            fn = getattr(decoder, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(decoder, name, counted(name))
        enc = encode(_audio(rng), 4, params, cfg)
        rollout(enc, 0, 4, params, cfg)
        assert calls == {"decoder_self_bias": 1, "alignment_bias": 0}

    @pytest.mark.parametrize("mode", ["tb_ppe", "alibi", "original_pe"])
    def test_step_biases_are_reference_rows(self, tiny_cfg, live_params, rng, monkeypatch, mode):
        cfg = dataclasses.replace(tiny_cfg, pe_mode=mode).validate()
        seen = []
        attend = decoder.mh_attention

        def spy(x_q, x_kv, proj, heads, bias, *args, **kwargs):
            seen.append((x_kv.rows, bias))
            return attend(x_q, x_kv, proj, heads, bias, *args, **kwargs)

        monkeypatch.setattr(decoder, "mh_attention", spy)
        frames = 7
        enc = encode(_audio(rng, rows=14), frames, live_params, cfg)
        rollout(enc, 0, frames, live_params, cfg)
        assert len(seen) == 2 * frames
        for t in range(frames):
            (self_rows, self_bias), (cross_rows, cross_bias) = seen[2 * t : 2 * t + 2]
            assert (self_rows, cross_rows, cross_bias) == (t + 1, cfg.frame_ratio, None)
            assert self_bias.kind == "temporal"
            for h, slope in enumerate(head_slopes(cfg.heads)):
                if mode == "original_pe":
                    ref = causal_mask(frames).data[t]
                else:
                    ref = temporal_bias(frames, cfg.period if mode == "tb_ppe" else 1, slope).data[t]
                assert np.array_equal(self_bias.data[h, 0], ref[: t + 1])
                assert np.isneginf(ref[t + 1 :]).all()

    def test_empty_sequence_rejected(self, tiny_cfg, live_params, rng):
        enc = encode(_audio(rng), 4, live_params, tiny_cfg)
        with pytest.raises(ShapeError, match="empty"):
            rollout(enc, 0, 0, live_params, tiny_cfg)

    def test_inferred_length_from_audio(self, tiny_cfg, live_params, rng):
        out = autoregress(_audio(rng, rows=8), 0, None, live_params, tiny_cfg)
        assert out.shape[0] == 4  # 8 rows at 50 Hz -> 4 frames at 25 fps

    def test_identity_changes_output(self, tiny_cfg, live_params, rng):
        audio = _audio(rng)
        a = autoregress(audio, 0, 3, live_params, tiny_cfg)
        b = autoregress(audio, 1, 3, live_params, tiny_cfg)
        assert not np.allclose(a, b)

    def test_long_rollout_finite_in_periodic_mode(self, tiny_cfg, live_params, rng):
        audio = AudioInput.from_features(rng.normal(size=(48, 4)), 50.0)
        out = autoregress(audio, 0, 24, live_params, tiny_cfg)  # 8x the period
        assert np.isfinite(out).all()


def _dense_rollout(enc, identity, motion_len, params, cfg, detach_feedback=False):
    """Reference rollout: every step re-runs each layer on the full prefix,
    decodes its row and feeds that vertex-space frame back through the motion
    encoder."""
    embeds, preds = [], []
    for t in range(motion_len):
        prev = (ad.detach(preds[-1]) if detach_feedback else preds[-1]) if t else None
        embeds.append(embed_step(prev, _vertex_map(params), identity, t, params, cfg))
        x = ad.concat_rows(embeds)
        for layer in range(cfg.decoder_layers):
            x, _ = decoder_layer(x, enc, params, cfg, layer)
        preds.append(ad.take_row(decode_motion(x, params), t))
    return ad.concat_rows(preds)


@pytest.fixture(params=["tb_ppe", "alibi", "original_pe"])
def two_layer(request, tiny_cfg, rng):
    """Two-layer config per pe_mode, with a live vertex projection."""
    cfg = dataclasses.replace(tiny_cfg, pe_mode=request.param, decoder_layers=2).validate()
    params = init_params(cfg, seed=4)
    params["motion_dec.w"] = Var(rng.normal(size=(8, 9)))
    return cfg, params


class TestPrefixCache:
    def test_layer_with_past_matches_full_prefix(self, two_layer, rng):
        cfg, params = two_layer
        enc = encode(_audio(rng, rows=12), 6, params, cfg)
        rows = rng.normal(size=(6, 8))
        for layer in range(2):
            full, _ = decoder_layer(Var(rows), enc, params, cfg, layer)
            for s, t in ((1, 1), (3, 2), (5, 1)):
                past = decoder.layer_caches(enc, 6, params, cfg)[layer]
                steps = [
                    decoder_layer(Var(rows[i : i + 1]), enc, params, cfg, layer, past=past)[0]
                    for i in range(s + t)
                ]
                new = ad.concat_rows(steps[s:])
                assert np.abs(new.data - full.data[s : s + t]).max() <= 1e-12

    def test_rollout_matches_dense_reference(self, two_layer, rng):
        cfg, params = two_layer
        enc = encode(_audio(rng, rows=12), 6, params, cfg)
        cached = rollout(enc, 1, 6, params, cfg).data
        dense = _dense_rollout(enc, 1, 6, params, cfg).data
        assert np.abs(np.diff(dense, axis=0)).max() > 0
        assert np.abs(cached - dense).max() <= 1e-12

    @pytest.mark.parametrize("detach_feedback", [False, True])
    def test_loss_gradients_match_dense_reference(
        self, two_layer, rng, monkeypatch, detach_feedback
    ):
        cfg, params = two_layer
        sample = training.TrainingSample(
            _audio(rng, rows=10), rng.normal(size=(5, 9)) * 0.3, identity=0
        )

        def grads():
            with ad.Tape():
                loss, _ = training.rollout_loss(
                    sample, params, cfg, detach_feedback=detach_feedback
                )
                return ad.backward(loss, params)

        cached = grads()
        monkeypatch.setattr(training, "rollout", _dense_rollout)
        dense = grads()
        for name in params:
            assert np.abs(cached[name] - dense[name]).max() <= 1e-10, name
