import dataclasses
import re

import numpy as np
import pytest

from speechmotion import (
    AttentionRecord,
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
from speechmotion.decoder import embed_table
from speechmotion import autodiff as ad
from speechmotion import decoder, init_params, training
from speechmotion.positional import head_slopes, ppe_rows

from conftest import cached_step, finite_diff, rel_err
import reference
from reference import causal_mask, dense_decoder_layer, mul, sum_all, temporal_bias


def _audio(rng, rows=8):
    return AudioInput.from_features(rng.normal(size=(rows, 4)), 50.0)


def _motion(enc, identity, frames, params, cfg):
    """The vertex head's rows for a rollout of ``frames`` steps."""
    return decode_motion(rollout(enc, identity, frames, params, cfg), params).data


@pytest.fixture
def live_params(tiny_params, rng):
    """Bundle with a nonzero vertex projection so rollouts produce varying,
    history-dependent motion (the default init starts that layer at zero)."""
    params = dict(tiny_params)
    params["motion_dec.w"] = Var(rng.normal(size=(8, 9)))
    params["motion_dec.b"] = Var(rng.normal(size=(1, 9)))
    return params


def _embed(prev, identity, t, params, cfg, step=embed_step):
    """embed_step of a vertex-space frame: the motion encoder's weight, and a
    table built with its bias. The package's step is untaped: a taped loss
    passes the reference's composed ``step``."""
    table = embed_table(identity, params["motion_enc.b"], t + 1, params, cfg)
    return step(prev, params["motion_enc.w"], table, t)


class TestEmbedStep:
    def test_step_zero_is_style_plus_position(self, tiny_cfg, tiny_params):
        out = _embed(None, 1, 0, tiny_params, tiny_cfg)
        style = tiny_params["style.table"].data[1]
        assert np.allclose(out.data[0] - ppe_rows([0], tiny_cfg)[0], style, atol=1e-15)

    def test_zero_motion_encoder_leaves_style_plus_position(self, tiny_cfg, tiny_params, rng):
        params = dict(tiny_params)
        params["motion_enc.w"] = Var(np.zeros((9, 8)))
        params["motion_enc.b"] = Var(np.zeros((1, 8)))
        prev = rng.normal(size=(1, 9))
        for t in (1, 3):
            out = _embed(prev, 0, t, params, tiny_cfg)
            expect = params["style.table"].data[0:1] + ppe_rows([t], tiny_cfg)
            assert np.allclose(out.data, expect, atol=1e-15)

    def test_motion_bias_from_step_one(self, tiny_cfg, tiny_params, rng):
        # the table holds the motion encoder's bias on rows 1.. only: step 0
        # embeds no motion at all
        params = dict(tiny_params)
        params["motion_enc.b"] = Var(rng.normal(size=(1, 8)))
        style = params["style.table"].data[1:2]
        assert np.allclose(_embed(None, 1, 0, params, tiny_cfg).data,
                           style + ppe_rows([0], tiny_cfg), atol=1e-15)
        prev = rng.normal(size=(1, 9))
        expect = (prev @ params["motion_enc.w"].data + params["motion_enc.b"].data
                  + style + ppe_rows([3], tiny_cfg))
        assert np.allclose(_embed(prev, 1, 3, params, tiny_cfg).data, expect, atol=1e-14)

    def test_identities_differ(self, tiny_cfg, tiny_params, rng):
        prev = rng.normal(size=(1, 9))
        a = _embed(prev, 0, 2, tiny_params, tiny_cfg)
        b = _embed(prev, 1, 2, tiny_params, tiny_cfg)
        assert not np.allclose(a.data, b.data)

    def test_identity_out_of_range(self, tiny_cfg, tiny_params):
        with pytest.raises(ShapeError, match="identity"):
            _embed(None, 2, 0, tiny_params, tiny_cfg)

    def test_prev_motion_presence_contract(self, tiny_cfg, tiny_params, rng):
        with pytest.raises(ShapeError):
            _embed(rng.normal(size=(1, 9)), 0, 0, tiny_params, tiny_cfg)
        with pytest.raises(ShapeError):
            _embed(None, 0, 1, tiny_params, tiny_cfg)


class TestDecoderLayer:
    def test_single_token_prefix(self, tiny_cfg, tiny_params, rng):
        enc = encode(_audio(rng), 4, tiny_params, tiny_cfg)
        past = decoder.layer_caches(enc, 4, tiny_params, tiny_cfg)[0]
        fhat = Var(rng.normal(size=(1, 8)))
        out, (w_self, _) = decoder_layer(fhat, past)
        assert out.shape == (1, 8)
        # step 0 has one key: identity-weight pass
        assert np.array_equal(w_self, np.ones((tiny_cfg.heads, 1, 1)))

    def test_row_count_preserved(self, tiny_cfg, tiny_params, rng):
        enc = encode(_audio(rng), 4, tiny_params, tiny_cfg)
        past = decoder.layer_caches(enc, 4, tiny_params, tiny_cfg)[0]
        for s in range(4):
            row = Var(rng.normal(size=(1, 8)))
            out, _ = decoder_layer(row, past)
            assert out.shape == (1, 8) and past.steps == s + 1

    def test_cross_attention_stays_in_window(self, tiny_cfg, tiny_params, rng):
        # step s's k cross weights are the window columns of row s of the
        # dense alignment-biased map, which is exactly zero elsewhere
        enc = encode(_audio(rng), 4, tiny_params, tiny_cfg)
        past = decoder.layer_caches(enc, 4, tiny_params, tiny_cfg)[0]
        rows = rng.normal(size=(4, 8))
        k = tiny_cfg.frame_ratio
        for s in range(4):
            _, (_, w_cross) = decoder_layer(Var(rows[s : s + 1]), past)
            _, (_, dense) = dense_decoder_layer(Var(rows[: s + 1]), enc, tiny_params, tiny_cfg)
            for w, ref in zip(w_cross, dense):
                window = ref[s, k * s : k * (s + 1)]
                assert w.shape == (1, k) and np.abs(w[0] - window).max() <= 1e-12
                assert not np.delete(ref[s], np.s_[k * s : k * (s + 1)]).any()

    def test_future_row_perturbation_leaves_past(self, tiny_cfg, tiny_params, rng):
        enc = encode(_audio(rng), 4, tiny_params, tiny_cfg)
        rows = rng.normal(size=(4, 8))
        for s in range(4):
            base = cached_step(enc, tiny_params, tiny_cfg, rows, s)
            bumped = cached_step(enc, tiny_params, tiny_cfg, rows, s, bump=True)
            assert np.array_equal(base, bumped)

    def test_cached_step_takes_one_row(self, tiny_cfg, tiny_params, rng):
        enc = encode(_audio(rng), 4, tiny_params, tiny_cfg)
        past = decoder.layer_caches(enc, 4, tiny_params, tiny_cfg)[0]
        with pytest.raises(ShapeError, match="one row"):
            decoder_layer(Var(rng.normal(size=(2, 8))), past)
        with pytest.raises(ShapeError, match="one row of width 8"):
            decoder_layer(Var(rng.normal(size=(1, 7))), past)
        for _ in range(4):
            decoder_layer(Var(rng.normal(size=(1, 8))), past)
        with pytest.raises(ShapeError, match="all 4 steps"):
            decoder_layer(Var(rng.normal(size=(1, 8))), past)


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

    def test_blocks_are_the_rows_of_one_call_and_never_taped(self, rng):
        # 69 rows are two whole HEAD_BLOCK blocks and a short one, decoded
        # through one reused buffer; an open tape records none of them
        params = {
            "motion_dec.w": Var(rng.normal(size=(128, 300))),
            "motion_dec.b": Var(rng.normal(size=(1, 300))),
        }
        hidden = Var(rng.normal(size=(69, 128)))
        full = decode_motion(hidden, params).data
        with ad.Tape() as tape:
            blocks = [b.copy() for b in decoder.motion_blocks(hidden, params)]
            assert len(tape) == 0
        assert [len(b) for b in blocks] == [decoder.HEAD_BLOCK] * 2 + [69 - 2 * decoder.HEAD_BLOCK]
        assert np.concatenate(blocks).tobytes() == full.tobytes()

    def test_gradients(self, tiny_params, rng):
        hidden = rng.normal(size=(3, 8))
        params = {
            "motion_dec.w": Var(rng.normal(size=(8, 9))),
            "motion_dec.b": Var(rng.normal(size=(1, 9))),
        }

        def loss_var():
            out = decode_motion(hidden, params)
            return sum_all(mul(out, out))

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
        full = _motion(enc, 0, 4, live_params, tiny_cfg)
        assert np.abs(np.diff(full, axis=0)).max() > 0  # rollout really varies
        for t in (1, 2, 3):
            prefix = _motion(enc, 0, t, live_params, tiny_cfg)
            assert np.array_equal(prefix, full[:t])

    def test_first_frame_ignores_motion_history(self, tiny_cfg, live_params, rng):
        # the first predicted frame must match across any longer run
        enc = encode(_audio(rng), 4, live_params, tiny_cfg)
        one = _motion(enc, 1, 1, live_params, tiny_cfg)
        four = _motion(enc, 1, 4, live_params, tiny_cfg)
        assert np.array_equal(one[0], four[0])

    def test_one_embed_per_step_and_one_head_call(self, tiny_cfg, live_params, rng, monkeypatch):
        calls = {"embed": 0, "head_rows": []}
        embed, head = decoder.embed_step, decoder.decode_motion

        def counted_embed(*args):
            calls["embed"] += 1
            return embed(*args)

        def counted_head(hidden, *args):
            calls["head_rows"].append(hidden.rows)
            return head(hidden, *args)

        monkeypatch.setattr(decoder, "embed_step", counted_embed)
        monkeypatch.setattr(decoder, "decode_motion", counted_head)
        assert autoregress(_audio(rng), 0, 4, live_params, tiny_cfg).shape == (4, 9)
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
        full = _motion(enc, 0, frames, params, cfg)
        differ = [
            t for t in range(1, frames)
            if not np.array_equal(_motion(enc, 0, t, params, cfg), full[:t])
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

    @pytest.mark.parametrize("name, shape", [
        ("dec.layer0.ff.w2", (15, 8)), ("dec.layer0.self.wk", (8, 9)),
        ("dec.layer0.ln2.gain", (1, 7)),
        # T = 4 gives 8 encoder rows, so without the check an (8, 1) gain
        # would broadcast into a wrong 8 x 8 result instead of failing
        ("enc.layer0.ln1.gain", (8, 1)), ("enc.layer0.attn.wq", (8, 6)),
        ("enc.layer0.ff.w2", (16, 7)),
    ])
    def test_wrong_shaped_parameter_named(self, tiny_cfg, live_params, rng, name, shape):
        # checked once per encode and once per rollout, before any layer runs
        params = dict(live_params)
        params[name] = Var(np.zeros(shape))
        with pytest.raises(ShapeError, match=re.escape(f"parameter {name} has shape {shape}")):
            autoregress(_audio(rng), 0, 4, params, tiny_cfg)

    def test_encode_leaves_decoder_shapes_to_the_rollout(
        self, tiny_cfg, live_params, rng, monkeypatch
    ):
        # encode checks the enc.* parameters only; the rollout names a wrong
        # dec.* one before any layer step runs
        params = dict(live_params)
        params["dec.layer0.cross.wv"] = Var(np.zeros((8, 5)))
        enc = encode(_audio(rng), 4, params, tiny_cfg)
        monkeypatch.setattr(decoder, "decoder_layer", lambda *a: pytest.fail("stepped"))
        with pytest.raises(
            ShapeError, match=re.escape("parameter dec.layer0.cross.wv has shape (8, 5)")
        ):
            rollout(enc, 0, 4, params, tiny_cfg)

    def test_empty_sequence_rejected(self, tiny_cfg, live_params, rng):
        enc = encode(_audio(rng), 4, live_params, tiny_cfg)
        with pytest.raises(ShapeError, match="empty"):
            rollout(enc, 0, 0, live_params, tiny_cfg)

    @pytest.mark.parametrize("mode", ["tb_ppe", "alibi", "original_pe"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_capture_leaves_output_bitwise(self, tiny_cfg, rng, mode, layers):
        cfg = dataclasses.replace(tiny_cfg, pe_mode=mode, decoder_layers=layers).validate()
        params = init_params(cfg, seed=4)
        params["motion_dec.w"] = Var(rng.normal(size=(8, 9)))
        for rows in (2, 10, 80):
            audio = _audio(rng, rows=rows)
            records = []
            captured = autoregress(audio, 0, None, params, cfg, capture=records)
            assert records and np.array_equal(captured, autoregress(audio, 0, None, params, cfg))

    def test_longer_than_audio_rejected(self, tiny_cfg, live_params, rng):
        enc = encode(_audio(rng), 4, live_params, tiny_cfg)
        with pytest.raises(ShapeError, match="audio covers 4"):
            rollout(enc, 0, 5, live_params, tiny_cfg)

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


def _dense_rollout(enc, identity, motion_len, params, cfg, capture=None):
    """Reference rollout: every step re-runs each layer on the full prefix,
    decodes its row and feeds that vertex-space frame back through the motion
    encoder. Returns the hidden rows, as ``rollout`` does. With ``capture``,
    the last step's attention records are kept."""
    embeds, preds, hidden = [], [], []
    for t in range(motion_len):
        embeds.append(_embed(preds[-1] if t else None, identity, t, params, cfg,
                             reference.composed_embed_step))
        x = reference.concat_rows(embeds)
        for layer in range(cfg.decoder_layers):
            x, weights = dense_decoder_layer(x, enc, params, cfg, layer)
            if capture is not None and t == motion_len - 1:
                capture.extend(
                    AttentionRecord(m, layer, t, w)
                    for m, w in zip(("decoder.self", "decoder.cross"), weights)
                )
        hidden.append(ad.take_row(x, t))
        preds.append(ad.take_row(decode_motion(x, params), t))
    return reference.concat_rows(hidden)


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
            full, _ = dense_decoder_layer(Var(rows), enc, params, cfg, layer)
            for s, t in ((1, 1), (3, 2), (5, 1)):
                past = decoder.layer_caches(enc, 6, params, cfg)[layer]
                steps = [
                    decoder_layer(Var(rows[i : i + 1]), past)[0]
                    for i in range(s + t)
                ]
                new = reference.concat_rows(steps[s:])
                assert np.abs(new.data - full.data[s : s + t]).max() <= 1e-12

    def test_rollout_matches_dense_reference(self, two_layer, rng):
        cfg, params = two_layer
        enc = encode(_audio(rng, rows=12), 6, params, cfg)
        cached = rollout(enc, 1, 6, params, cfg).data
        dense = _dense_rollout(enc, 1, 6, params, cfg).data
        assert np.abs(np.diff(dense, axis=0)).max() > 0
        assert np.abs(cached - dense).max() <= 1e-12

    @pytest.mark.parametrize("frames", [1, 6])
    def test_captured_maps_match_dense_reference(self, two_layer, rng, frames):
        cfg, params = two_layer
        enc = encode(_audio(rng, rows=12), 6, params, cfg)
        cached, dense = [], []
        rollout(enc, 1, frames, params, cfg, capture=cached)
        _dense_rollout(enc, 1, frames, params, cfg, capture=dense)
        k = cfg.frame_ratio
        causal = np.tril(np.ones((frames, frames))) > 0
        window = np.kron(np.eye(frames), np.ones((1, k))) > 0
        assert [(r.module, r.layer, r.step) for r in cached] == [
            (m, layer, frames - 1) for layer in range(2) for m in ("decoder.self", "decoder.cross")
        ]
        for got, ref in zip(cached, dense):
            support = causal if got.module == "decoder.self" else window
            for w, w_ref in zip(got.weights, ref.weights):
                assert w.shape == w_ref.shape and np.abs(w - w_ref).max() <= 1e-12
                assert np.array_equal(w == 0.0, w_ref == 0.0)
                assert not w[~support].any()

    @pytest.mark.parametrize("waveform", [False, True])
    def test_loss_gradients_match_dense_reference(
        self, two_layer, rng, monkeypatch, waveform
    ):
        cfg, params = two_layer
        audio = (
            AudioInput.from_waveform(rng.normal(size=3280) * 0.3, 16000.0)
            if waveform else _audio(rng, rows=10)
        )
        sample = training.TrainingSample(audio, rng.normal(size=(5, 9)) * 0.3, identity=0)

        def grads():
            with ad.Tape():
                loss, _ = training.rollout_loss(sample, params, cfg)
                return ad.backward(loss, params)

        cached = grads()
        monkeypatch.setattr(training, "rollout", _dense_rollout)
        dense = grads()
        for name in params:
            assert np.abs(cached[name] - dense[name]).max() <= 1e-10, name


class TestStepRecords:
    """A rollout is one record, with the bits, forward and backward, of the
    composition in ``reference``: per step a row and a ``linear`` for the
    input row, then per layer two row writes, four row takes, two
    attention, three add-norm and one feed-forward records, and a row
    concatenation of the hidden rows."""

    @staticmethod
    def _run(monkeypatch, composed, audio, motion, params, cfg, capture):
        """Prediction, captured records, the gradient of every parameter and
        of every input of the rollout's record that is not one, the tape's
        length and the decoder layer steps run."""
        seen = {"layers": 0}
        with monkeypatch.context() as m:
            table_of, caches_of, layer = (
                decoder.embed_table, decoder.layer_caches, decoder.decoder_layer
            )

            def table_spy(*args):
                seen["table"] = table_of(*args)
                return seen["table"]

            def caches_spy(*args):
                seen["caches"] = caches_of(*args)
                return seen["caches"]

            def layer_spy(fhat, past):
                seen["layers"] += 1
                return layer(fhat, past)

            m.setattr(decoder, "embed_table", table_spy)
            m.setattr(decoder, "layer_caches", caches_spy)
            m.setattr(decoder, "decoder_layer", layer_spy)
            records = [] if capture else None
            run = reference.composed_rollout if composed else rollout
            with ad.Tape() as tape:
                enc = encode(audio, motion.shape[0], params, cfg)
                pred = decode_motion(
                    run(enc, 0, motion.shape[0], params, cfg, capture=records), params)
                loss = ad.squared_error(pred, motion)
                wrt = dict(params, a=enc.a, table=seen["table"])
                for i, c in enumerate(seen["caches"]):
                    wrt.update({f"{i}.audio_k": c.audio_kv[0], f"{i}.audio_v": c.audio_kv[1]})
                grads = ad.backward(loss, wrt)
                return pred.data, records, grads, len(tape), seen["layers"]

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("mode", ["tb_ppe", "alibi", "original_pe"])
    def test_bitwise_equal_to_composed_records(
        self, tiny_cfg, rng, monkeypatch, mode, layers, capture
    ):
        cfg = dataclasses.replace(tiny_cfg, pe_mode=mode, decoder_layers=layers).validate()
        params = init_params(cfg, seed=4)
        params["motion_dec.w"] = Var(rng.normal(size=(8, 9)))
        frames = 5
        audio, motion = _audio(rng, rows=2 * frames), rng.normal(size=(frames, 9))
        fused = self._run(monkeypatch, False, audio, motion, params, cfg, capture)
        composed = self._run(monkeypatch, True, audio, motion, params, cfg, capture)
        (pred, records, grads, n, steps), (pred_c, records_c, grads_c, n_c, _) = fused, composed
        assert np.array_equal(pred, pred_c) and np.abs(np.diff(pred, axis=0)).max() > 0
        if capture:
            assert len(records) == len(records_c) == 2 * layers
            for r, r_c in zip(records, records_c):
                assert (r.module, r.layer, r.step) == (r_c.module, r_c.layer, r_c.step)
                assert np.array_equal(r.weights, r_c.weights)
        assert list(grads) == list(grads_c)
        for name in grads:
            assert grads[name].tobytes() == grads_c[name].tobytes(), name
        # one record for the rollout instead of one input row from step 0
        # and two from step 1 on, twelve per layer and step (two row
        # writes, four row takes and six sub-layers), and the
        # concatenation; the package still runs one layer step per layer
        # and step
        assert n_c - n == (2 * frames - 1) + 12 * layers * frames
        assert steps == layers * frames


class TestRolloutRecord:
    @staticmethod
    def _taped(cfg, params, frames, rng):
        """The tape length of a rollout loss over ``frames`` steps."""
        audio = _audio(rng, rows=cfg.frame_ratio * frames)
        sample = training.TrainingSample(audio, rng.normal(size=(frames, 9)), identity=0)
        with ad.Tape() as tape:
            training.rollout_loss(sample, params, cfg)
            return len(tape)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_tape_length_does_not_grow_with_steps(self, tiny_cfg, rng, layers):
        cfg = dataclasses.replace(tiny_cfg, decoder_layers=layers).validate()
        params = init_params(cfg, seed=0)
        lengths = {self._taped(cfg, params, frames, rng) for frames in (1, 5, 20)}
        assert len(lengths) == 1

    def test_two_backward_passes_are_equal_and_independent(self, two_layer, rng):
        cfg, params = two_layer
        enc = encode(_audio(rng, rows=12), 6, params, cfg)
        with ad.Tape() as tape:
            pred = decode_motion(rollout(enc, 1, 6, params, cfg), params)
            loss = ad.squared_error(pred, rng.normal(size=(6, 9)))
            first, second = ad.backward(loss, params), ad.backward(loss, params)
            assert first.flat.tobytes() == second.flat.tobytes()
            before = second.flat.tobytes()
            first.flat[...] = 7.0
            assert second.flat.tobytes() == before
            # the rollout's record, whose output is the head's input
            (hidden,) = [inputs[0] for out, inputs, _ in tape._records if out is pred]
            (vjp,) = [v for out, _, v in tape._records if out is hidden]
            g = rng.normal(size=(6, cfg.dim))
            once = vjp(g)
            kept = [None if a is None else a.tobytes() for a in once]
            for a in vjp(g):
                if a is not None:
                    a[...] = 7.0
            assert [None if a is None else a.tobytes() for a in once] == kept
            assert [None if a is None else a.tobytes() for a in vjp(g)] == kept
            assert ad.backward(loss, params).flat.tobytes() == second.flat.tobytes()

    def test_untaped_rollout_keeps_no_step_state(self, two_layer, rng, monkeypatch):
        cfg, params = two_layer
        caches = []
        caches_of = decoder.layer_caches

        def spy(*args):
            caches.extend(caches_of(*args))
            return caches[-cfg.decoder_layers:]

        monkeypatch.setattr(decoder, "layer_caches", spy)
        enc = encode(_audio(rng, rows=12), 6, params, cfg)
        rollout(enc, 1, 6, params, cfg)
        assert len(caches) == 2 and all(c.steps == 6 and not c.saved for c in caches)
        with ad.Tape():
            rollout(enc, 1, 6, params, cfg)
        assert [len(c.saved) for c in caches[2:]] == [6, 6]
