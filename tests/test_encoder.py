import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechmotion import (
    AudioError, AudioInput, ModelConfig, ShapeError, Tape, Var, autoregress, encode,
    extract_features,
)
from speechmotion import autodiff as ad
from speechmotion.encoder import QUERY_BLOCK, infer_motion_len, resample_rows
from speechmotion.params import extractor_min_samples
from speechmotion.params import init_params

from reference import sinusoid_row


class TestAudioInput:
    def test_exactly_one_variant(self, rng):
        with pytest.raises(AudioError):
            AudioInput(waveform=np.zeros((4, 1)), sample_rate=16000.0,
                       features=np.zeros((2, 2)), feature_rate=50.0)
        with pytest.raises(AudioError):
            AudioInput()

    def test_rates_positive(self):
        with pytest.raises(AudioError):
            AudioInput.from_features(np.zeros((2, 2)), feature_rate=0.0)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
    def test_non_finite_rates_rejected(self, rate):
        with pytest.raises(AudioError, match="feature_rate"):
            AudioInput.from_features(np.zeros((2, 2)), feature_rate=rate)
        with pytest.raises(AudioError, match="sample_rate"):
            AudioInput.from_waveform(np.zeros(4000), sample_rate=rate)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        feats = np.zeros((4, 2))
        feats[2, 1] = bad
        with pytest.raises(AudioError, match="features row 2"):
            AudioInput.from_features(feats, 50.0)
        wave = np.zeros(4000)
        wave[7] = bad
        with pytest.raises(AudioError, match="waveform row 7"):
            AudioInput.from_waveform(wave, 16000.0)

    @pytest.mark.parametrize("shape", [(16000, 2), (8000, 1, 1), ()],
                             ids=["16000x2", "8000x1x1", "scalar"])
    def test_waveform_with_more_than_one_channel_rejected(self, shape):
        # 16000 x 2 flattened would read as 32,000 samples: twice the clip
        message = re.escape(f"waveform input must have one channel (n x 1), got shape {shape}")
        with pytest.raises(AudioError, match=message):
            AudioInput.from_waveform(np.zeros(shape), 16000.0)
        with pytest.raises(AudioError, match=message):
            AudioInput(waveform=np.zeros(shape), sample_rate=16000.0)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)], ids=["5", "2x3x4"])
    def test_features_not_rows_by_width_rejected(self, shape):
        message = re.escape(f"features input must be rows x width, got shape {shape}")
        with pytest.raises(AudioError, match=message):
            AudioInput.from_features(np.zeros(shape), 50.0)
        with pytest.raises(AudioError, match=message):
            AudioInput(features=np.zeros(shape), feature_rate=50.0)

    def test_waveform_of_n_or_n_by_one_samples(self, rng):
        wave = rng.normal(size=4000)
        flat = AudioInput.from_waveform(wave, 16000.0)
        column = AudioInput.from_waveform(wave[:, None], 16000.0)
        assert flat.waveform.shape == column.waveform.shape == (4000, 1)
        assert np.array_equal(flat.waveform, column.waveform)

    def test_no_rows_rejected(self):
        with pytest.raises(AudioError, match="features input has no rows"):
            AudioInput.from_features(np.zeros((0, 2)), 50.0)
        with pytest.raises(AudioError, match="waveform input has no rows"):
            AudioInput.from_waveform(np.zeros(0), 16000.0)


class TestExtractFeatures:
    def test_feature_mode_passthrough_bitwise(self, tiny_cfg, tiny_params, rng):
        feats = rng.normal(size=(6, 4))
        audio = AudioInput.from_features(feats, 50.0)
        out = extract_features(audio, tiny_params, tiny_cfg)
        assert np.array_equal(out.data, feats)

    def test_one_second_waveform_gives_49_rows(self, tiny_cfg, tiny_params, rng):
        audio = AudioInput.from_waveform(rng.normal(size=16000) * 0.1, 16000.0)
        out = extract_features(audio, tiny_params, tiny_cfg)
        assert out.shape == (49, tiny_cfg.feature_dim)

    @pytest.mark.parametrize("samples", [extractor_min_samples(), 4001, 16000])
    def test_feature_rows_match_extractor(self, tiny_cfg, tiny_params, rng, samples):
        audio = AudioInput.from_waveform(rng.normal(size=samples) * 0.1, 16000.0)
        assert audio.feature_rows == extract_features(audio, tiny_params, tiny_cfg).rows
        assert AudioInput.from_features(rng.normal(size=(7, 4)), 50.0).feature_rows == 7

    def test_frame_ratio_from_published_rates(self):
        cfg = dataclasses.replace(ModelConfig(), feature_rate=49.0, motion_rate=25.0)
        assert cfg.frame_ratio == 2

    def test_short_waveform_rejected(self, tiny_cfg, tiny_params):
        # refused where the input is built, before any extraction
        too_short = extractor_min_samples() - 1
        with pytest.raises(AudioError, match=f"{too_short} samples is shorter"):
            AudioInput.from_waveform(np.zeros(too_short), 16000.0)
        audio = AudioInput.from_waveform(np.zeros(too_short + 1), 16000.0)
        assert extract_features(audio, tiny_params, tiny_cfg).rows == audio.feature_rows == 1


class TestResampleLinear:
    def test_same_length_is_identity(self, rng):
        x = rng.normal(size=(7, 3))
        assert np.array_equal(resample_rows(x, 7), x)

    def test_upsampling_three_to_five(self):
        out = resample_rows(np.array([[0.0], [1.0], [2.0]]), 5)
        assert np.allclose(out, [[0.0], [0.5], [1.0], [1.5], [2.0]], atol=1e-15)

    def test_endpoints_preserved(self, rng):
        x = rng.normal(size=(9, 2))
        for target in (3, 9, 17):
            out = resample_rows(x, target)
            assert np.array_equal(out[0], x[0])
            assert np.array_equal(out[-1], x[-1])

    def test_degenerate_lengths(self, rng):
        x = rng.normal(size=(1, 3))
        assert np.array_equal(resample_rows(x, 4), np.repeat(x, 4, axis=0))
        y = rng.normal(size=(5, 3))
        assert np.array_equal(resample_rows(y, 1), y[0:1])

    def test_empty_target_rejected(self, rng):
        with pytest.raises(ShapeError, match="target_len must be >= 1, got 0"):
            resample_rows(rng.normal(size=(3, 2)), 0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-2, 2), st.floats(-2, 2))
    def test_linearity(self, seed, alpha, beta):
        r = np.random.Generator(np.random.PCG64(seed))
        x, y = r.normal(size=(6, 2)), r.normal(size=(6, 2))
        combined = resample_rows(alpha * x + beta * y, 10)
        separate = alpha * resample_rows(x, 10) + beta * resample_rows(y, 10)
        assert np.allclose(combined, separate, atol=1e-12)


class TestEncode:
    def test_row_count_is_ratio_times_frames(self, tiny_cfg, tiny_params, rng):
        audio = AudioInput.from_features(rng.normal(size=(11, 4)), 50.0)
        for frames in (1, 4, 9):
            enc = encode(audio, frames, tiny_params, tiny_cfg)
            assert enc.a.shape == (tiny_cfg.frame_ratio * frames, tiny_cfg.dim)

    def test_degenerate_stack_is_positioned_resample(self, rng):
        # no encoder layers, identity projections: output must be the
        # resampled features plus the sinusoidal position rows
        cfg = ModelConfig(
            dim=4, heads=2, period=5, encoder_layers=0, decoder_layers=1,
            ff_dim=8, vertices=2, identities=1, feature_dim=4,
            encoder_dim=4, encoder_heads=2,
        ).validate()
        params = init_params(cfg, 0)
        params["enc.input_proj.w"].data[:] = np.eye(4)
        params["enc.output_proj.w"].data[:] = np.eye(4)
        feats = rng.normal(size=(6, 4))
        enc = encode(AudioInput.from_features(feats, 50.0), 3, params, cfg)
        target = 6
        pe = np.concatenate([sinusoid_row(t, 4) for t in range(target)])
        assert np.allclose(enc.a.data, feats + pe, atol=1e-12)

    def test_full_context_sensitivity(self, tiny_cfg, tiny_params, rng):
        # no causal mask: every output row reacts to every input row
        feats = rng.normal(size=(8, 4))
        base = encode(AudioInput.from_features(feats, 50.0), 4, tiny_params, tiny_cfg)
        for row in range(8):
            bumped = feats.copy()
            bumped[row] += 1.0
            changed = encode(
                AudioInput.from_features(bumped, 50.0), 4, tiny_params, tiny_cfg
            )
            delta = np.abs(changed.a.data - base.a.data).min(axis=1)
            assert (delta > 0).all(), f"some output row ignored input row {row}"

    def test_deterministic(self, tiny_cfg, tiny_params, rng):
        audio = AudioInput.from_features(rng.normal(size=(8, 4)), 50.0)
        a = encode(audio, 4, tiny_params, tiny_cfg).a.data
        b = encode(audio, 4, tiny_params, tiny_cfg).a.data
        assert np.array_equal(a, b)

    def test_inferred_motion_length(self, tiny_cfg):
        # 40 feature rows at 50 Hz with 25 fps motion -> 20 frames
        assert infer_motion_len(40, 50.0, tiny_cfg) == 20
        # rounding: 49 rows at 49 Hz is one second -> 25 frames
        cfg = dataclasses.replace(tiny_cfg, feature_rate=49.0)
        assert infer_motion_len(49, 49.0, cfg) == 25
        assert infer_motion_len(1, 50.0, tiny_cfg) == 1

    def test_feature_width_mismatch_rejected(self, tiny_cfg, tiny_params, rng):
        audio = AudioInput.from_features(rng.normal(size=(8, 5)), 50.0)
        with pytest.raises(AudioError, match="feature width"):
            encode(audio, 4, tiny_params, tiny_cfg)


class TestQueryBlocks:
    """The encoder's attention runs over QUERY_BLOCK query rows at a time."""

    def test_memory_is_linear_in_the_rows(self):
        # a T = 1,000 desk clip has N = 2,000 encoder rows; one layer's
        # heads x N x N weights alone would be 2 x 2,000^2 x 8 B = 64 MB
        cfg = ModelConfig().validate()
        params = init_params(cfg, 0)
        frames = 1000
        rows = cfg.frame_ratio * frames
        feats = np.random.Generator(np.random.PCG64(1)).normal(size=(rows, cfg.feature_dim))
        audio = AudioInput.from_features(feats, cfg.feature_rate)
        tracemalloc.start()
        try:
            enc = encode(audio, frames, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert enc.a.rows == rows
        assert peak <= 8192 * rows, f"peak {peak} B is {peak / rows:.0f} B per row"

    @pytest.mark.parametrize("taped", [True, False])
    def test_taped_forward_is_one_call_and_capture_runs_blocks(self, rng, monkeypatch, taped):
        # at N = 130, where blocks round differently from one call on all N
        # query rows, a taped layer is that one attention_fwd call, so
        # training and its gradients keep the bits of the dense map; a
        # captured layer runs the 128-row blocks that inference runs, and
        # its map holds their weights
        cfg = ModelConfig().validate()
        params = init_params(cfg, 0)
        frames = 65
        rows = cfg.frame_ratio * frames
        audio = AudioInput.from_features(
            rng.normal(size=(rows, cfg.feature_dim)), cfg.feature_rate)
        calls = []
        fwd = ad.attention_fwd

        def spy(xd, wqd, kt, vh, wod, bias):
            calls.append(fwd(xd, wqd, kt, vh, wod, bias))
            return calls[-1]

        monkeypatch.setattr(ad, "attention_fwd", spy)
        records = []
        if taped:
            with Tape():
                encode(audio, frames, params, cfg)
            blocks = [rows]
        else:
            encode(audio, frames, params, cfg, capture=records)
            blocks = [QUERY_BLOCK, rows - QUERY_BLOCK]
        assert [w.shape for _, w, _ in calls] == (
            [(cfg.encoder_heads, b, rows) for b in blocks] * cfg.encoder_layers)
        assert [(r.layer, r.step) for r in records] == (
            [] if taped else [(i, rows - 1) for i in range(cfg.encoder_layers)])
        for i, r in enumerate(records):
            layer = calls[i * len(blocks) : (i + 1) * len(blocks)]
            assert r.weights.tobytes() == np.concatenate([w for _, w, _ in layer], axis=1).tobytes()

    def test_capture_does_not_change_the_motion(self, rng):
        # the captured forward runs the untaped forward's blocks, so the
        # bytes agree at N = 258 and 322, where the blocks round differently
        # from one whole-row call, as at N = 320, where they round alike
        cfg = ModelConfig().validate()
        params = init_params(cfg, 0)
        params["motion_dec.w"] = Var(rng.normal(size=(cfg.dim, cfg.motion_dim)) * 0.1)
        for frames in (129, 160, 161):
            audio = AudioInput.from_features(
                rng.normal(size=(cfg.frame_ratio * frames, cfg.feature_dim)), cfg.feature_rate)
            captured = autoregress(audio, 0, frames, params, cfg, capture=[])
            assert captured.tobytes() == autoregress(audio, 0, frames, params, cfg).tobytes(), frames

    def test_captured_maps_are_the_whole_row_maps(self, rng):
        # at N = 320 the blocks round as one call on all rows does, so the
        # captured maps are those of the taped forward's whole-row calls
        cfg = ModelConfig().validate()
        params = init_params(cfg, 0)
        frames = 160
        rows = cfg.frame_ratio * frames
        audio = AudioInput.from_features(
            rng.normal(size=(rows, cfg.feature_dim)), cfg.feature_rate)
        whole, blocks = [], []
        with Tape():
            encode(audio, frames, params, cfg, capture=whole)
        encode(audio, frames, params, cfg, capture=blocks)
        assert [r.weights.shape for r in blocks] == (
            [(cfg.encoder_heads, rows, rows)] * cfg.encoder_layers)
        assert [r.weights.tobytes() for r in blocks] == [r.weights.tobytes() for r in whole]
