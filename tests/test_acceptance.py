"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s to see them).

The overfit experiment (criterion 6) trains the documented recipe once and
shares the resulting checkpoint with the long-sequence smoke test
(criterion 7) and the trained half of criterion 4.
"""

import dataclasses

import numpy as np
import pytest

import speechmotion as sm
from speechmotion import autodiff as ad
from speechmotion.decoder import decode_motion, rollout
from speechmotion.encoder import encode
from speechmotion.positional import alignment_bias, head_slopes
from speechmotion.synthetic import (
    SYNTH_FEATURE_RATE,
    band_limited_features,
    make_dataset_arrays,
)
from speechmotion.training import rollout_loss

from conftest import TINY, cached_step, finite_diff, rel_err
from reference import (
    attention_oracle,
    biased_attention,
    dense_decoder_layer,
    positional_table,
    sum_all,
    temporal_bias,
)

# ---------------------------------------------------------------------------
# the documented overfit recipe (criterion 6)

DATASET_SEED = 7
TRAIN_SEED = 42
RECIPE = dict(epochs=250, seed=TRAIN_SEED, lr=8e-4, beta1=0.97, keep_best=True)
# 2 identities x 4 sequences each; 250 epochs x 8 = exactly 2000 steps
PROFILE = dict(n_identities=2, n_sequences=8, frames=20, vertices=10, feature_dim=8)


@pytest.fixture(scope="module")
def overfit():
    data = make_dataset_arrays(seed=DATASET_SEED, **PROFILE)
    dataset = [
        sm.TrainingSample(
            audio=sm.AudioInput.from_features(f, SYNTH_FEATURE_RATE),
            motion=m,
            identity=i,
        )
        for f, m, i in zip(data["features"], data["motions"], data["identities"])
    ]
    cfg = sm.ModelConfig().validate()  # the synthetic profile: d=32, H=4, p=10
    params = sm.init_params(cfg, TRAIN_SEED)
    params, history = sm.train(dataset, params, cfg, **RECIPE)
    return dataset, data, cfg, params, history


def test_criterion_1_bias_construction():
    assert head_slopes(4) == [2.0**-2, 2.0**-4, 2.0**-6, 2.0**-8]

    for t in range(1, 65):
        for slope in head_slopes(4):
            got = temporal_bias(t, 1, slope).data
            i, j = np.indices((t, t))
            oracle = np.where(j <= i, -slope * (i - j).astype(np.float64), -np.inf)
            assert np.array_equal(got, oracle)

    for total, k in ((1, 1), (5, 2), (7, 3), (16, 1)):
        finite = np.isfinite(alignment_bias(total, total, k).data)
        assert np.array_equal(finite.sum(axis=1), np.full(total, k))
        assert np.array_equal(finite.sum(axis=0), np.ones(k * total))
    print("\nACCEPTANCE 1 PASS: slopes exact, p=1 bias equals the linear "
          "penalty on all t<=64, alignment rows partition the audio axis")


def test_criterion_2_attention_oracle_equivalence():
    worst = 0.0
    count = 0
    for seed in range(200):
        r = np.random.Generator(np.random.PCG64(seed))
        d = int(r.integers(1, 9))
        if seed % 2 == 0:
            t = int(r.integers(1, 9))
            s = t
            bias = temporal_bias(t, int(r.integers(1, 4)), float(r.uniform(0.05, 1.0)))
        else:
            k = int(r.integers(1, 3))
            total = int(r.integers(1, 5))
            t = int(r.integers(1, total + 1))
            s = k * total
            bias = alignment_bias(t, total, k)
        q = r.normal(size=(t, d))
        kk = r.normal(size=(s, d))
        v = r.normal(size=(s, d))
        out, _ = biased_attention(q, kk, v, bias)
        worst = max(worst, float(np.abs(out.data - attention_oracle(q, kk, v, bias)).max()))
        count += 1
    assert count == 200
    assert worst < 1e-10
    print(f"ACCEPTANCE 2 PASS: 200 instances, max |diff| = {worst:.2e} < 1e-10")


def test_criterion_3_full_model_gradient_audit(rng):
    cfg = TINY  # d=8, H=2, one encoder and one decoder layer, V=3
    params = sm.init_params(cfg, seed=1)
    # nonzero vertex projection so its inputs influence the loss
    params["motion_dec.w"] = sm.Var(rng.normal(size=(8, 9)) * 0.3)
    sample = sm.TrainingSample(
        audio=sm.AudioInput.from_features(rng.normal(size=(8, 4)), 50.0),
        motion=rng.normal(size=(4, 9)) * 0.5,
        identity=1,
    )

    with sm.Tape():
        loss, _ = rollout_loss(sample, params, cfg)
        grads = sm.backward(loss, params)

    def loss_value():
        return rollout_loss(sample, params, cfg)[0].item()

    worst = (0.0, "")
    for name, p in params.items():
        fd = finite_diff(loss_value, p.data, step=1e-5)
        err = rel_err(grads[name], fd)
        if err > worst[0]:
            worst = (err, name)
        assert err < 1e-4, f"{name}: relative error {err:.3e}"

    # the conv front end separately: a short waveform keeps the rectifier
    # pre-activations away from their kinks, where central differences are
    # unreliable as an oracle
    wave_rng = np.random.Generator(np.random.PCG64(12))
    wave = wave_rng.normal(size=500)
    readout = wave_rng.normal(size=(cfg.feature_dim, 1))

    def extractor_loss():
        audio = sm.AudioInput.from_waveform(wave, 16000.0)
        feats = sm.extract_features(audio, params, cfg)
        return sum_all(ad.matmul(feats, readout))

    with sm.Tape():
        conv_grads = sm.backward(extractor_loss(), params)
    conv_names = [n for n in params if n.startswith("extractor.")]
    conv_worst = 0.0
    for name in conv_names:
        fd = finite_diff(lambda: extractor_loss().item(), params[name].data)
        err = rel_err(conv_grads[name], fd)
        conv_worst = max(conv_worst, err)
        assert err < 1e-4, f"{name}: relative error {err:.3e}"
        assert np.abs(conv_grads[name]).max() > 0  # really exercised

    print(f"ACCEPTANCE 3 PASS: {len(params)} parameters audited on the rollout "
          f"(worst {worst[0]:.2e} at {worst[1]}), {len(conv_names)} conv "
          f"parameters audited through the extractor (worst {conv_worst:.2e})")


def test_criterion_4_causality_and_prefix(rng, overfit):
    dataset, _, trained_cfg, trained_params, _ = overfit

    bundles = []
    for seed in (3, 19):
        params = sm.init_params(TINY, seed)
        params["motion_dec.w"] = sm.Var(
            np.random.Generator(np.random.PCG64(seed)).normal(size=(8, 9))
        )
        audio = sm.AudioInput.from_features(rng.normal(size=(16, 4)), 50.0)
        bundles.append((params, TINY, audio, 8))
    bundles.append((trained_params, trained_cfg, dataset[0].audio, 20))

    for params, cfg, audio, frames in bundles:
        enc = encode(audio, frames, params, cfg)
        full = decode_motion(rollout(enc, 0, frames, params, cfg), params).data
        for t in (1, frames // 2, frames - 1):
            prefix = decode_motion(rollout(enc, 0, t, params, cfg), params).data
            assert np.array_equal(prefix, full[:t])

        # a cached step never reads a future key/value row or audio outside
        # its window: perturbing them leaves its output bitwise unchanged
        fhat = np.random.Generator(np.random.PCG64(0)).normal(size=(frames, cfg.dim))
        for layer in range(cfg.decoder_layers):
            for s in (0, frames // 2, frames - 1):
                base = cached_step(enc, params, cfg, fhat, s, layer)
                bumped = cached_step(enc, params, cfg, fhat, s, layer, bump=True)
                assert np.array_equal(base, bumped)

        # the same holds for a future row of the dense reference block
        base, _ = dense_decoder_layer(sm.Var(fhat), enc, params, cfg)
        for row in (frames - 1, frames // 2):
            bumped = fhat.copy()
            bumped[row] += 1.0
            changed, _ = dense_decoder_layer(sm.Var(bumped), enc, params, cfg)
            assert np.array_equal(base.data[:row], changed.data[:row])
    print("ACCEPTANCE 4 PASS: rollout prefixes bitwise-identical; future cache rows "
          "and out-of-window audio leave a cached step unchanged, and future rows leave "
          "the dense reference's past rows unchanged (2 random + 1 trained bundle)")


def test_criterion_5_positional_encoding_suite():
    for period in (1, 3, 10):
        cfg = dataclasses.replace(sm.ModelConfig(), period=period, dim=16)
        for t in range(4 * period):
            assert np.array_equal(sm.ppe_rows([t], cfg), sm.ppe_rows([t + period], cfg))

    cfg = dataclasses.replace(sm.ModelConfig(), pe_mode="original_pe", dim=16)
    for t in range(40):
        row = sm.ppe_rows([t], cfg)[0]
        i = np.arange(8)
        angles = t / np.power(10000.0, 2.0 * i / 16)
        assert np.allclose(row[0::2], np.sin(angles), atol=1e-15)
        assert np.allclose(row[1::2], np.cos(angles), atol=1e-15)

    cfg = dataclasses.replace(sm.ModelConfig(), pe_mode="alibi", dim=16)
    assert not np.any(positional_table(cfg, 40))
    print("ACCEPTANCE 5 PASS: exact periodicity over 4 periods, original mode "
          "matches the standard sinusoid, alibi mode is all zeros")


def test_criterion_6_overfit_and_style_separation(overfit):
    dataset, data, cfg, params, history = overfit
    assert len(history) <= 2000

    amplitude = sm.rms_amplitude(np.concatenate(data["motions"]))
    rmse = sm.evaluate_rmse(dataset, params, cfg)
    ratio = rmse / amplitude
    assert ratio < 0.01, f"rollout RMSE is {ratio:.2%} of RMS amplitude"

    # unseen audio, both identity conditions
    probe_rng = np.random.Generator(np.random.PCG64(99))
    held_out = band_limited_features(probe_rng, 40, cfg.feature_dim)
    audio = sm.AudioInput.from_features(held_out, SYNTH_FEATURE_RATE)
    out0 = sm.autoregress(audio, 0, 20, params, cfg)
    out1 = sm.autoregress(audio, 1, 20, params, cfg)
    dist = np.sqrt(np.square(out0 - out1).reshape(20, -1, 3).sum(axis=2)).mean()
    assert dist > 10.0 * rmse

    # loss medians: late training must sit far below early training
    by_epoch: dict[int, list[float]] = {}
    for h in history:
        by_epoch.setdefault(h.epoch, []).append(h.loss)
    early = np.median([l for e in range(1, 10) for l in by_epoch[e]])
    late = np.median([l for e in range(90, 100) for l in by_epoch[e]])
    assert late < early

    print(f"ACCEPTANCE 6 PASS: {len(history)} steps, rollout RMSE "
          f"{ratio:.2%} of amplitude (< 1%), identity separation "
          f"{dist / rmse:.1f}x RMSE (> 10x), loss medians {early:.1f} -> {late:.3f}")


def test_criterion_7_long_sequence_smoke(overfit):
    _, data, cfg, params, _ = overfit
    probe_rng = np.random.Generator(np.random.PCG64(99))
    base_audio = sm.AudioInput.from_features(
        band_limited_features(probe_rng, 40, cfg.feature_dim), SYNTH_FEATURE_RATE
    )
    long_audio = sm.AudioInput.from_features(
        band_limited_features(probe_rng, 160, cfg.feature_dim), SYNTH_FEATURE_RATE
    )

    def max_frame_step(motion):
        diffs = np.diff(motion, axis=0).reshape(motion.shape[0] - 1, -1, 3)
        return float(np.sqrt(np.square(diffs).sum(axis=2)).max())

    base = sm.autoregress(base_audio, 0, 20, params, cfg)
    long_run = sm.autoregress(long_audio, 0, 80, params, cfg)  # 4x training length
    assert np.isfinite(long_run).all()
    limit = 5.0 * max_frame_step(base)
    assert max_frame_step(long_run) <= limit

    original_pe = dataclasses.replace(cfg, pe_mode="original_pe")
    other = sm.autoregress(long_audio, 0, 80, params, original_pe)
    assert other.shape == (80, 3 * cfg.vertices)

    print(f"ACCEPTANCE 7 PASS: 4x-length rollout finite, max frame step "
          f"{max_frame_step(long_run):.3f} <= {limit:.3f}; original_pe run completed")


def test_criterion_8_format_suite(tmp_path, rng):
    # matrix round-trip at f32 precision
    m = rng.normal(size=(6, 4))
    mpath = tmp_path / "m.f32mat"
    sm.save_matrix(mpath, m)
    assert np.array_equal(sm.load_matrix(mpath), m.astype(np.float32).astype(np.float64))

    # checkpoint round-trip at full f64 precision, plus CRC detection
    params = sm.init_params(TINY, seed=2)
    cpath = tmp_path / "model.ckpt"
    sm.save_checkpoint(cpath, params, TINY)
    loaded, loaded_cfg = sm.load_checkpoint(cpath)
    assert loaded_cfg == TINY
    assert all(np.array_equal(loaded[k].data, params[k].data) for k in params)
    blob = bytearray(cpath.read_bytes())
    blob[len(blob) // 3] ^= 0x01
    (tmp_path / "bad.ckpt").write_bytes(bytes(blob))
    with pytest.raises(sm.FormatError):
        sm.load_checkpoint(tmp_path / "bad.ckpt")

    # CLI exit codes and double-train determinism
    from speechmotion.cli import main

    data_dir = tmp_path / "data"
    assert main([
        "gen-synthetic", "--out", str(data_dir), "--identities", "2",
        "--sequences", "2", "--frames", "4", "--vertices", "2",
        "--feature-dim", "3", "--seed", "3",
    ]) == 0
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(
        "dim = 8\nheads = 2\nperiod = 3\nencoder_layers = 1\nff_dim = 16\n"
        "encoder_dim = 8\nencoder_heads = 2\nepochs = 2\nseed = 4\nlr = 0.001\n"
    )
    ckpts = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
    for out in ckpts:
        assert main([
            "train", "--config", str(cfg_path), "--data", str(data_dir),
            "--out", str(out),
        ]) == 0
    assert ckpts[0].read_bytes() == ckpts[1].read_bytes()
    assert main(["eval-lip", "missing.f32mat", "missing.f32mat", "nope.txt"]) == 2
    assert main(["train", "--bogus-flag"]) == 1

    print("ACCEPTANCE 8 PASS: round-trips exact, corruption detected by CRC, "
          "exit codes 0/1/2 honored, double-train checkpoints byte-identical")
