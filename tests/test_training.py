import numpy as np
import pytest

from speechmotion import (
    AudioInput,
    ConfigError,
    DivergenceError,
    ModelConfig,
    ShapeError,
    Tape,
    TrainingSample,
    Var,
    autoregress,
    backward,
    export_attention,
    init_params,
    lip_error,
    lip_error_corpus,
    mse_loss,
    train,
)
from speechmotion.training import check_sample_alignment, frame_vertex_rmse, rollout_loss

import reference


def _sample(rng, frames=4, vertices=3, identity=0):
    feats = rng.normal(size=(2 * frames, 4))
    motion = rng.normal(size=(frames, 3 * vertices)) * 0.3
    return TrainingSample(
        audio=AudioInput.from_features(feats, 50.0), motion=motion, identity=identity
    )


class TestMseLoss:
    def test_equal_inputs_zero(self, rng):
        m = rng.normal(size=(3, 6))
        assert mse_loss(m, m).item() == 0.0

    def test_single_vertex_unit_offset(self):
        truth = np.zeros((1, 3))
        pred = np.array([[1.0, 0.0, 0.0]])
        assert mse_loss(pred, truth).item() == 1.0

    def test_matches_scalar_loop(self, rng):
        pred, truth = rng.normal(size=(4, 9)), rng.normal(size=(4, 9))
        total = 0.0
        for t in range(4):
            for v in range(3):
                for c in range(3):
                    total += (pred[t, 3 * v + c] - truth[t, 3 * v + c]) ** 2
        assert mse_loss(pred, truth).item() == pytest.approx(total, abs=1e-12)

    def test_symmetric_and_definite(self, rng):
        a, b = rng.normal(size=(2, 6)), rng.normal(size=(2, 6))
        assert mse_loss(a, b).item() == pytest.approx(mse_loss(b, a).item(), abs=0)
        assert mse_loss(a, b).item() > 0

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            mse_loss(rng.normal(size=(2, 3)), rng.normal(size=(3, 2)))


class TestLipError:
    def test_identical_is_zero(self, rng):
        m = rng.normal(size=(5, 9))
        assert lip_error(m, m, [0, 2]) == 0.0

    def test_single_displaced_vertex(self):
        truth = np.zeros((1, 9))
        pred = truth.copy()
        pred[0, 3:6] = [0.0, 0.0, 0.03]  # vertex 1 moved along z
        assert lip_error(pred, truth, [0, 1, 2]) == pytest.approx(0.03, abs=1e-15)

    def test_invariant_to_non_lip_vertices(self, rng):
        truth = rng.normal(size=(4, 12))
        pred = truth.copy()
        pred[:, 9:12] += 5.0  # vertex 3 is not a lip vertex
        assert lip_error(pred, truth, [0, 1]) == 0.0

    def test_mean_over_frames_of_max_over_lips(self):
        truth = np.zeros((2, 6))
        pred = np.zeros((2, 6))
        pred[0, 0] = 0.4   # frame 0: vertex 0 off by 0.4
        pred[1, 4] = 0.2   # frame 1: vertex 1 off by 0.2
        assert lip_error(pred, truth, [0, 1]) == pytest.approx(0.3, abs=1e-15)

    def test_empty_or_bad_lip_set(self, rng):
        m = rng.normal(size=(2, 6))
        with pytest.raises(ShapeError):
            lip_error(m, m, [])
        with pytest.raises(ShapeError):
            lip_error(m, m, [0, 0])
        with pytest.raises(ShapeError):
            lip_error(m, m, [2])

    def test_no_frames_is_shape_error(self):
        m = np.zeros((0, 6))
        with pytest.raises(ShapeError, match="^prediction and truth have no frames$"):
            lip_error(m, m, [0])

    def test_corpus_average_in_order(self, rng):
        a = rng.normal(size=(3, 6))
        b = a.copy()
        b[:, 0] += 1.0
        per_seq = [lip_error(a, a, [0]), lip_error(b, a, [0])]
        assert lip_error_corpus([(a, a), (b, a)], [0]) == pytest.approx(
            np.mean(per_seq), abs=1e-15
        )


class TestTrain:
    def test_zero_epochs_returns_params_unchanged(self, tiny_cfg, tiny_params, rng):
        data = [_sample(rng)]
        out, history = train(data, tiny_params, tiny_cfg, epochs=0, seed=0)
        assert history == []
        for k in tiny_params:
            assert np.array_equal(out[k].data, tiny_params[k].data)

    def test_same_seed_same_history(self, tiny_cfg, tiny_params, rng):
        data = [_sample(rng, identity=0), _sample(rng, identity=1)]
        _, h1 = train(data, tiny_params, tiny_cfg, epochs=3, seed=11, lr=1e-3)
        _, h2 = train(data, tiny_params, tiny_cfg, epochs=3, seed=11, lr=1e-3)
        assert [s.loss for s in h1] == [s.loss for s in h2]
        assert [s.sample for s in h1] == [s.sample for s in h2]

    def test_training_reduces_loss(self, tiny_cfg, tiny_params, rng):
        data = [_sample(rng)]
        _, history = train(data, tiny_params, tiny_cfg, epochs=30, seed=0, lr=1e-2)
        assert history[-1].loss < history[0].loss

    def test_divergence_aborts_with_location(self, tiny_cfg, tiny_params, rng, monkeypatch):
        from speechmotion import training

        real_rollout_loss = training.rollout_loss

        def diverged(*args, **kwargs):
            loss, pred = real_rollout_loss(*args, **kwargs)
            loss.data[0, 0] = np.inf
            return loss, pred

        monkeypatch.setattr(training, "rollout_loss", diverged)
        with pytest.raises(DivergenceError, match="epoch 0, sample 0"):
            train([_sample(rng)], tiny_params, tiny_cfg, epochs=1, seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_motion_rejected_before_first_step(
        self, tiny_cfg, tiny_params, rng, value
    ):
        bad = _sample(rng)
        bad.motion[2, 1] = value
        before = {k: v.data.copy() for k, v in tiny_params.items()}
        with pytest.raises(ShapeError, match="sample 1: motion row 2 holds a non-finite"):
            train([_sample(rng), bad], tiny_params, tiny_cfg, epochs=1, seed=0)
        assert all(np.array_equal(tiny_params[k].data, before[k]) for k in before)

    def test_nan_gradient_aborts_before_update(self, tiny_cfg, tiny_params, rng, monkeypatch):
        from speechmotion import training

        real_backward = training.backward

        def poisoned(loss, params):
            grads = real_backward(loss, params)
            grads["dec.layer0.ff.w1"][1, 2] = np.nan
            return grads

        monkeypatch.setattr(training, "backward", poisoned)
        before = {k: v.data.copy() for k, v in tiny_params.items()}
        with pytest.raises(
            DivergenceError,
            match="gradient at epoch 0, sample 0, first in parameter 'dec.layer0.ff.w1'",
        ):
            train([_sample(rng)], tiny_params, tiny_cfg, epochs=1, seed=0)
        assert all(np.array_equal(tiny_params[k].data, before[k]) for k in before)

    def test_knobs_validated_like_config(self, tiny_cfg, tiny_params, rng):
        data = [_sample(rng)]
        with pytest.raises(ConfigError, match="grad_clip"):
            train(data, tiny_params, tiny_cfg, epochs=1, seed=0, grad_clip=0)
        # an infinite eps would leave every parameter at its initial value
        with pytest.raises(ConfigError, match="eps must be finite"):
            train(data, tiny_params, tiny_cfg, epochs=1, seed=0, eps=float("inf"))
        with pytest.raises(TypeError, match="stop_rmse"):
            train(data, tiny_params, tiny_cfg, epochs=1, seed=0, stop_rmse=0.1)

    def test_empty_dataset_rejected(self, tiny_cfg, tiny_params):
        with pytest.raises(ShapeError):
            train([], tiny_params, tiny_cfg, epochs=1, seed=0)

    def test_inconsistent_vertex_count_rejected(self, tiny_cfg, tiny_params, rng):
        bad = TrainingSample(
            audio=AudioInput.from_features(rng.normal(size=(8, 4)), 50.0),
            motion=rng.normal(size=(4, 6)),
            identity=0,
        )
        with pytest.raises(ShapeError, match="3\\*V"):
            train([bad], tiny_params, tiny_cfg, epochs=1, seed=0)

    def test_misaligned_sample_rejected(self, tiny_cfg, rng):
        # 12 feature rows at 50 Hz imply 6 motion frames; 3 is off by > 1
        bad = TrainingSample(
            audio=AudioInput.from_features(rng.normal(size=(12, 4)), 50.0),
            motion=rng.normal(size=(3, 9)),
            identity=0,
        )
        with pytest.raises(ShapeError, match="implies"):
            check_sample_alignment(bad, tiny_cfg, 0)

    def test_freeze_extractor_contract(self, tiny_cfg, tiny_params, rng):
        # 2640 samples -> 8 feature rows -> 4 motion frames at 25 fps
        sample = TrainingSample(
            audio=AudioInput.from_waveform(rng.normal(size=2640) * 0.3, 16000.0),
            motion=rng.normal(size=(4, 9)) * 0.3,
            identity=0,
        )
        tiny_params = dict(tiny_params)
        tiny_params["motion_dec.w"] = Var(rng.normal(size=(8, 9)))
        conv_names = [n for n in tiny_params if n.startswith("extractor.")]
        assert conv_names
        trained, _ = train([sample], tiny_params, tiny_cfg, epochs=1, seed=0, lr=1e-3)
        assert all(
            np.array_equal(trained[n].data, tiny_params[n].data) for n in conv_names
        )
        assert not np.array_equal(
            trained["motion_dec.w"].data, tiny_params["motion_dec.w"].data
        )

    def test_each_step_sees_a_bundle_no_later_step_changes(
        self, tiny_cfg, tiny_params, rng, monkeypatch
    ):
        # the benchmark's oracle recomputes every step's loss, after training,
        # from the bundle that step was given
        from speechmotion import training

        seen = []

        def recording(*args, **kwargs):
            seen.append((args, kwargs))
            return rollout_loss(*args, **kwargs)

        monkeypatch.setattr(training, "rollout_loss", recording)
        tiny_params = dict(tiny_params)
        tiny_params["motion_dec.w"] = Var(rng.normal(size=(8, 9)) * 0.1)
        before = {k: v.data.tobytes() for k, v in tiny_params.items()}
        data = [_sample(rng, identity=0), _sample(rng, identity=1)]
        _, history = train(
            data, tiny_params, tiny_cfg, epochs=3, seed=2, lr=1e-2, grad_clip=0.5,
            keep_best=True,
        )
        assert len(seen) == len(history) == 6
        assert len({id(args[1]) for args, _ in seen}) == 6
        for step, (args, kwargs) in zip(history, seen):
            assert rollout_loss(*args, **kwargs)[0].item() == step.loss
        assert {k: v.data.tobytes() for k, v in tiny_params.items()} == before


@pytest.mark.parametrize("frames", [20, 37])
@pytest.mark.parametrize("waveform", [False, True])
def test_rollout_gradients_match_reference_backward(rng, frames, waveform):
    # row-range and in-place accumulation keep every bit of widened copies
    # added into new arrays, through the caches, the embed table and the fold;
    # a waveform's frozen extractor gets none
    cfg = ModelConfig().validate()
    params = init_params(cfg, seed=1)
    params["motion_dec.w"] = Var(rng.normal(size=(cfg.dim, cfg.motion_dim)) * 0.05)
    if waveform:
        audio = AudioInput.from_waveform(rng.normal(size=640 * frames + 80) * 0.3, 16000.0)
    else:
        audio = AudioInput.from_features(
            rng.normal(size=(cfg.frame_ratio * frames, cfg.feature_dim)), cfg.feature_rate
        )
    sample = TrainingSample(audio, rng.normal(size=(frames, cfg.motion_dim)) * 0.3, 1)
    with Tape():
        loss, _ = rollout_loss(sample, params, cfg)
        got = backward(loss, params)
        want = reference.backward(loss, params)
    assert list(got) == list(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    assert all(want[name].any() for name in want if name.startswith(("dec.", "motion_")))
    assert not any(want[name].any() for name in want if name.startswith("extractor."))


class TestExportAttention:
    def test_export_shapes_and_row_sums(self, tiny_cfg, tiny_params, rng, tmp_path):
        params = dict(tiny_params)
        params["motion_dec.w"] = Var(rng.normal(size=(8, 9)))
        audio = AudioInput.from_features(rng.normal(size=(8, 4)), 50.0)
        records = []
        autoregress(audio, 0, 4, params, tiny_cfg, capture=records)
        modules = {r.module for r in records}
        assert modules == {"encoder.self", "decoder.self", "decoder.cross"}

        by_module = {m: [r for r in records if r.module == m] for m in modules}
        paths = {}
        for module, recs in by_module.items():
            paths[module] = tmp_path / f"{module}.csv"
            export_attention(recs, paths[module])

        def read_matrix(path):
            rows = [
                [float(x) for x in line.split(",")]
                for line in path.read_text().splitlines()
                if line and not line.startswith("#")
            ]
            return np.array(rows)

        self_w = read_matrix(paths["decoder.self"])
        assert self_w.shape == (4, 4)
        assert np.allclose(np.triu(self_w, k=1), 0.0, atol=0)  # causal: upper is 0
        cross_w = read_matrix(paths["decoder.cross"])
        assert cross_w.shape == (4, 8)
        assert (np.count_nonzero(cross_w, axis=1) <= tiny_cfg.frame_ratio).all()
        for mat in (self_w, cross_w, read_matrix(paths["encoder.self"])):
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-6)

    def test_header_metadata(self, tiny_cfg, tiny_params, rng, tmp_path):
        records = []
        audio = AudioInput.from_features(rng.normal(size=(8, 4)), 50.0)
        autoregress(audio, 0, 4, tiny_params, tiny_cfg, capture=records)
        path = tmp_path / "all.csv"
        export_attention(records, path)
        headers = [l for l in path.read_text().splitlines() if l.startswith("#")]
        assert len(headers) == len(records)
        assert all("module=" in h and "layer=" in h and "step=" in h for h in headers)

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            export_attention([], tmp_path / "x.csv")


def test_frame_vertex_rmse_matches_direct():
    pred = np.array([[1.0, 0.0, 0.0, 0.0, 2.0, 0.0]])
    truth = np.zeros((1, 6))
    # distances 1 and 2 over two vertices -> sqrt((1+4)/2)
    assert frame_vertex_rmse(pred, truth) == pytest.approx(np.sqrt(2.5), abs=1e-12)
