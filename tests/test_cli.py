import contextlib
import io
import struct
import warnings
import wave

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speechmotion import (
    FormatError,
    Var,
    init_params,
    load_checkpoint,
    load_matrix,
    save_checkpoint,
    save_matrix,
)
from speechmotion import cli, formats
from speechmotion.cli import main

from conftest import TINY
from reference import checkpoint_bytes, parse_checkpoint, reseal


TINY_CONFIG = """
# desk-scale test model
dim = 8
heads = 2
period = 3
encoder_layers = 1
decoder_layers = 1
ff_dim = 16
encoder_dim = 8
encoder_heads = 2
epochs = 2
seed = 5
lr = 0.001
"""


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    code = main([
        "gen-synthetic", "--out", str(out), "--identities", "2",
        "--sequences", "2", "--frames", "4", "--vertices", "2",
        "--feature-dim", "3", "--seed", "1",
    ])
    assert code == 0
    return out


@pytest.fixture
def trained(tmp_path, dataset_dir):
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(TINY_CONFIG)
    ckpt = tmp_path / "model.ckpt"
    code = main([
        "train", "--config", str(cfg_path), "--data", str(dataset_dir),
        "--out", str(ckpt),
    ])
    assert code == 0
    return ckpt


class TestGenSynthetic:
    def test_writes_expected_files(self, dataset_dir):
        for name in ("dataset.cfg", "samples.tsv", "lips.txt",
                     "seq000.audio.f32mat", "seq001.motion.f32mat"):
            assert (dataset_dir / name).exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(out), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "got -1" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", ["--identities", "--sequences", "--frames", "--vertices", "--feature-dim"]
    )
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(out), flag, "0"]) == 1
        err = capsys.readouterr().err
        assert flag in err and "got 0" in err and "Traceback" not in err
        assert not out.exists()


class TestTrain:
    def test_negative_seed_is_config_error(self, tmp_path, dataset_dir, capsys):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG.replace("seed = 5", "seed = -1"))
        out = tmp_path / "model.ckpt"
        capsys.readouterr()
        assert main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir), "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err and "Traceback" not in err
        assert not out.exists()

    def test_retired_switch_is_config_error(self, tmp_path, dataset_dir, capsys):
        # training always feeds back live predictions; the switch is gone
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG + "detach_rollout = true\n")
        out = tmp_path / "model.ckpt"
        capsys.readouterr()
        assert main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir), "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert f"{cfg_path}: unknown configuration keys: detach_rollout" in err
        assert "Traceback" not in err and not out.exists()

    def test_writes_checkpoint_and_loss_csv(self, tmp_path, trained):
        assert trained.exists()
        loss_csv = tmp_path / "model.ckpt.loss.csv"
        lines = loss_csv.read_text().splitlines()
        assert lines[0] == "step,epoch,sample,loss,rmse"
        assert len(lines) == 1 + 2 * 2  # epochs * sequences

    def test_double_train_bitwise_identical(self, tmp_path, dataset_dir):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (a, b):
            assert main([
                "train", "--config", str(cfg_path), "--data", str(dataset_dir),
                "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_dataset_conflict_is_data_error(self, tmp_path, dataset_dir):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG + "vertices = 99\n")
        code = main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            "--out", str(tmp_path / "x.ckpt"),
        ])
        assert code == 2

    @pytest.mark.parametrize("key, value", [
        ("grad_clip", "-1"), ("grad_clip", "0"), ("beta1", "1"),
        ("beta2", "1.5"), ("eps", "0"), ("eps", "inf"), ("lr", "inf"),
    ])
    def test_out_of_range_knob_is_data_error(self, tmp_path, dataset_dir, capsys, key, value):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG.replace("lr = 0.001\n", "") + f"{key} = {value}\n")
        code = main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            "--out", str(tmp_path / "x.ckpt"),
        ])
        assert code == 2
        assert f"{cfg_path}: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("repeat", [
        "",
        "vertices = 2\nidentities = 2\nfeature_dim = 3\nfeature_rate = 50\n"
        "motion_rate = 25\n",
    ])
    def test_logs_the_configs_it_trains_with(self, tmp_path, dataset_dir, caplog, repeat):
        import logging

        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG + repeat)
        with caplog.at_level(logging.INFO, logger="speechmotion"):
            assert main([
                "train", "--config", str(cfg_path), "--data", str(dataset_dir),
                "--out", str(tmp_path / "m.ckpt"),
            ]) == 0
        messages = [r.getMessage() for r in caplog.records]
        models = [m for m in messages if m.startswith("model config: ")]
        trains = [m for m in messages if m.startswith("training config: ")]
        assert len(models) == 1 and len(trains) == 1
        assert "vertices=2," in models[0] and "feature_dim=3," in models[0]
        assert "identities=2," in models[0] and "feature_rate=50.0," in models[0]
        assert "dim=8," in models[0] and "seed=5," in trains[0]
        assert not [m for m in messages if "default" in m]

    @pytest.mark.parametrize("key, value", [("vertices", "abc"), ("feature_rate", "nan")])
    def test_bad_dataset_meta_value_is_data_error(
        self, tmp_path, dataset_dir, capsys, key, value
    ):
        meta = dataset_dir / "dataset.cfg"
        lines = meta.read_text().splitlines()
        meta.write_text("\n".join(
            f"{key} = {value}" if line.startswith(f"{key} =") else line
            for line in lines
        ) + "\n")
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG)
        code = main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "dataset.cfg" in err and key in err

    @pytest.mark.parametrize("key, value", [
        ("feature_rate", "-50"), ("motion_rate", "0"), ("identities", "0"), ("vertices", "-2"),
    ])
    def test_non_positive_dataset_meta_is_data_error(
        self, tmp_path, dataset_dir, capsys, key, value
    ):
        meta = dataset_dir / "dataset.cfg"
        meta.write_text("\n".join(
            f"{key} = {value}" if line.startswith(f"{key} =") else line
            for line in meta.read_text().splitlines()
        ) + "\n")
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG)
        code = main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        if key.endswith("_rate"):
            reason = f"must be positive and finite, got {float(value)}"
        else:
            reason = f"must be >= 1, got {value}"
        assert f"{meta}: {key} {reason}" in err

    def test_older_dataset_meta_is_refused_until_mended(self, tmp_path, dataset_dir, capsys):
        # the layout written before dataset.cfg held only the model's fields
        meta = dataset_dir / "dataset.cfg"
        meta.write_text(
            "identities = 2\nsequences = 2\nframes = 4\nvertices = 2\nfeature_dim = 3\n"
            "feature_rate = 50.0\nmotion_rate = 25.0\nseed = 1\n"
        )
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out = tmp_path / "m.ckpt"
        argv = ["train", "--config", str(cfg_path), "--data", str(dataset_dir), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{meta}: unknown keys ['frames', 'seed', 'sequences']" in err
        assert "Traceback" not in err and not out.exists()
        meta.write_text("".join(
            line for line in meta.read_text().splitlines(keepends=True)
            if line.split(" = ")[0] not in ("sequences", "frames", "seed")
        ))
        assert main(argv) == 0

    def test_overflowing_dataset_rates_name_the_dataset_meta(
        self, tmp_path, dataset_dir, capsys
    ):
        meta = dataset_dir / "dataset.cfg"
        meta.write_text(
            meta.read_text()
            .replace("feature_rate = 50.0", "feature_rate = 1e300")
            .replace("motion_rate = 25.0", "motion_rate = 1e-300")
        )
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG)
        capsys.readouterr()
        assert main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            "--out", str(tmp_path / "m.ckpt"),
        ]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {meta}: feature_rate 1e+300 / motion_rate 1e-300 gives a frame "
            f"ratio that does not fit in a 64-bit integer\n"
        )

    def test_motion_with_no_frames_is_data_error(self, tmp_path, dataset_dir, capsys):
        path = dataset_dir / "seq001.motion.f32mat"
        save_matrix(path, np.zeros((0, 6)))
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG)
        capsys.readouterr()
        assert main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            "--out", str(tmp_path / "m.ckpt"),
        ]) == 2
        err = capsys.readouterr().err
        assert f"{path}: motion has no frames" in err and "Traceback" not in err

    def test_non_finite_motion_is_data_error(self, tmp_path, dataset_dir, capsys):
        path = dataset_dir / "seq001.motion.f32mat"
        motion = load_matrix(path)
        motion[1, 0] = np.inf
        save_matrix(path, motion)
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG)
        code = main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2
        assert "seq001.motion.f32mat" in capsys.readouterr().err


class TestInfer:
    @pytest.mark.parametrize("command", ["infer", "export-attn"])
    @pytest.mark.parametrize("identity", ["-1", "2"])
    def test_identity_out_of_range_names_the_flag_and_checkpoint(
        self, tmp_path, trained, dataset_dir, capsys, monkeypatch, command, identity
    ):
        monkeypatch.setattr(cli, "_load_audio", lambda *a: pytest.fail("read the audio"))
        out = ["--out", str(tmp_path / "m.f32mat")] if command == "infer" else [
            "--out-dir", str(tmp_path / "attn")]
        capsys.readouterr()
        assert main([
            command, "--ckpt", str(trained),
            "--audio", str(dataset_dir / "seq000.audio.f32mat"), "--identity", identity, *out,
        ]) == 2
        err = capsys.readouterr().err
        assert f"--identity {identity} is out of range: {trained} has 2 identities (0 to 1)" \
            in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.f32mat").exists() and not (tmp_path / "attn").exists()

    def test_frames_flag_sets_row_count(self, tmp_path, trained, dataset_dir):
        out = tmp_path / "motion.f32mat"
        code = main([
            "infer", "--ckpt", str(trained),
            "--audio", str(dataset_dir / "seq000.audio.f32mat"),
            "--identity", "1", "--frames", "3", "--out", str(out),
        ])
        assert code == 0
        motion = load_matrix(out)
        assert motion.shape == (3, 6)

    def test_frames_default_from_audio(self, tmp_path, trained, dataset_dir):
        out = tmp_path / "motion.f32mat"
        assert main([
            "infer", "--ckpt", str(trained),
            "--audio", str(dataset_dir / "seq000.audio.f32mat"),
            "--identity", "0", "--out", str(out),
        ]) == 0
        assert load_matrix(out).shape == (4, 6)  # 8 feature rows at 50 Hz

    def test_missing_audio_is_data_error(self, tmp_path, trained):
        assert main([
            "infer", "--ckpt", str(trained), "--audio", str(tmp_path / "nope.f32mat"),
            "--identity", "0", "--out", str(tmp_path / "m.f32mat"),
        ]) == 2

    def test_non_finite_features_name_the_file(self, tmp_path, trained, dataset_dir, capsys):
        audio = load_matrix(dataset_dir / "seq000.audio.f32mat")
        audio[5, 1] = np.nan
        bad = tmp_path / "nan.f32mat"
        save_matrix(bad, audio)
        capsys.readouterr()
        assert main([
            "infer", "--ckpt", str(trained), "--audio", str(bad),
            "--identity", "0", "--out", str(tmp_path / "m.f32mat"),
        ]) == 2
        err = capsys.readouterr().err
        assert "nan.f32mat" in err and "row 5" in err
        assert "softmax" not in err

    @pytest.mark.parametrize("command", ["infer", "export-attn"])
    def test_zero_row_features_name_the_file(self, tmp_path, trained, capsys, command):
        empty = tmp_path / "empty.f32mat"
        save_matrix(empty, np.zeros((0, 3)))
        out = ["--out", str(tmp_path / "m.f32mat")] if command == "infer" else [
            "--out-dir", str(tmp_path / "attn")]
        capsys.readouterr()
        assert main([
            command, "--ckpt", str(trained), "--audio", str(empty), "--identity", "0", *out,
        ]) == 2
        err = capsys.readouterr().err
        assert "empty.f32mat" in err and "no rows" in err and "Traceback" not in err
        assert not (tmp_path / "m.f32mat").exists() and not (tmp_path / "attn").exists()

    @pytest.mark.parametrize("command", ["infer", "export-attn"])
    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_frames_below_one_is_usage_error(
        self, tmp_path, trained, dataset_dir, capsys, command, frames
    ):
        out = ["--out", str(tmp_path / "m.f32mat")] if command == "infer" else [
            "--out-dir", str(tmp_path / "attn")]
        capsys.readouterr()
        assert main([
            command, "--ckpt", str(trained),
            "--audio", str(dataset_dir / "seq000.audio.f32mat"),
            "--identity", "0", "--frames", frames, *out,
        ]) == 1
        err = capsys.readouterr().err
        assert "--frames" in err and f"got {frames}" in err

    @pytest.mark.parametrize("command", ["infer", "export-attn"])
    @pytest.mark.parametrize(
        "huge, frame",
        [
            ("motion_dec.w", 0),  # frame 0 exceeds float32; later ones overflow
            ("motion_enc.w", 1),  # the folded feedback map itself overflows
        ],
    )
    def test_non_finite_motion_is_data_error(self, tmp_path, capsys, command, huge, frame):
        params = init_params(TINY, seed=0)
        if huge == "motion_dec.w":
            w = params["motion_dec.w"].data.copy()
            w[0, 0] = 1e300
            params["motion_dec.w"] = Var(w)
        else:
            params["motion_dec.w"] = Var(np.ones_like(params["motion_dec.w"].data))
            params["motion_enc.w"] = Var(np.full_like(params["motion_enc.w"].data, 1e308))
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(ckpt, params, TINY)
        audio = tmp_path / "feats.f32mat"
        save_matrix(audio, np.random.Generator(np.random.PCG64(3)).normal(size=(8, 4)))
        out = tmp_path / "out"
        flag = "--out" if command == "infer" else "--out-dir"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                command, "--ckpt", str(ckpt), "--audio", str(audio),
                "--identity", "0", flag, str(out),
            ])
        assert code == 2
        err = capsys.readouterr().err
        assert "huge.ckpt" in err and f"frame {frame} " in err
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [np.nan, 1e40])  # non-finite; beyond float32
    @pytest.mark.parametrize("existing", [False, True])
    def test_bad_frame_in_a_later_head_block_writes_nothing(
        self, tmp_path, capsys, monkeypatch, bad, existing
    ):
        # the head's rows are checked and written a block at a time: a bad
        # frame 40, in the second block, fails after the first block went
        # to the temp file, which must go too
        params = init_params(TINY, seed=0)
        params["motion_dec.w"] = Var(np.random.Generator(np.random.PCG64(4)).normal(size=(8, 9)))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, params, TINY)
        audio = tmp_path / "feats.f32mat"
        save_matrix(audio, np.random.Generator(np.random.PCG64(3)).normal(size=(96, 4)))
        hidden_rows = cli.hidden_rows

        def one_bad_row(*args):
            hidden = hidden_rows(*args)
            hidden.data[40] = bad
            return hidden

        monkeypatch.setattr(cli, "hidden_rows", one_bad_row)
        out = tmp_path / "out.f32mat"
        if existing:
            out.write_bytes(b"earlier output")
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "infer", "--ckpt", str(ckpt), "--audio", str(audio),
                "--identity", "0", "--out", str(out),
            ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: motion frame 40 is non-finite or outside the float32 range" in err
        assert "Traceback" not in err and "Warning" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert out.read_bytes() == b"earlier output" if existing else not out.exists()

    @pytest.mark.parametrize("command", ["infer", "export-attn"])
    @pytest.mark.parametrize("frames, count", [(["--frames", "100000"], 100000), ([], 4)])
    def test_allocation_failure_is_data_error(
        self, tmp_path, trained, dataset_dir, capsys, monkeypatch, command, frames, count
    ):
        # numpy reports a failed allocation as a MemoryError; the decoder is
        # replaced so that none is really attempted
        def fail(*args):
            raise MemoryError("Unable to allocate 596. GiB for an array")

        monkeypatch.setattr(cli, "hidden_rows", fail)
        out = tmp_path / "out"
        flag = "--out" if command == "infer" else "--out-dir"
        capsys.readouterr()
        assert main([
            command, "--ckpt", str(trained),
            "--audio", str(dataset_dir / "seq000.audio.f32mat"),
            "--identity", "0", *frames, flag, str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "seq000.audio.f32mat" in err and f" {count} frames" in err
        assert "Traceback" not in err and "GiB" not in err
        assert not out.exists()

    def test_waveform_input(self, tmp_path, trained):
        import wave

        r = np.random.Generator(np.random.PCG64(2))
        samples = (r.normal(size=16000) * 4000).astype("<i2")
        wav_path = tmp_path / "speech.wav"
        with wave.open(str(wav_path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(samples.tobytes())
        out = tmp_path / "motion.f32mat"
        assert main([
            "infer", "--ckpt", str(trained), "--audio", str(wav_path),
            "--identity", "0", "--frames", "5", "--out", str(out),
        ]) == 0
        assert load_matrix(out).shape == (5, 6)

    def test_waveform_shorter_than_the_extractor_names_the_file(self, tmp_path, trained, capsys):
        wav_path = tmp_path / "short.wav"
        with wave.open(str(wav_path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(bytes(200))  # 100 samples
        out = tmp_path / "motion.f32mat"
        capsys.readouterr()
        assert main([
            "infer", "--ckpt", str(trained), "--audio", str(wav_path),
            "--identity", "0", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert f"{wav_path}: waveform of 100 samples is shorter" in err
        assert "Traceback" not in err and not out.exists()


class TestEvalLip:
    def test_identical_files_print_zero(self, tmp_path, dataset_dir, capsys):
        motion = dataset_dir / "seq000.motion.f32mat"
        lips = dataset_dir / "lips.txt"
        assert main(["eval-lip", str(motion), str(motion), str(lips)]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_known_displacement(self, tmp_path, dataset_dir, capsys):
        from speechmotion import save_matrix

        truth = load_matrix(dataset_dir / "seq000.motion.f32mat")
        pred = truth.copy()
        pred[:, 2] += 0.5  # vertex 0 (a lip vertex) moved along z
        pred_path = tmp_path / "pred.f32mat"
        save_matrix(pred_path, pred)
        assert main([
            "eval-lip", str(pred_path), str(dataset_dir / "seq000.motion.f32mat"),
            str(dataset_dir / "lips.txt"),
        ]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.5, abs=1e-6)


    @pytest.mark.parametrize("which", ["pred", "truth"])
    def test_non_finite_motion_is_data_error(self, tmp_path, dataset_dir, capsys, which):
        motion = load_matrix(dataset_dir / "seq000.motion.f32mat")
        motion[2, 1] = np.nan if which == "pred" else np.inf
        bad = tmp_path / f"{which}.f32mat"
        save_matrix(bad, motion)
        good = str(dataset_dir / "seq000.motion.f32mat")
        files = [str(bad), good] if which == "pred" else [good, str(bad)]
        capsys.readouterr()
        assert main(["eval-lip", *files, str(dataset_dir / "lips.txt")]) == 2
        captured = capsys.readouterr()
        assert f"{which}.f32mat" in captured.err and captured.out == ""

    def test_shape_mismatch_names_both_motion_files(self, tmp_path, capsys):
        pred, truth = tmp_path / "pred.f32mat", tmp_path / "truth.f32mat"
        save_matrix(pred, np.zeros((4, 6)))
        save_matrix(truth, np.zeros((8, 3)))
        lips = tmp_path / "lips.txt"
        lips.write_text("0\n")
        assert main(["eval-lip", str(pred), str(truth), str(lips)]) == 2
        captured = capsys.readouterr()
        assert f"{pred} vs {truth}: prediction (4, 6) vs truth (8, 3)" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_motion_with_no_frames_is_data_error(self, tmp_path, capsys):
        pred, truth = tmp_path / "pred.f32mat", tmp_path / "truth.f32mat"
        save_matrix(pred, np.zeros((0, 6)))
        save_matrix(truth, np.zeros((0, 6)))
        lips = tmp_path / "lips.txt"
        lips.write_text("0\n")
        assert main(["eval-lip", str(pred), str(truth), str(lips)]) == 2
        captured = capsys.readouterr()
        assert f"{pred}: motion has no frames" in captured.err
        assert captured.out == "" and "nan" not in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("indices, expected", [
        ("0\n99\n", "lip indices must be unique and in [0, 2), got [0, 99]"),
        ("1\n1\n", "lip indices must be unique and in [0, 2), got [1, 1]"),
        ("", "lip index set is empty"),
    ])
    def test_bad_lip_indices_name_the_lips_file(
        self, tmp_path, dataset_dir, capsys, indices, expected
    ):
        motion = str(dataset_dir / "seq000.motion.f32mat")
        lips = tmp_path / "lips.txt"
        lips.write_text(indices)
        assert main(["eval-lip", motion, motion, str(lips)]) == 2
        captured = capsys.readouterr()
        assert f"{lips}: {expected}" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err


class TestExportAttn:
    def test_writes_per_module_csvs(self, tmp_path, trained, dataset_dir):
        out_dir = tmp_path / "attn"
        code = main([
            "export-attn", "--ckpt", str(trained),
            "--audio", str(dataset_dir / "seq000.audio.f32mat"),
            "--identity", "0", "--out-dir", str(out_dir),
        ])
        assert code == 0
        names = {p.name for p in out_dir.iterdir()}
        assert names == {"encoder_self.csv", "decoder_self.csv", "decoder_cross.csv"}


class TestInspect:
    def test_matrix(self, dataset_dir, capsys):
        assert main(["inspect", str(dataset_dir / "seq000.audio.f32mat")]) == 0
        assert "8x3" in capsys.readouterr().out

    def test_checkpoint(self, trained, capsys):
        assert main(["inspect", str(trained)]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "motion_dec.w" in out

    def test_checkpoint_lists_derived_entries(self, trained, capsys):
        assert main(["inspect", str(trained)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "checkpoint file version 3"
        assert "  motion_fold.M  8x8  (derived)" in lines
        assert "  motion_fold.c  1x8  (derived)" in lines
        assert "  motion_enc.w  6x8" in lines

    def test_unknown_magic(self, tmp_path, capsys):
        path = tmp_path / "junk"
        path.write_bytes(b"????1234")
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: {path}: unrecognized magic b'????'" in err

    @pytest.mark.parametrize("header, payload, message", [
        ((1, 5, 3), 8, "payload size 24 does not match header (5x3 needs 76)"),
        ((2, 2, 3), 24, "unsupported matrix file version 2"),
    ])
    def test_matrix_is_checked_as_load_matrix_checks_it(
        self, tmp_path, capsys, header, payload, message
    ):
        path = tmp_path / "bad.f32mat"
        path.write_bytes(b"F32M" + struct.pack("<III", *header) + bytes(payload))
        with pytest.raises(FormatError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: {message}"
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n" and captured.out == ""


class TestCheckpointVersions:
    """infer and export-attn read a version 3 file without the motion
    encoder, and fail by name on a damaged file or one of a retired
    version."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_retired_version_is_refused(
        self, tmp_path, trained, dataset_dir, capsys, version
    ):
        """A version 1 file (each entry's header and payload in turn, one
        CRC at the end, no stored fold) or version 2 file (version 3
        without the header padding) of trained parameters is refused as
        unsupported by every reader."""
        if version == 1:
            params, cfg = load_checkpoint(trained)
            entries = sorted((name, p.data) for name, p in params.items())
            entries.append((formats.CONFIG_ENTRY, formats._config_vector(cfg)))
        else:
            entries = [(n, v) for n, (_, v) in parse_checkpoint(trained.read_bytes()).items()]
        old = tmp_path / f"v{version}.ckpt"
        old.write_bytes(checkpoint_bytes(entries, version))
        message = f"{old}: unsupported checkpoint version {version}"
        for for_inference in (False, True):
            with pytest.raises(FormatError, match=f"^{message}$"):
                load_checkpoint(old, for_inference=for_inference)
        audio = str(dataset_dir / "seq000.audio.f32mat")
        out = tmp_path / "out"
        for argv in (
            ["inspect", str(old)],
            ["infer", "--ckpt", str(old), "--audio", audio, "--identity", "0",
             "--out", str(out)],
            ["export-attn", "--ckpt", str(old), "--audio", audio, "--identity", "0",
             "--out-dir", str(out)],
        ):
            capsys.readouterr()
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n", argv
            assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["infer", "export-attn"])
    @pytest.mark.parametrize("damage, message", [
        ("header", "header CRC mismatch"),
        ("payload", "CRC mismatch in entry 'motion_fold.M'"),
        ("no fold", "missing=['motion_fold.M', 'motion_fold.c']"),
        ("fold shape", "mismatched=['motion_fold.c']"),
    ])
    def test_damaged_file_is_data_error(
        self, tmp_path, trained, dataset_dir, capsys, command, damage, message
    ):
        blob = bytearray(trained.read_bytes())
        entries = parse_checkpoint(blob)
        if damage == "header":
            blob[13] ^= 0x80
        elif damage == "payload":
            blob[entries["motion_fold.M"][0] + 5] ^= 0x01
        else:
            kept = [(name, values) for name, (_, values) in entries.items()
                    if damage == "fold shape" or name not in ("motion_fold.M", "motion_fold.c")]
            if damage == "fold shape":
                kept = [(name, np.zeros((8, 1)) if name == "motion_fold.c" else values)
                        for name, values in kept]
            blob = checkpoint_bytes(kept, 3)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        out = tmp_path / "out"
        flag = "--out" if command == "infer" else "--out-dir"
        capsys.readouterr()
        assert main([
            command, "--ckpt", str(bad), "--audio", str(dataset_dir / "seq000.audio.f32mat"),
            "--identity", "0", flag, str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "bad.ckpt" in err and message in err and "Traceback" not in err
        assert not out.exists()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["infer", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_corrupt_checkpoint_is_data_error(self, tmp_path, trained, dataset_dir, capsys):
        blob = bytearray(trained.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        code = main([
            "infer", "--ckpt", str(bad),
            "--audio", str(dataset_dir / "seq000.audio.f32mat"),
            "--identity", "0", "--out", str(tmp_path / "m.f32mat"),
        ])
        assert code == 2
        assert "CRC" in capsys.readouterr().err

    @staticmethod
    def _checkpoint(path, name: bytes, values):
        """A checkpoint with one 1xN entry and valid CRCs."""
        blob = bytearray(checkpoint_bytes([("?" * len(name), np.asarray([values]))], 3))
        blob[18 : 18 + len(name)] = name
        reseal(blob)
        path.write_bytes(bytes(blob))
        return path

    def test_non_utf8_entry_name_is_data_error(self, tmp_path, capsys):
        bad = self._checkpoint(tmp_path / "bad.ckpt", b"\xff\xfe", [0.0])
        assert main(["inspect", str(bad)]) == 2
        assert "bad.ckpt: entry name at byte 18 is not UTF-8" in capsys.readouterr().err

    def test_nan_in_config_entry_is_data_error(self, tmp_path, capsys):
        values = [np.nan] + [1.0] * 17
        bad = self._checkpoint(tmp_path / "bad.ckpt", b"__config__", values)
        assert main(["inspect", str(bad)]) == 2
        assert "bad.ckpt: config entry holds non-finite values" in capsys.readouterr().err

    def test_dataset_meta_integer_beyond_int64_is_data_error(
        self, tmp_path, dataset_dir, capsys
    ):
        meta = dataset_dir / "dataset.cfg"
        meta.write_text("\n".join(
            "vertices = 1180591620717411303424" if line.startswith("vertices =") else line
            for line in meta.read_text().splitlines()
        ) + "\n")
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG)
        code = main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{meta}: vertices = 1180591620717411303424 does not fit" in err
        assert "Traceback" not in err and not (tmp_path / "m.ckpt").exists()

    def test_bad_ff_log_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("FF_LOG", "loudly")
        assert main(["inspect", "whatever"]) == 1

    @pytest.mark.parametrize("target", ["train.cfg", "dataset.cfg", "samples.tsv", "lips.txt"])
    def test_non_utf8_text_names_the_file(self, tmp_path, dataset_dir, capsys, target):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG)
        bad = cfg_path if target == "train.cfg" else dataset_dir / target
        bad.write_bytes(b"dim = 8\n\xff\xfe\n")
        motion = str(dataset_dir / "seq000.motion.f32mat")
        argv = ["eval-lip", motion, motion, str(bad)] if target == "lips.txt" else [
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            "--out", str(tmp_path / "m.ckpt")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err and "Traceback" not in err

    @pytest.mark.parametrize("target, line, message", [
        ("train.cfg", "dim 8", "line 2: expected 'key = value', got 'dim 8'"),
        ("train.cfg", "dimm = 8", "unknown configuration keys: dimm"),
        ("dataset.cfg", "vertices 4", "line 2: expected 'key = value', got 'vertices 4'"),
    ])
    def test_config_errors_name_the_file(
        self, tmp_path, dataset_dir, capsys, target, line, message
    ):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG)
        bad = cfg_path if target == "train.cfg" else dataset_dir / target
        bad.write_text(f"heads = 2\n{line}\n")
        capsys.readouterr()
        assert main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            "--out", str(tmp_path / "m.ckpt"),
        ]) == 2
        assert f"{bad}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("target, old, new, message", [
        ("dataset.cfg", "feature_dim = 3", "feature_dim = 5",
         "{data}/seq000.audio.f32mat: feature width 3 does not match configured "
         "feature_dim 5 in {data}/dataset.cfg"),
        ("dataset.cfg", "identities = 2", "identities = 1",
         "{data}/samples.tsv:2: identity 1 out of range for identities = 1 in "
         "{data}/dataset.cfg"),
        ("dataset.cfg", "vertices = 2", "vertices = 5",
         "{data}/seq000.motion.f32mat: sample 0: motion width 6 does not match "
         "3*V = 15 in {data}/dataset.cfg"),
        ("dataset.cfg", "feature_rate = 50.0", "feature_rate = 5000",
         "{data}/seq000.motion.f32mat: sample 0: motion has 4 frames but audio implies "
         "0.04 at 25.0 fps in {data}/dataset.cfg"),
        ("samples.tsv", "seq001.audio", "seq009.audio",
         "{data}/samples.tsv:2: [Errno 2] No such file or directory: "
         "'{data}/seq009.audio.f32mat'"),
    ], ids=["feature_dim", "identities", "vertices", "feature_rate", "missing file"])
    def test_dataset_mismatch_names_the_listing(
        self, tmp_path, dataset_dir, capsys, monkeypatch, target, old, new, message
    ):
        # each dataset.cfg here is valid alone but does not fit the samples
        path = dataset_dir / target
        path.write_text(path.read_text().replace(old, new))
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG)
        monkeypatch.setattr(cli, "train", None)  # rejected before training starts
        capsys.readouterr()
        assert main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            "--out", str(tmp_path / "m.ckpt"),
        ]) == 2
        assert capsys.readouterr().err == f"error: {message.format(data=dataset_dir)}\n"

    def test_dataset_conflict_names_file_key_values_and_dataset(
        self, tmp_path, dataset_dir, capsys, monkeypatch
    ):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG + "vertices = 99\n")
        monkeypatch.setattr(cli, "train", None)  # rejected before training starts
        capsys.readouterr()
        assert main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            "--out", str(tmp_path / "m.ckpt"),
        ]) == 2
        err = capsys.readouterr().err
        assert (
            f"{cfg_path}: vertices = 99, but the dataset in {dataset_dir} has vertices = 2"
            in err
        )
        assert "Traceback" not in err and not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flag", ["--out", "--loss-csv"])
    def test_train_into_missing_directory_fails_first(
        self, tmp_path, dataset_dir, capsys, monkeypatch, flag
    ):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG)
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("trained"))
        missing = tmp_path / "missing" / "out.file"
        outs = {"--out": str(tmp_path / "m.ckpt"), "--loss-csv": str(tmp_path / "l.csv")}
        outs[flag] = str(missing)
        capsys.readouterr()
        assert main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            *(arg for pair in outs.items() for arg in pair),
        ]) == 2
        err = capsys.readouterr().err
        assert f"{missing}: no such directory to write into" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "train.cfg"]

    def test_infer_into_missing_directory_fails_first(
        self, tmp_path, trained, dataset_dir, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "hidden_rows", lambda *a: pytest.fail("decoded"))
        missing = tmp_path / "missing" / "m.f32mat"
        capsys.readouterr()
        assert main([
            "infer", "--ckpt", str(trained),
            "--audio", str(dataset_dir / "seq000.audio.f32mat"),
            "--identity", "0", "--out", str(missing),
        ]) == 2
        err = capsys.readouterr().err
        assert f"{missing}: no such directory to write into" in err
        assert "Traceback" not in err and not missing.parent.exists()

    @pytest.mark.parametrize("flag", ["--out", "--loss-csv"])
    def test_train_onto_a_directory_fails_first(
        self, tmp_path, dataset_dir, capsys, monkeypatch, flag
    ):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG)
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("trained"))
        taken = tmp_path / "taken"
        taken.mkdir()
        outs = {"--out": str(tmp_path / "m.ckpt"), "--loss-csv": str(tmp_path / "l.csv")}
        outs[flag] = str(taken)
        capsys.readouterr()
        assert main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            *(arg for pair in outs.items() for arg in pair),
        ]) == 2
        err = capsys.readouterr().err
        assert f"{taken}: is a directory, not a file to write" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "taken", "train.cfg"]

    @pytest.mark.parametrize("command", ["infer", "export-attn"])
    def test_output_of_the_wrong_kind_fails_first(
        self, tmp_path, trained, dataset_dir, capsys, monkeypatch, command
    ):
        # infer's --out is an existing directory; export-attn's --out-dir
        # an existing file
        monkeypatch.setattr(cli, "hidden_rows", lambda *a: pytest.fail("decoded"))
        taken = tmp_path / "taken"
        if command == "infer":
            taken.mkdir()
            out, message = ["--out", str(taken)], "is a directory, not a file to write"
        else:
            taken.write_text("kept\n")
            out, message = ["--out-dir", str(taken)], "is a file, not a directory to write into"
        capsys.readouterr()
        assert main([
            command, "--ckpt", str(trained),
            "--audio", str(dataset_dir / "seq000.audio.f32mat"), "--identity", "0", *out,
        ]) == 2
        err = capsys.readouterr().err
        assert f"{taken}: {message}" in err
        assert "Traceback" not in err
        assert taken.is_dir() if command == "infer" else taken.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["infer", "export-attn"])
    def test_wrong_feature_width_names_the_file(self, tmp_path, trained, capsys, command):
        wide = tmp_path / "wide.f32mat"
        save_matrix(wide, np.zeros((8, 5)))
        out = ["--out", str(tmp_path / "m.f32mat")] if command == "infer" else [
            "--out-dir", str(tmp_path / "attn")]
        capsys.readouterr()
        assert main([
            command, "--ckpt", str(trained), "--audio", str(wide), "--identity", "0", *out,
        ]) == 2
        err = capsys.readouterr().err
        assert f"{wide}: feature width 5 does not match configured feature_dim 3" in err
        assert not (tmp_path / "m.f32mat").exists() and not (tmp_path / "attn").exists()

    def test_wrong_feature_width_in_dataset_names_the_file(
        self, tmp_path, dataset_dir, capsys, monkeypatch
    ):
        wide = dataset_dir / "seq001.audio.f32mat"
        save_matrix(wide, np.zeros((8, 5)))
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(TINY_CONFIG)
        monkeypatch.setattr(cli, "train", None)  # rejected before training starts
        capsys.readouterr()
        assert main([
            "train", "--config", str(cfg_path), "--data", str(dataset_dir),
            "--out", str(tmp_path / "m.ckpt"),
        ]) == 2
        err = capsys.readouterr().err
        assert f"{wide}: feature width 5 does not match configured feature_dim 3" in err
        assert not (tmp_path / "m.ckpt").exists()


# One replaced byte: (position, value). Replacing rather than inserting keeps
# each number to its digit count, so `epochs = 2` never grows past 9.
_REPLACE = st.tuples(
    st.integers(0, 1 << 16),
    st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789 =#.-\t\n")),
)


class TestTextFuzz:
    """Byte replacements in each text file the CLI reads: train.cfg,
    dataset.cfg and samples.tsv through ``train``, lips.txt through
    ``eval-lip``. Each case exits 0, 1 or 2 with no traceback, and an exit 2
    names the mutated file."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("textfuzz")
        assert main([
            "gen-synthetic", "--out", str(root / "data"), "--identities", "2",
            "--sequences", "2", "--frames", "4", "--vertices", "2",
            "--feature-dim", "3", "--seed", "1",
        ]) == 0
        (root / "train.cfg").write_text(TINY_CONFIG)
        return root

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        target=st.sampled_from(["train.cfg", "dataset.cfg", "samples.tsv", "lips.txt"]),
        mutations=st.lists(_REPLACE, min_size=1, max_size=3),
    )
    # A NUL byte in a listed file name made pathlib raise ValueError.
    @example(target="samples.tsv", mutations=[(0, 0)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mutated_text_exits_with_a_code(self, root, target, mutations):
        data = root / "data"
        path = root / target if target == "train.cfg" else data / target
        original = path.read_bytes()
        blob = bytearray(original)
        for pos, value in mutations:
            blob[pos % len(blob)] = value
        motion = str(data / "seq000.motion.f32mat")
        argv = ["eval-lip", motion, motion, str(path)] if target == "lips.txt" else [
            "train", "--config", str(root / "train.cfg"), "--data", str(data),
            "--out", str(root / "m.ckpt"),
        ]
        err, out = io.StringIO(), io.StringIO()
        path.write_bytes(bytes(blob))
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                code = main(argv)
        finally:
            path.write_bytes(original)
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
        if code == 2:
            assert str(path) in err.getvalue()
