import dataclasses
import struct
import tempfile
import warnings
import wave
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speechmotion import (
    ConfigError,
    FormatError,
    Var,
    init_params,
    load_checkpoint,
    load_matrix,
    save_checkpoint,
    save_matrix,
)
from speechmotion.cli import main
from speechmotion.config import build_configs
from speechmotion.formats import (
    load_motion,
    matrix_header,
    parse_config_lines,
    read_lip_indices,
    read_wav,
)

from conftest import TINY


class TestMatrixFile:
    def test_roundtrip_within_f32(self, tmp_path, rng):
        m = rng.normal(size=(5, 3))
        path = tmp_path / "m.f32mat"
        save_matrix(path, m)
        back = load_matrix(path)
        assert back.shape == (5, 3)
        assert np.allclose(back, m, atol=1e-6)
        assert np.array_equal(back, m.astype(np.float32).astype(np.float64))

    def test_header(self, tmp_path, rng):
        path = tmp_path / "m.f32mat"
        save_matrix(path, rng.normal(size=(2, 7)))
        assert matrix_header(path) == (1, 2, 7)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(FormatError, match="magic"):
            load_matrix(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "m.f32mat"
        save_matrix(path, rng.normal(size=(3, 3)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(FormatError, match="size"):
            load_matrix(path)

    def test_signalling_nan_loads_without_warning(self, tmp_path, rng):
        path = tmp_path / "snan.f32mat"
        save_matrix(path, rng.normal(size=(2, 3)))
        blob = bytearray(path.read_bytes())
        blob[16 + 4 * 4 : 16 + 4 * 5] = struct.pack("<I", 0x7F800001)
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = load_matrix(path)
            with pytest.raises(FormatError, match="snan.f32mat"):
                load_motion(path)
        assert np.isnan(m[1, 1]) and np.isfinite(np.delete(m, 4)).all()

    def test_file_bytes_pinned(self, tmp_path, rng):
        m = np.asfortranarray(rng.normal(size=(3, 5)))
        path = tmp_path / "m.f32mat"
        save_matrix(path, m)
        expected = b"F32M" + struct.pack("<III", 1, 3, 5)
        expected += b"".join(struct.pack("<5f", *row) for row in m)
        assert path.read_bytes() == expected


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        cfg = TINY
        params = init_params(cfg, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert set(loaded) == set(params)
        for k in params:
            assert np.array_equal(loaded[k].data, params[k].data)

    def test_crc_detects_any_corruption(self, tmp_path):
        cfg = TINY
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(cfg, seed=3), cfg)
        blob = bytearray(path.read_bytes())
        for offset in (4, 11, len(blob) // 2, len(blob) - 2):
            corrupted = bytearray(blob)
            corrupted[offset] ^= 0xFF
            path.write_bytes(bytes(corrupted))
            with pytest.raises(FormatError):
                load_checkpoint(path)

    def test_shape_mismatch_with_config_rejected(self, tmp_path):
        cfg = TINY
        params = init_params(cfg, seed=3)
        params["motion_dec.w"] = Var(np.zeros((2, 2)))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        with pytest.raises(FormatError, match="mismatched"):
            load_checkpoint(path)

    def test_reserved_name_rejected(self, tmp_path):
        cfg = TINY
        params = init_params(cfg, seed=0)
        params["__config__"] = Var(np.zeros((1, 18)))
        with pytest.raises(FormatError, match="reserved"):
            save_checkpoint(tmp_path / "x.ckpt", params, cfg)

    def test_no_partial_file_on_error(self, tmp_path):
        target = tmp_path / "missing-dir" / "model.ckpt"
        with pytest.raises(FileNotFoundError):
            save_checkpoint(target, init_params(TINY, 0), TINY)
        assert not target.exists()
        leftovers = list(tmp_path.iterdir())
        assert leftovers == []

    def test_nondefault_modes_roundtrip(self, tmp_path):
        cfg = dataclasses.replace(TINY, pe_mode="alibi", output_space="offset")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(cfg, 1), cfg)
        _, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg.pe_mode == "alibi"
        assert loaded_cfg.output_space == "offset"

    @pytest.mark.parametrize("index, value, match", [
        (0, 8.9, "dim = 8.9 is not an integer"),
        (13, 0.5, "pe_mode = 0.5 is not an integer"),
        (13, -1.0, "pe_mode code -1"),
        (13, 3.0, "pe_mode code 3"),
        (14, 2.0, "output_space code 2"),
    ])
    def test_bad_config_vector_rejected(self, tmp_path, index, value, match):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(TINY, 0), TINY)
        blob = bytearray(path.read_bytes())
        start = blob.index(b"__config__") + len(b"__config__") + 8 + 8 * index
        blob[start : start + 8] = struct.pack("<d", value)
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)

    def test_duplicate_entry_names_rejected(self, tmp_path):
        body = bytearray()
        body += b"FFCK" + struct.pack("<II", 1, 2)
        entry = struct.pack("<H", 3) + b"dup" + struct.pack("<II", 1, 1)
        entry += np.zeros(1, dtype="<f8").tobytes()
        body += entry + entry
        body += struct.pack("<I", zlib.crc32(bytes(body)))
        path = tmp_path / "dup.ckpt"
        path.write_bytes(bytes(body))
        with pytest.raises(FormatError, match="duplicate"):
            load_checkpoint(path)

    def test_file_bytes_pinned(self, tmp_path):
        cfg = dataclasses.replace(TINY, pe_mode="alibi", output_space="offset")
        a = np.arange(6.0).reshape(2, 3) / 7.0
        params = {"w": Var(a), "b": Var(np.array([[-1.5]]))}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)

        config = [
            cfg.dim, cfg.heads, cfg.period, cfg.feature_rate, cfg.motion_rate,
            cfg.encoder_layers, cfg.decoder_layers, cfg.ff_dim, cfg.vertices,
            cfg.identities, cfg.feature_dim, cfg.encoder_dim, cfg.encoder_heads,
            2, 1, 0, 0, 0,
        ]  # pe_mode "alibi" is code 2, output_space "offset" code 1
        body = b"FFCK" + struct.pack("<II", 1, 3)
        for name, rows, cols, values in (
            (b"b", 1, 1, [-1.5]),
            (b"w", 2, 3, a.ravel()),
            (b"__config__", 1, 18, config),
        ):
            body += struct.pack("<H", len(name)) + name + struct.pack("<II", rows, cols)
            body += struct.pack(f"<{len(values)}d", *values)
        body += struct.pack("<I", zlib.crc32(body))
        assert path.read_bytes() == body

    def test_loaded_entries_are_aligned_writable_float64(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(TINY, seed=3), TINY)
        blob = path.read_bytes()
        offsets, offset = {}, 12
        for _ in range(struct.unpack_from("<I", blob, 8)[0]):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            name = blob[offset + 2 : offset + 2 + name_len].decode()
            rows, cols = struct.unpack_from("<II", blob, offset + 2 + name_len)
            offset += 2 + name_len + 8
            offsets[name] = offset
            offset += 8 * rows * cols
        # Sorted first, the 19-byte "dec.layer0.cross.wk" puts its payload at
        # 12 + 2 + 19 + 8 = 41, which is 1 (mod 8).
        assert offsets["dec.layer0.cross.wk"] % 8 == 1
        assert {o % 8 for o in offsets.values()} > {0}
        loaded, _ = load_checkpoint(path)
        assert set(loaded) == set(offsets) - {"__config__"}
        for name, p in loaded.items():
            flags = p.data.flags
            assert p.data.dtype == np.float64, name
            assert flags.c_contiguous and flags.aligned and flags.writeable, name


_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20), st.just(b"")),
    st.tuples(
        st.just("insert"), st.integers(0, 1 << 20), st.binary(min_size=1, max_size=12)
    ),
)


def _fuzz_checkpoint(path):
    save_checkpoint(path, init_params(TINY, seed=5), TINY)


def _top_byte_of_first_value(name: str) -> int:
    """Offset in the fuzz checkpoint of the byte holding the sign and top
    exponent bits of entry ``name``'s first value (the last byte of a
    little-endian float64)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        _fuzz_checkpoint(path)
        blob = path.read_bytes()
    header = struct.pack("<H", len(name)) + name.encode()
    return blob.index(header) + len(header) + 8 + 7


class TestFuzz:
    """Any mutation of a checkpoint or matrix file loads or raises
    FormatError, and the CLI answers it with an exit code, never a traceback."""

    @pytest.fixture(scope="class")
    def originals(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        _fuzz_checkpoint(root / "model.ckpt")
        feats = np.random.Generator(np.random.PCG64(5)).normal(size=(6, TINY.feature_dim))
        save_matrix(root / "audio.f32mat", feats)
        return root, {
            kind: (root / name).read_bytes()
            for kind, name in (("ckpt", "model.ckpt"), ("mat", "audio.f32mat"))
        }

    # Fixed draws, so every run checks the same cases.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["ckpt", "mat"]),
        mutations=st.lists(_MUTATION, min_size=1, max_size=3),
        fix_crc=st.booleans(),
    )
    # Flipping 0x40 in the top byte of enc.input_proj.w[0, 0] (0.37) makes it
    # ~1e308, still finite, so the file loads and passes its CRC; infer then
    # overflows in the encoder. Its errstate guard must turn that into exit
    # code 2 naming the checkpoint, not a RuntimeWarning.
    @example(
        kind="ckpt",
        mutations=[("flip", _top_byte_of_first_value("enc.input_proj.w"), 0x40)],
        fix_crc=True,
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mutated_file_loads_or_is_format_error(
        self, originals, kind, mutations, fix_crc
    ):
        root, blobs = originals
        blob = bytearray(blobs[kind])
        for op, pos, arg in mutations:
            pos %= len(blob) + 1
            if op == "flip" and pos < len(blob):
                blob[pos] ^= arg
            elif op == "truncate":
                del blob[pos:]
            elif op == "insert":
                blob[pos:pos] = arg
        if fix_crc and len(blob) >= 4:
            blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        path = root / f"mutated.{kind}"
        path.write_bytes(bytes(blob))
        for load in (load_checkpoint, load_matrix):
            try:
                load(path)
            except FormatError:
                pass
        ckpt, audio = root / "model.ckpt", root / "audio.f32mat"
        if kind == "ckpt":
            ckpt = path
        else:
            audio = path
        assert main(["inspect", str(path)]) in (0, 1, 2)
        assert main([
            "infer", "--ckpt", str(ckpt), "--audio", str(audio),
            "--identity", "0", "--out", str(root / "out.f32mat"),
        ]) in (0, 1, 2)


class TestConfigText:
    def test_parse_and_defaults_notice(self):
        parsed = build_configs(parse_config_lines("dim = 16\nheads = 2\nlr = 0.001\n"))
        assert parsed.model.dim == 16
        assert parsed.model.heads == 2
        assert parsed.train.lr == 0.001
        assert any("period" in n for n in parsed.notices)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="perod"):
            build_configs(parse_config_lines("perod = 10\n"))

    def test_comments_and_blank_lines(self):
        values = parse_config_lines("# header\n\ndim = 8  # trailing\n")
        assert values == {"dim": "8"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_lines("dim = 8\ndim = 9\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_lines("dim 8\n")

    def test_bool_and_mode_values(self):
        parsed = build_configs(
            parse_config_lines(
                "freeze_extractor = false\ndetach_rollout = TRUE\npe_mode = alibi\n"
            )
        )
        assert parsed.train.freeze_extractor is False
        assert parsed.train.detach_rollout is True
        assert parsed.model.pe_mode == "alibi"

    def test_derived_field_cross_check(self):
        build_configs(parse_config_lines("dim = 8\nheads = 2\nhead_dim = 4\n"))
        with pytest.raises(ConfigError, match="head_dim"):
            build_configs(parse_config_lines("dim = 8\nheads = 2\nhead_dim = 3\n"))
        with pytest.raises(ConfigError, match="frame_ratio"):
            build_configs(
                parse_config_lines(
                    "feature_rate = 50\nmotion_rate = 25\nframe_ratio = 3\n"
                )
            )

    @pytest.mark.parametrize("key, value", [
        ("grad_clip", "-1"), ("grad_clip", "0"), ("grad_clip", "nan"),
        ("beta1", "1"), ("beta2", "1.5"), ("eps", "0"),
    ])
    def test_out_of_range_train_values(self, key, value):
        with pytest.raises(ConfigError, match=key):
            build_configs(parse_config_lines(f"{key} = {value}\n"))

    def test_invalid_model_values(self):
        with pytest.raises(ConfigError, match="power of two"):
            build_configs(parse_config_lines("heads = 3\ndim = 9\n"))
        with pytest.raises(ConfigError, match="pe_mode"):
            build_configs(parse_config_lines("pe_mode = sometimes\n"))


class TestWav:
    def _write(self, path, channels=1, width=2, rate=16000, frames=None):
        if frames is None:
            t = np.arange(800)
            frames = (np.sin(t * 0.05) * 20000).astype("<i2").tobytes() * channels
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(channels)
            fh.setsampwidth(width)
            fh.setframerate(rate)
            fh.writeframes(frames)

    def test_read_mono_16bit(self, tmp_path):
        path = tmp_path / "a.wav"
        self._write(path)
        samples, rate = read_wav(path)
        assert rate == 16000
        assert samples.shape == (800,)
        assert np.abs(samples).max() <= 1.0

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "s.wav"
        self._write(path, channels=2)
        with pytest.raises(FormatError, match="mono"):
            read_wav(path)

    def test_rejects_non_wav(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"not audio at all")
        with pytest.raises(FormatError):
            read_wav(path)


def test_read_lip_indices(tmp_path):
    path = tmp_path / "lips.txt"
    path.write_text("0\n3\n7\n")
    assert read_lip_indices(path) == [0, 3, 7]
    path.write_text("0\nx\n")
    with pytest.raises(FormatError):
        read_lip_indices(path)
