import contextlib
import dataclasses
import io
import os
import struct
import tempfile
import tracemalloc
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
    ModelConfig,
    TrainConfig,
    Var,
    init_params,
    load_checkpoint,
    load_matrix,
    save_checkpoint,
    save_matrix,
)
from speechmotion import cli, formats
from speechmotion.cli import main
from speechmotion.config import build_configs
from speechmotion.decoder import FOLD_ENTRIES, feedback_map
from speechmotion.formats import (
    load_motion,
    matrix_header,
    parse_config_lines,
    read_lip_indices,
    read_wav,
)

from conftest import TINY
from reference import (
    checkpoint_bytes,
    header_padding,
    parse_checkpoint,
    reseal,
)


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

    def test_missing_directory_names_the_output(self, tmp_path):
        path = tmp_path / "missing" / "m.f32mat"
        with pytest.raises(FileNotFoundError) as info:
            save_matrix(path, np.zeros((2, 3)))
        assert info.value.filename == str(path)
        assert str(info.value).endswith(f"No such file or directory: '{path}'")


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
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(cfg, seed=3), cfg)
        entries = [
            (name, np.zeros((2, 2)) if name == "motion_dec.w" else values)
            for name, (_, values) in parse_checkpoint(path.read_bytes()).items()
        ]  # save_checkpoint refuses such a file
        path.write_bytes(checkpoint_bytes(entries, 3))
        for for_inference in (False, True):
            with pytest.raises(FormatError, match=r"mismatched=\['motion_dec.w'\]"):
                load_checkpoint(path, for_inference=for_inference)

    def test_shape_mismatch_with_config_rejected_on_save(self, tmp_path):
        params = init_params(TINY, seed=3)
        params["motion_dec.w"] = Var(np.zeros((2, 2)))
        del params["motion_enc.b"]
        path = tmp_path / "model.ckpt"
        with pytest.raises(FormatError, match=r"model.ckpt.*missing=\['motion_enc.b'\] "
                           r"extra=\[\] mismatched=\['motion_dec.w'\]"):
            save_checkpoint(path, params, TINY)
        assert list(tmp_path.iterdir()) == []

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
        cfg = dataclasses.replace(TINY, pe_mode="alibi")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(cfg, 1), cfg)
        _, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg

    @pytest.mark.parametrize("index, value, match", [
        (0, 8.9, "dim = 8.9 is not an integer"),
        (13, 0.5, "pe_mode = 0.5 is not an integer"),
        (13, -1.0, "pe_mode code -1"),
        (13, 3.0, "pe_mode code 3"),
        (14, 1.0, "output_space code 1 is not supported"),
        (14, 2.0, "output_space code 2"),
        (0, 0.0, "dim must be >= 1"),
        (0, 1e20, "dim = 100000000000000000000 does not fit"),
    ])
    def test_bad_config_vector_rejected(self, tmp_path, index, value, match):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(TINY, 0), TINY)
        blob = bytearray(path.read_bytes())
        start = parse_checkpoint(blob)["__config__"][0] + 8 * index
        blob[start : start + 8] = struct.pack("<d", value)
        reseal(blob)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)

    def test_duplicate_entry_names_rejected(self, tmp_path):
        entry = ("dup", np.zeros((1, 1)))
        path = tmp_path / "dup.ckpt"
        path.write_bytes(checkpoint_bytes([entry, entry], 3))
        with pytest.raises(FormatError, match="duplicate entry 'dup'"):
            load_checkpoint(path)

    def test_file_bytes_pinned(self, tmp_path):
        cfg = dataclasses.replace(TINY, pe_mode="alibi")
        params = init_params(cfg, seed=2)
        params["motion_dec.w"] = Var(np.arange(72.0).reshape(8, 9) / 7.0)  # init: zeros
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)

        config = [
            cfg.dim, cfg.heads, cfg.period, cfg.feature_rate, cfg.motion_rate,
            cfg.encoder_layers, cfg.decoder_layers, cfg.ff_dim, cfg.vertices,
            cfg.identities, cfg.feature_dim, cfg.encoder_dim, cfg.encoder_heads,
            2, 0, 0, 0, 0,
        ]  # pe_mode "alibi" is code 2; slot 14, retired, is always 0
        wd, bd = params["motion_dec.w"].data, params["motion_dec.b"].data
        we, be = params["motion_enc.w"].data, params["motion_enc.b"].data
        entries = sorted(
            [(name, p.data) for name, p in params.items()]
            + [("motion_fold.M", wd @ we), ("motion_fold.c", bd @ we + be)]
        )
        entries.append(("__config__", np.array([config], dtype=float)))
        blob = path.read_bytes()
        assert blob == checkpoint_bytes(entries, 3)
        table_len = sum(2 + len(name) + 12 for name, _ in entries)
        assert blob[:16] == b"FFCK" + struct.pack("<III", 3, len(entries), table_len)
        # The header block is padded with zeros, under its CRC, to a
        # multiple of 64 bytes.
        start = 20 + table_len + header_padding(table_len)
        assert start % 64 == 0 and start - 64 < 20 + table_len
        assert blob[16 + table_len : start - 4] == bytes(start - 20 - table_len)
        assert blob[start - 4 : start] == struct.pack("<I", zlib.crc32(blob[: start - 4]))

    def test_loaded_v3_entries_are_aligned_writable_float64(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(TINY, seed=3), TINY)
        offsets = {name: o for name, (o, _) in parse_checkpoint(path.read_bytes()).items()}
        # The header block is padded from 1751 to 1792 bytes, so the first
        # payload starts at 0 (mod 64) and every payload at 0 (mod 8).
        assert min(offsets.values()) == 1792
        assert {o % 8 for o in offsets.values()} == {0}
        for for_inference in (False, True):
            loaded, _ = load_checkpoint(path, for_inference=for_inference)
            assert set(loaded) < set(offsets)
            for name, p in loaded.items():
                flags = p.data.flags
                assert p.data.dtype == np.float64, name
                assert flags.c_contiguous and flags.aligned and flags.writeable, name
                assert flags.owndata, name

    @pytest.mark.parametrize("chunk", [4096, formats._CHUNK])
    def test_loaded_arrays_match_plain_parse_bitwise(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(formats, "_CHUNK", chunk)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(TINY, seed=5), TINY)
        expected = parse_checkpoint(path.read_bytes())
        loaded = formats._read_checkpoint(path)
        assert list(loaded) == list(expected)
        for name, (_, values) in expected.items():
            assert loaded[name].shape == values.shape, name
            assert loaded[name].tobytes() == values.tobytes(), name

    def test_corrupt_name_length_reports_crc_first(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(TINY, seed=3), TINY)
        blob = bytearray(path.read_bytes())
        blob[13] ^= 0x80  # the second byte of the entry table's length
        path.write_bytes(bytes(blob))
        for for_inference in (False, True):
            with pytest.raises(FormatError, match="header CRC mismatch"):
                load_checkpoint(path, for_inference=for_inference)

    @pytest.mark.parametrize("version", [0, 4, 2**32 - 1])
    def test_unknown_version_is_unsupported_not_corrupt(self, tmp_path, version):
        # The version is read before any CRC: a file from a newer writer, its
        # header CRC resealed or not, reads as an unsupported version rather
        # than as corrupt.
        path = tmp_path / "model.ckpt"
        message = f"model.ckpt: unsupported checkpoint version {version}$"
        save_checkpoint(path, init_params(TINY, seed=3), TINY)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", version)
        for sealed in (False, True):
            if sealed:
                table_len = struct.unpack_from("<I", blob, 12)[0]
                end = 16 + table_len + header_padding(table_len)
                blob[end : end + 4] = struct.pack("<I", zlib.crc32(blob[:end]))
            path.write_bytes(bytes(blob))
            for for_inference in (False, True):
                with pytest.raises(FormatError, match=message):
                    load_checkpoint(path, for_inference=for_inference)
            code, err = _run(["inspect", str(path)])
            assert code == 2 and f"unsupported checkpoint version {version}\n" in err

    def test_short_read_names_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        real_fstat = os.fstat

        def grown(fd):  # the file looks 8 bytes longer than it reads
            st = real_fstat(fd)
            return os.stat_result((*st[:6], st.st_size + 8, *st[7:]))

        save_checkpoint(path, init_params(TINY, seed=3), TINY)
        monkeypatch.setattr(os, "fstat", grown)
        for for_inference in (False, True):
            with pytest.raises(FormatError, match="model.ckpt: short read"):
                load_checkpoint(path, for_inference=for_inference)


def test_summary_checks_payloads_without_holding_them(tmp_path, monkeypatch):
    # inspect reads every payload through one reused buffer of _CHUNK bytes:
    # a 1 MB payload in 64 KB pieces never sits in memory whole
    monkeypatch.setattr(formats, "_CHUNK", 1 << 16)
    big = np.random.default_rng(0).normal(size=(256, 512))
    entries = [
        ("big", big), ("small", big[:1, :3]),
        (formats.CONFIG_ENTRY, formats._config_vector(TINY)),
    ]
    path = tmp_path / "big.ckpt"
    path.write_bytes(checkpoint_bytes(entries, 3))
    tracemalloc.start()
    try:
        lines = formats.checkpoint_summary(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < big.nbytes
    assert lines == [
        "checkpoint file version 3", f"config: {TINY}", "entries: 2",
        "  big  256x512", "  small  1x3",
    ]
    blob = bytearray(path.read_bytes())
    blob[parse_checkpoint(blob)["big"][0] + 5 * (1 << 16) + 3] ^= 0x08
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="CRC mismatch in entry 'big'"):
        formats.checkpoint_summary(path)


class TestCheckpointV2:
    """The stored fold, the inference load that skips the motion encoder,
    and a message naming the entry for every kind of damage."""

    @pytest.fixture
    def saved(self, tmp_path):
        params = init_params(TINY, seed=3)
        rng = np.random.Generator(np.random.PCG64(1))
        params["motion_dec.w"] = Var(rng.normal(size=(8, 9)))
        params["motion_dec.b"] = Var(rng.normal(size=(1, 9)))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, TINY)
        return path, params

    def test_stored_fold_is_feedback_map_bitwise(self, saved):
        path, params = saved
        entries = formats._read_checkpoint(path)
        for name, value in zip(FOLD_ENTRIES, feedback_map(params)):
            assert entries[name].tobytes() == value.data.tobytes(), name

    def test_only_the_inference_load_carries_the_fold(self, saved):
        path, params = saved
        full, _ = load_checkpoint(path)
        assert list(full) == sorted(params)
        for name in params:
            assert full[name].data.tobytes() == params[name].data.tobytes(), name
        inference, _ = load_checkpoint(path, for_inference=True)
        assert set(inference) == (
            set(params) - {"motion_enc.w", "motion_enc.b"} | set(FOLD_ENTRIES)
        )

    def test_skipped_payload_is_checked_by_full_load_and_inspect(self, saved, capsys):
        path, params = saved
        blob = bytearray(path.read_bytes())
        blob[parse_checkpoint(blob)["motion_enc.w"][0] + 3] ^= 0x10
        path.write_bytes(bytes(blob))
        loaded, _ = load_checkpoint(path, for_inference=True)
        assert "motion_enc.w" not in loaded
        with pytest.raises(FormatError, match="CRC mismatch in entry 'motion_enc.w'"):
            load_checkpoint(path)
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 2
        assert "'motion_enc.w'" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, match", [
        ("header", "header CRC mismatch"),
        ("table", "header CRC mismatch"),
        ("payload", "CRC mismatch in entry 'dec.layer0.self.wq'"),
        ("truncate", "truncated payload for '__config__'"),
        ("append", "3 stray bytes after entries"),
        ("name", "entry name at byte 18 is not UTF-8"),
        ("no fold", r"missing=\['motion_fold.M', 'motion_fold.c'\]"),
        ("fold shape", r"mismatched=\['motion_fold.M'\]"),
    ])
    def test_damage_is_named(self, saved, damage, match):
        path, _ = saved
        blob = bytearray(path.read_bytes())
        entries = {name: values for name, (_, values) in parse_checkpoint(blob).items()}
        if damage == "header":
            blob[13] ^= 0x80
        elif damage == "table":
            blob[40] ^= 0x01
        elif damage == "payload":
            blob[parse_checkpoint(blob)["dec.layer0.self.wq"][0]] ^= 0x01
        elif damage == "truncate":
            del blob[-9:]
        elif damage == "append":
            blob += b"abc"
        elif damage == "name":
            blob[18] = 0xFF  # first byte of the first entry's name
            reseal(blob)
        else:
            if damage == "no fold":
                del entries["motion_fold.M"], entries["motion_fold.c"]
            else:
                entries["motion_fold.M"] = np.zeros((4, 8))
            blob = checkpoint_bytes(list(entries.items()), 3)
        path.write_bytes(bytes(blob))
        for for_inference in (False, True):
            with pytest.raises(FormatError, match=match):
                load_checkpoint(path, for_inference=for_inference)


class TestCheckpointV3:
    """Payloads of at least ``_MAP_BYTES`` are read-only views of a map of
    the file, checked before they are handed out; ``infer`` refuses to
    write when the mapped file was rewritten in place. ``_MAP_BYTES`` is
    lowered to 512 bytes, so that of the desk model's entries the 8 x 9
    vertex head and larger are mapped and the rest are read."""

    MAP_BYTES = 512

    @pytest.fixture
    def saved(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "_MAP_BYTES", self.MAP_BYTES)
        params = init_params(TINY, seed=3)
        rng = np.random.Generator(np.random.PCG64(1))
        params["motion_dec.w"] = Var(rng.normal(size=(8, 9)))
        params["motion_dec.b"] = Var(rng.normal(size=(1, 9)))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, TINY)
        save_matrix(tmp_path / "audio.f32mat", rng.normal(size=(6, TINY.feature_dim)))
        return path

    @staticmethod
    def _infer(path, tmp_path, name="out.f32mat"):
        out = tmp_path / name
        code, err = _run([
            "infer", "--ckpt", str(path), "--audio", str(tmp_path / "audio.f32mat"),
            "--identity", "1", "--out", str(out),
        ])
        return code, err, out

    def test_large_entries_are_read_only_aligned_views(self, saved):
        expected = parse_checkpoint(saved.read_bytes())
        for for_inference in (False, True):
            loaded, _ = load_checkpoint(saved, for_inference=for_inference)
            mapped = {name for name, p in loaded.items() if p.data.nbytes >= self.MAP_BYTES}
            assert "motion_dec.w" in mapped and "motion_dec.b" not in mapped
            for name, p in loaded.items():
                flags = p.data.flags
                assert p.data.dtype == np.float64, name
                assert flags.c_contiguous and flags.aligned, name
                assert flags.writeable == flags.owndata == (name not in mapped), name
                assert (formats._mapping_of(p.data) is not None) == (name in mapped), name
                assert p.data.tobytes() == expected[name][1].tobytes(), name

    @pytest.mark.parametrize("for_inference", [False, True])
    def test_corrupt_mapped_entry_is_named(self, saved, for_inference):
        blob = bytearray(saved.read_bytes())
        blob[parse_checkpoint(blob)["motion_dec.w"][0] + 100] ^= 0x04
        saved.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="CRC mismatch in entry 'motion_dec.w'"):
            load_checkpoint(saved, for_inference=for_inference)

    def test_file_shorter_than_its_map_is_named(self, saved, monkeypatch):
        real_fstat = os.fstat

        def grown(fd):  # the file looks 8 bytes longer than it can be mapped
            st = real_fstat(fd)
            return os.stat_result((*st[:6], st.st_size + 8, *st[7:]))

        monkeypatch.setattr(os, "fstat", grown)
        with pytest.raises(FormatError, match="model.ckpt: short read"):
            load_checkpoint(saved)

    def test_nonzero_padding_is_rejected(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[min(o for o, _ in parse_checkpoint(blob).values()) - 5] = 1
        reseal(blob)
        saved.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="header padding is not zero"):
            load_checkpoint(saved)

    @pytest.mark.parametrize("rewrite", ["in place", "rename"])
    def test_rewrite_while_mapped(self, saved, tmp_path, monkeypatch, rewrite):
        """A same-size rewrite in place between the load and the write
        fails and writes nothing; a file renamed over the path leaves the
        mapped one intact."""
        _, _, expected = self._infer(saved, tmp_path, "expected.f32mat")
        other = tmp_path / "other.ckpt"
        save_checkpoint(other, init_params(TINY, seed=4), TINY)
        assert other.stat().st_size == saved.stat().st_size
        real_load = cli.load_checkpoint

        def load_then_rewrite(path, for_inference=False):
            loaded = real_load(path, for_inference=for_inference)
            st = os.stat(path)
            if rewrite == "in place":
                with open(path, "r+b") as fh:
                    fh.write(other.read_bytes())
                # as a copy made a second later would set it
                os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
            else:
                os.replace(other, path)
            return loaded

        monkeypatch.setattr(cli, "load_checkpoint", load_then_rewrite)
        code, err, out = self._infer(saved, tmp_path)
        if rewrite == "in place":
            assert code == 2 and f"{saved}: changed while in use" in err
            assert not out.exists()
        else:
            assert code == 0 and out.read_bytes() == expected.read_bytes()
        assert not list(tmp_path.glob(f"{out.name}.*")), "a temp file is left"

    def test_outputs_match_mapped_or_read(self, saved, tmp_path, monkeypatch):
        """infer writes the same bytes with the large payloads mapped or read."""
        outputs = set()
        for map_bytes in (self.MAP_BYTES, 32 << 20):
            monkeypatch.setattr(formats, "_MAP_BYTES", map_bytes)
            code, err, out = self._infer(saved, tmp_path)
            assert code == 0, err
            outputs.add(out.read_bytes())
        assert len(outputs) == 1


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
    """Offset in the (version 3) fuzz checkpoint of the byte holding the
    sign and top exponent bits of entry ``name``'s first value (the last
    byte of a little-endian float64)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        _fuzz_checkpoint(path)
        return parse_checkpoint(path.read_bytes())[name][0] + 7


def _run(argv) -> tuple[int, str]:
    """Exit code and standard error of the CLI."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestFuzz:
    """Any mutation of a (version 3) checkpoint or a matrix file loads or
    raises FormatError, and the CLI answers it with an exit code, never a
    traceback."""

    @pytest.fixture(scope="class")
    def originals(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        _fuzz_checkpoint(root / "model.ckpt")
        feats = np.random.Generator(np.random.PCG64(5)).normal(size=(6, TINY.feature_dim))
        save_matrix(root / "audio.f32mat", feats)
        assert main([
            "infer", "--ckpt", str(root / "model.ckpt"), "--audio", str(root / "audio.f32mat"),
            "--identity", "0", "--out", str(root / "expected.f32mat"),
        ]) == 0
        return root, {
            kind: (root / name).read_bytes()
            for kind, name in (("ckpt", "model.ckpt"), ("mat", "audio.f32mat"))
        }

    # Fixed draws, so every run checks the same cases. ``expect`` is None for
    # drawn cases; an example gives per command its (exit code, text on
    # standard error), and under "load" the text the full load's FormatError
    # must hold (None: it loads).
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["ckpt", "mat"]),
        mutations=st.lists(_MUTATION, min_size=1, max_size=3),
        fix_crc=st.booleans(),
        expect=st.none(),
    )
    # Flipping 0x40 in the top byte of enc.input_proj.w[0, 0] (0.37) makes it
    # ~1e308, still finite, so the file loads and passes its CRCs; infer then
    # overflows in the encoder. Its errstate guard must turn that into exit
    # code 2 naming the checkpoint, not a RuntimeWarning.
    @example(
        kind="ckpt",
        mutations=[("flip", _top_byte_of_first_value("enc.input_proj.w"), 0x40)],
        fix_crc=True,
        expect={"infer": (2, "mutated.ckpt"), "inspect": (0, ""), "load": None},
    )
    # The inference load skips the motion encoder's payloads, so infer writes
    # what it writes for the intact file; inspect and the full load check
    # them and name the entry.
    @example(
        kind="ckpt",
        mutations=[("flip", _top_byte_of_first_value("motion_enc.w"), 0x40)],
        fix_crc=False,
        expect={
            "infer": (0, ""),
            "inspect": (2, "CRC mismatch in entry 'motion_enc.w'"),
            "load": "CRC mismatch in entry 'motion_enc.w'",
        },
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mutated_file_loads_or_is_format_error(
        self, originals, kind, mutations, fix_crc, expect
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
        if fix_crc:
            reseal(blob)
        path = root / f"mutated.{kind}"
        path.write_bytes(bytes(blob))
        load_error = None
        try:
            load_checkpoint(path)
        except FormatError as exc:
            load_error = str(exc)
        try:
            load_matrix(path)
        except FormatError:
            pass
        ckpt, audio = root / "model.ckpt", root / "audio.f32mat"
        if kind == "mat":
            audio = path
        else:
            ckpt = path
        out = root / "out.f32mat"
        out.unlink(missing_ok=True)
        runs = {
            "inspect": _run(["inspect", str(path)]),
            "infer": _run([
                "infer", "--ckpt", str(ckpt), "--audio", str(audio),
                "--identity", "0", "--out", str(out),
            ]),
        }
        for code, _ in runs.values():
            assert code in (0, 1, 2)
        if expect is not None:
            if expect["load"] is None:
                assert load_error is None
            else:
                assert expect["load"] in load_error
            for command in runs:
                code, text = expect[command]
                assert runs[command][0] == code and text in runs[command][1], command
            if runs["infer"][0] == 0:
                assert out.read_bytes() == (root / "expected.f32mat").read_bytes()


# what read_dataset_meta returns for a generated dataset
DATA = {
    "identities": 2, "vertices": 3, "feature_dim": 8, "feature_rate": 50.0,
    "motion_rate": 25.0,
}


def _configs(text: str, dataset=DATA):
    return build_configs(parse_config_lines(text), dataset, "data")


class TestConfigText:
    def test_parse_and_defaults(self):
        model, train = _configs("dim = 16\nheads = 2\nlr = 0.001\n")
        assert model.dim == 16
        assert model.heads == 2
        assert train.lr == 0.001
        assert model.period == ModelConfig().period
        assert train.epochs == TrainConfig().epochs

    def test_dataset_fields_come_from_the_dataset(self):
        model, train = _configs("dim = 16\nheads = 2\n")
        assert (model.vertices, model.identities, model.feature_dim) == (3, 2, 8)
        assert (model.feature_rate, model.motion_rate) == (50.0, 25.0)
        assert train.seed == TrainConfig().seed
        repeated = _configs(
            "dim = 16\nheads = 2\nvertices = 3\nidentities = 2\nfeature_dim = 8\n"
            "feature_rate = 50\nmotion_rate = 25.0\n"
        )
        assert repeated == (model, train)

    @pytest.mark.parametrize("key, value, held", [
        ("vertices", "99", "3"), ("identities", "3", "2"), ("feature_rate", "49", "50.0"),
    ])
    def test_dataset_conflict_names_key_values_and_dataset(self, key, value, held):
        with pytest.raises(ConfigError) as info:
            _configs(f"{key} = {value}\n")
        message = str(info.value)
        assert message.startswith(f"{key} = {value}")
        assert f"the dataset in data has {key} = {held}" in message

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="perod"):
            _configs("perod = 10\n")

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
        # the former switches are misspellings now, like any unknown key
        model, _ = _configs("pe_mode = alibi\n")
        assert model.pe_mode == "alibi"
        for line in ("freeze_extractor = false", "detach_rollout = TRUE",
                     "output_space = offset"):
            key = line.split(" = ")[0]
            with pytest.raises(ConfigError, match=f"unknown configuration keys: {key}$"):
                _configs(line + "\n")

    def test_derived_field_cross_check(self):
        # derived values are not keys, even when they agree with the config
        for line in ("head_dim = 4", "frame_ratio = 2"):
            key = line.split(" = ")[0]
            with pytest.raises(ConfigError, match=f"unknown configuration keys: {key}$"):
                _configs("dim = 8\nheads = 2\n" + line + "\n")

    @pytest.mark.parametrize("key, value", [
        ("grad_clip", "-1"), ("grad_clip", "0"), ("grad_clip", "nan"),
        ("beta1", "1"), ("beta2", "1.5"), ("eps", "0"), ("seed", "-1"),
        ("lr", "inf"), ("eps", "inf"), ("lr", "nan"),
    ])
    def test_out_of_range_train_values(self, key, value):
        with pytest.raises(ConfigError, match=key):
            _configs(f"{key} = {value}\n")

    def test_invalid_model_values(self):
        with pytest.raises(ConfigError, match="power of two"):
            _configs("heads = 3\ndim = 9\n")
        with pytest.raises(ConfigError, match="pe_mode"):
            _configs("pe_mode = sometimes\n")

    @pytest.mark.parametrize("key, value", [
        ("dim", "0"), ("dim", "-8"), ("encoder_dim", "0"), ("encoder_heads", "0"),
        ("period", "9223372036854775808"), ("vertices", str(2**70)),
    ])
    def test_model_sizes_validated(self, key, value):
        # each used to escape as ZeroDivisionError, ValueError or OverflowError;
        # a field the dataset fixes is given the same value there
        dataset = {**DATA, key: int(value)} if key in DATA else DATA
        with pytest.raises(ConfigError, match=key):
            _configs(f"{key} = {value}\n", dataset)


class TestConfigChecks:
    """A config checks itself when built, wherever it is built."""

    @pytest.mark.parametrize("kwargs, message", [
        ({"pe_mode": "bogus"}, "pe_mode must be one of"),
        ({"encoder_dim": 31}, "encoder_dim 31 not divisible by encoder_heads 2"),
        ({"period": 0}, "period must be >= 1, got 0"),
        ({"dim": 30}, "dim 30 not divisible by heads 4"),
        ({"heads": 3, "dim": 30}, "heads must be a power of two"),
        ({"motion_rate": 0.0}, "motion_rate must be positive"),
        ({"feature_rate": float("nan")}, "feature_rate must be positive and finite, got nan"),
        ({"motion_rate": float("inf")}, "motion_rate must be positive and finite, got inf"),
        ({"feature_rate": float("-inf")}, "feature_rate must be positive and finite"),
        ({"feature_rate": 1e308, "motion_rate": 1e-3},
         r"^feature_rate 1e\+308 / motion_rate 0.001 gives a frame ratio that does "
         r"not fit in a 64-bit integer$"),
        ({"feature_rate": 1e20, "motion_rate": 1.0},
         r"^feature_rate 1e\+20 / motion_rate 1.0 gives a frame ratio that does not fit"),
    ])
    def test_model_config(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            ModelConfig(**kwargs)
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(ModelConfig(), **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"lr": -1}, "lr must be positive, got -1"),
        ({"lr": float("inf")}, "lr must be finite, got inf"),
        ({"eps": float("inf")}, "eps must be finite, got inf"),
        ({"epochs": -1}, "epochs must be >= 0"),
        ({"beta2": 1.0}, "beta2 must be in"),
    ])
    def test_train_config(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**kwargs)

    def test_largest_frame_ratio_builds(self):
        cfg = ModelConfig(feature_rate=float(2**63 - 1024), motion_rate=1.0)
        assert cfg.frame_ratio == 2**63 - 1024

    def test_validate_returns_the_config(self):
        cfg = ModelConfig()
        assert cfg.validate() is cfg
        tc = TrainConfig(grad_clip=float("inf"))
        assert tc.validate() is tc


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

    # The two damaged headers pinned below: byte 19, the high byte of the
    # "fmt " chunk size, set to "K" makes the chunk overrun the file, and a
    # RIFF size of 7957 (bytes 4-5 = 0x15 0x1F) ends the data chunk inside
    # a sample.
    BAD_HEADERS = ([(19, ord("K"))], [(4, 0x15), (5, 0x1F)])

    def _mutated(self, path, mutations):
        """A 4000-sample WAV file at ``path`` with header bytes set by
        ``mutations``, (offset, value) pairs."""
        self._write(path, frames=np.arange(4000, dtype="<i2").tobytes())
        blob = bytearray(path.read_bytes())
        assert len(blob) == 44 + 8000
        for offset, value in mutations:
            blob[offset] = value
        path.write_bytes(bytes(blob))
        return path

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mutations=st.lists(
        st.tuples(st.integers(0, 43), st.integers(0, 255)), min_size=1, max_size=3
    ))
    @example(mutations=BAD_HEADERS[0])
    @example(mutations=BAD_HEADERS[1])
    def test_mutated_header_reads_or_is_format_error(self, tmp_path_factory, mutations):
        path = self._mutated(tmp_path_factory.mktemp("wav") / "clip.wav", mutations)
        try:
            read_wav(path)
        except FormatError as exc:
            assert str(exc).startswith(f"{path}: ")

    @pytest.mark.parametrize("mutations", BAD_HEADERS)
    def test_damaged_header_is_data_error(self, tmp_path, mutations):
        path = self._mutated(tmp_path / "bad.wav", mutations)
        save_checkpoint(tmp_path / "model.ckpt", init_params(TINY, seed=3), TINY)
        out = tmp_path / "out.f32mat"
        code, err = _run([
            "infer", "--ckpt", str(tmp_path / "model.ckpt"), "--audio", str(path),
            "--identity", "0", "--out", str(out),
        ])
        assert code == 2 and f"{path}: not a readable WAV file (" in err
        assert "Traceback" not in err and not out.exists()


def test_read_lip_indices(tmp_path):
    path = tmp_path / "lips.txt"
    path.write_text("0\n3\n7\n")
    assert read_lip_indices(path) == [0, 3, 7]
    path.write_text("0\nx\n")
    with pytest.raises(FormatError):
        read_lip_indices(path)
