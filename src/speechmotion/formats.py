"""On-disk formats: f32 matrix files, f64 checkpoints with CRC, key=value
configuration text, WAV input, and dataset directories.

MatrixFile ("F32M"): magic, version u32, rows u32, cols u32, then rows*cols
little-endian float32 values in row-major order.

Checkpoint ("FFCK"): magic, version u32, entry count u32, then per entry
name length u16 + UTF-8 name + rows u32 + cols u32 + little-endian float64
payload, and a trailing CRC32 of all preceding bytes. The model configuration
rides along as a reserved "__config__" entry (a 1x18 numeric vector, field
order in _CONFIG_FIELDS; pe_mode/output_space as indices into their
enumerations).

All writers go through a temp file + atomic rename, so failures never leave
partial files behind. They stream their chunks (a header, then each array's
own buffer) to that file without joining them into one byte string first.

A checkpoint is read in one pass over the open file (no mmap, so the bytes
cannot change after the CRC check). Each entry header is parsed as it is
read, and each payload is read in chunks straight into an array of its own,
which is aligned (numpy hands only aligned arrays to BLAS) and owns its
memory, so no whole-file buffer is kept. Every byte read is handed, in file
order, to one helper thread that computes the CRC while the next chunk is
read (see _CheckedReader). After the first structural problem nothing more is
allocated and the rest of the file only goes through the CRC, so a corrupt
file reports the CRC mismatch first.
"""

from __future__ import annotations

import os
import queue
import struct
import tempfile
import threading
import wave
import zlib
from pathlib import Path

import numpy as np

from .autodiff import Var
from .config import OUTPUT_SPACES, PE_MODES, ModelConfig
from .errors import ConfigError, FormatError
from .params import Params, validate_shapes

MATRIX_MAGIC = b"F32M"
CHECKPOINT_MAGIC = b"FFCK"
FORMAT_VERSION = 1
CONFIG_ENTRY = "__config__"
_CHUNK = 4 << 20  # bytes per checkpoint readinto, and the least per CRC batch

_CONFIG_FIELDS = (
    "dim", "heads", "period", "feature_rate", "motion_rate",
    "encoder_layers", "decoder_layers", "ff_dim", "vertices", "identities",
    "feature_dim", "encoder_dim", "encoder_heads",
)  # + pe_mode code, output_space code, and 3 reserved slots = 18 values


def atomic_write_bytes(path, *chunks) -> None:
    """Write the buffers in ``chunks`` one after another to ``path``."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# MatrixFile


def save_matrix(path, matrix) -> None:
    m = np.asarray(matrix.data if isinstance(matrix, Var) else matrix, dtype=np.float64)
    if m.ndim != 2:
        raise FormatError(f"matrix files hold 2-D data, got shape {m.shape}")
    header = MATRIX_MAGIC + struct.pack("<III", FORMAT_VERSION, m.shape[0], m.shape[1])
    atomic_write_bytes(path, header, np.ascontiguousarray(m, dtype="<f4"))


def load_matrix(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < 16 or blob[:4] != MATRIX_MAGIC:
        raise FormatError(f"{path}: not a matrix file (bad magic)")
    version, rows, cols = struct.unpack("<III", blob[4:16])
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported matrix file version {version}")
    expected = 16 + 4 * rows * cols
    if len(blob) != expected:
        raise FormatError(
            f"{path}: payload size {len(blob)} does not match header "
            f"({rows}x{cols} needs {expected})"
        )
    # a signalling NaN warns when cast; it still loads as NaN, which the
    # callers' finiteness checks report with the file name
    with np.errstate(invalid="ignore"):
        data = np.frombuffer(blob, dtype="<f4", offset=16).astype(np.float64)
    return data.reshape(rows, cols)


def load_motion(path) -> np.ndarray:
    """A motion matrix; a NaN or infinity in it is a FormatError naming the file."""
    motion = load_matrix(path)
    if not np.isfinite(motion).all():
        raise FormatError(f"{path}: motion holds a non-finite value")
    return motion


def matrix_header(path) -> tuple[int, int, int]:
    """(version, rows, cols) without loading the payload."""
    with open(path, "rb") as fh:
        head = fh.read(16)
    if len(head) < 16 or head[:4] != MATRIX_MAGIC:
        raise FormatError(f"{path}: not a matrix file (bad magic)")
    return struct.unpack("<III", head[4:16])


# ---------------------------------------------------------------------------
# Checkpoint


def _config_vector(cfg: ModelConfig) -> np.ndarray:
    values = [float(getattr(cfg, name)) for name in _CONFIG_FIELDS]
    values.append(float(PE_MODES.index(cfg.pe_mode)))
    values.append(float(OUTPUT_SPACES.index(cfg.output_space)))
    values.extend([0.0, 0.0, 0.0])  # reserved
    return np.asarray([values])


def _config_from_vector(vec: np.ndarray, path) -> ModelConfig:
    flat = vec.ravel()
    if flat.size != 18:
        raise FormatError(f"{path}: config entry has {flat.size} values, expected 18")
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: config entry holds non-finite values")
    names = _CONFIG_FIELDS + ("pe_mode", "output_space")
    for name, value in zip(names, flat):
        if not name.endswith("_rate") and value != int(value):
            raise FormatError(
                f"{path}: config entry {name} = {float(value)} is not an integer"
            )
    kwargs = {
        name: float(value) if name.endswith("_rate") else int(value)
        for name, value in zip(names, flat)
    }
    for name, codes in (("pe_mode", PE_MODES), ("output_space", OUTPUT_SPACES)):
        if not 0 <= kwargs[name] < len(codes):
            raise FormatError(
                f"{path}: config entry {name} code {kwargs[name]} is not in "
                f"[0, {len(codes)})"
            )
        kwargs[name] = codes[kwargs[name]]
    try:
        return ModelConfig(**kwargs).validate()
    except ConfigError as exc:
        raise FormatError(f"{path}: checkpoint config is invalid: {exc}")


def save_checkpoint(path, params: Params, cfg: ModelConfig) -> None:
    entries = dict(sorted((name, p.data) for name, p in params.items()))
    if CONFIG_ENTRY in entries:
        raise FormatError(f"parameter name {CONFIG_ENTRY!r} is reserved")
    entries[CONFIG_ENTRY] = _config_vector(cfg)
    chunks = [CHECKPOINT_MAGIC + struct.pack("<II", FORMAT_VERSION, len(entries))]
    for name, data in entries.items():
        encoded = name.encode("utf-8")
        chunks.append(
            struct.pack("<H", len(encoded)) + encoded
            + struct.pack("<II", data.shape[0], data.shape[1])
        )
        chunks.append(np.ascontiguousarray(data, dtype="<f8"))
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    atomic_write_bytes(path, *chunks, struct.pack("<I", crc))


class _CheckedReader:
    """Reads a file front to back, handing every byte it reads, in file order,
    to a helper thread that folds ``zlib.crc32`` over them. ``readinto`` and
    ``zlib.crc32`` both release the GIL, so reading and checksumming overlap.

    Chunks go over in batches of at least ``_CHUNK`` bytes, and the thread
    starts with the first batch; :meth:`close` joins it and folds the last,
    partial batch itself. A file smaller than one batch (a desk-scale
    checkpoint) is thus checksummed without a thread, which would cost more
    than it saves there. Call :meth:`close` when done."""

    def __init__(self, fh, path, head: bytes):
        """``head``: the bytes already read from ``fh``, checksummed first."""
        self.fh, self.path, self.offset = fh, path, len(head)
        self.crc = 0
        self._batch, self._batch_bytes = [head], len(head)
        self._batches: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: threading.Thread | None = None

    def _fold(self) -> None:
        crc = 0
        for batch in iter(self._batches.get, None):
            for chunk in batch:
                crc = zlib.crc32(chunk, crc)
        self.crc = crc

    def _hand_off(self, chunk) -> None:
        self._batch.append(chunk)
        self._batch_bytes += len(chunk)
        if self._batch_bytes >= _CHUNK:
            if self._thread is None:
                self._thread = threading.Thread(target=self._fold, name="checkpoint-crc32")
                self._thread.start()
            self._batches.put(self._batch)
            self._batch, self._batch_bytes = [], 0

    def _advance(self, got: int, wanted: int) -> None:
        if got != wanted:
            raise FormatError(
                f"{self.path}: short read at byte {self.offset}, file changed while loading"
            )
        self.offset += got

    def read(self, n: int, checked: bool = True) -> bytes:
        """The next n bytes; ``checked=False`` keeps them out of the CRC."""
        data = self.fh.read(n)
        self._advance(len(data), n)
        if checked:
            self._hand_off(data)
        return data

    def read_into(self, array: np.ndarray) -> None:
        """Fill a C-contiguous array with its payload, in CRC-sized chunks."""
        buf = memoryview(array.reshape(-1).view(np.uint8))
        for start in range(0, len(buf), _CHUNK):
            chunk = buf[start : start + _CHUNK]
            self._advance(self.fh.readinto(chunk), len(chunk))
            self._hand_off(chunk)

    def skip_to(self, end: int) -> None:
        """Checksum the bytes up to ``end`` without keeping them."""
        while self.offset < end:
            self.read(min(_CHUNK, end - self.offset))

    def close(self) -> int:
        """Join the helper thread; the CRC of everything read."""
        if self._thread is not None:
            self._batches.put(None)
            self._thread.join()
        for chunk in self._batch:
            self.crc = zlib.crc32(chunk, self.crc)
        return self.crc


def _parse_entries(src: _CheckedReader, count: int, end: int) -> dict[str, np.ndarray]:
    """Parse ``count`` entries ending at byte ``end``; each payload is read
    straight into an array of its own. A structural problem raises
    FormatError before anything for that entry is allocated."""
    path = src.path
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        if src.offset + 2 > end:
            raise FormatError(f"{path}: truncated entry header")
        (name_len,) = struct.unpack("<H", src.read(2))
        at = src.offset
        try:
            name = src.read(min(name_len, end - at)).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: entry name at byte {at} is not UTF-8")
        if at + name_len + 8 > end:
            raise FormatError(f"{path}: truncated entry shape")
        rows, cols = struct.unpack("<II", src.read(8))
        if src.offset + 8 * rows * cols > end:
            raise FormatError(f"{path}: truncated payload for {name!r}")
        if name in entries:
            raise FormatError(f"{path}: duplicate entry {name!r}")
        entries[name] = np.empty((rows, cols), dtype="<f8")
        src.read_into(entries[name])
    if src.offset != end:
        raise FormatError(f"{path}: {end - src.offset} stray bytes after entries")
    return entries


def _read_checkpoint_entries(path) -> dict[str, np.ndarray]:
    """All entries of a checkpoint, each an aligned, writable float64 array
    that owns its memory. The CRC is checked before any structural problem
    is reported, so a corrupt file always reads as corrupt."""
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size - 4
        magic = fh.read(4)
        if end < 12 or magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint (bad magic)")
        src = _CheckedReader(fh, path, magic)
        try:
            problem = None
            try:
                version, count = struct.unpack("<II", src.read(8))
                if version != FORMAT_VERSION:
                    raise FormatError(f"{path}: unsupported checkpoint version {version}")
                entries = _parse_entries(src, count, end)
            except FormatError as exc:
                problem = exc
                src.skip_to(end)
            (stored,) = struct.unpack("<I", src.read(4, checked=False))
        finally:
            crc = src.close()
    if crc != stored:
        raise FormatError(f"{path}: CRC mismatch, file is corrupt")
    if problem is not None:
        raise problem
    return entries


def load_checkpoint(path) -> tuple[Params, ModelConfig]:
    entries = _read_checkpoint_entries(path)
    if CONFIG_ENTRY not in entries:
        raise FormatError(f"{path}: missing {CONFIG_ENTRY!r} entry")
    cfg = _config_from_vector(entries.pop(CONFIG_ENTRY), path)
    params = {name: Var(data) for name, data in entries.items()}
    try:
        validate_shapes(params, cfg)
    except Exception as exc:
        raise FormatError(f"{path}: {exc}")
    return params, cfg


def checkpoint_summary(path) -> list[str]:
    entries = _read_checkpoint_entries(path)
    lines = []
    if CONFIG_ENTRY in entries:
        cfg = _config_from_vector(entries.pop(CONFIG_ENTRY), path)
        lines.append(f"config: {cfg}")
    lines.append(f"entries: {len(entries)}")
    for name, data in entries.items():
        lines.append(f"  {name}  {data.shape[0]}x{data.shape[1]}")
    return lines


# ---------------------------------------------------------------------------
# key = value configuration text


def parse_config_lines(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


# ---------------------------------------------------------------------------
# WAV input


def read_wav(path) -> tuple[np.ndarray, int]:
    """16-bit mono PCM WAV -> (samples in [-1, 1), sample rate)."""
    try:
        with wave.open(str(path), "rb") as fh:
            channels = fh.getnchannels()
            width = fh.getsampwidth()
            rate = fh.getframerate()
            frames = fh.readframes(fh.getnframes())
    except (wave.Error, EOFError) as exc:
        raise FormatError(f"{path}: not a readable WAV file ({exc})")
    if channels != 1 or width != 2:
        raise FormatError(
            f"{path}: expected 16-bit mono PCM, got {channels} channel(s) "
            f"at {8 * width} bits"
        )
    samples = np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32768.0
    return samples, rate


# ---------------------------------------------------------------------------
# dataset directories

DATASET_META = "dataset.cfg"
DATASET_SAMPLES = "samples.tsv"
DATASET_LIPS = "lips.txt"

_META_KEYS = {
    "identities": int,
    "sequences": int,
    "frames": int,
    "vertices": int,
    "feature_dim": int,
    "feature_rate": float,
    "motion_rate": float,
    "seed": int,
}


def write_dataset_meta(directory, meta: dict) -> None:
    lines = [f"{key} = {meta[key]}" for key in _META_KEYS]
    atomic_write_text(Path(directory) / DATASET_META, "\n".join(lines) + "\n")


def read_dataset_meta(directory) -> dict:
    path = Path(directory) / DATASET_META
    if not path.exists():
        raise FormatError(f"{directory}: missing {DATASET_META}")
    values = parse_config_lines(path.read_text())
    unknown = sorted(set(values) - set(_META_KEYS))
    if unknown:
        raise FormatError(f"{path}: unknown keys {unknown}")
    missing = sorted(set(_META_KEYS) - set(values))
    if missing:
        raise FormatError(f"{path}: missing keys {missing}")
    meta = {}
    for key, kind in _META_KEYS.items():
        try:
            value = kind(values[key])
        except ValueError:
            value = None
        if value is None or not np.isfinite(value):
            raise FormatError(
                f"{path}: {key} must be a finite {kind.__name__}, got {values[key]!r}"
            )
        if key != "seed" and value <= 0:
            raise FormatError(f"{path}: {key} must be positive, got {values[key]!r}")
        meta[key] = value
    return meta


def read_lip_indices(path) -> list[int]:
    lines = Path(path).read_text().split()
    try:
        return [int(tok) for tok in lines]
    except ValueError as exc:
        raise FormatError(f"{path}: lip index file must hold integers ({exc})")
