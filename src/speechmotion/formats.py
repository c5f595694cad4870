"""On-disk formats: f32 matrix files, f64 checkpoints with CRCs, key=value
configuration text, WAV input, and dataset directories.

MatrixFile ("F32M"): magic, version u32 (MATRIX_VERSION), rows u32, cols u32,
then rows*cols little-endian float32 values in row-major order.

Checkpoint ("FFCK"), version 3 (CHECKPOINT_VERSION), written by
save_checkpoint: a header block, then the payloads. The header block is the
magic, version u32, entry count u32, entry table length u32, the entry table
(per entry: name length u16 + UTF-8 name + rows u32 + cols u32 + CRC32 of
its payload), zero padding, and a CRC32 of all of the block before it. The
padding makes the block end, and the first payload start, on a multiple of
_ALIGN (64) bytes. The payloads follow in table order, each rows*cols
little-endian float64 values, so each starts 8-byte aligned, and end the
file. Entries are the parameters in name order plus two derived entries,
FOLD_ENTRIES (the feedback fold M and c of decoder.feedback_map, computed on
every save, so never stale), and last a reserved "__config__" entry for the
model configuration (a 1x18 numeric vector: the fields in _CONFIG_FIELDS,
the pe_mode as an index into PE_MODES, then four zeros). Slot 14 is retired:
it held an output-space code, and a file whose slot 14 is not 0 was trained
on offsets from its first frame, so it is rejected naming output_space.

The version is read before any CRC is checked, and only version 3 loads.
A file from a newer writer, one whose version bytes are corrupt, and one of
a retired layout (version 1: one CRC over the whole file and no derived
entries; version 2: version 3 without the padding) read as an unsupported
version.

Every byte a load uses is checked before it is used: the header block
against its CRC before the table is parsed, and each payload it uses
against its entry's CRC. The full load (training, ``inspect``) checks every
payload and drops the derived entries. The inference load seeks past the
motion encoder's payloads, which inference uses only through the stored
fold, so a corrupt byte there is caught by the full load and ``inspect``,
not by ``infer``. Sizes are checked against the file size before anything
is allocated or mapped.

A payload of at least _MAP_BYTES (32 MiB) is not read but mapped: the file
is mapped read-only, and the entry is a read-only float64 view of its
payload, handed out only after zlib.crc32 over the mapped bytes matches its
entry. 32 MiB is the largest value glibc's dynamic mmap threshold reaches,
so a new array that large always gets fresh pages from the kernel, and
reading into it pays page faults, zeroing and a copy that the map saves.
Smaller arrays reuse freed heap, where a map would only add resident file
pages. Every other payload is read in chunks straight into an array of its
own, which is aligned (numpy hands only aligned arrays to BLAS) and owns
its memory, and each chunk is checksummed as soon as it is read.

All writers go through a temp file + atomic rename, so failures never leave
partial files behind. They stream their chunks (a header, then each array's
own buffer) to that file without joining them into one byte string first.

A map sees later writes to its file. A rename over the file leaves a mapped
file intact, but a rewrite in place (``cp`` over the file, say) would change
mapped bytes after their check. So a load that maps records the file's
inode, size and mtime, and check_unchanged, which ``infer`` and
``export-attn`` call before they write, reports the file as changed while
in use when the path still names that inode with another size or mtime.
Truncating a mapped checkpoint in place can end the process with SIGBUS.
"""

from __future__ import annotations

import mmap
import os
import struct
import tempfile
import wave
import zlib
from pathlib import Path

import numpy as np

from .autodiff import Var
from .config import DATASET_FIELDS, PE_MODES, ModelConfig, parse_value
from .decoder import FOLD_ENTRIES, feedback_map
from .errors import ConfigError, FormatError, ShapeError
from .params import Params, param_shapes, validate_shapes

MATRIX_MAGIC = b"F32M"
CHECKPOINT_MAGIC = b"FFCK"
MATRIX_VERSION = 1
CHECKPOINT_VERSION = 3
CONFIG_ENTRY = "__config__"
_RETIRED_SLOT = 14  # of __config__; see the module docstring
# Inference uses the motion encoder only through the stored fold.
_UNREAD_FOR_INFERENCE = ("motion_enc.w", "motion_enc.b")
_CHUNK = 4 << 20  # bytes per checkpoint readinto and CRC fold
_ALIGN = 64  # the first payload starts on a multiple of this
_MAP_BYTES = 32 << 20  # payloads this large are mapped, not read

_CONFIG_FIELDS = (
    "dim", "heads", "period", "feature_rate", "motion_rate",
    "encoder_layers", "decoder_layers", "ff_dim", "vertices", "identities",
    "feature_dim", "encoder_dim", "encoder_heads",
)  # + pe_mode code, the retired slot and 3 reserved slots = 18 values


def atomic_write_bytes(path, *chunks) -> None:
    """Write the buffers in ``chunks`` one after another to ``path``."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    except OSError as exc:  # it would name the temp file, not the output
        raise OSError(exc.errno, exc.strerror, str(path)) from None
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
    header = MATRIX_MAGIC + struct.pack("<III", MATRIX_VERSION, m.shape[0], m.shape[1])
    atomic_write_bytes(path, header, np.ascontiguousarray(m, dtype="<f4"))


def _matrix_shape(path, head: bytes, size: int) -> tuple[int, int]:
    """(rows, cols) of the matrix file ``path``, from its first bytes and size."""
    if len(head) < 16 or head[:4] != MATRIX_MAGIC:
        raise FormatError(f"{path}: not a matrix file (bad magic)")
    version, rows, cols = struct.unpack("<III", head[4:16])
    if version != MATRIX_VERSION:
        raise FormatError(f"{path}: unsupported matrix file version {version}")
    expected = 16 + 4 * rows * cols
    if size != expected:
        raise FormatError(
            f"{path}: payload size {size} does not match header "
            f"({rows}x{cols} needs {expected})"
        )
    return rows, cols


def load_matrix(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    rows, cols = _matrix_shape(path, blob[:16], len(blob))
    # a signalling NaN warns when cast; it still loads as NaN, which the
    # callers' finiteness checks report with the file name
    with np.errstate(invalid="ignore"):
        data = np.frombuffer(blob, dtype="<f4", offset=16).astype(np.float64)
    return data.reshape(rows, cols)


def load_motion(path) -> np.ndarray:
    """A motion matrix; no frames, or a NaN or infinity, is a FormatError naming it."""
    motion = load_matrix(path)
    if not len(motion):
        raise FormatError(f"{path}: motion has no frames")
    if not np.isfinite(motion).all():
        raise FormatError(f"{path}: motion holds a non-finite value")
    return motion


def matrix_header(path) -> tuple[int, int, int]:
    """(version, rows, cols), checked as load_matrix checks them, without
    loading the payload."""
    with open(path, "rb") as fh:
        return (MATRIX_VERSION, *_matrix_shape(path, fh.read(16), os.fstat(fh.fileno()).st_size))


# ---------------------------------------------------------------------------
# Checkpoint


def _config_vector(cfg: ModelConfig) -> np.ndarray:
    values = [float(getattr(cfg, name)) for name in _CONFIG_FIELDS]
    values.append(float(PE_MODES.index(cfg.pe_mode)))
    values.extend([0.0, 0.0, 0.0, 0.0])  # the retired slot, then reserved
    return np.asarray([values])


def _config_from_vector(vec: np.ndarray, path) -> ModelConfig:
    flat = vec.ravel()
    if flat.size != 18:
        raise FormatError(f"{path}: config entry has {flat.size} values, expected 18")
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: config entry holds non-finite values")
    if flat[_RETIRED_SLOT] != 0:
        raise FormatError(
            f"{path}: config entry output_space code {flat[_RETIRED_SLOT]:g} is not "
            f"supported; only 0 (absolute motion) loads"
        )
    names = _CONFIG_FIELDS + ("pe_mode",)
    for name, value in zip(names, flat):
        if not name.endswith("_rate") and value != int(value):
            raise FormatError(
                f"{path}: config entry {name} = {float(value)} is not an integer"
            )
    kwargs = {
        name: float(value) if name.endswith("_rate") else int(value)
        for name, value in zip(names, flat)
    }
    if not 0 <= kwargs["pe_mode"] < len(PE_MODES):
        raise FormatError(
            f"{path}: config entry pe_mode code {kwargs['pe_mode']} is not in "
            f"[0, {len(PE_MODES)})"
        )
    kwargs["pe_mode"] = PE_MODES[kwargs["pe_mode"]]
    try:
        return ModelConfig(**kwargs)
    except ConfigError as exc:
        raise FormatError(f"{path}: checkpoint config is invalid: {exc}")


def save_checkpoint(path, params: Params, cfg: ModelConfig) -> None:
    """Write ``params`` and ``cfg`` as a version 3 checkpoint. The feedback
    fold of :func:`decoder.feedback_map` is computed on every save and
    stored as the derived entries ``FOLD_ENTRIES``."""
    if CONFIG_ENTRY in params:
        raise FormatError(f"parameter name {CONFIG_ENTRY!r} is reserved")
    try:
        validate_shapes(params, param_shapes(cfg))
    except ShapeError as exc:
        raise FormatError(f"cannot save {path}: {exc}") from None
    with np.errstate(all="ignore"):  # infer reports an overflowed fold, by frame
        fold = feedback_map(params)
    entries = {name: p.data for name, p in params.items()}
    entries.update(zip(FOLD_ENTRIES, (v.data for v in fold)))
    entries = dict(sorted(entries.items()))
    entries[CONFIG_ENTRY] = _config_vector(cfg)
    names = [name.encode("utf-8") for name in entries]
    payloads = [np.ascontiguousarray(data, dtype="<f8") for data in entries.values()]
    table = b"".join(
        struct.pack("<H", len(name)) + name
        + struct.pack("<III", *payload.shape, zlib.crc32(payload))
        for name, payload in zip(names, payloads)
    )
    header = CHECKPOINT_MAGIC + struct.pack(
        "<III", CHECKPOINT_VERSION, len(entries), len(table)
    ) + table + bytes(_padding(len(table)))
    atomic_write_bytes(path, header, struct.pack("<I", zlib.crc32(header)), *payloads)


def _padding(table_len: int) -> int:
    """The zero bytes between the entry table and the header CRC: enough to
    end the header block on a multiple of ``_ALIGN``."""
    return -(20 + table_len) % _ALIGN


def _read_payload(fh, array: np.ndarray, path, offset: int, scratch: bytearray | None) -> int:
    """Fill a C-contiguous array from ``fh`` in ``_CHUNK`` pieces, each
    checksummed while it is still in cache, and return the CRC32 of its
    bytes. With ``scratch``, a buffer of up to ``_CHUNK`` bytes, each piece
    is read into it instead and only the array's size is used. ``offset``:
    where in the file its payload starts."""
    nbytes, crc = array.nbytes, 0
    buf = memoryview(array.reshape(-1).view(np.uint8) if scratch is None else scratch)
    for start in range(0, nbytes, _CHUNK):
        size = min(_CHUNK, nbytes - start)
        chunk = buf[start : start + size] if scratch is None else buf[:size]
        if fh.readinto(chunk) != size:
            raise FormatError(
                f"{path}: short read at byte {offset + start}, file changed while loading"
            )
        crc = zlib.crc32(chunk, crc)
    return crc


def _parse_table(path, table: bytes, count: int, room: int) -> dict:
    """name -> (shape, payload CRC) of the ``count`` entries of an entry
    table, in table order; their payloads must fit in ``room`` bytes."""
    entries, at = {}, 0
    for _ in range(count):
        if at + 2 > len(table):
            raise FormatError(f"{path}: truncated entry header")
        (name_len,) = struct.unpack_from("<H", table, at)
        at += 2 + name_len
        if at + 12 > len(table):
            raise FormatError(f"{path}: truncated entry header")
        try:
            name = table[at - name_len : at].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: entry name at byte {16 + at - name_len} is not UTF-8")
        rows, cols, crc = struct.unpack_from("<III", table, at)
        at += 12
        if name in entries:
            raise FormatError(f"{path}: duplicate entry {name!r}")
        room -= 8 * rows * cols
        if room < 0:
            raise FormatError(f"{path}: truncated payload for {name!r}")
        entries[name] = (rows, cols), crc
    if at != len(table):
        raise FormatError(f"{path}: {len(table) - at} stray bytes in the entry table")
    return entries


class _Mapping(mmap.mmap):
    """A read-only map of a checkpoint file. ``identity``: the file's
    (inode, size, mtime in ns) when the load opened it."""

    identity: tuple[int, int, int]


def _map(fh, path, st) -> _Mapping:
    """A read-only map of the ``st.st_size`` bytes of the open file ``fh``."""
    try:
        mapping = _Mapping(fh.fileno(), st.st_size, access=mmap.ACCESS_READ)
    except ValueError:  # the file is shorter than when it was opened
        raise FormatError(
            f"{path}: short read at byte {fh.tell()}, file changed while loading"
        ) from None
    mapping.identity = (st.st_ino, st.st_size, st.st_mtime_ns)
    return mapping


def _read_checkpoint(path, skip=(), keep=None) -> dict[str, np.ndarray]:
    """The entries of a checkpoint, each an aligned float64 array: a
    read-only view of a map of the file for a payload of at least
    ``_MAP_BYTES``, else a writable array that owns its memory. The header
    block is checked before anything in it is used, and each payload
    before it is returned.
    ``skip``: entries whose payloads are neither read nor checked.
    ``keep``: when given, the only entries whose payloads are held; every
    other payload is checked through one reused buffer of up to ``_CHUNK``
    bytes and stands as a read-only zero of its shape."""
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        size = st.st_size
        head = fh.read(16)
        if size < 16 or head[:4] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint (bad magic)")
        version, count, table_len = struct.unpack_from("<III", head, 4)
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        scratch = None if keep is None else bytearray(min(_CHUNK, size))
        offset = 16 + table_len + _padding(table_len) + 4  # the first payload byte
        sealed = fh.read(offset - 16) if offset <= size else b""
        header_crc = zlib.crc32(sealed[:-4], zlib.crc32(head))
        if len(sealed) != offset - 16 or sealed[-4:] != struct.pack("<I", header_crc):
            raise FormatError(f"{path}: header CRC mismatch, file is corrupt")
        if any(sealed[table_len:-4]):
            raise FormatError(f"{path}: header padding is not zero")
        entries, mapping = {}, None
        for name, (shape, crc) in _parse_table(
            path, sealed[:table_len], count, size - offset
        ).items():
            nbytes = 8 * shape[0] * shape[1]
            if name in skip:
                fh.seek(nbytes, os.SEEK_CUR)
                offset += nbytes
                continue
            if keep is not None and name not in keep:  # a read-only zero holds no memory
                data = np.broadcast_to(np.float64(0.0), shape)
                got = _read_payload(fh, data, path, offset, scratch)
            elif nbytes >= _MAP_BYTES:
                if mapping is None:
                    mapping = _map(fh, path, st)
                data = np.frombuffer(mapping, "<f8", nbytes // 8, offset).reshape(shape)
                fh.seek(nbytes, os.SEEK_CUR)
                got = zlib.crc32(data)
            else:
                data = np.empty(shape, dtype="<f8")
                got = _read_payload(fh, data, path, offset, None)
            if got != crc:
                raise FormatError(f"{path}: CRC mismatch in entry {name!r}, file is corrupt")
            entries[name] = data
            offset += nbytes
        if offset != size:
            if fh.read(1):
                raise FormatError(f"{path}: {size - offset} stray bytes after entries")
            raise FormatError(
                f"{path}: short read at byte {offset}, file changed while loading"
            )
    return entries


def load_checkpoint(path, for_inference: bool = False) -> tuple[Params, ModelConfig]:
    """The parameters and configuration stored in a checkpoint.

    The full load reads and checks every entry and returns the trainable
    parameters only. With ``for_inference``, the file is read without the
    motion encoder, which inference uses only through the fold, and the
    parameters carry the stored fold instead (see
    :func:`decoder.feedback_map`). A parameter from a payload of at least
    ``_MAP_BYTES`` is a read-only view of a map of the file; copy it to
    change it.
    """
    skip = _UNREAD_FOR_INFERENCE if for_inference else ()
    entries = _read_checkpoint(path, skip)
    if CONFIG_ENTRY not in entries:
        raise FormatError(f"{path}: missing {CONFIG_ENTRY!r} entry")
    cfg = _config_from_vector(entries.pop(CONFIG_ENTRY), path)
    expected = param_shapes(cfg)
    expected.update(zip(FOLD_ENTRIES, ((cfg.dim, cfg.dim), (1, cfg.dim))))
    for name in skip:
        del expected[name]
    params = {name: Var(data) for name, data in entries.items()}
    try:
        validate_shapes(params, expected)
    except ShapeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if not for_inference:
        for name in FOLD_ENTRIES:
            del params[name]
    return params, cfg


def _mapping_of(array: np.ndarray) -> _Mapping | None:
    """The checkpoint map that ``array`` views, if any."""
    while isinstance(array, np.ndarray):
        array = array.base
    mapping = getattr(array, "obj", None)  # np.frombuffer's base is a memoryview
    return mapping if isinstance(mapping, _Mapping) else None


def check_unchanged(path, params: Params) -> None:
    """Raise FormatError if ``params`` map a checkpoint that has been
    rewritten in place since it was loaded from ``path``: ``path`` names
    the same inode with another size or mtime. Another inode (a file
    renamed over ``path``) or no file leaves the mapped file intact."""
    mapped = (_mapping_of(p.data) for p in params.values())
    mapping = next((m for m in mapped if m is not None), None)
    if mapping is None:
        return
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return
    inode, size, mtime = mapping.identity
    if st.st_ino == inode and (st.st_size, st.st_mtime_ns) != (size, mtime):
        raise FormatError(f"{path}: changed while in use")


def checkpoint_summary(path) -> list[str]:
    """The lines ``inspect`` prints for a checkpoint. Every payload is
    checked; only the configuration's is held."""
    entries = _read_checkpoint(path, keep=(CONFIG_ENTRY,))
    lines = [f"checkpoint file version {CHECKPOINT_VERSION}"]
    if CONFIG_ENTRY in entries:
        cfg = _config_from_vector(entries.pop(CONFIG_ENTRY), path)
        lines.append(f"config: {cfg}")
    lines.append(f"entries: {len(entries)}")
    for name, data in entries.items():
        derived = "  (derived)" if name in FOLD_ENTRIES else ""
        lines.append(f"  {name}  {data.shape[0]}x{data.shape[1]}{derived}")
    return lines


# ---------------------------------------------------------------------------
# key = value configuration text


def read_text(path) -> str:
    """The UTF-8 text of a file; other bytes are a FormatError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None


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
    except (wave.Error, EOFError, RuntimeError) as exc:  # wave seeks past a chunk
        raise FormatError(f"{path}: not a readable WAV file ({str(exc) or 'bad chunk size'})")
    if channels != 1 or width != 2:
        raise FormatError(
            f"{path}: expected 16-bit mono PCM, got {channels} channel(s) "
            f"at {8 * width} bits"
        )
    if len(frames) % 2:  # a RIFF size that ends the file inside a sample
        raise FormatError(
            f"{path}: not a readable WAV file (data ends inside a sample, "
            f"after {len(frames)} bytes)"
        )
    samples = np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32768.0
    return samples, rate


# ---------------------------------------------------------------------------
# dataset directories

DATASET_META = "dataset.cfg"
DATASET_SAMPLES = "samples.tsv"
DATASET_LIPS = "lips.txt"


def write_dataset_meta(directory, meta: dict) -> None:
    lines = [f"{key} = {meta[key]}" for key in DATASET_FIELDS]
    atomic_write_text(Path(directory) / DATASET_META, "\n".join(lines) + "\n")


def read_dataset_meta(directory) -> ModelConfig:
    """The DATASET_FIELDS of dataset.cfg, its only keys, as a ModelConfig that
    checks them; its other fields are the defaults."""
    path = Path(directory) / DATASET_META
    if not path.exists():
        raise FormatError(f"{directory}: missing {DATASET_META}")
    try:
        values = parse_config_lines(read_text(path))
        unknown = sorted(set(values) - set(DATASET_FIELDS))
        if unknown:
            raise ConfigError(f"unknown keys {unknown}")
        missing = sorted(set(DATASET_FIELDS) - set(values))
        if missing:
            raise ConfigError(f"missing keys {missing}")
        return ModelConfig(**{key: parse_value(key, values[key]) for key in DATASET_FIELDS})
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_lip_indices(path) -> list[int]:
    lines = read_text(path).split()
    try:
        return [int(tok) for tok in lines]
    except ValueError as exc:
        raise FormatError(f"{path}: lip index file must hold integers ({exc})")
