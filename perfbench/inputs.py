"""Seeded inputs for the benchmark, written with the benchmark's own code.

Every array the program sees (feature clips, WAV clips, training sets and
parameter bundles) comes from a ``numpy`` generator seeded by the workload
seed, so the same seed gives byte-identical files. The F32M matrix format and
16-bit PCM WAV are written here, not through the package, so the program is
handed only files and arrays.
"""

from __future__ import annotations

import struct
import wave
from pathlib import Path

import numpy as np

F32M_MAGIC = b"F32M"
F32M_VERSION = 1
WAV_RATE = 16000


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per input stream (clips, params, data)."""
    return np.random.Generator(np.random.PCG64([seed, stream]))


def write_f32m(path: Path, matrix: np.ndarray) -> None:
    m = np.asarray(matrix, dtype="<f4")
    header = F32M_MAGIC + struct.pack("<III", F32M_VERSION, *m.shape)
    path.write_bytes(header + m.tobytes(order="C"))


def read_f32m(path: Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:4] != F32M_MAGIC:
        raise ValueError(f"{path}: bad F32M magic")
    version, rows, cols = struct.unpack("<III", blob[4:16])
    if version != F32M_VERSION or len(blob) != 16 + 4 * rows * cols:
        raise ValueError(f"{path}: bad F32M header {version} {rows}x{cols}")
    return np.frombuffer(blob, dtype="<f4", offset=16).reshape(rows, cols)


def speech_features(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    """Smooth feature rows: a few sinusoids per channel plus light noise,
    rounded to float32 as the file will hold them."""
    u = np.arange(rows)[:, None, None]
    freq = rng.uniform(0.5, 6.0, size=(1, dim, 3))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(1, dim, 3))
    amp = rng.normal(0.0, 0.5, size=(1, dim, 3))
    x = (amp * np.sin(2.0 * np.pi * freq * u / rows + phase)).sum(axis=2)
    x += rng.normal(0.0, 0.05, size=x.shape)
    return x.astype(np.float32).astype(np.float64)


def speech_waveform(rng: np.random.Generator, seconds: float) -> np.ndarray:
    """16-bit samples of a voiced-like signal: harmonics of a drifting pitch
    under a syllable-rate envelope, plus noise."""
    n = int(round(seconds * WAV_RATE))
    t = np.arange(n) / WAV_RATE
    pitch = rng.uniform(90.0, 220.0) * (1.0 + 0.1 * np.sin(2 * np.pi * rng.uniform(0.5, 2.0) * t))
    phase = 2.0 * np.pi * np.cumsum(pitch) / WAV_RATE
    voiced = sum(rng.uniform(0.2, 1.0) / h * np.sin(h * phase) for h in range(1, 6))
    envelope = 0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(3.0, 6.0) * t + rng.uniform(0, 6.3))
    x = 0.25 * envelope * voiced + rng.normal(0.0, 0.02, n)
    return np.clip(np.round(x * 32767.0), -32768, 32767).astype("<i2")


def write_wav(path: Path, samples: np.ndarray) -> None:
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(WAV_RATE)
        fh.writeframes(samples.tobytes())


def read_wav(path: Path) -> np.ndarray:
    """Samples of a 16-bit mono WAV scaled to [-1, 1)."""
    with wave.open(str(path), "rb") as fh:
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype="<i2") / 32768.0


def model_arrays(shapes: dict, rng: np.random.Generator, head_std: float) -> dict:
    """A parameter bundle in the package's initial-value scheme (normal
    weights with std 1/sqrt(fan_in), zero biases and offsets, unit gains),
    except that the vertex head ``motion_dec.w`` gets std ``head_std`` so an
    untrained model still produces motion that depends on every layer."""
    arrays = {}
    for name, (rows, cols) in shapes.items():
        leaf = name.rsplit(".", 1)[-1]
        if name == "motion_dec.w":
            arrays[name] = rng.normal(0.0, head_std, (rows, cols)) if head_std else np.zeros((rows, cols))
        elif leaf in ("b", "b1", "b2", "offset"):
            arrays[name] = np.zeros((rows, cols))
        elif leaf == "gain":
            arrays[name] = np.ones((rows, cols))
        elif name == "style.table":
            arrays[name] = rng.normal(0.0, 1.0 / np.sqrt(cols), (rows, cols))
        else:
            arrays[name] = rng.normal(0.0, 1.0 / np.sqrt(rows), (rows, cols))
    return arrays


def training_set(rng: np.random.Generator, identities: int, sequences: int,
                 frames: int, vertices: int, feature_dim: int, ratio: int):
    """Feature/motion pairs with a learnable mapping: motion is a fixed linear
    readout of each frame's pooled audio window plus a per-identity offset."""
    readout = rng.normal(0.0, 0.15 / np.sqrt(feature_dim), (feature_dim, 3 * vertices))
    offsets = rng.normal(0.0, 1.2, (identities, 3 * vertices))
    samples = []
    for i in range(sequences):
        identity = i % identities
        feats = speech_features(rng, ratio * frames, feature_dim)
        pooled = feats.reshape(frames, ratio, feature_dim).mean(axis=1)
        samples.append((feats, pooled @ readout + offsets[identity], identity))
    return samples
