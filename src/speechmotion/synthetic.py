"""Deterministic synthetic datasets with a known audio-to-motion mapping.

Audio "features" are smooth band-limited signals (a few random sinusoids per
channel). Motion is produced by a fixed linear readout of the features
averaged over each motion frame's audio window, plus a per-identity offset
pattern:

    motion[t] = mean(features[k*t : k*(t+1)]) @ readout + offset[identity]

The mapping is linear by construction, so a least-squares fit from pooled
features to motion recovers it with near-zero residual; that is the
learnability oracle the overfit experiment leans on.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .config import DATASET_FIELDS
from .encoder import AudioInput, check_feature_width
from .errors import AudioError, FormatError, ShapeError
from .formats import (
    DATASET_LIPS,
    DATASET_META,
    DATASET_SAMPLES,
    atomic_write_text,
    load_matrix,
    load_motion,
    read_dataset_meta,
    read_text,
    save_matrix,
    write_dataset_meta,
)
from .training import TrainingSample, check_sample_alignment

SYNTH_FEATURE_RATE = 50.0
SYNTH_MOTION_RATE = 25.0
SYNTH_FRAME_RATIO = math.ceil(SYNTH_FEATURE_RATE / SYNTH_MOTION_RATE)

_SIGNAL_COMPONENTS = 3
_READOUT_SCALE = 0.15
_OFFSET_SCALE = 1.2


def band_limited_features(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    """Smooth random signals: per channel, a sum of low-frequency sinusoids."""
    u = np.arange(rows)[:, None, None]  # time, channel, component
    freq = rng.uniform(0.5, 4.0, size=(1, dim, _SIGNAL_COMPONENTS))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(1, dim, _SIGNAL_COMPONENTS))
    amp = rng.normal(0.0, 0.5, size=(1, dim, _SIGNAL_COMPONENTS))
    return (amp * np.sin(2.0 * np.pi * freq * u / rows + phase)).sum(axis=2)


def pool_windows(features: np.ndarray, frame_ratio: int) -> np.ndarray:
    """Average each consecutive block of frame_ratio feature rows."""
    rows, dim = features.shape
    if rows % frame_ratio != 0:
        raise ShapeError(f"{rows} feature rows not divisible by ratio {frame_ratio}")
    return features.reshape(rows // frame_ratio, frame_ratio, dim).mean(axis=1)


def synthetic_motion(
    features: np.ndarray,
    identity: int,
    readout: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """The documented ground-truth mapping from features to motion."""
    pooled = pool_windows(features, SYNTH_FRAME_RATIO)
    return pooled @ readout + offsets[identity : identity + 1]


def make_mapping(
    rng: np.random.Generator, n_identities: int, feature_dim: int, vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """(readout, offsets) drawn once per dataset."""
    readout = rng.normal(0.0, _READOUT_SCALE / np.sqrt(feature_dim), (feature_dim, 3 * vertices))
    offsets = rng.normal(0.0, _OFFSET_SCALE, (n_identities, 3 * vertices))
    return readout, offsets


def make_dataset_arrays(
    n_identities: int,
    n_sequences: int,
    frames: int,
    vertices: int,
    feature_dim: int,
    seed: int,
) -> dict:
    """All dataset content in memory; files are a serialization of this."""
    if min(n_identities, n_sequences, frames, vertices, feature_dim) < 1:
        raise ShapeError("all synthetic dataset counts must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    readout, offsets = make_mapping(rng, n_identities, feature_dim, vertices)
    features, motions, identities = [], [], []
    for i in range(n_sequences):
        identity = i % n_identities
        f = band_limited_features(rng, SYNTH_FRAME_RATIO * frames, feature_dim)
        features.append(f)
        motions.append(synthetic_motion(f, identity, readout, offsets))
        identities.append(identity)
    return {
        "features": features,
        "motions": motions,
        "identities": identities,
        "readout": readout,
        "offsets": offsets,
        "meta": {
            "identities": n_identities,
            "vertices": vertices,
            "feature_dim": feature_dim,
            "feature_rate": SYNTH_FEATURE_RATE,
            "motion_rate": SYNTH_MOTION_RATE,
        },
    }


def default_lip_indices(vertices: int) -> list[int]:
    """Placeholder lip set for synthetic meshes: the first ~fifth of vertices."""
    return list(range(max(1, vertices // 5)))


def gen_synthetic(
    out_dir,
    n_identities: int,
    n_sequences: int,
    frames: int,
    vertices: int,
    feature_dim: int,
    seed: int,
) -> list[str]:
    """Write a synthetic dataset directory; returns the written file names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = make_dataset_arrays(
        n_identities, n_sequences, frames, vertices, feature_dim, seed
    )
    written = []
    rows = []
    for i in range(n_sequences):
        audio_name = f"seq{i:03d}.audio.f32mat"
        motion_name = f"seq{i:03d}.motion.f32mat"
        save_matrix(out / audio_name, data["features"][i])
        save_matrix(out / motion_name, data["motions"][i])
        rows.append(f"{audio_name}\t{motion_name}\t{data['identities'][i]}")
        written += [audio_name, motion_name]
    atomic_write_text(out / DATASET_SAMPLES, "\n".join(rows) + "\n")
    write_dataset_meta(out, data["meta"])
    lips = default_lip_indices(vertices)
    atomic_write_text(out / DATASET_LIPS, "\n".join(str(i) for i in lips) + "\n")
    return written + [DATASET_SAMPLES, DATASET_META, DATASET_LIPS]


def load_dataset(directory) -> tuple[list[TrainingSample], dict]:
    """Read a dataset directory back into training samples plus its meta. An
    error names each file at fault, dataset.cfg too when a sample misfits it."""
    directory = Path(directory)
    cfg = read_dataset_meta(directory)
    meta_path = directory / DATASET_META
    samples_path = directory / DATASET_SAMPLES
    if not samples_path.exists():
        raise FormatError(f"{directory}: missing {DATASET_SAMPLES}")
    samples = []
    for lineno, line in enumerate(read_text(samples_path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        where = f"{samples_path}:{lineno}"
        if len(parts) != 3:
            raise FormatError(f"{where}: expected 'audio<TAB>motion<TAB>identity'")
        audio_path, motion_path = directory / parts[0], directory / parts[1]
        try:
            features = load_matrix(audio_path)
            audio = AudioInput.from_features(features, cfg.feature_rate)
            motion = load_motion(motion_path)
        except AudioError as exc:
            raise FormatError(f"{audio_path}: {exc}") from None
        except (OSError, ValueError) as exc:  # a missing file, or a NUL in its name
            raise FormatError(f"{where}: {exc}") from None
        try:
            identity = int(parts[2])
        except ValueError:
            raise FormatError(f"{where}: bad identity {parts[2]!r}")
        if not 0 <= identity < cfg.identities:
            raise FormatError(
                f"{where}: identity {identity} out of range for "
                f"identities = {cfg.identities} in {meta_path}"
            )
        sample = TrainingSample(audio=audio, motion=motion, identity=identity)
        try:
            check_feature_width(features.shape[1], cfg.feature_dim)
            check_sample_alignment(sample, cfg, len(samples))
        except AudioError as exc:
            raise FormatError(f"{audio_path}: {exc} in {meta_path}") from None
        except ShapeError as exc:
            raise FormatError(f"{motion_path}: {exc} in {meta_path}") from None
        samples.append(sample)
    if not samples:
        raise FormatError(f"{samples_path}: no samples listed")
    return samples, {name: getattr(cfg, name) for name in DATASET_FIELDS}
