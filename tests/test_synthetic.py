import numpy as np
import pytest

from speechmotion import gen_synthetic, load_dataset
from speechmotion.errors import FormatError
from speechmotion.synthetic import (
    SYNTH_FRAME_RATIO,
    band_limited_features,
    default_lip_indices,
    make_dataset_arrays,
    make_mapping,
    pool_windows,
    synthetic_motion,
)


def test_same_seed_bitwise_identical_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    names = gen_synthetic(a, 2, 3, 6, 4, 5, seed=9)
    gen_synthetic(b, 2, 3, 6, 4, 5, seed=9)
    assert names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_different_seed_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    gen_synthetic(a, 1, 1, 6, 4, 5, seed=1)
    gen_synthetic(b, 1, 1, 6, 4, 5, seed=2)
    assert (a / "seq000.audio.f32mat").read_bytes() != (b / "seq000.audio.f32mat").read_bytes()


def test_identities_differ_exactly_by_offsets(rng):
    readout, offsets = make_mapping(rng, 3, 5, 4)
    feats = band_limited_features(rng, 8, 5)
    m0 = synthetic_motion(feats, 0, readout, offsets)
    m2 = synthetic_motion(feats, 2, readout, offsets)
    assert np.allclose(m2 - m0, offsets[2] - offsets[0], atol=1e-12)


def test_least_squares_learnability_oracle():
    data = make_dataset_arrays(2, 4, 10, 6, 8, seed=3)
    for identity in (0, 1):
        pooled, motions = [], []
        for f, m, i in zip(data["features"], data["motions"], data["identities"]):
            if i == identity:
                pooled.append(pool_windows(f, SYNTH_FRAME_RATIO))
                motions.append(m)
        x = np.concatenate(pooled)
        x1 = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
        y = np.concatenate(motions)
        _, residuals, _, _ = np.linalg.lstsq(x1, y, rcond=None)
        assert residuals.size == 0 or residuals.max() < 1e-18


def test_band_limited_features_are_smooth(rng):
    f = band_limited_features(rng, 64, 3)
    # adjacent-row differences must be small relative to the signal itself
    assert np.abs(np.diff(f, axis=0)).max() < 0.6 * np.abs(f).max()


def test_dataset_roundtrip(tmp_path):
    gen_synthetic(tmp_path, 2, 4, 6, 5, 3, seed=4)
    samples, meta = load_dataset(tmp_path)
    assert len(samples) == 4
    assert meta == {
        "identities": 2, "vertices": 5, "feature_dim": 3, "feature_rate": 50.0,
        "motion_rate": 25.0,
    }
    assert (tmp_path / "dataset.cfg").read_text() == (
        "identities = 2\nvertices = 5\nfeature_dim = 3\nfeature_rate = 50.0\n"
        "motion_rate = 25.0\n"
    )
    assert {s.identity for s in samples} == {0, 1}
    for s in samples:
        assert s.motion.shape == (6, 15)
        assert s.audio.features.shape == (SYNTH_FRAME_RATIO * 6, 3)
    data = make_dataset_arrays(2, 4, 6, 5, 3, seed=4)
    # files are float32, so round-tripped values match to f32 precision
    assert np.allclose(samples[1].motion, data["motions"][1], atol=1e-6)


def test_default_lips_within_range():
    lips = default_lip_indices(10)
    assert lips == [0, 1]
    assert default_lip_indices(1) == [0]


def test_load_rejects_bad_directory(tmp_path):
    with pytest.raises(FormatError, match="dataset.cfg"):
        load_dataset(tmp_path)


def test_load_rejects_bad_identity(tmp_path):
    gen_synthetic(tmp_path, 2, 2, 4, 3, 3, seed=0)
    samples_file = tmp_path / "samples.tsv"
    text = samples_file.read_text().replace("\t1", "\t7")
    samples_file.write_text(text)
    with pytest.raises(FormatError, match="identity"):
        load_dataset(tmp_path)


def test_counts_validated():
    with pytest.raises(Exception):
        make_dataset_arrays(0, 1, 4, 3, 2, seed=0)
