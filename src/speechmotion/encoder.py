"""Audio encoding: feature extraction, linear resampling to the motion
timeline, an unmasked transformer stack, and projection to the model width."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import AttentionProjections, AttentionRecord
from .autodiff import Var
from .config import ModelConfig
from .errors import AudioError, ShapeError
from .params import (
    CONV_SCHEDULE, EXTRACTOR_TOTAL_STRIDE, Params, check_shapes, extractor_min_samples,
)
from .positional import sinusoid_rows


@dataclass(frozen=True)
class AudioInput:
    """Either a raw waveform or precomputed feature rows — never both. A
    waveform must be long enough for the extractor to give one feature row."""

    waveform: np.ndarray | None = None
    sample_rate: float | None = None
    features: np.ndarray | None = None
    feature_rate: float | None = None

    def __post_init__(self):
        has_wave = self.waveform is not None
        has_feat = self.features is not None
        if has_wave == has_feat:
            raise AudioError("exactly one of waveform/features must be set")
        kind, data, rate_name = (
            ("waveform", self.waveform, "sample_rate") if has_wave
            else ("features", self.features, "feature_rate")
        )
        rate = getattr(self, rate_name)
        if rate is None or not 0 < rate < math.inf:  # NaN fails the comparison too
            raise AudioError(f"{kind} input needs a positive finite {rate_name}, got {rate}")
        if has_wave and (data.ndim != 2 or data.shape[1] != 1):
            raise AudioError(
                f"waveform input must have one channel (n x 1), got shape {data.shape}"
            )
        if data.ndim != 2:
            raise AudioError(f"features input must be rows x width, got shape {data.shape}")
        if data.shape[0] == 0:
            raise AudioError(f"{kind} input has no rows")
        if has_wave and data.shape[0] < extractor_min_samples():
            raise AudioError(
                f"waveform of {data.shape[0]} samples is shorter than the "
                f"extractor receptive field ({extractor_min_samples()})"
            )
        bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
        if bad.size:
            raise AudioError(f"{kind} row {bad[0]} holds a non-finite value")

    @classmethod
    def from_waveform(cls, samples, sample_rate: float) -> "AudioInput":
        """A one-channel waveform from n samples or an n x 1 array."""
        wave = np.asarray(samples, dtype=np.float64)
        wave = wave.reshape(-1, 1) if wave.ndim == 1 else wave
        return cls(waveform=wave, sample_rate=float(sample_rate))

    @classmethod
    def from_features(cls, features, feature_rate: float) -> "AudioInput":
        return cls(
            features=np.ascontiguousarray(features, dtype=np.float64),
            feature_rate=float(feature_rate),
        )

    @property
    def feature_rows(self) -> int:
        """Feature rows this input produces; for a waveform, the length of
        the extractor's output by the conv length formula, without running
        the extractor."""
        if self.features is not None:
            return self.features.shape[0]
        rows = self.waveform.shape[0]
        for width, stride in CONV_SCHEDULE:
            rows = (rows - width) // stride + 1
        return rows

    @property
    def rate(self) -> float:
        """Feature rows per second this input produces."""
        if self.features is not None:
            return self.feature_rate
        return self.sample_rate / EXTRACTOR_TOTAL_STRIDE


@dataclass
class EncodedAudio:
    """Contextualized speech rows aligned to the motion timeline."""

    a: Var                # (cfg.frame_ratio * motion_len) x dim
    motion_len: int


def extract_features(audio: AudioInput, params: Params, cfg: ModelConfig) -> Var:
    """Feature rows for the encoder: conv stack on waveforms, passthrough on
    precomputed features."""
    if audio.features is not None:
        return Var(audio.features)
    x: Var = Var(audio.waveform)
    for i, (_width, stride) in enumerate(CONV_SCHEDULE):
        x = ad.conv1d_strided(
            x, params[f"extractor.conv{i}.k"], stride, params[f"extractor.conv{i}.b"]
        )
    return x


def resample_rows(x, target_len: int) -> np.ndarray:
    """Linear-interpolation resampling along the row (time) axis.

    Row u of the output samples source coordinate u*(T-1)/(target_len-1), so
    endpoints are preserved exactly. Degenerate cases (one source row or one
    target row) repeat / take the first row, with interpolation weight zero on
    the clamped neighbour. The feature rows are data, not parameters, so this
    runs off the tape.
    """
    x = ad.as_matrix(x)
    t = x.shape[0]
    if target_len < 1:
        raise ShapeError(f"target_len must be >= 1, got {target_len}")
    pos = np.arange(target_len) * ((t - 1) / max(target_len - 1, 1))
    lo = np.minimum(pos.astype(np.intp), max(t - 2, 0))
    hi = np.minimum(lo + 1, t - 1)
    frac = (pos - lo)[:, None]
    return x[lo] * (1.0 - frac) + x[hi] * frac


def infer_motion_len(feature_rows: int, audio_rate: float, cfg: ModelConfig) -> int:
    """Motion frames covered by the audio: round(T' * f_m / f_a), at least 1."""
    return max(1, int(feature_rows * cfg.motion_rate / audio_rate + 0.5))


def _encoder_layer(x: Var, params: Params, cfg: ModelConfig, i: int,
                   capture: list[AttentionRecord] | None) -> Var:
    """Unmasked self-attention, add-norm, feed-forward and add-norm, one
    record each."""
    p = f"enc.layer{i}"
    proj = AttentionProjections.from_params(params, f"{p}.attn")
    k, v = proj.keys_values(x)
    attn, weights = ad.fused(ad.attention_fwd, ad.attention_vjp,
                             (x, proj.wq, k, v, proj.wo), None, cfg.encoder_heads,
                             slice(None))
    if capture is not None:
        capture.append(AttentionRecord("encoder.self", i, x.rows - 1, weights))
    (x,) = ad.fused(ad.add_norm_fwd, ad.add_norm_vjp,
                    (x, attn, params[f"{p}.ln1.gain"], params[f"{p}.ln1.offset"]))
    (ff,) = ad.fused(ad.feed_forward_fwd, ad.feed_forward_vjp,
                     (x, *(params[f"{p}.ff.{w}"] for w in ("w1", "b1", "w2", "b2"))))
    return ad.fused(ad.add_norm_fwd, ad.add_norm_vjp,
                    (x, ff, params[f"{p}.ln2.gain"], params[f"{p}.ln2.offset"]))[0]


def check_feature_width(width: int, feature_dim: int) -> None:
    """Feature rows must be ``feature_dim`` wide; an AudioError says so."""
    if width != feature_dim:
        raise AudioError(
            f"feature width {width} does not match configured feature_dim {feature_dim}"
        )


def encode(
    audio: AudioInput,
    motion_len: int | None,
    params: Params,
    cfg: ModelConfig,
    capture: list[AttentionRecord] | None = None,
) -> EncodedAudio:
    """Full encoder pass producing frame_ratio * motion_len rows of width dim.

    The extractor is frozen: a waveform's conv stack runs off-tape, so its
    kernels receive no gradients. Every encoder parameter's shape is checked
    first, once per call, and an error names the parameter: the layers check
    none.
    """
    check_shapes(params, cfg, "enc.")
    with ad.no_tape():  # features pass through as a leaf either way
        feats = extract_features(audio, params, cfg)
    check_feature_width(feats.cols, cfg.feature_dim)
    if motion_len is None:
        motion_len = infer_motion_len(feats.rows, audio.rate, cfg)
    target = cfg.frame_ratio * motion_len
    x = Var(resample_rows(feats.data, target))
    x = ad.linear(x, params["enc.input_proj.w"], params["enc.input_proj.b"])
    x = ad.add_const(x, sinusoid_rows(np.arange(target), cfg.encoder_dim))
    for i in range(cfg.encoder_layers):
        x = _encoder_layer(x, params, cfg, i, capture)
    a = ad.linear(x, params["enc.output_proj.w"], params["enc.output_proj.b"])
    return EncodedAudio(a=a, motion_len=motion_len)
