"""Positional encodings and additive attention-bias matrices.

Three decoder position strategies share one code path:

* ``tb_ppe``      periodic sinusoid (position taken modulo the period) plus a
                  causal bias of -slope*floor((i-j)/period),
* ``alibi``       no positional vector at all plus the period-1 special case
                  -slope*(i-j),
* ``original_pe`` the standard sinusoid plus a plain 0/-inf causal mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, ShapeError

NEG_INF = float("-inf")
_WAVELENGTH = 10000.0


def sinusoid_rows(positions, dim: int) -> np.ndarray:
    """Classic transformer positional encoding, one row per (possibly
    reduced) position: sin in the even columns, cos in the odd ones."""
    angles = np.divide.outer(positions, np.power(_WAVELENGTH, np.arange(0, dim, 2) / dim))
    rows = np.empty((len(angles), dim))
    rows[:, 0::2] = np.sin(angles)
    rows[:, 1::2] = np.cos(angles[:, : dim // 2])
    return rows


def ppe_rows(steps, cfg: ModelConfig) -> np.ndarray:
    """Decoder positional vectors for the 0-based ``steps`` under cfg.pe_mode,
    one row each."""
    steps = np.asarray(steps)
    if cfg.pe_mode == "alibi":
        return np.zeros((len(steps), cfg.dim))  # no positional information
    return sinusoid_rows(steps % cfg.period if cfg.pe_mode == "tb_ppe" else steps, cfg.dim)


def head_slopes(heads: int) -> list[float]:
    """Per-head temporal-bias slopes 2^(-8h/H) for h = 1..H.

    H=4 gives [2^-2, 2^-4, 2^-6, 2^-8]; the sequence is geometric starting at
    2^(-8/H). Only power-of-two head counts are supported.
    """
    if heads < 1 or heads & (heads - 1):
        raise ConfigError(f"unsupported head count {heads}: must be a power of two")
    return [2.0 ** (-8.0 * h / heads) for h in range(1, heads + 1)]


@dataclass(frozen=True)
class BiasMatrix:
    """Additive pre-softmax score matrix; -inf encodes masking."""

    data: np.ndarray
    kind: str  # "temporal" | "alignment"

    def scaled(self, slope) -> "BiasMatrix":
        """Head-specific copy: finite entries scaled, -inf preserved. A
        sequence of slopes gives one stacked copy per slope."""
        return BiasMatrix(np.multiply.outer(slope, self.data), self.kind)


def decoder_self_bias(t: int, cfg: ModelConfig, first: int = 0) -> BiasMatrix:
    """Rows [first, t) of the mode-dependent t x t causal bias at unit slope
    (heads scale it per slope); ``first = t - 1`` is the newest step alone.

    Below the diagonal the entry is -floor((i - j) / p) (period p, or 1 for
    alibi) or 0 (original_pe); above it, -inf.
    """
    if not 0 <= first < t:
        raise ShapeError(f"need 0 <= first < t, got first={first}, t={t}")
    delta = np.arange(first, t)[:, None] - np.arange(t)[None, :]
    if cfg.pe_mode == "original_pe":
        bias = np.zeros(delta.shape)
    else:
        period = cfg.period if cfg.pe_mode == "tb_ppe" else 1
        bias = (-1.0) * (delta // period).astype(np.float64)
    bias[delta < 0] = NEG_INF
    return BiasMatrix(bias, "temporal")


def alignment_bias(t: int, total_motion_len: int, frame_ratio: int) -> BiasMatrix:
    """Cross-modal bias restricting motion frame i to its audio window.

    Entry (i, j) is 0 when frame_ratio*i <= j < frame_ratio*(i+1) and -inf
    elsewhere, over j in [0, frame_ratio*total_motion_len).
    """
    if t < 1 or t > total_motion_len:
        raise ShapeError(
            f"need 1 <= t <= total_motion_len, got t={t}, total={total_motion_len}"
        )
    if frame_ratio < 1:
        raise ShapeError(f"frame_ratio must be >= 1, got {frame_ratio}")
    cols = frame_ratio * total_motion_len
    j = np.arange(cols)[None, :]
    i = np.arange(t)[:, None]
    inside = (frame_ratio * i <= j) & (j < frame_ratio * (i + 1))
    bias = np.where(inside, 0.0, NEG_INF)
    return BiasMatrix(bias, "alignment")
