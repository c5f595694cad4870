"""Independent reference model used to check the program's outputs.

Written from the model's equations, not from the package: plain numpy, no
tape, and a decoder that keeps a per-layer key/value cache and attends each
new frame only to its own audio window. Production rolls the decoder over
the whole prefix at every step, so agreement between the two is a check of
the equations rather than of one implementation against itself. Values match
to rounding (summation order differs), which the callers' tolerances allow.
"""

from __future__ import annotations

import math

import numpy as np

# Waveform front end: (kernel width, stride) per conv layer, total stride 320.
CONV_STRIDES = (5, 2, 2, 2, 2, 2, 2)
WAVE_STRIDE = 320


def sinusoid(t: int, dim: int) -> np.ndarray:
    angles = t / np.power(10000.0, 2.0 * np.arange((dim + 1) // 2) / dim)
    row = np.empty(dim)
    row[0::2] = np.sin(angles)
    row[1::2] = np.cos(angles[: dim // 2])
    return row


def layer_norm(x, gain, offset, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain[0] + offset[0]


def softmax(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def split_heads(x, heads):
    rows, width = x.shape
    return x.reshape(rows, heads, width // heads).transpose(1, 0, 2)


def conv_features(samples: np.ndarray, p: dict) -> np.ndarray:
    x = samples[:, None]
    for i, stride in enumerate(CONV_STRIDES):
        k, b = p[f"extractor.conv{i}.k"], p[f"extractor.conv{i}.b"]
        width = k.shape[0] // x.shape[1]
        n_out = (x.shape[0] - width) // stride + 1
        windows = np.stack([x[o : o + stride * (n_out - 1) + 1 : stride] for o in range(width)], axis=1)
        x = np.maximum(windows.reshape(n_out, -1) @ k + b[0], 0.0)
    return x


def resample(x: np.ndarray, target: int) -> np.ndarray:
    src = x.shape[0]
    if src == 1:
        return np.repeat(x, target, axis=0)
    if target == 1:
        return x[:1].copy()
    pos = np.linspace(0.0, src - 1.0, target)
    grid = np.arange(src)
    return np.stack([np.interp(pos, grid, x[:, c]) for c in range(x.shape[1])], axis=1)


def encode(feats: np.ndarray, frames: int, p: dict, cfg) -> np.ndarray:
    target = math.ceil(cfg.feature_rate / cfg.motion_rate) * frames
    x = resample(feats, target) @ p["enc.input_proj.w"] + p["enc.input_proj.b"][0]
    x = x + np.stack([sinusoid(t, cfg.encoder_dim) for t in range(target)])
    h = cfg.encoder_heads
    for i in range(cfg.encoder_layers):
        q = f"enc.layer{i}"
        qs, ks, vs = (split_heads(x @ p[f"{q}.attn.{w}"], h) for w in ("wq", "wk", "wv"))
        w = softmax(qs @ ks.transpose(0, 2, 1) / math.sqrt(qs.shape[2]))
        attn = (w @ vs).transpose(1, 0, 2).reshape(target, -1) @ p[f"{q}.attn.wo"]
        x = layer_norm(x + attn, p[f"{q}.ln1.gain"], p[f"{q}.ln1.offset"])
        ff = np.maximum(x @ p[f"{q}.ff.w1"] + p[f"{q}.ff.b1"][0], 0.0) @ p[f"{q}.ff.w2"] + p[f"{q}.ff.b2"][0]
        x = layer_norm(x + ff, p[f"{q}.ln2.gain"], p[f"{q}.ln2.offset"])
    return x @ p["enc.output_proj.w"] + p["enc.output_proj.b"][0]


def _position(t: int, cfg) -> np.ndarray:
    if cfg.pe_mode == "tb_ppe":
        return sinusoid(t % cfg.period, cfg.dim)
    if cfg.pe_mode == "original_pe":
        return sinusoid(t, cfg.dim)
    return np.zeros(cfg.dim)


def _self_bias(t: int, cfg) -> np.ndarray:
    """(heads, t+1) bias of query row t over keys 0..t."""
    slopes = 2.0 ** (-8.0 * np.arange(1, cfg.heads + 1) / cfg.heads)
    dist = t - np.arange(t + 1)
    if cfg.pe_mode == "original_pe":
        return np.zeros((cfg.heads, t + 1))
    period = cfg.period if cfg.pe_mode == "tb_ppe" else 1
    return -slopes[:, None] * (dist // period)[None, :]


def _attend(q, k, v, bias=0.0):
    """q (H, d), k/v (H, n, d) -> (H*d,) output of one query row."""
    s = np.einsum("hd,hnd->hn", q, k) / math.sqrt(q.shape[1]) + bias
    return np.einsum("hn,hnd->hd", softmax(s), v).reshape(-1)


def rollout(a: np.ndarray, identity: int, frames: int, p: dict, cfg) -> np.ndarray:
    """Autoregressive decoding with a per-layer K/V cache."""
    h, ratio = cfg.heads, math.ceil(cfg.feature_rate / cfg.motion_rate)
    cache = [([], []) for _ in range(cfg.decoder_layers)]
    cross = []
    for i in range(cfg.decoder_layers):
        q = f"dec.layer{i}.cross"
        cross.append((split_heads(a @ p[f"{q}.wk"], h), split_heads(a @ p[f"{q}.wv"], h)))
    preds = np.empty((frames, p["motion_dec.w"].shape[1]))
    for t in range(frames):
        x = p["style.table"][identity] + _position(t, cfg)
        if t > 0:
            x = x + preds[t - 1] @ p["motion_enc.w"] + p["motion_enc.b"][0]
        for i in range(cfg.decoder_layers):
            q = f"dec.layer{i}"
            keys, values = cache[i]
            keys.append((x @ p[f"{q}.self.wk"]).reshape(h, -1))
            values.append((x @ p[f"{q}.self.wv"]).reshape(h, -1))
            qs = (x @ p[f"{q}.self.wq"]).reshape(h, -1)
            attn = _attend(qs, np.stack(keys, 1), np.stack(values, 1), _self_bias(t, cfg))
            x1 = layer_norm(x + attn @ p[f"{q}.self.wo"], p[f"{q}.ln1.gain"], p[f"{q}.ln1.offset"])
            ck, cv = cross[i]
            window = slice(ratio * t, ratio * (t + 1))
            qc = (x1 @ p[f"{q}.cross.wq"]).reshape(h, -1)
            att2 = _attend(qc, ck[:, window], cv[:, window])
            x2 = layer_norm(x1 + att2 @ p[f"{q}.cross.wo"], p[f"{q}.ln2.gain"], p[f"{q}.ln2.offset"])
            ff = np.maximum(x2 @ p[f"{q}.ff.w1"] + p[f"{q}.ff.b1"][0], 0.0) @ p[f"{q}.ff.w2"] + p[f"{q}.ff.b2"][0]
            x = layer_norm(x2 + ff, p[f"{q}.ln3.gain"], p[f"{q}.ln3.offset"])
        preds[t] = x @ p["motion_dec.w"] + p["motion_dec.b"][0]
    return preds


def infer_features(feats: np.ndarray, identity: int, p: dict, cfg) -> np.ndarray:
    """Motion for a feature clip, with the length implied by the audio."""
    frames = max(1, int(feats.shape[0] * cfg.motion_rate / cfg.feature_rate + 0.5))
    return rollout(encode(feats, frames, p, cfg), identity, frames, p, cfg)


def infer_wave(samples: np.ndarray, rate: float, identity: int, p: dict, cfg) -> np.ndarray:
    """Motion for 16-bit PCM samples (already scaled to [-1, 1))."""
    feats = conv_features(samples, p)
    frames = max(1, int(feats.shape[0] * cfg.motion_rate / (rate / WAVE_STRIDE) + 0.5))
    return rollout(encode(feats, frames, p, cfg), identity, frames, p, cfg)


def rollout_loss(feats, motion, identity, p, cfg) -> float:
    """Summed squared error of a full rollout against absolute motion."""
    frames = motion.shape[0]
    pred = rollout(encode(feats, frames, p, cfg), identity, frames, p, cfg)
    return float(((pred - motion) ** 2).sum())
