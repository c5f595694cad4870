"""Autoregressive motion decoder: style embedding, motion encoding, periodic
positional injection, biased causal self-attention, alignment-biased
cross-modal attention, and vertex-space decoding."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .attention import (
    AttentionProjections,
    AttentionRecord,
    add_norm,
    feed_forward,
    mh_attention,
)
from .autodiff import Var
from .config import ModelConfig
from .encoder import AudioInput, EncodedAudio, encode
from .errors import ShapeError
from .params import Params
from .positional import alignment_bias, decoder_self_bias, head_slopes, ppe_row


def embed_step(
    prev_motion,
    identity: int,
    t: int,
    params: Params,
    cfg: ModelConfig,
) -> Var:
    """Decoder input row for step t: motion embedding + style + position.

    Step 0 consumes no motion (there is no previous prediction yet), so its
    row is just the style embedding plus the position vector.
    """
    if not 0 <= identity < cfg.identities:
        raise ShapeError(
            f"identity index {identity} out of range [0, {cfg.identities})"
        )
    if (prev_motion is None) != (t == 0):
        raise ShapeError("prev_motion must be omitted exactly at step 0")
    style = ad.take_row(params["style.table"], identity)
    if t == 0:
        base = style
    else:
        motion = ad.linear(prev_motion, params["motion_enc.w"], params["motion_enc.b"])
        base = ad.add(motion, style)
    return ad.add_const(base, ppe_row(t, cfg))


def decoder_layer(
    fhat: Var,
    enc: EncodedAudio,
    params: Params,
    cfg: ModelConfig,
    layer: int = 0,
    capture: bool = False,
) -> tuple[Var, tuple[AttentionRecord, AttentionRecord] | None]:
    """One decoder block over a t-row prefix.

    Self-attention is causal with the mode-dependent temporal bias;
    cross-attention queries the audio rows under the alignment bias; the
    feed-forward uses a rectifier. Residual + layer norm after each stage.
    """
    t = fhat.rows
    if t > enc.motion_len:
        raise ShapeError(
            f"prefix of {t} rows exceeds audio coverage of {enc.motion_len} frames"
        )
    p = f"dec.layer{layer}"
    self_bias = decoder_self_bias(t, cfg)
    cross_bias = alignment_bias(t, enc.motion_len, enc.frame_ratio)

    attn, rec_self = mh_attention(
        fhat, fhat, AttentionProjections.from_params(params, f"{p}.self"),
        cfg.heads, self_bias, head_slopes(cfg.heads), capture=capture,
    )
    x1 = add_norm(fhat, attn, params, f"{p}.ln1")
    cross, rec_cross = mh_attention(
        x1, enc.a, AttentionProjections.from_params(params, f"{p}.cross"),
        cfg.heads, cross_bias, capture=capture,
    )
    x2 = add_norm(x1, cross, params, f"{p}.ln2")
    out = add_norm(x2, feed_forward(x2, params, f"{p}.ff"), params, f"{p}.ln3")

    records = None
    if capture:
        for rec, name in ((rec_self, "decoder.self"), (rec_cross, "decoder.cross")):
            rec.module = name
            rec.layer = layer
            rec.step = t - 1
        records = (rec_self, rec_cross)
    return out, records


def decode_motion(hidden, params: Params) -> Var:
    """Project hidden rows back to the 3*V vertex space."""
    return ad.linear(hidden, params["motion_dec.w"], params["motion_dec.b"])


def rollout(
    enc: EncodedAudio,
    identity: int,
    motion_len: int,
    params: Params,
    cfg: ModelConfig,
    detach_feedback: bool = False,
    capture: list[AttentionRecord] | None = None,
) -> Var:
    """Autoregressive generation over already-encoded audio.

    Each step re-runs the decoder stack on the full prefix built from the
    model's own predictions and takes the newest row; gradients flow through
    the fed-back predictions unless ``detach_feedback`` is set.
    """
    if motion_len < 1:
        raise ShapeError(f"cannot generate an empty sequence (T={motion_len})")
    if motion_len > enc.motion_len:
        raise ShapeError(
            f"requested {motion_len} frames but audio covers {enc.motion_len}"
        )
    embeds: list[Var] = []
    preds: list[Var] = []
    for t in range(motion_len):
        prev = None
        if t > 0:
            prev = ad.detach(preds[-1]) if detach_feedback else preds[-1]
        embeds.append(embed_step(prev, identity, t, params, cfg))
        x = ad.concat_rows(embeds) if t > 0 else embeds[0]
        last = capture is not None and t == motion_len - 1
        for layer in range(cfg.decoder_layers):
            x, records = decoder_layer(x, enc, params, cfg, layer, capture=last)
            if records is not None:
                capture.extend(records)
        preds.append(ad.take_row(decode_motion(x, params), t))
    return ad.concat_rows(preds)


def autoregress(
    audio: AudioInput,
    identity: int,
    motion_len: int | None,
    params: Params,
    cfg: ModelConfig,
    capture: list[AttentionRecord] | None = None,
) -> np.ndarray:
    """Synthesize a motion sequence (T x 3V) from audio and a style identity."""
    enc = encode(audio, motion_len, params, cfg, capture=capture)
    out = rollout(enc, identity, enc.motion_len, params, cfg, capture=capture)
    return out.data
