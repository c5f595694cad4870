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

# Rows per vertex-head product (see decode_motion).
HEAD_BLOCK = 32


def embed_step(
    prev,
    motion_map: tuple[Var, Var],
    identity: int,
    t: int,
    params: Params,
    cfg: ModelConfig,
) -> Var:
    """Decoder input row for step t: motion embedding + style + position.

    The motion embedding is ``prev @ w + b`` for ``(w, b) = motion_map``:
    ``rollout`` passes the previous step's hidden row with the folded map of
    :func:`feedback_map`; a vertex-space frame with ``motion_enc.w/.b`` gives
    the same embedding. Step 0 consumes no motion (there is no previous
    prediction yet), so its row is just the style embedding plus the position
    vector.
    """
    if not 0 <= identity < cfg.identities:
        raise ShapeError(
            f"identity index {identity} out of range [0, {cfg.identities})"
        )
    if (prev is None) != (t == 0):
        raise ShapeError("prev must be omitted exactly at step 0")
    style = ad.take_row(params["style.table"], identity)
    if t == 0:
        base = style
    else:
        base = ad.add(ad.linear(prev, *motion_map), style)
    return ad.add_const(base, ppe_row(t, cfg))


def feedback_map(params: Params, detach_feedback: bool) -> tuple[Var, Var]:
    """The motion embedding of a fed-back prediction, as a map of hidden rows.

    A prediction is ``h Wd + bd``, so its embedding ``(h Wd + bd) We + be``
    is ``h M + c`` with ``M = Wd We`` (d x d) and ``c = bd We + be``. With
    ``detach_feedback`` the map is built from detached ``Wd`` and ``bd``:
    ``We`` and ``be`` still get the gradient they would get from the
    detached prediction, and none reaches the head through the feedback.
    """
    wd, bd = params["motion_dec.w"], params["motion_dec.b"]
    if detach_feedback:
        wd, bd = ad.detach(wd), ad.detach(bd)
    we = params["motion_enc.w"]
    return ad.matmul(wd, we), ad.linear(bd, we, params["motion_enc.b"])


def decoder_layer(
    fhat: Var,
    enc: EncodedAudio,
    params: Params,
    cfg: ModelConfig,
    layer: int = 0,
    capture: bool = False,
    past: list[Var] | None = None,
) -> tuple[Var, tuple[AttentionRecord, AttentionRecord] | None]:
    """One decoder block over the t new rows ``fhat`` that follow ``past``.

    ``past`` holds this layer's earlier input rows (s of them); ``None`` is a
    full prefix. Self-attention is causal with the mode-dependent temporal
    bias: the new rows query all s + t rows under bias rows [s, s + t).
    Cross-attention reads only the new rows' audio windows, enc.a rows
    [k*s, k*(s + t)), which is the alignment bias with its -inf columns left
    out. The feed-forward uses a rectifier. Residual + layer norm after each
    stage.
    """
    prefix = ad.concat_rows(past + [fhat]) if past else fhat
    s, total = prefix.rows - fhat.rows, prefix.rows
    if total > enc.motion_len:
        raise ShapeError(
            f"prefix of {total} rows exceeds audio coverage of {enc.motion_len} frames"
        )
    p = f"dec.layer{layer}"
    k = enc.frame_ratio
    self_bias = decoder_self_bias(total, cfg, s)
    cross_bias = alignment_bias(fhat.rows, fhat.rows, k)

    attn, rec_self = mh_attention(
        fhat, prefix, AttentionProjections.from_params(params, f"{p}.self"),
        cfg.heads, self_bias, head_slopes(cfg.heads), capture=capture,
    )
    x1 = add_norm(fhat, attn, params, f"{p}.ln1")
    cross, rec_cross = mh_attention(
        x1, ad.slice_rows(enc.a, k * s, k * total),
        AttentionProjections.from_params(params, f"{p}.cross"),
        cfg.heads, cross_bias, capture=capture,
    )
    x2 = add_norm(x1, cross, params, f"{p}.ln2")
    out = add_norm(x2, feed_forward(x2, params, f"{p}.ff"), params, f"{p}.ln3")

    records = None
    if capture:
        for rec, name in ((rec_self, "decoder.self"), (rec_cross, "decoder.cross")):
            rec.module = name
            rec.layer = layer
            rec.step = total - 1
        records = (rec_self, rec_cross)
    return out, records


def decode_motion(hidden, params: Params) -> Var:
    """Project hidden rows to the 3*V vertex space.

    The rows go through the head ``HEAD_BLOCK`` at a time, the last block
    zero-padded, so each frame's bits do not depend on how many rows are
    decoded with it (see :func:`autodiff.linear_blocked`).
    """
    return ad.linear_blocked(
        hidden, params["motion_dec.w"], params["motion_dec.b"], HEAD_BLOCK
    )


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

    Each step embeds the previous step's last-layer hidden row with the
    folded map of :func:`feedback_map`, feeds the new row through every
    decoder layer against that layer's cached input rows, and keeps its
    hidden row; the vertex head then decodes all T rows in one call.
    Gradients flow through the fed-back rows and the caches unless
    ``detach_feedback`` is set, which detaches the fed-back rows and builds
    the map from a detached head. With ``capture``, the last step runs the
    layers on the full prefix instead, so the recorded maps cover all rows.
    """
    if motion_len < 1:
        raise ShapeError(f"cannot generate an empty sequence (T={motion_len})")
    if motion_len > enc.motion_len:
        raise ShapeError(
            f"requested {motion_len} frames but audio covers {enc.motion_len}"
        )
    motion_map = feedback_map(params, detach_feedback)
    pasts: list[list[Var]] = [[] for _ in range(cfg.decoder_layers)]
    hidden: list[Var] = []
    for t in range(motion_len):
        prev = None
        if t > 0:
            prev = ad.detach(hidden[-1]) if detach_feedback else hidden[-1]
        x = embed_step(prev, motion_map, identity, t, params, cfg)
        if capture is not None and t == motion_len - 1:
            x = ad.concat_rows(pasts[0] + [x])
            for layer in range(cfg.decoder_layers):
                x, records = decoder_layer(x, enc, params, cfg, layer, capture=True)
                capture.extend(records)
            x = ad.take_row(x, t)
        else:
            for layer, past in enumerate(pasts):
                out, _ = decoder_layer(x, enc, params, cfg, layer, past=past)
                past.append(x)
                x = out
        hidden.append(x)
    return decode_motion(ad.concat_rows(hidden), params)


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
