"""Autoregressive motion decoder: style embedding, motion encoding, periodic
positional injection, biased causal self-attention, alignment-biased
cross-modal attention, and vertex-space decoding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import (
    AttentionProjections,
    AttentionRecord,
    KeyValues,
    add_norm,
    feed_forward,
    mh_attention,
)
from .autodiff import Var
from .config import ModelConfig
from .encoder import AudioInput, EncodedAudio, encode
from .errors import ShapeError
from .params import Params
from .positional import (
    BiasMatrix,
    alignment_bias,
    decoder_self_bias,
    head_slopes,
    ppe_row,
)

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


@dataclass
class LayerCache:
    """One decoder layer's attention inputs over a rollout of up to T steps.

    Row s of ``keys`` and ``values`` (T x d buffers) holds the self-attention
    projections of step s's input row once that step has run; ``steps``
    rows are written. ``audio`` holds the cross-attention keys and values of
    every enc.a row. ``bias`` is the heads x 1 x T self-bias row of the
    newest of T steps at the heads' slopes; it depends only on the distance
    i - j, so its last s + 1 columns are step s's row, with no -inf.
    """

    keys: Var
    values: Var
    audio: KeyValues
    bias: np.ndarray
    steps: int = 0


def layer_caches(
    enc: EncodedAudio, motion_len: int, params: Params, cfg: ModelConfig
) -> list[LayerCache]:
    """Empty caches for a rollout of ``motion_len`` steps, one per layer.

    The audio keys and values are projected over all of enc.a, so a row's
    bits do not depend on how many steps the rollout takes.
    """
    bias = decoder_self_bias(motion_len, cfg, motion_len - 1)
    row = bias.scaled(head_slopes(cfg.heads)).data
    caches = []
    for layer in range(cfg.decoder_layers):
        proj = AttentionProjections.from_params(params, f"dec.layer{layer}.cross")
        caches.append(LayerCache(
            Var(np.zeros((motion_len, cfg.dim))), Var(np.zeros((motion_len, cfg.dim))),
            proj.keys_values(enc.a), row,
        ))
    return caches


def decoder_layer(
    fhat: Var,
    enc: EncodedAudio,
    params: Params,
    cfg: ModelConfig,
    layer: int = 0,
    capture: bool = False,
    past: LayerCache | None = None,
) -> tuple[Var, tuple[AttentionRecord, AttentionRecord] | None]:
    """One decoder block over the rows ``fhat``.

    With ``past=None``, ``fhat`` is a full prefix: self-attention is causal
    under the mode-dependent temporal bias, and cross-attention reads the
    first k * t rows of enc.a under the alignment bias. With a cache,
    ``fhat`` is the one row of step s = ``past.steps``: its keys and values
    are written into row s of the cache, it attends to cache rows [0, s]
    under the last s + 1 columns of the cache's bias row, and to its own
    audio window, enc.a rows [k*s, k*(s + 1)), with no bias (which is the
    alignment bias with its -inf columns left out). The feed-forward uses a
    rectifier. Residual + layer norm after each stage.
    """
    p = f"dec.layer{layer}"
    k = enc.frame_ratio
    self_proj = AttentionProjections.from_params(params, f"{p}.self")
    if past is None:
        total = fhat.rows
        if total > enc.motion_len:
            raise ShapeError(
                f"prefix of {total} rows exceeds audio coverage of {enc.motion_len} frames"
            )
        self_kv, slopes = fhat, head_slopes(cfg.heads)
        self_bias = decoder_self_bias(total, cfg)
        cross_kv = ad.slice_rows(enc.a, 0, k * total)
        cross_bias = alignment_bias(total, total, k)
    else:
        if fhat.rows != 1:
            raise ShapeError(f"a cached step takes one row, got {fhat.rows}")
        s = past.steps
        total = s + 1
        ad.write_row(past.keys, s, ad.matmul(fhat, self_proj.wk))
        ad.write_row(past.values, s, ad.matmul(fhat, self_proj.wv))
        past.steps = total
        self_kv, slopes = KeyValues(past.keys, past.values, 0, total), None
        self_bias = BiasMatrix(past.bias[:, :, -total:], "temporal")
        cross_kv = KeyValues(past.audio.k, past.audio.v, k * s, k * total)
        cross_bias = None

    attn, rec_self = mh_attention(
        fhat, self_kv, self_proj, cfg.heads, self_bias, slopes, capture=capture
    )
    x1 = add_norm(fhat, attn, params, f"{p}.ln1")
    cross, rec_cross = mh_attention(
        x1, cross_kv, AttentionProjections.from_params(params, f"{p}.cross"),
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
    decoder layer against that layer's :class:`LayerCache`, and keeps its
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
    caches = layer_caches(enc, motion_len, params, cfg)
    inputs: list[Var] = []  # layer 0's input rows, for a captured last step
    hidden: list[Var] = []
    for t in range(motion_len):
        prev = None
        if t > 0:
            prev = ad.detach(hidden[-1]) if detach_feedback else hidden[-1]
        x = embed_step(prev, motion_map, identity, t, params, cfg)
        if capture is not None and t == motion_len - 1:
            x = ad.concat_rows(inputs + [x])
            for layer in range(cfg.decoder_layers):
                x, records = decoder_layer(x, enc, params, cfg, layer, capture=True)
                capture.extend(records)
            x = ad.take_row(x, t)
        else:
            inputs.append(x)
            for layer, cache in enumerate(caches):
                x, _ = decoder_layer(x, enc, params, cfg, layer, past=cache)
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
