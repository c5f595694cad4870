"""Autoregressive motion decoder: style embedding, motion encoding, periodic
positional injection, biased causal self-attention, alignment-biased
cross-modal attention, and vertex-space decoding."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from .attention import AttentionProjections, AttentionRecord, KeyValues, mh_attention
from .autodiff import Var
from .config import ModelConfig
from .encoder import AudioInput, EncodedAudio, encode
from .errors import ShapeError
from .params import Params, check_shapes
from .positional import BiasMatrix, decoder_self_bias, head_slopes, ppe_rows

# Not called here: a cached step reads its own audio window with no bias. The
# benchmark's tracer (perfbench/spans.py) hooks ``decoder.alignment_bias``.
from .positional import alignment_bias  # noqa: F401

# Rows per vertex-head product (see decode_motion).
HEAD_BLOCK = 32
# The checkpoint entries that hold M and c of feedback_map.
FOLD_ENTRIES = ("motion_fold.M", "motion_fold.c")


def embed_table(
    identity: int, c: Var, motion_len: int, params: Params, cfg: ModelConfig
) -> Var:
    """The part of every step's input row that no prediction feeds: row t
    is the style embedding plus the positional vector of step t
    (:func:`ppe_rows`), plus the motion bias ``c`` from row 1 on."""
    if not 0 <= identity < cfg.identities:
        raise ShapeError(
            f"identity index {identity} out of range [0, {cfg.identities})"
        )
    style = ad.take_row(params["style.table"], identity)
    table = ad.add_row(Var(ppe_rows(np.arange(motion_len), cfg)), style)
    return ad.add_row(table, c, start=1)


def embed_step(prev, motion_w: Var, table: Var, t: int) -> Var:
    """Decoder input row for step t: ``prev @ motion_w`` plus row t of
    ``table`` (see :func:`embed_table`).

    ``rollout`` passes the previous step's hidden row with ``M`` and the
    table with ``c`` of :func:`feedback_map`; a vertex-space frame with
    ``motion_enc.w`` and a table built with ``motion_enc.b`` gives the same
    embedding. Step 0 consumes no motion (there is no previous prediction
    yet), so its row is table row 0: the style embedding plus the position
    vector. The row is computed on arrays, with the bits of ``linear(prev,
    motion_w, take_row(table, t))``, and returned untaped: the rollout's
    record holds its VJP.
    """
    if (prev is None) != (t == 0):
        raise ShapeError("prev must be omitted exactly at step 0")
    row = table.data[t : t + 1]
    if prev is None:
        return ad.leaf(row.copy())
    out = np.dot(prev.data, motion_w.data)
    out += row
    return ad.leaf(out)


def feedback_map(params: Params) -> tuple[Var, Var]:
    """The motion embedding of a fed-back prediction, as a map of hidden rows.

    A prediction is ``h Wd + bd``, so its embedding ``(h Wd + bd) We + be``
    is ``h M + c`` with ``M = Wd We`` (d x d) and ``c = bd We + be``.

    Parameters loaded from a checkpoint for inference carry the pair that
    was stored when it was saved, under ``FOLD_ENTRIES``; it is returned
    as it is.
    """
    if FOLD_ENTRIES[0] in params:
        return params[FOLD_ENTRIES[0]], params[FOLD_ENTRIES[1]]
    wd, bd = params["motion_dec.w"], params["motion_dec.b"]
    we = params["motion_enc.w"]
    return ad.matmul(wd, we), ad.linear(bd, we, params["motion_enc.b"])


@dataclass
class LayerCache:
    """One decoder layer over a rollout of up to T steps: its weights, looked
    up once, its attention inputs, and what its steps' VJPs read.

    Row s of ``keys`` and ``values`` (T x d arrays) holds the self-attention
    projections of step s's input row once that step has run; ``steps``
    rows are written, and ``own`` holds their heads' views. ``audio_kv``
    are the recorded cross-attention keys and values of every enc.a row,
    and ``audio`` their heads' views; rows [k*s, k*(s + 1)) are step s's
    window. ``bias`` is the heads x 1 x T self-bias row of the newest of T
    steps at the heads' slopes; it depends only on the distance i - j, so
    its last s + 1 columns are step s's row, with no -inf. While a tape is
    active, ``saved[s]`` holds what step s's VJP reads; otherwise nothing
    is kept.
    """

    self_proj: AttentionProjections
    cross_proj: AttentionProjections
    norms: tuple[tuple[Var, Var], ...]  # gain and offset of ln1, ln2, ln3
    ff: tuple[Var, Var, Var, Var]       # w1, b1, w2, b2
    heads: int
    keys: np.ndarray
    values: np.ndarray
    own: KeyValues
    audio_kv: tuple[Var, Var]
    audio: KeyValues
    frame_ratio: int
    bias: np.ndarray
    saved: list[tuple] = field(default_factory=list)
    steps: int = 0

    def inputs(self) -> tuple[Var, ...]:
        """The layer's inputs of the rollout's record, in the order of the
        gradients of :func:`_step_vjp`."""
        (g1, o1), (g2, o2), (g3, o3) = self.norms
        sp, cp = self.self_proj, self.cross_proj
        return (g3, o3, *self.ff, g2, o2, cp.wq, cp.wo, g1, o1, sp.wq, sp.wo, sp.wv, sp.wk,
                *self.audio_kv)


def layer_caches(
    enc: EncodedAudio, motion_len: int, params: Params, cfg: ModelConfig
) -> list[LayerCache]:
    """Empty caches for a rollout of ``motion_len`` steps, one per layer.

    Every decoder parameter's shape is checked here, once per rollout, and
    an error names the parameter: the steps check none. The audio keys and
    values are projected over all of enc.a, so a row's bits do not depend on
    how many steps the rollout takes.
    """
    check_shapes(params, cfg, "dec.")
    bias = decoder_self_bias(motion_len, cfg, motion_len - 1)
    row = bias.scaled(head_slopes(cfg.heads)).data
    caches = []
    for layer in range(cfg.decoder_layers):
        p = f"dec.layer{layer}"
        self_proj = AttentionProjections.from_params(params, f"{p}.self")
        cross = AttentionProjections.from_params(params, f"{p}.cross")
        keys, values = np.zeros((motion_len, cfg.dim)), np.zeros((motion_len, cfg.dim))
        audio_k, audio_v = cross.keys_values(enc.a)
        caches.append(LayerCache(
            self_proj=self_proj,
            cross_proj=cross,
            norms=tuple((params[f"{p}.{ln}.gain"], params[f"{p}.{ln}.offset"])
                        for ln in ("ln1", "ln2", "ln3")),
            ff=tuple(params[f"{p}.ff.{w}"] for w in ("w1", "b1", "w2", "b2")),
            heads=cfg.heads,
            keys=keys,
            values=values,
            own=KeyValues.of(keys, values, cfg.heads),
            audio_kv=(audio_k, audio_v),
            audio=KeyValues.of(audio_k.data, audio_v.data, cfg.heads),
            frame_ratio=cfg.frame_ratio,
            bias=row,
        ))
    return caches


def decoder_layer(fhat: Var, past: LayerCache) -> tuple[Var, tuple[np.ndarray, np.ndarray]]:
    """One decoder block over ``fhat``, the one row of step s = ``past.steps``.

    The row's keys and values are written into row s of the cache. It attends
    to cache rows [0, s] under the last s + 1 columns of the cache's bias row
    (the mode-dependent causal bias), and to its own audio window, enc.a rows
    [k*s, k*(s + 1)), with no bias (the alignment bias with its -inf columns
    left out). The feed-forward uses a rectifier. Residual + layer norm after
    each stage. Also returns the step's self- and cross-attention weights:
    heads x 1 x (s + 1) and heads x 1 x k.

    The block runs on arrays, its shapes checked by :func:`layer_caches`,
    with the bits of its two attention, three add-norm and feed-forward
    pairs, and records nothing: its output is untaped. While a tape is
    active it appends what its VJP reads to ``past.saved``, for the
    rollout's record (see :func:`_step_vjp`).
    """
    s, k = past.steps, past.frame_ratio
    if fhat.shape != (1, past.keys.shape[1]):
        raise ShapeError(
            f"a cached step takes one row of width {past.keys.shape[1]}, got {fhat.shape}"
        )
    if s == past.keys.shape[0]:
        raise ShapeError(f"all {s} steps of the cache have run")
    x = fhat.data
    sp = past.self_proj
    (g1, o1), (g2, o2), (g3, o3) = past.norms
    np.dot(x, sp.wk.data, out=past.keys[s : s + 1])
    np.dot(x, sp.wv.data, out=past.values[s : s + 1])
    past.steps = s + 1

    attn, w_self, at_self = mh_attention(
        fhat, past.own.window(0, s + 1), sp, past.heads,
        BiasMatrix(past.bias[:, :, -(s + 1):], "temporal"),
    )
    x1, at1 = ad.add_norm_fwd(x, attn, g1.data, o1.data)
    cross, w_cross, at_cross = mh_attention(
        ad.leaf(x1), past.audio.window(k * s, k * (s + 1)), past.cross_proj, past.heads, None,
    )
    x2, at2 = ad.add_norm_fwd(x1, cross, g2.data, o2.data)
    w1, b1, w2, b2 = past.ff
    ff, at_ff = ad.feed_forward_fwd(x2, w1.data, b1.data, w2.data, b2.data)
    out, at3 = ad.add_norm_fwd(x2, ff, g3.data, o3.data)
    if ad.recording():
        past.saved.append((x, at_self, at1, at_cross, at2, at_ff, at3))
    return ad.leaf(out), (w_self, w_cross)


def _step_vjp(c: LayerCache, t: int, g: np.ndarray, own: tuple[np.ndarray, np.ndarray]):
    """Step t's VJP of layer ``c``: of its block, then of its value and key
    row writes, which is the reverse of their order in the step. Returns
    the gradient of the step's input row, those of the layer's weights in
    :meth:`LayerCache.inputs` order, and those of its audio window's keys
    and values. ``own`` are the T x d gradients of the key and value
    buffers: step t's attention adds into rows [0, t], and the writes read
    row t.
    """
    x, at_self, at1, at_cross, at2, at_ff, at3 = c.saved[t]
    term3, dff, dg3, do3 = ad.add_norm_vjp(at3, g)
    dx2, dw1, db1, dw2, db2 = ad.feed_forward_vjp(at_ff, dff)
    term2, dcross, dg2, do2 = ad.add_norm_vjp(at2, term3 + dx2)
    dx1, dwq_c, dk_c, dv_c, dwo_c = ad.attention_vjp(at_cross, dcross)
    term1, dattn, dg1, do1 = ad.add_norm_vjp(at1, term2 + dx1)
    dx, dwq_s, dk_s, dv_s, dwo_s = ad.attention_vjp(at_self, dattn)
    gk, gv = own
    gk[: t + 1] += dk_s
    gv[: t + 1] += dv_s
    sp, row = c.self_proj, slice(t, t + 1)
    dx = term1 + dx
    dx += np.dot(gv[row], sp.wv.data.T)
    dx += np.dot(gk[row], sp.wk.data.T)
    return dx, (dg3, do3, dw1, db1, dw2, db2, dg2, do2, dwq_c, dwo_c, dg1, do1, dwq_s, dwo_s,
                np.dot(x.T, gv[row]), np.dot(x.T, gk[row])), (dk_c, dv_c)


def _rollout_vjp(caches: list[LayerCache], motion_w: np.ndarray, hidden: np.ndarray,
                 g: np.ndarray) -> tuple:
    """The VJP of a rollout's record (see :func:`rollout`): steps T - 1 to 0
    and in each, layers L - 1 to 0, every gradient with the bits that
    :func:`autodiff.backward` gave it when each step input row, row write
    and block was a record of its own. Each input's contributions are added
    in that reverse order, the first kept as it is. So hidden row t gets
    ``g[t] + dprev`` from the step t + 1 that read it, and row t of the
    table gets step t's input-row gradient plus +0, once it has more than
    one row. The key, value and audio window gradients are added into
    buffers that start at zero, so an exact zero among them may be +0 where
    the separate records gave -0; only BLAS products, which sum from +0,
    read them. Every accumulator is allocated here, so two calls give equal,
    independent results.
    """
    steps, k = g.shape[0], caches[0].frame_ratio
    grads: list = [None] * len(caches)
    audio = [tuple(np.zeros(kv.shape) for kv in c.audio_kv) for c in caches]
    own = [(np.zeros(c.keys.shape), np.zeros(c.values.shape)) for c in caches]
    dtable = np.empty((steps, g.shape[1]))
    dmotion = dprev = None
    for t in reversed(range(steps)):
        gx = g[t : t + 1] if dprev is None else g[t : t + 1] + dprev
        first, window = t == steps - 1, slice(k * t, k * (t + 1))
        for layer in reversed(range(len(caches))):
            gx, weights, cross = _step_vjp(caches[layer], t, gx, own[layer])
            if first:
                grads[layer] = list(weights)
            else:
                for acc, contrib in zip(grads[layer], weights):
                    acc += contrib
            for buf, contrib in zip(audio[layer], cross):
                buf[window] += contrib
        if steps == 1:
            dtable[:] = gx
        else:
            np.add(gx, 0.0, out=dtable[t : t + 1])
        if t:
            dprev = np.dot(gx, motion_w.T)
            dm = np.dot(hidden[t - 1 : t].T, gx)
            if dmotion is None:
                dmotion = dm
            else:
                dmotion += dm
    return (dmotion, dtable, *(v for acc, kv in zip(grads, audio) for v in (*acc, *kv)))


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
    capture: list[AttentionRecord] | None = None,
) -> Var:
    """Autoregressive generation over already-encoded audio.

    Everything constant over the rollout is built once: the folded map of
    :func:`feedback_map`, the :func:`embed_table` of style, positions and
    motion bias, and per layer the weights, the audio keys and values and
    the self-bias row of a :class:`LayerCache`. Each step embeds the
    previous step's last-layer hidden row with the map, feeds the new row
    through every decoder layer against that layer's cache, and keeps its
    hidden row; the vertex head then decodes all T rows in one call. With
    ``capture``, the steps' attention
    weights are gathered per layer into a heads x T x T self map (row t,
    columns [0, t]) and a heads x T x kT cross map (row t, columns
    [kt, k(t + 1))), zero elsewhere, and appended as one ``decoder.self`` and
    one ``decoder.cross`` record per layer at step T - 1. Capturing changes
    no output bit.

    The steps record nothing: the T x d hidden rows are one record, whose
    inputs are the map, the table and each layer's weights and audio keys
    and values, and whose VJP (:func:`_rollout_vjp`) carries the gradients
    back through the fed-back rows, the map and the caches.
    """
    if motion_len < 1:
        raise ShapeError(f"cannot generate an empty sequence (T={motion_len})")
    if motion_len > enc.motion_len:
        raise ShapeError(
            f"requested {motion_len} frames but audio covers {enc.motion_len}"
        )
    k = cfg.frame_ratio
    motion_w, c = feedback_map(params)
    table = embed_table(identity, c, motion_len, params, cfg)
    caches = layer_caches(enc, motion_len, params, cfg)
    maps = []  # per layer, the self and cross records being filled
    if capture is not None:
        maps = [
            (AttentionRecord("decoder.self", layer, motion_len - 1,
                             np.zeros((cfg.heads, motion_len, motion_len))),
             AttentionRecord("decoder.cross", layer, motion_len - 1,
                             np.zeros((cfg.heads, motion_len, k * motion_len))))
            for layer in range(len(caches))
        ]
    hidden = np.empty((motion_len, cfg.dim))
    x = None
    for t in range(motion_len):
        x = embed_step(x, motion_w, table, t)
        for layer, cache in enumerate(caches):
            x, (w_self, w_cross) = decoder_layer(x, cache)
            if maps:
                rec_self, rec_cross = maps[layer]
                rec_self.weights[:, t, : t + 1] = w_self[:, 0]
                rec_cross.weights[:, t, k * t : k * (t + 1)] = w_cross[:, 0]
        hidden[t : t + 1] = x.data
    for pair in maps:
        capture.extend(pair)
    out = ad.leaf(hidden)
    if ad.recording():
        inputs = (motion_w, table, *(v for cache in caches for v in cache.inputs()))
        ad.record(out, inputs, partial(_rollout_vjp, caches, motion_w.data, hidden))
    return decode_motion(out, params)


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
