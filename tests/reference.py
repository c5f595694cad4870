"""Reference implementations the tests compare the package against.

They are written for clarity, not speed: the attention oracle uses scalar
loops so it cannot share bugs with the vectorized production path, the bias
builders construct whole t x t matrices that the decoder never needs, the
positional rows are built one at a time, and the dense decoder block reruns
attention over a whole prefix where the package runs one cached row. The
elementary add, subtraction, product, sum, rectifier, layer norm and patch
gather records are the compositions that the package's fused records (the
sub-layer pairs, ``linear``, the strided convolution and the loss) must
match bit for bit; the tests also build their losses from them. The layer
norm is written with ``np.mean`` and ``np.sqrt`` and shares no code with
the package. ``attention``, ``add_norm`` and ``feed_forward`` record the
package's forward/VJP pairs of those sub-layers as one record each, as the
encoder does; ``attention`` reads every row of its keys and values, so
for a row range it first takes those rows with a ``take_rows`` record per
array, whose VJP scatters the rows' gradient into zeros. The composed
rollout, a row and a ``linear`` for each step's input row, then per layer
a row write record per projection, a ``take_rows`` record per attention
input it slices and one record per attention, add-norm and feed-forward,
and a row concatenation of the hidden rows, is the composition that the
package's one-record rollout must match bit for bit.
The reverse pass and the optimizer are the package's earlier ones: each
input's first gradient kept and every later one added into a new array,
and clipping and Adam run parameter by parameter into new arrays; the
package's must match them bit for bit.
The checkpoint helpers pack and parse version 3 files field by field from
the format description; they also pack the retired version 1 and 2
layouts, which the package refuses.
"""

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from speechmotion import DegenerateRowError, ShapeError, Var
from speechmotion import autodiff as ad
from speechmotion import decoder
from speechmotion.attention import AttentionProjections, AttentionRecord
from speechmotion.positional import (
    NEG_INF,
    BiasMatrix,
    alignment_bias,
    decoder_self_bias,
    head_slopes,
    ppe_rows,
)


def sinusoid_row(t: int, dim: int) -> np.ndarray:
    """Classic transformer positional encoding for one (possibly reduced) step."""
    row = np.zeros((1, dim))
    half = (dim + 1) // 2
    i = np.arange(half)
    angles = float(t) / np.power(10000.0, 2.0 * i / dim)
    row[0, 0::2] = np.sin(angles)
    row[0, 1::2] = np.cos(angles[: dim // 2])
    return row


def add(a, b) -> Var:
    """Elementwise sum, recorded on the active tape."""
    a, b = ad._as_var(a), ad._as_var(b)
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return ad._make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b) -> Var:
    """Elementwise difference, recorded on the active tape."""
    a, b = ad._as_var(a), ad._as_var(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return ad._make(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b) -> Var:
    """Elementwise product, recorded on the active tape."""
    a, b = ad._as_var(a), ad._as_var(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    x, y = a.data, b.data
    return ad._make(x * y, (a, b), lambda g: (g * y, g * x))


def sum_all(a) -> Var:
    """The 1x1 sum of every entry, recorded on the active tape."""
    a = ad._as_var(a)
    shape = a.shape
    return ad._make(
        np.array([[a.data.sum()]]), (a,), lambda g: (np.full(shape, g[0, 0]),)
    )


def concat_rows(parts) -> Var:
    """The rows of ``parts`` one after another, recorded on the active tape:
    each part gets its rows of the gradient, as views."""
    parts = [ad._as_var(p) for p in parts]
    if not parts or any(p.cols != parts[0].cols for p in parts):
        raise ShapeError("concat_rows needs parts of one column count")
    stops = np.cumsum([p.rows for p in parts]).tolist()
    bounds = tuple(zip([0] + stops[:-1], stops))
    return ad._make(np.concatenate([p.data for p in parts]), tuple(parts),
                    lambda g: tuple(g[a:b] for a, b in bounds))


def gather_patches(x, width: int, stride: int) -> Var:
    """Unfold a time x channels matrix into rows of flattened windows,
    recorded on the active tape: row u is ``x[u*stride : u*stride+width]``
    flattened time-major."""
    x = ad._as_var(x)
    t, c = x.shape
    t_out = (t - width) // stride + 1
    idx = np.arange(t_out)[:, None] * stride + np.arange(width)[None, :]

    def vjp(g):
        gx = np.zeros((t, c))
        np.add.at(gx, idx, g.reshape(t_out, width, c))
        return (gx,)

    return ad._make(x.data[idx].reshape(t_out, width * c), (x,), vjp)


def relu(a) -> Var:
    """Rectifier, recorded on the active tape."""
    a = ad._as_var(a)
    mask = a.data > 0.0
    return ad._make(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def layer_norm(a, gain, offset, eps: float = 1e-5) -> Var:
    """Normalize each row to zero mean / unit variance, then scale and shift;
    recorded on the active tape. Written from the textbook formulas with
    ``np.mean`` and ``np.sqrt``, so it shares no code with the package."""
    a, gain, offset = ad._as_var(a), ad._as_var(gain), ad._as_var(offset)
    x, gd = a.data, gain.data
    xc = x - np.mean(x, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(np.mean(np.square(xc), axis=1, keepdims=True) + eps)
    xhat = xc * inv

    def vjp(g):
        gy = g * gd
        dx = gy - np.mean(gy, axis=1, keepdims=True)
        dx -= xhat * np.mean(gy * xhat, axis=1, keepdims=True)
        return dx * inv, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    return ad._make(xhat * gd + offset.data, (a, gain, offset), vjp)


def take_rows(x, rows: slice) -> Var:
    """Rows ``rows`` (a step-1 slice) of x, as a view, recorded on the active
    tape: its VJP scatters their gradient into zeros of x's shape."""
    x = ad._as_var(x)
    shape = x.shape

    def vjp(g):
        gx = np.zeros(shape)
        gx[rows] = g
        return (gx,)

    return ad._make(x.data[rows], (x,), vjp)


def attention(x, wq, k, v, wo, bias, heads: int, keys: slice | None = None):
    """The package's attention pair (``attention_fwd``/``attention_vjp``) as
    one record on the active tape, over every row of k and v split into
    heads; returns the output and the heads' weights. With ``keys``, k and v
    are first cut to those rows by two :func:`take_rows` records."""
    if keys is not None:
        k, v = take_rows(k, keys), take_rows(v, keys)
    inputs = tuple(ad._as_var(a) for a in (x, wq, k, v, wo))

    def fwd(xd, wqd, kd, vd, wod):
        return ad.attention_fwd(xd, wqd, *ad.head_views(kd, vd, heads), wod, bias)

    return ad.fused(fwd, ad.attention_vjp, inputs)


def add_norm(a, b, gain, offset) -> Var:
    """The package's residual add + layer norm pair as one record."""
    inputs = tuple(ad._as_var(x) for x in (a, b, gain, offset))
    return ad.fused(ad.add_norm_fwd, ad.add_norm_vjp, inputs)[0]


def feed_forward(x, w1, b1, w2, b2) -> Var:
    """The package's feed-forward pair as one record."""
    inputs = tuple(ad._as_var(a) for a in (x, w1, b1, w2, b2))
    return ad.fused(ad.feed_forward_fwd, ad.feed_forward_vjp, inputs)[0]


def backward(loss: Var, params) -> dict:
    """Gradients of a scalar taped value for every named parameter: each
    input's first VJP output kept, and each later one added with ``acc +
    contrib``, a new array each time."""
    grads = {id(loss): np.ones((1, 1))}
    for out, inputs, vjp in reversed(loss.tape._records):
        g = grads.get(id(out))
        if g is None:
            continue
        for inp, contrib in zip(inputs, vjp(g)):
            if contrib is None:
                continue
            acc = grads.get(id(inp))
            grads[id(inp)] = contrib if acc is None else acc + contrib
    return {
        name: grads[id(v)] if id(v) in grads else np.zeros_like(v.data)
        for name, v in params.items()
    }


@dataclass
class AdamMoments:
    """Per-parameter first and second moments and the step counter."""

    step: int
    m: dict
    v: dict

    @classmethod
    def fresh(cls, params) -> "AdamMoments":
        return cls(
            0,
            {k: np.zeros_like(p.data) for k, p in params.items()},
            {k: np.zeros_like(p.data) for k, p in params.items()},
        )


def adam_step(params, grads, state: AdamMoments, lr, beta1, beta2, eps):
    """One bias-corrected Adam update, parameter by parameter; returns a new
    bundle and new moments."""
    t = state.step + 1
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    new_params, new_state = {}, AdamMoments(t, {}, {})
    for name, p in params.items():
        g = grads[name]
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * np.square(g)
        update = lr * (m / c1) / (np.sqrt(v / c2) + eps)
        new_params[name] = Var(p.data - update)
        new_state.m[name] = m
        new_state.v[name] = v
    return new_params, new_state


def clip_global_norm(grads: dict, max_norm: float) -> tuple[dict, float]:
    """Scale all gradients into new arrays so their joint L2 norm is at most
    max_norm; returns them and the norm before clipping."""
    total = 0.0
    for g in grads.values():
        total += float(np.square(g).sum())
    norm = float(np.sqrt(total))
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    factor = max_norm / norm
    return {k: g * factor for k, g in grads.items()}, norm


def softmax_rows(a) -> Var:
    """Row-wise softmax through the package's attention kernel, recorded on
    the active tape.

    ``-inf`` entries get exactly zero weight; a row with no finite entry is a
    fully masked query and raises :class:`DegenerateRowError`.
    """
    a = a if isinstance(a, Var) else Var(a)
    y = ad._softmax_last(a.data.copy())

    def vjp(g):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)

    return ad._make(y, (a,), vjp)


def biased_attention(q, k, v, bias: BiasMatrix | None) -> tuple[Var, Var]:
    """Single-head softmax(q k^T / sqrt(d_k) + bias) v through the package's
    attention op with identity projections; returns (output, weights), the
    weights untaped."""
    q, k, v = (x if isinstance(x, Var) else Var(x) for x in (q, k, v))
    out, weights = attention(
        q, np.eye(q.cols), k, v, np.eye(v.cols), None if bias is None else bias.data, 1
    )
    return out, Var(weights[0].copy())


def positional_table(cfg, max_steps: int) -> np.ndarray:
    """Rows 0..max_steps-1 of the decoder positional encoding."""
    return np.concatenate([ppe_rows([t], cfg) for t in range(max_steps)])


def temporal_bias(t: int, period: int, slope: float) -> BiasMatrix:
    """Causal self-attention bias: -slope*floor((i-j)/period) below the
    diagonal, -inf strictly above it.

    The floor is computed in integer arithmetic so that period=1 reproduces
    the linear penalty -slope*(i-j) exactly.
    """
    if t < 1 or period < 1:
        raise ShapeError(f"need t >= 1 and period >= 1, got t={t}, period={period}")
    if slope <= 0:
        raise ShapeError(f"slope must be positive, got {slope}")
    delta = np.arange(t)[:, None] - np.arange(t)[None, :]
    bias = (-slope) * (delta // period).astype(np.float64)
    bias[delta < 0] = NEG_INF
    return BiasMatrix(bias, "temporal")


def causal_mask(t: int) -> BiasMatrix:
    """Plain causal mask: 0 at j <= i, -inf above the diagonal."""
    if t < 1:
        raise ShapeError(f"need t >= 1, got {t}")
    bias = np.zeros((t, t))
    bias[np.arange(t)[:, None] < np.arange(t)[None, :]] = NEG_INF
    return BiasMatrix(bias, "temporal")


def attention_oracle(q, k, v, bias: BiasMatrix | None) -> np.ndarray:
    """Reference attention computed with explicit scalar loops.

    Deliberately unvectorized so it cannot share bugs with the production
    path; used only by tests.
    """
    qd = np.asarray(q.data if isinstance(q, Var) else q, dtype=np.float64)
    kd = np.asarray(k.data if isinstance(k, Var) else k, dtype=np.float64)
    vd = np.asarray(v.data if isinstance(v, Var) else v, dtype=np.float64)
    t, d_k = qd.shape
    s, d_v = vd.shape
    inv = 1.0 / math.sqrt(d_k)
    out = np.zeros((t, d_v))
    for i in range(t):
        scores = []
        for j in range(s):
            dot = 0.0
            for a in range(d_k):
                dot += qd[i, a] * kd[j, a]
            score = dot * inv
            if bias is not None:
                score += bias.data[i, j]
            scores.append(score)
        finite = [x for x in scores if math.isfinite(x)]
        if not finite:
            raise DegenerateRowError(f"softmax row {i} has no finite entry")
        top = max(finite)
        exps = [math.exp(x - top) if math.isfinite(x) else 0.0 for x in scores]
        denom = sum(exps)
        for b in range(d_v):
            acc = 0.0
            for j in range(s):
                acc += (exps[j] / denom) * vd[j, b]
            out[i, b] = acc
    return out


def dense_decoder_layer(fhat, enc, params, cfg, layer: int = 0):
    """One decoder block over a full prefix ``fhat`` of t rows.

    Self-attention is causal under the mode-dependent temporal bias at the
    heads' slopes, and cross-attention reads the first k * t rows of enc.a
    under the alignment bias. Returns the t output rows and the self- and
    cross-attention weights (heads x t x t and heads x t x kt).
    """
    p = f"dec.layer{layer}"
    total, k = fhat.rows, cfg.frame_ratio

    def norm(x, sublayer_out, ln):
        return add_norm(x, sublayer_out, params[f"{p}.{ln}.gain"], params[f"{p}.{ln}.offset"])

    self_bias = decoder_self_bias(total, cfg).scaled(head_slopes(cfg.heads))
    self_proj = AttentionProjections.from_params(params, f"{p}.self")
    own_k, own_v = self_proj.keys_values(fhat)
    attn, w_self = attention(
        fhat, self_proj.wq, own_k, own_v, self_proj.wo, self_bias.data, cfg.heads
    )
    x1 = norm(fhat, attn, "ln1")
    cross_proj = AttentionProjections.from_params(params, f"{p}.cross")
    audio_k, audio_v = cross_proj.keys_values(enc.a)
    cross, w_cross = attention(
        x1, cross_proj.wq, audio_k, audio_v, cross_proj.wo,
        alignment_bias(total, total, k).data, cfg.heads, slice(0, k * total),
    )
    x2 = norm(x1, cross, "ln2")
    ff = feed_forward(x2, *(params[f"{p}.ff.{w}"] for w in ("w1", "b1", "w2", "b2")))
    return norm(x2, ff, "ln3"), (w_self, w_cross)


def write_row(buf: Var, i: int, x, w) -> None:
    """Set row i of ``buf`` to x @ w, for a one-row x, in place, and record
    the write on the active tape: its output is ``buf`` itself, and its VJP
    reads row i of the gradient accumulated on ``buf``."""
    x, w = ad._as_var(x), ad._as_var(w)
    xd, wd, bd = x.data, w.data, buf.data
    if xd.shape != (1, wd.shape[0]) or wd.shape[1] != bd.shape[1] or not 0 <= i < bd.shape[0]:
        raise ShapeError(f"cannot write {xd.shape} x {wd.shape} at row {i} of {bd.shape}")
    np.matmul(xd, wd, out=bd[i : i + 1])

    def vjp(g):
        gi = g[i : i + 1]
        return gi @ wd.T, xd.T @ gi

    ad.record(buf, (x, w), vjp)


def composed_embed_step(prev, motion_w, table, t: int) -> Var:
    """``decoder.embed_step`` as two records: row t of the table, then from
    step 1 on a ``linear`` that adds ``prev @ motion_w`` to it."""
    row = ad.take_row(table, t)
    return row if t == 0 else ad.linear(prev, motion_w, row)


def composed_decoder_layer(fhat, past, keys: Var, values: Var):
    """``decoder.decoder_layer`` as twelve records: the two row writes into
    the taped buffers ``keys`` and ``values``, the rows of those buffers
    read, the self-attention, an add-norm, the audio window's key and value
    rows, the cross-attention, an add-norm, the feed-forward and an
    add-norm."""
    s, k = past.steps, past.frame_ratio
    sp, cp = past.self_proj, past.cross_proj
    (g1, o1), (g2, o2), (g3, o3) = past.norms
    write_row(keys, s, fhat, sp.wk)
    write_row(values, s, fhat, sp.wv)
    past.steps = s + 1
    attn, w_self = attention(
        fhat, sp.wq, keys, values, sp.wo, past.bias[:, :, -(s + 1):],
        past.heads, slice(0, s + 1),
    )
    x1 = add_norm(fhat, attn, g1, o1)
    audio_k, audio_v = past.audio_kv
    cross, w_cross = attention(
        x1, cp.wq, audio_k, audio_v, cp.wo, None, past.heads,
        slice(k * s, k * (s + 1)),
    )
    x2 = add_norm(x1, cross, g2, o2)
    out = add_norm(x2, feed_forward(x2, *past.ff), g3, o3)
    return out, (w_self, w_cross)


def composed_rollout(enc, identity, motion_len, params, cfg, capture=None) -> Var:
    """``decoder.rollout`` with every step's input row, row writes and block
    sub-layers recorded on their own (:func:`composed_embed_step`,
    :func:`composed_decoder_layer`), over taped T x d key and value buffers,
    and the hidden rows joined by :func:`concat_rows`, which it returns, as
    ``rollout`` does. It builds its table and caches with
    ``decoder.embed_table`` and ``decoder.layer_caches``."""
    k = cfg.frame_ratio
    motion_w, c = decoder.feedback_map(params)
    table = decoder.embed_table(identity, c, motion_len, params, cfg)
    caches = decoder.layer_caches(enc, motion_len, params, cfg)
    buffers = [(Var(np.zeros(cache.keys.shape)), Var(np.zeros(cache.values.shape)))
               for cache in caches]
    maps = [
        (np.zeros((cfg.heads, motion_len, motion_len)),
         np.zeros((cfg.heads, motion_len, k * motion_len)))
        for _ in caches
    ]
    hidden = []
    for t in range(motion_len):
        x = composed_embed_step(hidden[-1] if t else None, motion_w, table, t)
        for layer, cache in enumerate(caches):
            x, (w_self, w_cross) = composed_decoder_layer(x, cache, *buffers[layer])
            maps[layer][0][:, t, : t + 1] = w_self[:, 0]
            maps[layer][1][:, t, k * t : k * (t + 1)] = w_cross[:, 0]
        hidden.append(x)
    if capture is not None:
        for layer, pair in enumerate(maps):
            capture.extend(AttentionRecord(m, layer, motion_len - 1, w)
                           for m, w in zip(("decoder.self", "decoder.cross"), pair))
    return concat_rows(hidden)


def header_padding(table_len: int) -> int:
    """Zero bytes before the header CRC, which pad the header block to a
    multiple of 64 bytes."""
    return (-(20 + table_len)) % 64


def checkpoint_bytes(entries, version: int) -> bytes:
    """A checkpoint holding ``entries`` ((name, 2-D array) pairs) in the
    given order, with every CRC the version carries. Version 1 is the
    oldest layout: each entry's header followed by its payload, and one CRC
    of all preceding bytes at the end. Version 2 is version 3 without the
    header padding."""
    payloads = [np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in entries]
    heads = [
        struct.pack("<H", len(name.encode())) + name.encode() + struct.pack("<II", *a.shape)
        for name, a in entries
    ]
    if version == 1:
        body = b"FFCK" + struct.pack("<II", 1, len(entries))
        body += b"".join(h + p for h, p in zip(heads, payloads))
        return body + struct.pack("<I", zlib.crc32(body))
    table = b"".join(h + struct.pack("<I", zlib.crc32(p)) for h, p in zip(heads, payloads))
    header = b"FFCK" + struct.pack("<III", version, len(entries), len(table)) + table
    header += bytes(header_padding(len(table)) if version == 3 else 0)
    return header + struct.pack("<I", zlib.crc32(header)) + b"".join(payloads)


def parse_checkpoint(blob: bytes) -> dict:
    """Plain parse of intact version 3 checkpoint bytes:
    name -> (payload offset, values)."""
    count, table_len = struct.unpack_from("<II", blob, 8)
    entries, at = {}, 16
    offset = 20 + table_len + header_padding(table_len)
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, at)
        name = blob[at + 2 : at + 2 + name_len].decode()
        rows, cols = struct.unpack_from("<II", blob, at + 2 + name_len)
        at += 2 + name_len + 12
        values = struct.unpack_from(f"<{rows * cols}d", blob, offset)
        entries[name] = (offset, np.array(values).reshape(rows, cols))
        offset += 8 * rows * cols
    return entries


def reseal(blob: bytearray) -> None:
    """Recompute in place each payload CRC and the header CRC of version 3
    checkpoint bytes, as far as their structure still parses; other bytes
    are left as they are."""
    if len(blob) < 16 or struct.unpack_from("<I", blob, 4)[0] != 3:
        return
    count, table_len = struct.unpack_from("<II", blob, 8)
    end = 16 + table_len + header_padding(table_len)
    if end + 4 > len(blob):
        return
    at, offset = 16, end + 4
    for _ in range(count):
        if at + 2 > 16 + table_len:
            break
        at += 2 + struct.unpack_from("<H", blob, at)[0]
        if at + 12 > 16 + table_len:
            break
        rows, cols = struct.unpack_from("<II", blob, at)
        struct.pack_into("<I", blob, at + 8, zlib.crc32(blob[offset : offset + 8 * rows * cols]))
        at, offset = at + 12, offset + 8 * rows * cols
    struct.pack_into("<I", blob, end, zlib.crc32(blob[:end]))
