"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-D float64 array wrapped in a :class:`Var`. While a
:class:`Tape` is active (``with Tape() as tape:``) each operation appends one
record ``(output, inputs, vjp)``; the record list is a Wengert list, so
replaying it in reverse and accumulating adjoints in that fixed order yields
gradients that are bitwise reproducible for identical tapes. Outside a tape
the same functions just compute values, which is what inference uses.

Every VJP has one form: for each input, None or an array of exactly that
input's shape. :func:`backward` keeps an input's first array and adds each
later one into a new array; the only array it writes in place is the flat
vector of parameter gradients.

Most records are one layer's worth of work, with the bits of the elementary
composition they replace: ``linear``, ``conv1d_strided`` (patch gather,
linear, rectifier) and ``squared_error`` (subtraction, product and sum: the
training loss) are one record each. The other records are ``matmul``,
``linear_blocked``, ``add_row``, ``add_const`` and ``take_row``. There is
no stand-alone add, subtraction, product, sum, rectifier, layer norm, patch
gather or row concatenation: the model needs none, and the tests keep them
as references for the fused records.

The transformer's three sub-layers are forward/VJP pairs on arrays:
``attention_fwd``/``attention_vjp`` (query projection, all heads and output
projection), ``add_norm_fwd``/``add_norm_vjp`` (residual add + layer norm)
and ``feed_forward_fwd``/``feed_forward_vjp`` (linear, rectifier, linear).
Each forward pass returns its output and what its VJP reads, and records
nothing; ``attention_fwd`` also returns its heads' weights, which attention
export copies out, and ``attention_heads_fwd`` is the same pass on keys and
values already split into heads (:func:`head_views`). Shapes are checked
once per pass over the model, not here (see ``params.check_shapes``). The
encoder records each pair as one record with :func:`fused`. A whole decoder
rollout is one record (see ``decoder.rollout``): its T steps run the six
pairs of each layer's block on arrays, and its VJP walks the steps and
layers in reverse, replaying the pairs' VJPs and adding each gradient
contribution in the order :func:`backward` would. ``attention_vjp`` gives
the keys and values the gradients of the rows they read; the rollout adds a
step's into its row range of zero-started buffers.

The records' 2-D products call ``np.dot``, not ``@``: both reach the same
BLAS routine and give the same bits, but ``@`` first dispatches through the
``matmul`` generalized ufunc, which costs more than the arithmetic on a
decoder step's one-row products and takes a slow path for the rank-1 weight
gradients ``x.T @ g`` that every step adds. For a one-row gradient the
column sums of the VJPs are ``g + 0``, the bits of a reduce (which adds the
row to +0), without its call overhead.

``-inf`` is the masking sentinel for attention biases. It may enter only
through the bias of ``attention_fwd``, which maps it to exactly zero
weight; no other operation accepts non-finite input. The package itself
passes no ``-inf``: the encoder's attention and a decoder step's
cross-attention have no bias, and a step's self-attention bias is a slice
of a distance row. Only the tests pass causal and alignment biases with
``-inf`` entries.

A tape drops its records when its ``with`` block ends: every taped output
points back at its tape, so a tape that kept its records would be a
reference cycle holding the step's activations until the cyclic collector
ran. Call :func:`backward` inside the block.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import DegenerateRowError, GradientError, ShapeError

Array = np.ndarray
LAYER_NORM_EPS = 1e-5  # the variance floor of add_norm's layer norm


def as_matrix(x, name: str = "value") -> Array:
    """Coerce to a 2-D C-contiguous float64 array."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
    return a


class Var:
    """A matrix value, optionally attached to the tape that produced it."""

    __slots__ = ("data", "tape")

    def __init__(self, data):
        self.data = as_matrix(data)
        self.tape = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 value, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Var(shape={self.data.shape}, taped={self.tape is not None})"


_Record = tuple[Var, tuple[Var, ...], Callable[[Array], tuple[Array | None, ...]]]

_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of executed differentiable operations; the records are
    dropped when the ``with`` block ends."""

    __slots__ = ("_records",)

    def __init__(self):
        self._records: list[_Record] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def recording() -> bool:
    """Whether a tape is active, so that operations are being recorded."""
    return bool(_TAPE_STACK)


@contextmanager
def no_tape() -> Iterator[None]:
    """Run a block without recording: its outputs are leaves, so no
    gradient reaches what it read (the frozen extractor)."""
    saved = _TAPE_STACK[:]
    _TAPE_STACK.clear()
    try:
        yield
    finally:
        _TAPE_STACK.extend(saved)


def _as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def record(out: Var, inputs: tuple[Var, ...], vjp) -> Var:
    """Append the record ``(out, inputs, vjp)`` to the active tape, if any,
    and return ``out``. ``vjp(g)`` maps the gradient of ``out`` to one entry
    per input: None or an array of that input's shape."""
    tape = _active_tape()
    if tape is not None:
        out.tape = tape
        tape._records.append((out, inputs, vjp))
    return out


def leaf(data: Array) -> Var:
    """An untaped Var of ``data``, which must already be a C-contiguous 2-D
    float64 array: ``Var(data)`` without its check."""
    out = Var.__new__(Var)
    out.data, out.tape = data, None
    return out


def _make(data: Array, inputs: tuple[Var, ...], vjp) -> Var:
    """Wrap an operation's result, which is already a C-contiguous 2-D
    float64 array, and record it on the active tape."""
    return record(leaf(data), inputs, vjp)


def fused(fwd, vjp, inputs: tuple[Var, ...], *static) -> tuple:
    """One record for a forward/VJP pair, such as ``add_norm_fwd`` and
    ``add_norm_vjp``: ``fwd`` runs on the arrays of ``inputs`` and then
    ``static``, unchecked, and ``vjp`` gets what it saved. Returns the output
    as a Var, then ``fwd``'s other results (attention's weights)."""
    out, *rest, saved = fwd(*(v.data for v in inputs), *static)
    return _make(out, inputs, partial(vjp, saved)), *rest


class Gradients(dict):
    """Named gradients that are consecutive views, in the order of the
    bundle they were taken for, of one flat float64 vector ``flat``: a check
    or an update of every gradient is one numpy call on it."""

    __slots__ = ("flat",)

    @classmethod
    def views(cls, flat: Array, shapes: Mapping[str, tuple[int, int]]) -> "Gradients":
        """Views of ``flat`` with the names and shapes of ``shapes``, in its
        order."""
        out = cls()
        out.flat = flat
        at = 0
        for name, (rows, cols) in shapes.items():
            out[name] = flat[at : at + rows * cols].reshape(rows, cols)
            at += rows * cols
        return out


def backward(loss: Var, params: Mapping[str, Var]) -> Gradients:
    """Gradients of a scalar taped value for every named parameter.

    Parameters not reachable from ``loss`` get zero gradients. Two calls on
    the same tape produce bitwise-identical results.

    A VJP gives each input None (no gradient) or an array of exactly that
    input's shape. The pass keeps an input's first array as it is and adds
    each later one with ``acc + contrib``, into a new array, so it never
    writes an array that a record returned or holds. The one exception is a
    parameter: its first array is copied into its view of the result and
    later ones are added to the view in place, with the same bits. A record
    reads the view only once every contribution is in, so that is safe
    unless two records output the parameter (the model's are leaves).
    """
    if loss.data.shape != (1, 1):
        raise GradientError(f"loss must be a 1x1 scalar, got shape {loss.data.shape}")
    if loss.tape is None:
        raise GradientError("loss was not produced by taped operations")
    if not loss.tape._records:
        raise GradientError("the tape of loss has ended; call backward inside its block")
    shapes = {name: v.shape for name, v in params.items()}
    result = Gradients.views(np.zeros(sum(r * c for r, c in shapes.values())), shapes)
    views: dict[int, Array] = {}
    for name, v in params.items():
        views.setdefault(id(v), result[name])
    grads: dict[int, Array] = {id(loss): np.ones((1, 1))}
    for out, inputs, vjp in reversed(loss.tape._records):
        g = grads.get(id(out))
        if g is None:
            continue
        for inp, contrib in zip(inputs, vjp(g)):
            if contrib is None:
                continue
            key = id(inp)
            acc, view = grads.get(key), views.get(key)
            if acc is None:
                if view is not None:
                    np.copyto(view, contrib)
                    contrib = view
                grads[key] = contrib
            elif view is not None:
                view += contrib
            else:
                grads[key] = acc + contrib
    for name, v in params.items():
        g = grads.get(id(v))
        if g is not None and g is not result[name]:
            np.copyto(result[name], g)
    return result


# ---------------------------------------------------------------------------
# elementary operations


def matmul(a, b) -> Var:
    """Matrix product, recorded on the tape when one is active."""
    a, b = _as_var(a), _as_var(b)
    if a.cols != b.rows:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g: Array):
        return np.dot(g, bd.T), np.dot(ad.T, g)

    return _make(np.dot(ad, bd), (a, b), vjp)


def add_const(a, const) -> Var:
    """Add a constant matrix, such as positional rows."""
    a = _as_var(a)
    c = np.asarray(const, dtype=np.float64)
    if a.shape != c.shape:
        raise ShapeError(f"add_const shape mismatch: {a.shape} vs {c.shape}")
    return _make(a.data + c, (a,), lambda g: (g,))


def add_row(a, row, start: int = 0) -> Var:
    """Broadcast a 1xC row over rows [start, ...) of a."""
    a, row = _as_var(a), _as_var(row)
    if row.rows != 1 or row.cols != a.cols:
        raise ShapeError(f"add_row needs 1x{a.cols} row, got {row.shape}")
    out = np.empty_like(a.data)
    out[:start] = a.data[:start]
    np.add(a.data[start:], row.data, out=out[start:])
    return _make(out, (a, row), lambda g: (g, g[start:].sum(axis=0, keepdims=True)))


def _check_linear(x_shape: tuple[int, int], w: Array, b: Array) -> None:
    if x_shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeError(f"linear shape mismatch: {x_shape} x {w.shape} + {b.shape}")


def linear(x, w, b) -> Var:
    """x @ w + b with b broadcast over rows, recorded as one op (the same
    bits as ``add_row(matmul(x, w), b)``)."""
    x, w, b = _as_var(x), _as_var(w), _as_var(b)
    xd, wd = x.data, w.data
    _check_linear(xd.shape, wd, b.data)
    out = np.dot(xd, wd)
    out += b.data

    def vjp(g: Array):
        return np.dot(g, wd.T), np.dot(xd.T, g), g.sum(axis=0, keepdims=True)

    return _make(out, (x, w, b), vjp)


def _col_sum(g: Array) -> Array:
    """``g.sum(axis=0, keepdims=True)``, bit for bit: for one row, ``g + 0``,
    since a reduce adds the row to +0 (so -0 comes out +0)."""
    return np.add(g, 0.0) if g.shape[0] == 1 else g.sum(axis=0, keepdims=True)


def feed_forward_fwd(
    xd: Array, w1d: Array, b1d: Array, w2d: Array, b2d: Array
) -> tuple[Array, tuple]:
    """max(x @ w1 + b1, 0) @ w2 + b2 on arrays of checked shapes, unrecorded,
    with the bits of ``linear``, a rectifier and ``linear``: its output and
    what :func:`feed_forward_vjp` reads."""
    pre = np.dot(xd, w1d)
    pre += b1d
    mask = pre > 0.0
    hidden = np.where(mask, pre, 0.0)
    out = np.dot(hidden, w2d)
    out += b2d
    return out, (xd, w1d, w2d, mask, hidden)


def feed_forward_vjp(saved: tuple, g: Array) -> tuple[Array, ...]:
    """The gradients of the inputs of :func:`feed_forward_fwd` (x, w1, b1,
    w2, b2), from what it saved and the output's gradient g."""
    xd, w1d, w2d, mask, hidden = saved
    gpre = np.dot(g, w2d.T) * mask
    return np.dot(gpre, w1d.T), np.dot(xd.T, gpre), _col_sum(gpre), np.dot(hidden.T, g), _col_sum(g)


def linear_blocked(x, w, b, block: int) -> Var:
    """``linear`` as products of exactly ``block`` rows, recorded as one op.

    BLAS picks its kernel, and so its summation order, by a product's shape,
    so a plain x @ w can give row i different bits for different row counts.
    Here x is zero-padded to whole blocks and every block is written into one
    output buffer, so row i of the result depends only on row i of x and the
    result for a prefix of x is a prefix of the result.
    """
    x, w, b = _as_var(x), _as_var(w), _as_var(b)
    t, xd, wd = x.rows, x.data, w.data
    _check_linear(xd.shape, wd, b.data)
    padded = np.zeros((-(-t // block) * block, x.cols))
    padded[:t] = xd
    out = np.empty((padded.shape[0], w.cols))
    for i in range(0, t, block):
        np.matmul(padded[i : i + block], wd, out=out[i : i + block])
    out = out[:t]
    out += b.data

    def vjp(g: Array):
        return g @ wd.T, xd.T @ g, g.sum(axis=0, keepdims=True)

    return _make(out, (x, w, b), vjp)


def _softmax_last(x: Array) -> Array:
    """Softmax over the last axis, in place, stabilized by the row max;
    ``-inf`` entries become exact zeros. A row (second-to-last axis) with no
    finite entry is a fully masked query: :class:`DegenerateRowError`."""
    top = np.maximum.reduce(x, axis=-1, keepdims=True)
    if -math.inf in top.ravel().tolist():  # for a few rows, cheaper than a min
        bad = int(np.argwhere(np.isneginf(top))[0][-2])
        raise DegenerateRowError(f"softmax row {bad} has no finite entry")
    x -= top
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True)
    return x


def _split(a: Array, heads: int) -> Array:
    """rows x (heads * d) -> heads x rows x d"""
    return a.reshape(a.shape[0], heads, -1).transpose(1, 0, 2)


def _merge(a: Array) -> Array:
    """heads x rows x d -> rows x (heads * d)"""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def head_views(kd: Array, vd: Array, heads: int) -> tuple[Array, Array]:
    """Views of keys k and values v (n rows each) split into heads: heads x
    d_k x n keys (k transposed) and heads x n x d_v values. Head h holds
    column block h. Rows [a, b) of either are the views of rows [a, b) of k
    and v, with the same data pointer and strides."""
    return kd.reshape(kd.shape[0], heads, -1).transpose(1, 2, 0), _split(vd, heads)


def attention_fwd(
    xd: Array, wqd: Array, kd: Array, vd: Array, wod: Array, bias, heads: int, keys: slice
) -> tuple[Array, Array, tuple]:
    """Multi-head attention from the rows of x on arrays of checked shapes,
    unrecorded: the query projection q = x wq, softmax(q k^T / sqrt(d_k) +
    bias) v per head, and the output projection wo of the heads' results
    side by side. Its bits are those of ``matmul(x, wq)``, this attention
    with identity projections, and ``matmul(., wo)``.

    The keys and values are rows ``keys`` (a step-1 slice) of k and v, s of
    them. Head h reads column block h of q and k (width d_k) and of v
    (width d_v). ``bias`` is None, a t x s array shared by every head, or a
    heads x t x s stack; its ``-inf`` entries get exactly zero weight, and a
    row with no finite entry raises :class:`DegenerateRowError`. Returns the
    output, the heads x t x s weights W and what :func:`attention_vjp`
    reads; do not modify W, which the VJP reads too."""
    return attention_heads_fwd(xd, wqd, *head_views(kd, vd, heads), wod, bias, keys)


def attention_heads_fwd(
    xd: Array, wqd: Array, kt: Array, vh: Array, wod: Array, bias, keys: slice
) -> tuple[Array, Array, tuple]:
    """:func:`attention_fwd` on the :func:`head_views` of k and v, which a
    caller that attends to rows of the same keys many times builds once."""
    kt, vh = kt[:, :, keys], vh[:, keys]
    heads, d_k, s = kt.shape
    qh = _split(np.dot(xd, wqd), heads)
    c = 1.0 / math.sqrt(d_k)
    w = qh @ kt
    w *= c
    if bias is not None:
        w += bias
    _softmax_last(w)
    heads_out = _merge(w @ vh)
    return np.dot(heads_out, wod), w, (xd, wqd, qh, kt, vh, wod, c, w, heads_out)


def attention_vjp(saved: tuple, g: Array) -> tuple[Array, ...]:
    """The gradients of the inputs of :func:`attention_fwd` (x, wq, k, v,
    wo), from what it saved and the output's gradient g. k and v get the
    gradients of the s rows read (``keys``), s x d_k and s x d_v: all of k
    and v only if the keys are all their rows. A caller that reads a row
    range of longer arrays, as a decoder step does, adds them into it.

    This is the standard softmax-attention VJP between the projections'
    own: with the heads' output O and dO = g wo^T, dV = W^T dO,
    dW = dO V^T, dS = W * (dW - rowsum(dW * W)), dQ = dS K / sqrt(d_k) and
    dK = dS^T Q / sqrt(d_k); then dx = dQ wq^T, dwq = x^T dQ and
    dwo = O^T g."""
    xd, wqd, qh, kt, vh, wod, c, w, heads_out = saved
    gh = _split(np.dot(g, wod.T), w.shape[0])
    ds = gh @ vh.transpose(0, 2, 1)
    ds -= (ds * w).sum(axis=2, keepdims=True)
    ds *= w
    ds *= c
    dq = _merge(ds @ kt.transpose(0, 2, 1))
    dk = _merge(ds.transpose(0, 2, 1) @ qh)
    dv = _merge(w.transpose(0, 2, 1) @ gh)
    return np.dot(dq, wqd.T), np.dot(xd.T, dq), dk, dv, np.dot(heads_out.T, g)


def _row_mean(x: Array) -> Array:
    """``x.mean(axis=1, keepdims=True)``, bit for bit, without its Python
    wrapper: a sum, then a division by the row length."""
    m = np.add.reduce(x, axis=1, keepdims=True)
    m /= x.shape[1]
    return m


def _one_row_mean(x: Array) -> float:
    """:func:`_row_mean` of a one-row x, bit for bit, as a Python float."""
    return float(np.add.reduce(x, axis=None)) / x.shape[1]


def add_norm_fwd(a: Array, b: Array, gd: Array, od: Array) -> tuple[Array, tuple]:
    """Layer norm of a + b, unrecorded: each row normalized to zero mean and
    unit variance, then scaled by the 1 x n gain ``gd`` and shifted by the
    offset ``od``, with the bits of the residual add followed by the layer
    norm. Returns the output and what :func:`add_norm_vjp` reads."""
    x = a + b
    one_row = x.shape[0] == 1  # the same bits, with Python float statistics
    mean = _one_row_mean if one_row else _row_mean
    xc = x - mean(x)
    var = mean(np.square(xc)) + LAYER_NORM_EPS
    inv = 1.0 / (math.sqrt(var) if one_row else np.sqrt(var))
    xhat = xc * inv
    out = xhat * gd
    out += od
    return out, (gd, xhat, inv)


def add_norm_vjp(saved: tuple, g: Array) -> tuple[Array, Array, Array, Array]:
    """The gradients of the inputs of :func:`add_norm_fwd` (a, b, the gain
    and the offset), from what it saved and the output's gradient g: a and b
    get the same array."""
    gd, xhat, inv = saved
    mean = _one_row_mean if g.shape[0] == 1 else _row_mean
    gy = g * gd
    term = gy - mean(gy)
    term -= xhat * mean(gy * xhat)
    term *= inv
    return term, term, _col_sum(g * xhat), _col_sum(g)


def conv1d_strided(x, kernels, stride: int, bias) -> Var:
    """Valid strided 1-D convolution over the time axis, then a rectifier,
    recorded as one op (the same bits as a patch gather, ``linear`` and a
    rectifier).

    Patch row u is ``x[u*stride : u*stride+width]`` flattened time-major, so
    ``kernels`` is a (width*in_channels) x out_channels matrix whose row
    ``o*C + c`` weighs channel ``c`` at window offset ``o``; output length is
    (time-width)//stride + 1.
    """
    x, kernels, bias = _as_var(x), _as_var(kernels), _as_var(bias)
    (t, c), kd = x.shape, kernels.data
    if kernels.rows % c != 0:
        raise ShapeError(
            f"kernel rows {kernels.rows} not a multiple of input channels {c}"
        )
    width = kernels.rows // c
    if width < 1 or stride < 1:
        raise ShapeError(f"width/stride must be >= 1, got {width}/{stride}")
    if t < width:
        raise ShapeError(f"input length {t} shorter than kernel width {width}")
    t_out = (t - width) // stride + 1
    idx = np.arange(t_out)[:, None] * stride + np.arange(width)[None, :]
    patches = x.data[idx].reshape(t_out, width * c)
    _check_linear(patches.shape, kd, bias.data)
    pre = patches @ kd
    pre += bias.data
    mask = pre > 0.0

    def vjp(g: Array):
        g = g * mask
        gx = np.zeros((t, c))
        np.add.at(gx, idx, (g @ kd.T).reshape(t_out, width, c))
        return gx, patches.T @ g, g.sum(axis=0, keepdims=True)

    return _make(np.where(mask, pre, 0.0), (x, kernels, bias), vjp)


def squared_error(pred, truth) -> Var:
    """The 1x1 sum of squared differences of pred and truth, recorded as one
    op (the same bits as a subtraction, a product and a sum). Only ``pred``
    gets a gradient: the truth is data."""
    pred, truth = _as_var(pred), _as_var(truth)
    if pred.shape != truth.shape:
        raise ShapeError(f"prediction {pred.shape} vs truth {truth.shape}")
    d = pred.data - truth.data

    def vjp(g: Array):
        gd = g[0, 0] * d
        return gd + gd, None

    return _make(np.array([[(d * d).sum()]]), (pred, truth), vjp)


def take_row(x, i: int) -> Var:
    """Row i of x, as a 1 x C copy. Its VJP scatters the row's gradient
    into zeros of x's shape."""
    x = _as_var(x)
    if not 0 <= i < x.rows:
        raise ShapeError(f"row {i} out of range for {x.shape}")

    def vjp(g: Array):
        gx = np.zeros(x.data.shape)
        gx[i] = g[0]
        return (gx,)

    return _make(x.data[i : i + 1].copy(), (x,), vjp)
