"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-D float64 array wrapped in a :class:`Var`. While a
:class:`Tape` is active (``with Tape() as tape:``) each operation appends one
record ``(output, inputs, vjp)``; the record list is a Wengert list, so
replaying it in reverse and accumulating adjoints in that fixed order yields
gradients that are bitwise reproducible for identical tapes. Outside a tape
the same functions just compute values, which is what inference uses.

Most records are one layer's worth of work: ``linear``, ``add_norm`` (residual
add + layer norm), ``feed_forward`` (linear, rectifier, linear) and
``attention`` (all heads) are one record each, with the bits of the
elementary composition they replace. A decoder step writes its keys and
values into preallocated buffers with ``write_row``, a record whose output is
the buffer itself, and ``attention`` reads a row range of such a buffer and
returns a gradient for the whole of it.

``-inf`` is the masking sentinel for attention biases. It may enter the graph
only through the bias of ``attention`` or through ``add_const`` (adding a bias
matrix to finite scores), and is consumed only by ``attention`` and
``softmax_rows``, which map it to exactly zero weight; no other operation
accepts non-finite input. The cached decoder step passes no ``-inf``: its
self-attention bias is a slice of a distance row and its cross-attention has
no bias. The full-prefix decoder block (attention export) and the tests
still pass causal and alignment biases with ``-inf`` entries.

A tape drops its records when its ``with`` block ends: every taped output
points back at its tape, so a tape that kept its records would be a
reference cycle holding the step's activations until the cyclic collector
ran. Call :func:`backward` inside the block.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DegenerateRowError, GradientError, ShapeError

Array = np.ndarray


def as_matrix(x, name: str = "value") -> Array:
    """Coerce to a 2-D C-contiguous float64 array."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
    return a


class Var:
    """A matrix value, optionally attached to the tape that produced it."""

    __slots__ = ("data", "tape")

    def __init__(self, data, tape: "Tape | None" = None):
        self.data = as_matrix(data)
        self.tape = tape

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


@contextmanager
def no_tape() -> Iterator[None]:
    """Run a block without recording (frozen submodules, detached values)."""
    saved = _TAPE_STACK[:]
    _TAPE_STACK.clear()
    try:
        yield
    finally:
        _TAPE_STACK.extend(saved)


def detach(v: Var) -> Var:
    """A leaf holding the same data; gradients stop here."""
    return Var(v.data)


def _as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _make(data: Array, inputs: tuple[Var, ...], vjp) -> Var:
    tape = _active_tape()
    out = Var(data, tape)
    if tape is not None:
        tape._records.append((out, inputs, vjp))
    return out


def backward(loss: Var, params: Mapping[str, Var]) -> dict[str, Array]:
    """Gradients of a scalar taped value for every named parameter.

    Parameters not reachable from ``loss`` get zero gradients. Two calls on
    the same tape produce bitwise-identical results.
    """
    if loss.data.shape != (1, 1):
        raise GradientError(f"loss must be a 1x1 scalar, got shape {loss.data.shape}")
    if loss.tape is None:
        raise GradientError("loss was not produced by taped operations")
    if not loss.tape._records:
        raise GradientError("the tape of loss has ended; call backward inside its block")
    grads: dict[int, Array] = {id(loss): np.ones((1, 1))}
    for out, inputs, vjp in reversed(loss.tape._records):
        g = grads.get(id(out))
        if g is None:
            continue
        for inp, contrib in zip(inputs, vjp(g)):
            if contrib is None:
                continue
            acc = grads.get(id(inp))
            # rebind instead of += so aliased contributions stay independent
            grads[id(inp)] = contrib if acc is None else acc + contrib
    return {
        name: grads.get(id(v), np.zeros_like(v.data)) for name, v in params.items()
    }


def grad(loss: Var, wrt: Var) -> Array:
    """Gradient of a scalar taped value for one variable."""
    return backward(loss, {"_": wrt})["_"]


# ---------------------------------------------------------------------------
# elementary operations


def matmul(a, b) -> Var:
    """Matrix product, recorded on the tape when one is active."""
    a, b = _as_var(a), _as_var(b)
    if a.cols != b.rows:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g: Array):
        return g @ bd.T, ad.T @ g

    return _make(ad @ bd, (a, b), vjp)


def add(a, b) -> Var:
    a, b = _as_var(a), _as_var(b)
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b) -> Var:
    a, b = _as_var(a), _as_var(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return _make(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b) -> Var:
    """Elementwise product."""
    a, b = _as_var(a), _as_var(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _make(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def add_const(a, const) -> Var:
    """Add a constant matrix; besides ``attention``'s bias, the one sanctioned
    entry point for -inf biases."""
    a = _as_var(a)
    c = np.asarray(const, dtype=np.float64)
    if a.shape != c.shape:
        raise ShapeError(f"add_const shape mismatch: {a.shape} vs {c.shape}")
    return _make(a.data + c, (a,), lambda g: (g,))


def add_row(a, row) -> Var:
    """Broadcast a 1xC row over all rows of a."""
    a, row = _as_var(a), _as_var(row)
    if row.rows != 1 or row.cols != a.cols:
        raise ShapeError(f"add_row needs 1x{a.cols} row, got {row.shape}")
    return _make(
        a.data + row.data, (a, row), lambda g: (g, g.sum(axis=0, keepdims=True))
    )


def relu(a) -> Var:
    a = _as_var(a)
    mask = a.data > 0.0
    return _make(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def sum_all(a) -> Var:
    a = _as_var(a)
    shape = a.shape
    return _make(
        np.array([[a.data.sum()]]), (a,), lambda g: (np.full(shape, g[0, 0]),)
    )


def _check_linear(x_shape: tuple[int, int], w: Var, b: Var) -> None:
    if x_shape[1] != w.rows or b.shape != (1, w.cols):
        raise ShapeError(f"linear shape mismatch: {x_shape} x {w.shape} + {b.shape}")


def linear(x, w, b) -> Var:
    """x @ w + b with b broadcast over rows, recorded as one op (the same
    bits as ``add_row(matmul(x, w), b)``)."""
    x, w, b = _as_var(x), _as_var(w), _as_var(b)
    _check_linear(x.shape, w, b)
    xd, wd = x.data, w.data
    out = xd @ wd
    out += b.data

    def vjp(g: Array):
        return g @ wd.T, xd.T @ g, g.sum(axis=0, keepdims=True)

    return _make(out, (x, w, b), vjp)


def feed_forward(x, w1, b1, w2, b2) -> Var:
    """relu(x @ w1 + b1) @ w2 + b2, recorded as one op (the same bits as the
    composition of ``linear``, ``relu`` and ``linear``)."""
    x, w1, b1, w2, b2 = (_as_var(a) for a in (x, w1, b1, w2, b2))
    _check_linear(x.shape, w1, b1)
    _check_linear((x.rows, w1.cols), w2, b2)
    xd, w1d, w2d = x.data, w1.data, w2.data
    pre = xd @ w1d
    pre += b1.data
    mask = pre > 0.0
    hidden = np.where(mask, pre, 0.0)
    out = hidden @ w2d
    out += b2.data

    def vjp(g: Array):
        gpre = (g @ w2d.T) * mask
        return (
            gpre @ w1d.T,
            xd.T @ gpre,
            gpre.sum(axis=0, keepdims=True),
            hidden.T @ g,
            g.sum(axis=0, keepdims=True),
        )

    return _make(out, (x, w1, b1, w2, b2), vjp)


def linear_blocked(x, w, b, block: int) -> Var:
    """``linear`` as products of exactly ``block`` rows, recorded as one op.

    BLAS picks its kernel, and so its summation order, by a product's shape,
    so a plain x @ w can give row i different bits for different row counts.
    Here x is zero-padded to whole blocks and every block is written into one
    output buffer, so row i of the result depends only on row i of x and the
    result for a prefix of x is a prefix of the result.
    """
    x, w, b = _as_var(x), _as_var(w), _as_var(b)
    _check_linear(x.shape, w, b)
    t, xd, wd = x.rows, x.data, w.data
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


def _require_unmasked_rows(x: Array) -> None:
    """Raise :class:`DegenerateRowError` for the first row (last axis) of x
    with no finite entry: a fully masked query."""
    finite_any = np.isfinite(x).any(axis=-1)
    if not finite_any.all():
        bad = int(np.argwhere(~finite_any)[0][-1])
        raise DegenerateRowError(f"softmax row {bad} has no finite entry")


def _softmax_last(x: Array) -> Array:
    """Softmax over the last axis, in place, stabilized by the row max;
    ``-inf`` entries become exact zeros."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def softmax_rows(a) -> Var:
    """Row-wise softmax, stabilized by finite row-max subtraction.

    ``-inf`` entries get exactly zero weight; a row with no finite entry is a
    fully masked query and raises :class:`DegenerateRowError`.
    """
    a = _as_var(a)
    _require_unmasked_rows(a.data)
    y = _softmax_last(a.data.copy())

    def vjp(g: Array):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)

    return _make(y, (a,), vjp)


def attention(q, k, v, bias, heads: int, keys: slice = slice(None)) -> tuple[Var, Array]:
    """Multi-head softmax(q k^T / sqrt(d_k) + bias) v, recorded as one op.

    The keys and values are rows ``keys`` (a step-1 slice) of k and v, s of
    them; the gradients of k and v cover all their rows, zero outside
    ``keys``. Head h reads column block h of q and k (width d_k) and of v
    (width d_v); the t x (heads * d_v) output holds the heads' results side
    by side. ``bias`` is None, a t x s array shared by every head, or a
    heads x t x s stack; its ``-inf`` entries get exactly zero weight, and a
    row with no finite entry raises :class:`DegenerateRowError`. Also
    returns the heads x t x s weights W, which the backward pass reads: do
    not modify them.

    The backward pass is the standard softmax-attention VJP: dV = W^T dO,
    dW = dO V^T, dS = W * (dW - rowsum(dW * W)), then dQ = dS K / sqrt(d_k)
    and dK = dS^T Q / sqrt(d_k).
    """
    q, k, v = _as_var(q), _as_var(k), _as_var(v)
    kd, vd = k.data[keys], v.data[keys]
    t, s = q.rows, kd.shape[0]
    if q.cols != k.cols or k.rows != v.rows or s == 0:
        raise ShapeError(
            f"attention shape mismatch: q {q.shape}, k {k.shape}, v {v.shape}, "
            f"keys {keys}"
        )
    if heads < 1 or q.cols % heads or v.cols % heads:
        raise ShapeError(f"widths {q.cols}/{v.cols} not divisible by {heads} heads")

    def split(x: Array) -> Array:  # rows x (heads * d) -> heads x rows x d
        return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)

    def merge(x: Array) -> Array:  # heads x rows x d -> rows x (heads * d)
        return x.transpose(1, 0, 2).reshape(x.shape[1], -1)

    def widen(g: Array, rows: int) -> Array:  # gradient of a keys slice
        if g.shape[0] == rows:
            return g
        full = np.zeros((rows, g.shape[1]))
        full[keys] = g
        return full

    qh, kh, vh = split(q.data), split(kd), split(vd)
    c = 1.0 / math.sqrt(qh.shape[2])
    w = qh @ kh.transpose(0, 2, 1)
    w *= c
    if bias is not None:
        if bias.shape not in ((t, s), (heads, t, s)):
            raise ShapeError(f"bias shape {bias.shape} does not match scores {(t, s)}")
        _require_unmasked_rows(bias)
        w += bias
    _softmax_last(w)

    def vjp(g: Array):
        gh = split(g)
        ds = gh @ vh.transpose(0, 2, 1)
        ds -= (ds * w).sum(axis=2, keepdims=True)
        ds *= w
        ds *= c
        return (
            merge(ds @ kh),
            widen(merge(ds.transpose(0, 2, 1) @ qh), k.rows),
            widen(merge(w.transpose(0, 2, 1) @ gh), v.rows),
        )

    return _make(merge(w @ vh), (q, k, v), vjp), w


def write_row(buf: Var, i: int, row) -> None:
    """Set row i of ``buf`` to the 1-row ``row`` in place.

    ``buf`` is a buffer filled one row per step, each row written once:
    the record's output is ``buf`` itself, and its VJP hands ``row`` row i of
    the gradient accumulated on ``buf``. Every reader of row i is recorded
    after this write, so the reverse pass has added all of their
    contributions by the time it reaches the write.
    """
    row = _as_var(row)
    if row.shape != (1, buf.cols) or not 0 <= i < buf.rows:
        raise ShapeError(f"cannot write a {row.shape} row at row {i} of {buf.shape}")
    buf.data[i] = row.data[0]
    tape = _active_tape()
    if tape is not None:
        tape._records.append((buf, (row,), lambda g: (g[i : i + 1],)))


def _row_mean(x: Array) -> Array:
    """``x.mean(axis=1, keepdims=True)``, bit for bit, without its Python
    wrapper: a sum, then a division by the row length."""
    m = np.add.reduce(x, axis=1, keepdims=True)
    m /= x.shape[1]
    return m


def _normalize(x: Array, inputs: tuple[Var, ...], gain, offset, eps: float) -> Var:
    """layer_norm of the data x, which is the sum of ``inputs``: each input
    gets the same gradient."""
    gain, offset = _as_var(gain), _as_var(offset)
    n = x.shape[1]
    if gain.shape != (1, n) or offset.shape != (1, n):
        raise ShapeError(
            f"layer_norm gain/offset must be 1x{n}, got {gain.shape}/{offset.shape}"
        )
    xc = x - _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(np.square(xc)) + eps)
    xhat = xc * inv
    gd = gain.data

    def vjp(g: Array):
        gy = g * gd
        term = gy - _row_mean(gy)
        term -= xhat * _row_mean(gy * xhat)
        term *= inv
        return (term,) * len(inputs) + (
            (g * xhat).sum(axis=0, keepdims=True),
            g.sum(axis=0, keepdims=True),
        )

    return _make(xhat * gd + offset.data, inputs + (gain, offset), vjp)


def layer_norm(a, gain, offset, eps: float = 1e-5) -> Var:
    """Normalize each row to zero mean / unit variance, then scale and shift."""
    a = _as_var(a)
    return _normalize(a.data, (a,), gain, offset, eps)


def add_norm(a, b, gain, offset, eps: float = 1e-5) -> Var:
    """``layer_norm(add(a, b), gain, offset)`` recorded as one op, with the
    same bits."""
    a, b = _as_var(a), _as_var(b)
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _normalize(a.data + b.data, (a, b), gain, offset, eps)


def gather_patches(x, width: int, stride: int) -> Var:
    """Unfold a time x channels matrix into rows of flattened windows.

    Output row u is ``x[u*stride : u*stride+width]`` flattened time-major,
    i.e. column ``o*C + c`` holds channel ``c`` at window offset ``o``.
    """
    x = _as_var(x)
    t, c = x.shape
    if width < 1 or stride < 1:
        raise ShapeError(f"width/stride must be >= 1, got {width}/{stride}")
    if t < width:
        raise ShapeError(f"input length {t} shorter than kernel width {width}")
    t_out = (t - width) // stride + 1
    idx = np.arange(t_out)[:, None] * stride + np.arange(width)[None, :]
    out = x.data[idx].reshape(t_out, width * c)
    shape = x.shape

    def vjp(g: Array):
        gx = np.zeros(shape)
        np.add.at(gx, idx, g.reshape(t_out, width, c))
        return (gx,)

    return _make(out, (x,), vjp)


def conv1d_strided(x, kernels, stride: int, bias=None) -> Var:
    """Valid strided 1-D convolution over the time axis, then a rectifier.

    ``kernels`` is a (width*in_channels) x out_channels matrix laid out to
    match :func:`gather_patches`; output length is (time-width)//stride + 1.
    """
    x, kernels = _as_var(x), _as_var(kernels)
    c_in = x.cols
    if kernels.rows % c_in != 0:
        raise ShapeError(
            f"kernel rows {kernels.rows} not a multiple of input channels {c_in}"
        )
    width = kernels.rows // c_in
    pre = matmul(gather_patches(x, width, stride), kernels)
    if bias is not None:
        pre = add_row(pre, bias)
    return relu(pre)


def resample_rows(x, target_len: int) -> Var:
    """Linear-interpolation resampling along the row (time) axis.

    Row u of the output samples source coordinate u*(T-1)/(target_len-1), so
    endpoints are preserved exactly. Degenerate cases (one source row or one
    target row) repeat / take the first row, with interpolation weight zero on
    the clamped neighbour.
    """
    x = _as_var(x)
    t = x.rows
    if target_len < 1:
        raise ShapeError(f"target_len must be >= 1, got {target_len}")
    pos = np.arange(target_len) * ((t - 1) / max(target_len - 1, 1))
    lo = np.minimum(pos.astype(np.intp), max(t - 2, 0))
    hi = np.minimum(lo + 1, t - 1)
    frac = (pos - lo)[:, None]
    out = x.data[lo] * (1.0 - frac) + x.data[hi] * frac
    shape = x.shape

    def vjp(g: Array):
        gx = np.zeros(shape)
        np.add.at(gx, lo, g * (1.0 - frac))
        np.add.at(gx, hi, g * frac)
        return (gx,)

    return _make(out, (x,), vjp)


def slice_rows(x, start: int, stop: int) -> Var:
    x = _as_var(x)
    if not (0 <= start < stop <= x.rows):
        raise ShapeError(f"row slice [{start}:{stop}] out of range for {x.shape}")
    shape = x.shape

    def vjp(g: Array):
        gx = np.zeros(shape)
        gx[start:stop] = g
        return (gx,)

    return _make(x.data[start:stop].copy(), (x,), vjp)


def take_row(x, i: int) -> Var:
    return slice_rows(x, i, i + 1)


def concat_rows(parts: Sequence) -> Var:
    parts = [_as_var(p) for p in parts]
    if not parts:
        raise ShapeError("concat_rows needs at least one part")
    cols = parts[0].cols
    if any(p.cols != cols for p in parts):
        raise ShapeError("concat_rows parts disagree on column count")
    splits = np.cumsum([p.rows for p in parts])[:-1]

    def vjp(g: Array):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits))

    return _make(np.concatenate([p.data for p in parts]), tuple(parts), vjp)
