"""Biased scaled dot-product attention, multi-head wrapper, the residual and
feed-forward sublayers shared by encoder and decoder layers, and a naive
reference oracle used for equivalence testing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import DegenerateRowError, ShapeError
from .params import Params
from .positional import BiasMatrix


@dataclass
class AttentionProjections:
    """Query/key/value input projections and the output projection."""

    wq: Var
    wk: Var
    wv: Var
    wo: Var

    @classmethod
    def from_params(cls, params: Params, prefix: str) -> "AttentionProjections":
        """The ``{prefix}.wq/wk/wv/wo`` parameters."""
        return cls(*(params[f"{prefix}.{w}"] for w in ("wq", "wk", "wv", "wo")))


@dataclass
class AttentionRecord:
    """Per-head attention weights captured during one forward pass."""

    module: str
    layer: int
    step: int
    head_weights: list[np.ndarray] = field(default_factory=list)

    def head_mean(self) -> np.ndarray:
        return np.mean(self.head_weights, axis=0)


def biased_attention(q, k, v, bias: BiasMatrix | None) -> tuple[Var, Var]:
    """softmax(q k^T / sqrt(d_k) + bias) v; returns (output, weights), the
    weights untaped."""
    out, weights = ad.attention(q, k, v, None if bias is None else bias.data, 1)
    return out, Var(weights[0].copy())


def mh_attention(
    x_q,
    x_kv,
    proj: AttentionProjections,
    heads: int,
    base_bias: BiasMatrix | None,
    slopes: list[float] | None = None,
    capture: bool = False,
) -> tuple[Var, AttentionRecord | None]:
    """Multi-head biased attention.

    Temporal biases require per-head slopes (head h sees base_bias * slope_h);
    alignment biases are shared unscaled across heads, since scaling a
    {0, -inf} matrix changes nothing.
    """
    temporal = base_bias is not None and base_bias.kind == "temporal"
    if temporal and slopes is None:
        raise ShapeError("temporal bias needs per-head slopes")
    if not temporal and slopes is not None:
        raise ShapeError("slopes are only meaningful for temporal biases")
    if temporal and len(slopes) != heads:
        raise ShapeError(f"got {len(slopes)} slopes for {heads} heads")
    bias = base_bias.scaled(slopes) if temporal else base_bias
    out, weights = ad.attention(
        ad.matmul(x_q, proj.wq), ad.matmul(x_kv, proj.wk), ad.matmul(x_kv, proj.wv),
        None if bias is None else bias.data, heads,
    )
    record = None
    if capture:
        record = AttentionRecord("", 0, 0, list(weights.copy()))
    return ad.matmul(out, proj.wo), record


def add_norm(x, sublayer_out, params: Params, prefix: str) -> Var:
    """Residual connection, then layer norm with ``{prefix}.gain/offset``."""
    return ad.layer_norm(
        ad.add(x, sublayer_out), params[f"{prefix}.gain"], params[f"{prefix}.offset"]
    )


def feed_forward(x, params: Params, prefix: str) -> Var:
    """Rectifier feed-forward with ``{prefix}.w1/b1/w2/b2``."""
    hidden = ad.relu(ad.linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return ad.linear(hidden, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


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
