"""Reference implementations the tests compare the package against.

They are written for clarity, not speed: the attention oracle uses scalar
loops so it cannot share bugs with the vectorized production path, and the
bias builders construct whole t x t matrices that the decoder never needs.
"""

import math

import numpy as np

from speechmotion import DegenerateRowError, ShapeError, Var
from speechmotion.positional import NEG_INF, BiasMatrix, ppe_row


def positional_table(cfg, max_steps: int) -> np.ndarray:
    """Rows 0..max_steps-1 of the decoder positional encoding."""
    return np.concatenate([ppe_row(t, cfg) for t in range(max_steps)])


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
