"""Biased scaled dot-product attention, multi-head wrapper, and the residual
and feed-forward sublayers shared by encoder and decoder layers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Var
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

    def keys_values(self, x) -> "KeyValues":
        """Keys and values of all rows of x."""
        k = ad.matmul(x, self.wk)
        return KeyValues(k, ad.matmul(x, self.wv), 0, k.rows)


@dataclass
class KeyValues:
    """Projected keys and values; attention reads rows [start, stop)."""

    k: Var
    v: Var
    start: int
    stop: int

    @property
    def rows(self) -> int:
        return self.stop - self.start


@dataclass
class AttentionRecord:
    """Per-head attention weights captured during one forward pass."""

    module: str
    layer: int
    step: int
    head_weights: list[np.ndarray] = field(default_factory=list)

    def head_mean(self) -> np.ndarray:
        return np.mean(self.head_weights, axis=0)


def mh_attention(
    x_q,
    x_kv,
    proj: AttentionProjections,
    heads: int,
    bias: BiasMatrix | None,
    capture: bool = False,
) -> tuple[Var, AttentionRecord | None]:
    """Multi-head biased attention from the rows of x_q to ``x_kv``: rows that
    ``proj`` projects, or :class:`KeyValues` projected before. The query and
    output projections are part of the one :func:`autodiff.attention` record.

    ``bias`` is None, a t x s matrix shared by every head (such as an
    alignment bias), or a heads x t x s stack already scaled per head (a
    temporal bias at the heads' slopes, see :meth:`BiasMatrix.scaled`).
    """
    kv = x_kv if isinstance(x_kv, KeyValues) else proj.keys_values(x_kv)
    out, weights = ad.attention(
        x_q, proj.wq, kv.k, kv.v, proj.wo, None if bias is None else bias.data, heads,
        slice(kv.start, kv.stop),
    )
    record = None
    if capture:
        record = AttentionRecord("", 0, 0, list(weights.copy()))
    return out, record


def add_norm(x, sublayer_out, params: Params, prefix: str) -> Var:
    """Residual connection, then layer norm with ``{prefix}.gain/offset``."""
    return ad.add_norm(
        x, sublayer_out, params[f"{prefix}.gain"], params[f"{prefix}.offset"]
    )


def feed_forward(x, params: Params, prefix: str) -> Var:
    """Rectifier feed-forward with ``{prefix}.w1/b1/w2/b2``."""
    return ad.feed_forward(
        x, *(params[f"{prefix}.{w}"] for w in ("w1", "b1", "w2", "b2"))
    )
