"""Multi-head biased attention over projected keys and values, and the
attention weights that ``export-attn`` writes out."""

from __future__ import annotations

from dataclasses import dataclass

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
    """The heads x t x s attention weights of one module and layer, as of
    one decoding step."""

    module: str
    layer: int
    step: int
    weights: np.ndarray


def mh_attention(
    x_q: Var, kv: KeyValues, proj: AttentionProjections, heads: int, bias: BiasMatrix | None
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The forward pass of one multi-head biased attention, from the rows
    of x_q to the keys and values ``kv`` (see
    :meth:`AttentionProjections.keys_values`), with the query and output
    projections: :func:`autodiff.attention_fwd`, unrecorded and unchecked.
    A decoder block calls it for each of its attentions and records their
    :func:`autodiff.attention_vjp` in its own record. Returns the output
    rows, the heads x t x s weights and what the VJP reads; do not modify
    the weights, which it reads too.

    ``bias`` is None, a t x s matrix shared by every head (such as an
    alignment bias), or a heads x t x s stack already scaled per head (a
    temporal bias at the heads' slopes, see :meth:`BiasMatrix.scaled`).
    """
    return ad.attention_fwd(
        x_q.data, proj.wq.data, kv.k.data, kv.v.data, proj.wo.data,
        None if bias is None else bias.data, heads, slice(kv.start, kv.stop),
    )
