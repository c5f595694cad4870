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

    def keys_values(self, x) -> tuple[Var, Var]:
        """The keys x wk and values x wv of all rows of x, recorded."""
        return ad.matmul(x, self.wk), ad.matmul(x, self.wv)


@dataclass
class KeyValues:
    """Projected keys and values as their heads' views, heads x d_k x n and
    heads x n x d_v (see :func:`autodiff.head_views`); attention reads all n
    rows."""

    kt: np.ndarray
    vh: np.ndarray

    @classmethod
    def of(cls, k: np.ndarray, v: np.ndarray, heads: int) -> "KeyValues":
        """All rows of the n x d keys k and values v, as views."""
        return cls(*ad.head_views(k, v, heads))

    def window(self, start: int, stop: int) -> "KeyValues":
        """Rows [start, stop), as views of the same buffers."""
        return KeyValues(self.kt[:, :, start:stop], self.vh[:, start:stop])

    @property
    def rows(self) -> int:
        return self.vh.shape[1]


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
    """One multi-head biased attention from the rows of x_q to every row of
    ``kv``: :func:`autodiff.attention_fwd` on the arrays of its arguments,
    unrecorded and unchecked. ``heads`` is ``kv``'s head count, for the
    benchmark's tracer. A decoder step calls it on windows of its caches,
    and the rollout's record replays their :func:`autodiff.attention_vjp`.
    Returns the output rows, the heads x t x s weights and what the VJP
    reads; do not modify the weights, which it reads too.

    ``bias`` is None, a t x s matrix shared by every head (such as an
    alignment bias), or a heads x t x s stack already scaled per head (a
    temporal bias at the heads' slopes, see :meth:`BiasMatrix.scaled`).
    """
    return ad.attention_fwd(
        x_q.data, proj.wq.data, kv.kt, kv.vh, proj.wo.data, None if bias is None else bias.data
    )
