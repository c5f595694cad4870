"""Adam optimizer whose state owns the parameters as one flat vector.

:class:`AdamState` holds the parameters' names and shapes in bundle order,
their data as one float64 vector and the moments as two more. Gradients
come from ``backward`` as views of one flat vector in the same order, so
clipping and the Adam update are a few whole-vector numpy calls with the
bits of the same arithmetic done parameter by parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .autodiff import Array, Gradients, Var, leaf
from .config import TrainConfig


@dataclass
class AdamState:
    """The parameters' ``layout`` (names to shapes, in bundle order), their
    flat vector ``p``, the flat first/second moment estimates ``m`` and
    ``v``, and the step counter. :func:`adam_step` updates the moments in
    place and replaces ``p``."""

    layout: dict[str, tuple[int, int]]
    p: Array
    m: Array
    v: Array
    step: int = 0

    @classmethod
    def fresh(cls, params: Mapping[str, Var]) -> "AdamState":
        """A step-0 state over a copy of ``params``, which is never written."""
        p = np.concatenate([v.data for v in params.values()], axis=None)
        layout = {name: v.shape for name, v in params.items()}
        return cls(layout, p, np.zeros(p.size), np.zeros(p.size))


def adam_step(
    grads: Gradients,
    state: AdamState,
    lr: float = TrainConfig.lr,
    beta1: float = TrainConfig.beta1,
    beta2: float = TrainConfig.beta2,
    eps: float = TrainConfig.eps,
) -> tuple[dict[str, Var], AdamState]:
    """One bias-corrected Adam update; returns the new bundle and the state.

    ``grads`` must be the :class:`Gradients` that ``backward`` returns for
    the state's parameters: the same names and shapes in the same order.
    The state is consumed: its moments and step counter are updated in
    place, and ``state.p`` becomes a fresh vector whose views are the new
    bundle. No bundle is ever written, so every earlier one stays as it was.
    """
    if state.step < 0:
        raise ValueError("Adam step counter must be >= 0")
    ours = isinstance(grads, Gradients) and list(state.layout.items()) == [
        (name, g.shape) for name, g in grads.items()
    ]
    if not ours:
        raise ValueError(
            "adam_step takes the Gradients that backward returns for the "
            "optimizer's parameters, in their order"
        )
    g, m, v = grads.flat, state.m, state.v
    t = state.step + 1
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    # the bits of m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g^2,
    # p - lr (m / c1) / (sqrt(v / c2) + eps)
    work = np.multiply(g, 1.0 - beta1)
    m *= beta1
    m += work
    np.square(g, out=work)
    work *= 1.0 - beta2
    v *= beta2
    v += work
    np.divide(v, c2, out=work)
    np.sqrt(work, out=work)
    work += eps
    new = np.divide(m, c1)
    new *= lr
    new /= work
    np.subtract(state.p, new, out=new)
    state.p, state.step = new, t
    # the views are already 2-D C-contiguous float64: no Var(view) check
    return {name: leaf(view) for name, view in Gradients.views(new, state.layout).items()}, state


def clip_global_norm(grads: Gradients, max_norm: float) -> tuple[Gradients, float]:
    """Scale the gradients in place so their joint L2 norm is at most
    max_norm.

    Returns the gradients and their norm before clipping. The norm adds the
    gradients' squared sums in their order.
    """
    flat = grads.flat
    squares = np.square(flat)
    total, at = 0.0, 0
    for g in grads.values():
        total += float(np.add.reduce(squares[at : at + g.size]))
        at += g.size
    norm = float(np.sqrt(total))
    if norm > max_norm and norm != 0.0:
        flat *= max_norm / norm
    return grads, norm
