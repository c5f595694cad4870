"""Adam optimizer over named parameter bundles, run on flat vectors.

Gradients, moments and each new bundle's data are float64 vectors in the
bundle's order, so clipping and the Adam update are a few whole-vector numpy
calls with the bits of the same arithmetic done parameter by parameter.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .autodiff import Array, Gradients, Var
from .config import TrainConfig

log = logging.getLogger(__name__)


@dataclass
class AdamState:
    """First/second moment estimates, flat in the bundle's order, and the
    step counter. :func:`adam_step` updates them in place."""

    step: int = 0
    m: Array = field(default_factory=lambda: np.zeros(0))
    v: Array = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def fresh(cls, params: Mapping[str, Var]) -> "AdamState":
        size = sum(p.data.size for p in params.values())
        return cls(step=0, m=np.zeros(size), v=np.zeros(size))


def _flat(arrays: list[Array], out: Array | None = None) -> Array:
    """The entries of ``arrays`` as one vector, in order: a fresh one, or
    ``out``."""
    return np.concatenate(arrays or [np.zeros(0)], axis=None, out=out)


def _flat_gradients(params: Mapping[str, Var], grads: Mapping[str, Array]) -> Array:
    """The gradients as one vector in the order of ``params``, zeros (with
    a warning) for a parameter that has none."""
    if isinstance(grads, Gradients) and list(grads) == list(params):
        return grads.flat
    parts = []
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            log.warning("no gradient for parameter %r; treating as zero", name)
            g = np.zeros_like(p.data)
        parts.append(g)
    return _flat(parts)


def adam_step(
    params: Mapping[str, Var],
    grads: Mapping[str, Array],
    state: AdamState,
    lr: float = TrainConfig.lr,
    beta1: float = TrainConfig.beta1,
    beta2: float = TrainConfig.beta2,
    eps: float = TrainConfig.eps,
) -> tuple[dict[str, Var], AdamState]:
    """One bias-corrected Adam update; returns a new bundle and the state.

    The state is consumed: its moments and step counter are updated in
    place, and it is returned. The new bundle's data are views of one fresh
    vector, so ``params`` and every earlier bundle stay as they were.

    A parameter with no gradient entry is treated as zero gradient (with a
    warning), so fresh-state parameters without gradients stay unchanged.
    """
    if state.step < 0:
        raise ValueError("Adam step counter must be >= 0")
    g = _flat_gradients(params, grads)
    m, v = state.m, state.v
    if m.shape != g.shape or v.shape != g.shape:
        raise ValueError(f"Adam moments of size {m.size} do not match {g.size} parameters")
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
    np.subtract(_flat([p.data for p in params.values()], out=work), new, out=new)
    state.step = t
    return {name: Var(view) for name, view in Gradients.views(new, params).items()}, state


def clip_global_norm(
    grads: Mapping[str, Array], max_norm: float
) -> tuple[Mapping[str, Array], float]:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the gradients and their norm before clipping. The norm adds the
    gradients' squared sums in the mapping's order. Unclipped, ``grads``
    comes back as it is; clipped, :class:`Gradients` are scaled in place and
    any other mapping comes back as scaled copies.
    """
    if isinstance(grads, Gradients):
        flat = grads.flat
    else:
        flat = _flat(list(grads.values()))
    squares = np.square(flat)
    total, at = 0.0, 0
    for g in grads.values():
        total += float(np.add.reduce(squares[at : at + g.size]))
        at += g.size
    norm = float(np.sqrt(total))
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    flat *= max_norm / norm
    return grads if isinstance(grads, Gradients) else Gradients.views(flat, grads), norm
