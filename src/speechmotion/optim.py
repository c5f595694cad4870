"""Adam optimizer over named parameter bundles."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .autodiff import Array, Var
from .config import TrainConfig

log = logging.getLogger(__name__)


@dataclass
class AdamState:
    """First/second moment estimates and the step counter."""

    step: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)

    @classmethod
    def fresh(cls, params: Mapping[str, Var]) -> "AdamState":
        return cls(
            step=0,
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
        )


def adam_step(
    params: Mapping[str, Var],
    grads: Mapping[str, Array],
    state: AdamState,
    lr: float = TrainConfig.lr,
    beta1: float = TrainConfig.beta1,
    beta2: float = TrainConfig.beta2,
    eps: float = TrainConfig.eps,
) -> tuple[dict[str, Var], AdamState]:
    """One bias-corrected Adam update; returns a new bundle and new state.

    A parameter with no gradient entry is treated as zero gradient (with a
    warning), so fresh-state parameters without gradients stay unchanged.
    """
    if state.step < 0:
        raise ValueError("Adam step counter must be >= 0")
    t = state.step + 1
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    new_params: dict[str, Var] = {}
    new_state = AdamState(step=t, m={}, v={})
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            log.warning("no gradient for parameter %r; treating as zero", name)
            g = np.zeros_like(p.data)
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * np.square(g)
        update = lr * (m / c1) / (np.sqrt(v / c2) + eps)
        new_params[name] = Var(p.data - update)
        new_state.m[name] = m
        new_state.v[name] = v
    return new_params, new_state


def clip_global_norm(grads: dict[str, Array], max_norm: float) -> tuple[dict[str, Array], float]:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.square(g).sum())
    norm = float(np.sqrt(total))
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    factor = max_norm / norm
    return {k: g * factor for k, g in grads.items()}, norm
