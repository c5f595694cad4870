"""Named trainable parameter bundles.

A bundle is a plain ``dict[str, Var]`` keyed by dot-separated paths; shapes
are fully determined by :class:`ModelConfig`, so checkpoints can be validated
against it.

Bundles are treated as immutable: the optimizer copies the starting bundle
once into its state, and each step returns a new bundle whose arrays are
views of a fresh vector; no bundle's arrays are ever written. So ``train``
can keep its best epoch's bundle without a copy, and a caller that holds on
to the bundle a training step was given can recompute that step's loss
from it afterwards, as the benchmark's training oracle does.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .autodiff import Var
from .config import ModelConfig
from .errors import ShapeError

Params = dict[str, Var]

# Waveform feature extractor: (kernel width, stride) per layer. Total stride
# 320 turns 16 kHz audio into ~49 feature rows per second.
CONV_SCHEDULE: tuple[tuple[int, int], ...] = (
    (10, 5), (3, 2), (3, 2), (3, 2), (3, 2), (2, 2), (2, 2),
)
EXTRACTOR_TOTAL_STRIDE = math.prod(stride for _width, stride in CONV_SCHEDULE)


def extractor_min_samples() -> int:
    """Smallest waveform length the conv stack can consume."""
    need = 1
    for width, stride in reversed(CONV_SCHEDULE):
        need = (need - 1) * stride + width
    return need


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    """Every parameter name with its (rows, cols) shape, as a new dict."""
    return dict(_shape_table(cfg))


@functools.lru_cache(maxsize=16)
def _shape_table(cfg: ModelConfig) -> tuple[tuple[str, tuple[int, int]], ...]:
    """The (name, shape) pairs of :func:`param_shapes`, built once per
    configuration (a frozen, hashable dataclass)."""
    d = cfg.dim
    de = cfg.encoder_dim
    da = cfg.feature_dim
    ff = cfg.ff_dim
    m = cfg.motion_dim
    shapes: dict[str, tuple[int, int]] = {}

    channels_in = 1
    for i, (width, _stride) in enumerate(CONV_SCHEDULE):
        shapes[f"extractor.conv{i}.k"] = (width * channels_in, da)
        shapes[f"extractor.conv{i}.b"] = (1, da)
        channels_in = da

    shapes["enc.input_proj.w"] = (da, de)
    shapes["enc.input_proj.b"] = (1, de)
    for i in range(cfg.encoder_layers):
        p = f"enc.layer{i}"
        for name in ("wq", "wk", "wv", "wo"):
            shapes[f"{p}.attn.{name}"] = (de, de)
        shapes[f"{p}.ln1.gain"] = (1, de)
        shapes[f"{p}.ln1.offset"] = (1, de)
        shapes[f"{p}.ff.w1"] = (de, ff)
        shapes[f"{p}.ff.b1"] = (1, ff)
        shapes[f"{p}.ff.w2"] = (ff, de)
        shapes[f"{p}.ff.b2"] = (1, de)
        shapes[f"{p}.ln2.gain"] = (1, de)
        shapes[f"{p}.ln2.offset"] = (1, de)
    shapes["enc.output_proj.w"] = (de, d)
    shapes["enc.output_proj.b"] = (1, d)

    shapes["style.table"] = (cfg.identities, d)
    shapes["motion_enc.w"] = (m, d)
    shapes["motion_enc.b"] = (1, d)
    for i in range(cfg.decoder_layers):
        p = f"dec.layer{i}"
        for name in ("wq", "wk", "wv", "wo"):
            shapes[f"{p}.self.{name}"] = (d, d)
            shapes[f"{p}.cross.{name}"] = (d, d)
        for ln in ("ln1", "ln2", "ln3"):
            shapes[f"{p}.{ln}.gain"] = (1, d)
            shapes[f"{p}.{ln}.offset"] = (1, d)
        shapes[f"{p}.ff.w1"] = (d, ff)
        shapes[f"{p}.ff.b1"] = (1, ff)
        shapes[f"{p}.ff.w2"] = (ff, d)
        shapes[f"{p}.ff.b2"] = (1, d)
    shapes["motion_dec.w"] = (d, m)
    shapes["motion_dec.b"] = (1, m)
    return tuple(shapes.items())


def init_params(cfg: ModelConfig, seed: int) -> Params:
    """Deterministic random initialization.

    Weights are normal with std 1/sqrt(fan_in), biases zero, layer-norm gains
    one, offsets zero. The final vertex projection starts at zero so early
    rollouts feed back small, stable predictions.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    params: Params = {}
    for name, (rows, cols) in param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("b", "b1", "b2", "offset") or name == "motion_dec.w":
            data = np.zeros((rows, cols))
        elif leaf == "gain":
            data = np.ones((rows, cols))
        elif name == "style.table":
            data = rng.normal(0.0, 1.0 / np.sqrt(cols), size=(rows, cols))
        else:
            data = rng.normal(0.0, 1.0 / np.sqrt(rows), size=(rows, cols))
        params[name] = Var(data)
    return params


def check_shapes(params: Params, cfg: ModelConfig, prefix: str) -> None:
    """Check every parameter whose name starts with ``prefix`` against its
    :func:`param_shapes` shape; a ShapeError names the first that differs.
    The layers that read them check none of these shapes."""
    for name, shape in _shape_table(cfg):
        if name.startswith(prefix) and params[name].shape != shape:
            raise ShapeError(
                f"parameter {name} has shape {params[name].shape}, "
                f"but the configuration needs {shape}"
            )


def validate_shapes(params: Params, expected: dict[str, tuple[int, int]]) -> None:
    """Check that ``params`` holds exactly the ``expected`` names and shapes
    (:func:`param_shapes` of a configuration, for a full bundle)."""
    got = {name: p.shape for name, p in params.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(
            k for k in set(got) & set(expected) if got[k] != expected[k]
        )
        raise ShapeError(
            "entries do not match the configuration: "
            f"missing={missing} extra={extra} mismatched={wrong}"
        )
