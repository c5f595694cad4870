"""Autoregressive training with the summed-MSE objective, evaluation
metrics, and attention-weight export."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .attention import AttentionRecord
from .autodiff import Tape, Var, backward
from .config import ModelConfig, TrainConfig
from .decoder import rollout
from .encoder import AudioInput, encode
from .errors import DivergenceError, ShapeError
from .formats import atomic_write_text
from .optim import AdamState, adam_step, clip_global_norm
from .params import Params

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingSample:
    """One audio/motion pair with its speaker identity index."""

    audio: AudioInput
    motion: np.ndarray  # T x 3V
    identity: int


def mse_loss(pred, truth) -> Var:
    """Sum over frames and vertices of squared coordinate differences.

    Returns a 1x1 value (taped when a tape is active); use ``.item()`` for the
    float. The per-frame-per-vertex RMSE reported in logs is derived from this
    sum, not part of the objective.
    """
    return ad.squared_error(pred, truth)


def frame_vertex_rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """sqrt of the mean squared per-vertex 3-D distance over all frames."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise ShapeError(f"prediction {pred.shape} vs truth {truth.shape}")
    frames, cols = pred.shape
    sq = np.square(pred - truth).reshape(frames, cols // 3, 3).sum(axis=2)
    return float(np.sqrt(sq.mean()))


def rms_amplitude(motion: np.ndarray) -> float:
    """RMS per-vertex 3-D magnitude of a motion sequence (or stack of them)."""
    return frame_vertex_rmse(motion, np.zeros_like(motion))


class TrainStep(NamedTuple):
    step: int
    epoch: int
    sample: int
    loss: float
    rmse: float


def rollout_loss(
    sample: TrainingSample, params: Params, cfg: ModelConfig
) -> tuple[Var, np.ndarray]:
    """Loss of a full autoregressive rollout against the sample's motion."""
    frames = sample.motion.shape[0]
    enc = encode(sample.audio, frames, params, cfg)
    pred = rollout(enc, sample.identity, frames, params, cfg)
    return mse_loss(pred, sample.motion), pred.data


def train(
    dataset: Sequence[TrainingSample],
    params: Params,
    cfg: ModelConfig,
    epochs: int,
    seed: int,
    *,
    keep_best: bool = False,
    **knobs,
) -> tuple[Params, list[TrainStep]]:
    """Autoregressive training: one Adam step per sequence per epoch.

    Every epoch visits each sample once in a seed-shuffled order; the full
    sequence is rolled out feeding the model's own predictions, the summed
    MSE is backpropagated through the entire unrolled computation, and one
    optimizer step is applied. Fully deterministic for fixed inputs.

    ``knobs`` are the other :class:`TrainConfig` fields (``lr``, ``beta1``,
    ``grad_clip``, ...), with its defaults and its validation; an unknown
    name raises ``TypeError``.

    ``keep_best`` re-evaluates the full training set at every epoch end and
    returns the parameters with the lowest autoregressive RMSE instead of the
    last epoch's (a simple best-loss checkpoint).
    """
    tc = TrainConfig(epochs=epochs, seed=seed, **knobs)
    if not dataset:
        raise ShapeError("training needs a nonempty dataset")
    for idx, s in enumerate(dataset):
        check_sample_alignment(s, cfg, idx)
        bad_rows = np.flatnonzero(~np.isfinite(s.motion).all(axis=1))
        if bad_rows.size:
            raise ShapeError(
                f"sample {idx}: motion row {bad_rows[0]} holds a non-finite value"
            )

    rng = np.random.Generator(np.random.PCG64(tc.seed))
    state = AdamState.fresh(params)
    history: list[TrainStep] = []
    step = 0
    best: tuple[float, Params | None] = (np.inf, None)
    for epoch in range(tc.epochs):
        order = rng.permutation(len(dataset))
        for sample_idx in order:
            sample = dataset[int(sample_idx)]
            with Tape():
                loss_var, pred = rollout_loss(sample, params, cfg)
                loss = loss_var.item()
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}, sample {int(sample_idx)}"
                    )
                grads = backward(loss_var, params)
            if not np.isfinite(grads.flat).all():
                bad = next(k for k, g in grads.items() if not np.isfinite(g).all())
                raise DivergenceError(
                    f"non-finite gradient at epoch {epoch}, sample {int(sample_idx)}, "
                    f"first in parameter {bad!r}"
                )
            grads, norm = clip_global_norm(grads, tc.grad_clip)
            if norm > tc.grad_clip:
                log.debug(
                    "gradient norm %.3g clipped to %.3g (epoch %d sample %d)",
                    norm, tc.grad_clip, epoch, int(sample_idx),
                )
            params, state = adam_step(
                grads, state,
                lr=tc.lr, beta1=tc.beta1, beta2=tc.beta2, eps=tc.eps,
            )
            rmse = frame_vertex_rmse(pred, sample.motion)
            history.append(TrainStep(step, epoch, int(sample_idx), loss, rmse))
            step += 1
        if keep_best:
            eval_rmse = evaluate_rmse(dataset, params, cfg)
            if eval_rmse < best[0]:
                best = (eval_rmse, params)
    if keep_best and best[1] is not None:
        params = best[1]
    return params, history


def check_sample_alignment(sample: TrainingSample, cfg: ModelConfig, idx: int) -> None:
    """Motion must be 3*V wide and match the audio's duration within a frame."""
    if sample.motion.shape[1] != cfg.motion_dim:
        raise ShapeError(
            f"sample {idx}: motion width {sample.motion.shape[1]} does not match "
            f"3*V = {cfg.motion_dim}"
        )
    implied = sample.audio.feature_rows * cfg.motion_rate / sample.audio.rate
    frames = sample.motion.shape[0]
    if abs(frames - implied) > 1.0 + 1e-9:
        raise ShapeError(
            f"sample {idx}: motion has {frames} frames but audio implies "
            f"{implied:.2f} at {cfg.motion_rate} fps"
        )


def evaluate_rmse(
    dataset: Sequence[TrainingSample], params: Params, cfg: ModelConfig
) -> float:
    """Pooled autoregressive per-frame-per-vertex RMSE over a corpus."""
    total_sq = 0.0
    total_items = 0
    for sample in dataset:
        frames, cols = sample.motion.shape
        enc = encode(sample.audio, frames, params, cfg)
        pred = rollout(enc, sample.identity, frames, params, cfg).data
        total_sq += float(np.square(pred - sample.motion).sum())
        total_items += frames * (cols // 3)
    return float(np.sqrt(total_sq / total_items))


def lip_error(pred: np.ndarray, truth: np.ndarray, lips: Sequence[int]) -> float:
    """Mean over frames of the worst lip-vertex Euclidean deviation."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise ShapeError(f"prediction {pred.shape} vs truth {truth.shape}")
    if not len(pred):  # the mean over frames would be NaN
        raise ShapeError("prediction and truth have no frames")
    lips = list(lips)
    if not lips:
        raise ShapeError("lip index set is empty")
    vertices = pred.shape[1] // 3
    if len(set(lips)) != len(lips) or min(lips) < 0 or max(lips) >= vertices:
        raise ShapeError(
            f"lip indices must be unique and in [0, {vertices}), got {lips}"
        )
    frames = pred.shape[0]
    p = pred.reshape(frames, vertices, 3)[:, lips]
    q = truth.reshape(frames, vertices, 3)[:, lips]
    dist = np.sqrt(np.square(p - q).sum(axis=2))
    return float(dist.max(axis=1).mean())


def lip_error_corpus(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]], lips: Sequence[int]
) -> float:
    """Average of per-sequence lip errors, in input order."""
    if not pairs:
        raise ShapeError("corpus is empty")
    return float(np.mean([lip_error(p, t, lips) for p, t in pairs]))


def export_attention(records: Sequence[AttentionRecord], path) -> None:
    """Write head-averaged attention weights as commented CSV sections.

    Each record contributes '#'-prefixed metadata lines followed by one
    comma-separated row per query step; masked entries are exact zeros.
    """
    if not records:
        raise ShapeError("no attention records to export")
    lines: list[str] = []
    for rec in records:
        heads, rows, cols = rec.weights.shape
        mean = np.mean(rec.weights, axis=0)
        lines.append(
            f"# module={rec.module} layer={rec.layer} step={rec.step} "
            f"rows={rows} cols={cols} heads={heads}"
        )
        for row in mean:
            lines.append(",".join(format(x, ".17g") for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")
