"""Speech-driven 3D facial motion synthesis.

A desk-scale sequence-to-sequence model: an audio encoder with linear
resampling onto the motion timeline, and an autoregressive decoder whose
causal self-attention carries a period-quantized distance penalty and whose
cross-modal attention is locked to per-frame audio windows. Built on a small
reverse-mode tape so training is self-contained and bitwise reproducible.
"""

from .attention import (
    AttentionProjections,
    AttentionRecord,
    biased_attention,
    mh_attention,
)
from .autodiff import (
    Tape,
    Var,
    backward,
    conv1d_strided,
    grad,
    layer_norm,
    linear,
    matmul,
    softmax_rows,
)
from .config import ModelConfig, TrainConfig, profile
from .decoder import autoregress, decode_motion, decoder_layer, embed_step, rollout
from .encoder import (
    AudioInput,
    EncodedAudio,
    encode,
    extract_features,
    resample_linear,
)
from .errors import (
    AudioError,
    ConfigError,
    DegenerateRowError,
    DivergenceError,
    FormatError,
    GradientError,
    ShapeError,
    SpeechMotionError,
    UsageError,
)
from .formats import load_checkpoint, load_matrix, save_checkpoint, save_matrix
from .optim import AdamState, adam_step
from .params import init_params, param_shapes
from .positional import (
    BiasMatrix,
    alignment_bias,
    head_slopes,
    ppe_row,
)
from .synthetic import gen_synthetic, load_dataset
from .training import (
    TrainingSample,
    evaluate_rmse,
    export_attention,
    frame_vertex_rmse,
    lip_error,
    lip_error_corpus,
    mse_loss,
    rms_amplitude,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AttentionProjections", "AttentionRecord", "AudioError",
    "AudioInput", "BiasMatrix", "ConfigError", "DegenerateRowError",
    "DivergenceError", "EncodedAudio", "FormatError", "GradientError",
    "ModelConfig", "ShapeError", "SpeechMotionError", "Tape", "TrainConfig",
    "TrainingSample", "UsageError", "Var", "adam_step", "alignment_bias",
    "autoregress", "backward", "biased_attention",
    "conv1d_strided", "decode_motion", "decoder_layer", "embed_step",
    "encode", "evaluate_rmse", "export_attention", "extract_features",
    "frame_vertex_rmse", "gen_synthetic", "grad", "head_slopes",
    "init_params", "layer_norm", "linear", "lip_error", "lip_error_corpus",
    "load_checkpoint", "load_dataset", "load_matrix", "matmul", "mh_attention",
    "mse_loss", "param_shapes", "ppe_row", "profile",
    "resample_linear", "rms_amplitude", "rollout", "save_checkpoint",
    "save_matrix", "softmax_rows", "train",
]
