"""Model and training configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError

PE_MODES = ("tb_ppe", "original_pe", "alibi")
_INT64_MAX = 2**63 - 1  # counts are used in numpy's int64 arithmetic


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ModelConfig:
    """Architecture shape knobs; defaults are the desk-scale synthetic profile.

    A config checks itself when built: an out-of-range field is a
    ``ConfigError`` naming it."""

    dim: int = 32                # decoder model dimension
    heads: int = 4               # decoder attention heads (power of two)
    period: int = 10             # positional-encoding / temporal-bias period
    feature_rate: float = 50.0   # audio feature rows per second
    motion_rate: float = 25.0    # motion frames per second
    encoder_layers: int = 2
    decoder_layers: int = 1
    ff_dim: int = 64             # feed-forward width (encoder and decoder)
    vertices: int = 10           # mesh vertex count V; motion rows have 3*V columns
    identities: int = 2          # number of trainable speaking-style embeddings
    feature_dim: int = 8         # audio feature channels (extractor output width)
    encoder_dim: int = 32        # width of the encoder transformer stack
    encoder_heads: int = 2
    pe_mode: str = "tb_ppe"

    def __post_init__(self) -> None:
        self.validate()

    @property
    def frame_ratio(self) -> int:
        """Audio feature rows per motion frame: ceil(feature_rate/motion_rate)."""
        return math.ceil(self.feature_rate / self.motion_rate)

    @property
    def motion_dim(self) -> int:
        return 3 * self.vertices

    def validate(self) -> "ModelConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and value > _INT64_MAX:
                raise ConfigError(f"{f.name} = {value} does not fit in a 64-bit integer")
        if self.encoder_layers < 0:
            raise ConfigError("encoder_layers must be >= 0")
        for name in ("dim", "period", "decoder_layers", "ff_dim", "vertices",
                     "identities", "feature_dim", "encoder_dim", "encoder_heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not _is_power_of_two(self.heads):
            raise ConfigError(f"heads must be a power of two, got {self.heads}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        for name in ("feature_rate", "motion_rate"):  # NaN fails the comparison too
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        ratio = self.feature_rate / self.motion_rate
        if not ratio <= _INT64_MAX:  # frame_ratio would overflow or pass int64
            raise ConfigError(
                f"feature_rate {self.feature_rate} / motion_rate {self.motion_rate} "
                f"gives a frame ratio that does not fit in a 64-bit integer"
            )
        if self.encoder_dim % self.encoder_heads != 0:
            raise ConfigError(
                f"encoder_dim {self.encoder_dim} not divisible by "
                f"encoder_heads {self.encoder_heads}"
            )
        if self.pe_mode not in PE_MODES:
            raise ConfigError(f"pe_mode must be one of {PE_MODES}, got {self.pe_mode!r}")
        return self


@dataclass(frozen=True)
class TrainConfig:
    """Optimization knobs, checked when built like :class:`ModelConfig`."""

    epochs: int = 100
    seed: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 1.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "TrainConfig":
        for name in ("epochs", "seed"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        # the negated comparisons reject NaN as well; an infinite grad_clip
        # never clips
        for name in ("lr", "eps", "grad_clip"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        for name in ("lr", "eps"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        return self


# Named profiles. The biwi/vocaset shapes match the published full-scale
# setups and exist for reference; desk-scale work uses "synthetic".
PROFILES: dict[str, ModelConfig] = {
    "synthetic": ModelConfig(),
    "biwi": ModelConfig(
        dim=128, heads=4, period=25, ff_dim=2048, feature_rate=49.0,
        motion_rate=25.0, vertices=23370, identities=6,
        encoder_dim=128, encoder_heads=4,
    ),
    "vocaset": ModelConfig(
        dim=64, heads=4, period=30, ff_dim=2048, feature_rate=49.0,
        motion_rate=60.0, vertices=5023, identities=8,
        encoder_dim=64, encoder_heads=4,
    ),
}


def profile(name: str) -> ModelConfig:
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}")


# Configuration-file schema: key -> (target, parser), one key per dataclass
# field, parsed by the field's annotated type.
_PARSERS = {"int": int, "float": float, "str": str}

CONFIG_KEYS: dict[str, tuple[str, type | object]] = {
    **{f.name: ("model", _PARSERS[f.type]) for f in fields(ModelConfig)},
    **{f.name: ("train", _PARSERS[f.type]) for f in fields(TrainConfig)},
}

# The ModelConfig fields a dataset fixes, and the keys of its dataset.cfg.
DATASET_FIELDS = ("identities", "vertices", "feature_dim", "feature_rate", "motion_rate")


def parse_value(key: str, raw: str):
    """The configuration value ``raw`` of ``key``, parsed by its field's type."""
    try:
        return CONFIG_KEYS[key][1](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def build_configs(
    values: dict[str, str], dataset: dict, dataset_name: str
) -> tuple[ModelConfig, TrainConfig]:
    """The model and training configs for the key/value strings ``values``,
    to train on the dataset ``dataset_name`` whose ``dataset.cfg`` holds
    ``dataset``.

    Unknown keys are errors (misspelling guard); missing keys take the
    defaults. The DATASET_FIELDS (the identities, the vertex count, the
    feature width and both rates) are taken from the dataset; a key may
    repeat such a field but not contradict it.
    """
    unknown = sorted(set(values) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    kwargs: dict[str, dict] = {"model": {}, "train": {}}
    for key, raw in values.items():
        kwargs[CONFIG_KEYS[key][0]][key] = parse_value(key, raw)
    model_kwargs = kwargs["model"]
    for name in DATASET_FIELDS:
        if name in model_kwargs and model_kwargs[name] != dataset[name]:
            raise ConfigError(
                f"{name} = {model_kwargs[name]}, but the dataset in {dataset_name} "
                f"has {name} = {dataset[name]}"
            )
        model_kwargs[name] = dataset[name]
    return ModelConfig(**model_kwargs), TrainConfig(**kwargs["train"])
