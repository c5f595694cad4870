"""Exception types shared across the package."""


class SpeechMotionError(Exception):
    """Base class for all library errors."""


class ShapeError(SpeechMotionError):
    """Operands have incompatible shapes."""


class DegenerateRowError(SpeechMotionError):
    """A softmax row contained no finite entry (fully masked query)."""


class GradientError(SpeechMotionError):
    """Invalid request to the reverse-mode engine (e.g. non-scalar loss)."""


class ConfigError(SpeechMotionError):
    """Bad or inconsistent configuration."""


class FormatError(SpeechMotionError):
    """Malformed file content: bad magic, truncation, CRC mismatch."""


class AudioError(SpeechMotionError):
    """Unusable audio input (too short, wrong variant, bad encoding)."""


class DivergenceError(SpeechMotionError):
    """Training produced a non-finite loss or gradient, or inference a
    non-finite or out-of-range motion frame."""


class UsageError(SpeechMotionError):
    """Bad command-line invocation."""
