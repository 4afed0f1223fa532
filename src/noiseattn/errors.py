"""Exception taxonomy shared across the package."""

from contextlib import contextmanager


class NoiseAttnError(Exception):
    """Base class for all package errors."""


class ConfigError(NoiseAttnError, ValueError):
    """Invalid configuration: bad shapes, ranges, or unknown keys."""


class DataError(NoiseAttnError, ValueError):
    """Invalid data: labels out of range, missing true labels, empty sets."""


class FormatError(NoiseAttnError, ValueError):
    """Malformed on-disk artifact: bad magic, truncation, version skew."""


class UsageError(NoiseAttnError, RuntimeError):
    """API misuse, e.g. backward() before a matching forward()."""


class DivergenceError(NoiseAttnError, RuntimeError):
    """Training produced a non-finite loss."""


def out_of_memory(exc: MemoryError) -> ConfigError:
    """The typed error for arrays that do not fit in memory; numpy's
    message names the size it asked for."""
    return ConfigError(f"not enough memory: {exc}")


@contextmanager
def in_epoch(epoch: int, of_round: int | None = None):
    """Prefix a DivergenceError raised inside with where it happened in its
    stage: ``epoch 3: ...``, or ``round 1 epoch 3: ...`` (both 1-based)."""
    try:
        yield
    except DivergenceError as exc:
        where = f"epoch {epoch}" if of_round is None else f"round {of_round} epoch {epoch}"
        raise DivergenceError(f"{where}: {exc}") from None


class StageError(NoiseAttnError, RuntimeError):
    """A pipeline failure tagged with the stage where it occurred."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
