"""Shared exception types with their process exit codes.

The CLI maps exceptions to exit codes through the ``exit_code`` attribute:
invalid configuration is 2, unreadable or malformed input files are 3, and
non-finite numerics are 4. Everything else falls back to 1.
"""


class SecaError(Exception):
    exit_code = 1


class ConfigError(SecaError):
    """Invalid configuration value or malformed config document."""

    exit_code = 2


class ProtocolError(SecaError):
    """Violation of the class-incremental protocol, e.g. repeated labels."""

    exit_code = 2


class DataFormatError(SecaError):
    """Malformed binary input (feature bank or checkpoint).

    ``code`` is a short machine-readable tag: "bad-magic", "bad-version",
    "truncated", "id-range", "bad-manifest", or "corrupt" (an artifact
    whose frames do not decode or whose digest disagrees with a frame's
    content; a checkpoint whose arrays do not parse, match the shape and
    dtype the stored config builds, or rebuild a valid state; a bank with
    misshapen, extra or non-finite frames).
    """

    exit_code = 3

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class NumericsError(SecaError):
    """NaN or Inf reached a tensor, or training diverged."""

    exit_code = 4


class ConvergenceError(SecaError):
    """An iterative solver hit its iteration cap before its tolerance."""
