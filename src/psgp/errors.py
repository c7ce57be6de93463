"""Exception hierarchy shared across the package.

Every error the CLI can surface maps to one of three exit codes:
usage problems (bad flags/config values), data problems (malformed or
missing inputs), and numeric problems (degenerate or non-finite math).
"""
from __future__ import annotations

from contextlib import contextmanager

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class PsgpError(Exception):
    """Base class; `exit_code` drives the CLI exit status."""

    exit_code = EXIT_DATA


class UsageError(PsgpError):
    exit_code = EXIT_USAGE


class DataError(PsgpError):
    exit_code = EXIT_DATA


class NumericError(PsgpError):
    exit_code = EXIT_NUMERIC


# --- binary container formats (signals, checkpoints) ---

class FormatError(DataError):
    """Malformed binary container."""


class BadMagicError(FormatError):
    pass


class VersionMismatchError(FormatError):
    pass


class TruncatedPayloadError(FormatError):
    pass


class NonFiniteSamplesError(FormatError):
    pass


# --- tabular / text inputs ---

class ManifestError(DataError):
    pass


class MissingInputError(DataError):
    """A referenced input file or directory does not exist."""


class SchemaMismatchError(DataError):
    """Stored tensors or config do not match the expected schema."""


class UnknownOutcomeError(DataError):
    pass


class InsufficientClassError(DataError):
    """A computation needs both classes (or a non-empty group) and got none."""


# --- configuration ---

class ConfigError(UsageError):
    pass


class DegenerateMaskError(UsageError):
    """Mask ratio and patch count combine to mask nothing or everything."""


# --- numerics ---

class DegenerateDirectionError(NumericError):
    """Class centroids coincide; no direction can be derived."""


class CollinearityError(NumericError):
    pass


class NotConvergedError(NumericError):
    pass


class SeparationWarning(UserWarning):
    """Perfect separation detected while fitting a logistic model."""


@contextmanager
def utf8_text(path, error: type[PsgpError] = FormatError):
    """Turn a decode failure while reading ``path`` as UTF-8 into ``error``
    naming the file, so a stray byte is one error line, not a traceback."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.object[exc.start]:#04x} is not UTF-8 text") from exc
