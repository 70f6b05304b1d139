"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ParseError, FormatError and OSError are
I/O or file-format problems (exit 2); every other CrosstillError, that is a
ContractError, ConfigError or NumericError, exits 1.
"""


class CrosstillError(Exception):
    """Base class for all package errors."""


class ContractError(CrosstillError):
    """A documented precondition was violated by the caller."""


class ConfigError(CrosstillError):
    """Invalid or inconsistent configuration."""


class NumericError(CrosstillError):
    """Non-finite value encountered during a forward or backward pass."""


class ParseError(CrosstillError):
    """Malformed text input; carries the file and the offending line number when known."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(CrosstillError):
    """Malformed binary input; carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset
