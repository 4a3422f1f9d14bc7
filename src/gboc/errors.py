"""Exception classes shared across the package.

Every error the library raises deliberately derives from GbocError so
callers (and the CLI) can distinguish expected failures from bugs. A class
exists for each failure a caller can act on differently; the message says
what went wrong.
"""


class GbocError(Exception):
    """Base class for all errors raised by this package."""


class MissingFile(GbocError):
    """An input file, or an output file's directory, does not exist."""


class ParseError(GbocError):
    """A file or a series is malformed. row and col name the bad cell where
    known: data rows count from 1, in a file and in a TimeSeries built in
    code alike, and a file's header is row 0."""

    def __init__(self, message: str, row: int | None = None, col: str | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class BadParams(GbocError):
    """An argument, or the data it is given, is out of range: fix the call."""


class NonFiniteLoss(GbocError):
    """Training diverged; lower the learning rate or rescale the series."""


class ModelMismatch(GbocError):
    """A series does not fit the model it is scored with."""


class BadMagic(GbocError):
    """Not a model file."""


class VersionUnsupported(GbocError):
    """A model file of a format version this package does not read."""


class TruncatedFile(GbocError):
    """A model file that ends before its payload does."""


class InvariantViolation(GbocError):
    """A model file, or a model being saved, whose contents are invalid."""
