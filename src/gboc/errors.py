"""Exception classes shared across the package.

Every error the library raises deliberately derives from GbocError so
callers (and the CLI) can distinguish expected failures from bugs.
"""


class GbocError(Exception):
    """Base class for all errors raised by this package."""


class MissingFile(GbocError):
    pass


class ParseError(GbocError):
    def __init__(self, message: str, row: int | None = None, col: str | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class NonBinaryLabel(GbocError):
    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class DegenerateSeries(GbocError):
    pass


class WindowTooLong(GbocError):
    pass


class BadParams(GbocError):
    pass


class ShapeMismatch(GbocError):
    pass


class EmptyBall(GbocError):
    pass


class EmptySet(GbocError):
    pass


class DegenerateRange(GbocError):
    pass


class NonFiniteLoss(GbocError):
    pass


class NoAnomalies(GbocError):
    pass


class DegenerateLabels(GbocError):
    pass


class ModelMismatch(GbocError):
    pass


class BadMagic(GbocError):
    pass


class VersionUnsupported(GbocError):
    pass


class TruncatedFile(GbocError):
    pass


class InvariantViolation(GbocError):
    pass
