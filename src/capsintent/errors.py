"""Exception hierarchy shared by all capsintent modules.

The CLI maps these onto exit codes: UsageError -> 2, DivergenceError -> 3,
DataError (and subclasses) -> 4.
"""

from typing import Optional


class CapsIntentError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CapsIntentError):
    """Operands with incompatible dimensions."""


class UsageError(CapsIntentError):
    """Invalid arguments, configuration, or call sequence."""


class DataError(CapsIntentError):
    """Corpus or audio content that cannot be used."""


class FormatError(DataError):
    """A file whose encoding or layout is not supported."""


class ContractError(CapsIntentError):
    """An internal API contract was violated (e.g. trace/params mismatch)."""


class DivergenceError(CapsIntentError):
    """Training produced a non-finite loss.

    ``index`` is the batch position of the first utterance affected, when
    the error concerns one.
    """

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index
