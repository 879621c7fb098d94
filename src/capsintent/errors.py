"""Exception hierarchy shared by all capsintent modules, and the type rule
that settings are checked against.

The CLI maps these onto exit codes: UsageError -> 2, DivergenceError -> 3,
DataError (and subclasses) -> 4.
"""

import functools
import typing
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


def _conforms(value, declared) -> bool:
    """Whether a setting has a scalar type as declared: a bool is not an
    int, an int is a float, None only where Optional; lists of scalars are
    checked element by element. Other types are checked by their loaders."""
    origin, args = typing.get_origin(declared), typing.get_args(declared)
    if origin is typing.Union:
        return value is None or _conforms(value, args[0])
    if origin is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    if declared is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if declared in (int, str, bool):
        return isinstance(value, declared) and (declared is bool or not isinstance(value, bool))
    return True


# resolved once per owner: evaluating string annotations costs far more than
# the check, and ModelConfig checks its fields on every construction
_type_hints = functools.cache(typing.get_type_hints)


def check_types(section: dict, owner, where: str) -> None:
    """UsageError naming the first key of ``section`` whose value does not
    conform to its annotation in ``owner`` (a dataclass or a function)."""
    declared = _type_hints(owner)
    for key, value in section.items():
        if not _conforms(value, declared[key]):
            raise UsageError(f"{where}{key} must be {owner.__annotations__[key]}, "
                             f"got {type(value).__name__} {value!r}")
