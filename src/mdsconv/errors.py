"""Exception types shared across the package, and the rule for integers
read from outside input.

The CLI maps these onto exit codes: usage problems exit 1 (`verify`
reports a `CertificateError` as a failed check, exit 2), infeasible
parameters exit 2, corrupted codeword data exits 3.

Every integer the program reads is canonical: a number in a JSON document
(plan or config) must be a JSON integer, not a float, string or boolean
(`json_int`, `json_ints`), and a number in a symbol file must be written in
the ASCII digits 0-9 (`decimals`).  A matrix dump must be exactly the text
the program writes (`canonical_decimals`), so a plan document round-trips.
Their errors are TypeError and ValueError, which each reader reports as a
`UsageError` naming the key, or the file and line.
"""

import re


class MdsconvError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(MdsconvError):
    """Caller passed malformed arguments, shapes, or documents."""


class CertificateError(UsageError):
    """A plan document stores a certificate block its codes and grid do not
    give; the message starts with the block's document key."""


class ParameterError(MdsconvError):
    """Parameters are internally consistent but infeasible (e.g. field too small)."""


class InsufficientDataError(MdsconvError):
    """Not enough symbols are known to determine a codeword."""


class CorruptionError(MdsconvError):
    """Supplied symbols are not consistent with any codeword."""


class SingularMatrixError(MdsconvError):
    """A matrix expected to be invertible is singular."""


class InternalError(MdsconvError):
    """An invariant the mathematics guarantees failed; indicates a bug."""


def json_int(value, key: str) -> int:
    """`value` if it is a JSON integer, else a TypeError naming `key`."""
    if type(value) is not int:
        raise TypeError(f"{key}: expected an integer, got {value!r}")
    return value


_INT = frozenset({int})


def json_ints(values, key: str) -> tuple[int, ...]:
    """`values` as a tuple if each is a JSON integer, else a TypeError naming `key`."""
    values = tuple(values)
    if not _INT.issuperset(map(type, values)):
        for value in values:
            json_int(value, key)
    return values


# The digits 0-9 and the ASCII characters `str.split` takes for whitespace.
_DECIMALS = re.compile("[0-9\t\n\v\f\r\x1c-\x1f ]*")
# Numbers as `str` writes them (no sign, no leading zero), one space apart.
_CANONICAL = re.compile("(?:(?:0|[1-9][0-9]*)(?: (?:0|[1-9][0-9]*))*)?")


def decimals(text: str) -> tuple[int, ...]:
    """The whitespace-separated numbers of `text`, each written in the digits 0-9."""
    if _DECIMALS.fullmatch(text):
        return tuple(map(int, text.split()))
    # The first token that is not, or the whole text if a separator is not ASCII.
    bad = next((t for t in text.split() if not (t.isascii() and t.isdigit())), text)
    raise ValueError(f"{bad!r} is not written in the digits 0-9")


def canonical_decimals(text: str) -> tuple[int, ...]:
    """The numbers of `text` if it is their canonical text, as `str` writes
    each and one space apart, so the text round-trips; else a ValueError."""
    if _CANONICAL.fullmatch(text):
        return tuple(map(int, text.split()))
    raise ValueError(f"{text!r} is not numbers written as 0-9 digits with no leading zero, one space apart")
