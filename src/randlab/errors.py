"""Exception types shared across the lab, and the one budget check."""

import math


class RandlabError(Exception):
    """Base class for all lab errors."""


class ParseError(RandlabError):
    """Malformed rational, interval, or fixture text."""


class BudgetExceeded(RandlabError):
    """An enumeration/depth/precision budget was exceeded."""


# a size in a message is written whole up to this many digits
SIZE_DIGITS_SHOWN = 20


def format_size(size: int) -> str:
    """`size` in decimal, or past SIZE_DIGITS_SHOWN digits its leading
    digits and its digit count ("12345678901234567890... (4000 digits)"),
    found without writing the whole int, which may be past int's digit
    limit for text."""
    m = abs(size)
    if m < 10**SIZE_DIGITS_SHOWN:
        return str(size)
    digits = int((m.bit_length() - 1) * math.log10(2)) + 1  # at most 1 off
    digits += (m >= 10**digits) - (m < 10 ** (digits - 1))
    lead = m // 10 ** (digits - SIZE_DIGITS_SHOWN)
    return f"{'-' if size < 0 else ''}{lead}... ({digits} digits)"


def check_budget(size: int, subject: str, name: str, limit: int) -> None:
    """Raise BudgetExceeded("<subject> > NAME (limit)") when size > limit.

    `subject` names the size asked for, with `{}` where the size goes, which
    `format_size` writes; it is formatted only on failure.  The one check
    for every named budget."""
    if size > limit:
        raise BudgetExceeded(f"{subject.format(format_size(size))} > {name} ({limit})")


class CoverViolation(RandlabError):
    """A staged cover fails the non-overlap / size-bound protocol."""


class DegeneratePair(RandlabError):
    """Slope requested at a pair with a == b."""


class ExtensionUndefined(RandlabError):
    """Finite-scale evidence that the continuous extension is undefined here."""


class InvariantViolation(RandlabError):
    """An exact measure-bound invariant failed."""


class NotPrefixFree(RandlabError):
    """A string set declared prefix-free contains a prefix pair."""


class MeasureBoundViolation(RandlabError):
    """A proposed test component exceeds its exact measure bound."""


class ZeroMassCylinder(RandlabError):
    """Measure transport hit a cylinder of zero mass."""


class AtomSuspected(RandlabError):
    """Transport image fails to shrink: point mass at a dyadic boundary."""
