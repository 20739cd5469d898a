"""Exception types shared across the lab."""


class RandlabError(Exception):
    """Base class for all lab errors."""


class ParseError(RandlabError):
    """Malformed rational, interval, or fixture text."""


class BudgetExceeded(RandlabError):
    """An enumeration/depth/precision budget was exceeded."""


def check_budget(size: int, subject: str, name: str, limit: int) -> None:
    """Raise BudgetExceeded("<subject> > NAME (limit)") when size > limit.

    `subject` names the size asked for, with `{}` where the size goes; it is
    formatted only on failure.  The one check for every named budget."""
    if size > limit:
        raise BudgetExceeded(f"{subject.format(size)} > {name} ({limit})")


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
