"""Exception types shared across the package."""

from __future__ import annotations


class CapError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInputError(CapError):
    """An operation that needs at least one point received none."""


class DimensionMismatchError(CapError):
    """Points, sets, maps or caps of different ambient dimensions were combined."""


class NotACapError(CapError):
    """A point set offered as a cap contains a quad."""


class InvalidBasisError(CapError):
    """A basis argument is not an independent spanning subset of the set."""


class ExchangeHypothesisViolated(CapError):
    """The basis-exchange hypothesis does not hold for the given pair."""


class TooLargeError(CapError):
    """A size or dimension exceeds the limit of an exhaustive desk-scale computation."""


class UnknownLabelError(CapError):
    """No template with the given label exists."""


class CapFileError(CapError):
    """A cap file could not be parsed."""


class InvariantError(CapError):
    """An internal consistency check failed: a computed result contradicts its own derivation."""
