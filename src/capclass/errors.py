"""Exception types shared across the package."""

from __future__ import annotations


class CapError(Exception):
    """Base class for all errors raised by this package."""


class MixedDimensionError(CapError):
    """Points with different ambient dimensions were combined."""


class EmptyInputError(CapError):
    """An operation that needs at least one point received none."""


class NotInSpanError(CapError):
    """The target point is not in the affine span of the given basis."""


class DependentBasisError(CapError):
    """A set offered as a basis is affinely dependent."""


class DimensionMismatchError(CapError):
    """An affine map was applied in the wrong ambient dimension."""


class NotACapError(CapError):
    """A point set offered as a cap contains a quad."""


class InvalidBasisError(CapError):
    """A basis argument is not an independent spanning subset of the set."""


class BadIndexError(CapError):
    """A dependent-point index is out of range."""


class ExchangeHypothesisViolated(CapError):
    """The basis-exchange hypothesis does not hold for the given pair."""


class TooLargeError(CapError):
    """The set is too large for an exhaustive desk-scale computation."""


class DimensionOverflowError(CapError):
    """The requested dimension exceeds the supported search range."""


class UnknownLabelError(CapError):
    """No template with the given label exists."""


class CapFileError(CapError):
    """A cap file could not be parsed."""


class InvariantError(CapError):
    """An internal consistency check failed: a computed result contradicts its own derivation."""
