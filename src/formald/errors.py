"""Exception types shared by the whole toolkit.

Every error that a caller may reasonably want to catch gets its own class;
generic misuse (wrong variable counts, bad axis) raises plain ValueError.
"""


class ToolkitError(Exception):
    """Base class for computational failures."""


class NotAUnit(ToolkitError):
    """Inversion of a series whose constant term is zero."""


class UnsupportedExponent(ToolkitError):
    """exp() of a series with a nonzero constant term."""


class NotRegular(ToolkitError):
    """Weierstrass division/preparation on a series that is not regular in
    the last variable (to the stated precision)."""


class InsufficientPrecision(ToolkitError):
    """The requested operation needs more known coefficients than the
    input carries."""


class NotFoundWithinBudget(ToolkitError):
    """A deterministic search exhausted its enumeration budget."""


class ZeroOperator(ToolkitError):
    """An operation that needs a nonzero operator received zero."""


class PoleBudgetExceeded(ToolkitError):
    """A localization element would need a pole order above its budget."""


class NonIntegrable(ToolkitError):
    """A connection presentation fails the flatness test."""


class WrongVariant(ToolkitError):
    """A module operation was applied to the wrong presentation variant."""


class PreconditionViolated(ToolkitError):
    """Inputs fail a stated precondition that the operation checks."""


class BoundOverflow(ToolkitError):
    """A truncated linear system would exceed the safety size guard."""


class ParseError(ToolkitError):
    """Syntax error in the expression grammar; carries the position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position
