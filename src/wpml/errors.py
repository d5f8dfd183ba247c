"""Exception types shared across the workbench."""


class WpmlError(Exception):
    """Base class for all workbench errors."""


class NotAPoset(WpmlError):
    """The order matrix violates reflexivity, antisymmetry or transitivity."""


class NotALattice(WpmlError):
    """Some pair of elements lacks a unique meet or join."""

    def __init__(self, pair, which):
        self.pair = pair
        self.which = which
        super().__init__(f"pair {pair} has no unique {which}")


class WrongBounds(WpmlError):
    """Declared bot/top are not the least/greatest elements."""


class ResourceBound(WpmlError):
    """An exhaustive sweep would exceed the configured budget."""

    def __init__(self, needed, budget):
        self.needed = needed
        self.budget = budget
        super().__init__(f"sweep needs {needed} evaluations, budget is {budget}")


class UndefinedLetter(WpmlError):
    """A valuation is missing a letter occurring in the formula."""


class FormulaSyntaxError(WpmlError):
    """Parse failure; carries the offending position."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class PreconditionViolated(WpmlError):
    """A stated hypothesis of an operation does not hold; names which one."""


class InternalInconsistency(WpmlError):
    """A theorem-backed invariant failed: this falsifies the implementation
    (or the theorem), never the input."""


class GluingMismatch(WpmlError):
    """Element-id conventions for a glued span are violated."""


class NotSurjective(WpmlError):
    """A map required to be onto is not."""


class MorphismInvalid(WpmlError):
    """A map fails its structure-preservation or morphism conditions."""


class SizeCap(WpmlError):
    """A requested size or depth exceeds its documented cap."""


class InvalidBudget(WpmlError):
    """WPML_BUDGET is set to something other than a non-negative integer."""


DEFAULT_BUDGET = 10**7


def resolve_budget(explicit=None) -> int:
    """Explicit argument, else the WPML_BUDGET environment variable, else
    the default.  A WPML_BUDGET that is not a non-negative integer raises
    InvalidBudget instead of being replaced in silence."""
    import os

    if explicit is not None:
        return explicit
    text = os.environ.get("WPML_BUDGET")
    if text is None:
        return DEFAULT_BUDGET
    try:
        budget = int(text)
    except ValueError:
        raise InvalidBudget(f"WPML_BUDGET={text!r} is not an integer") from None
    if budget < 0:
        raise InvalidBudget(f"WPML_BUDGET={text!r} is negative")
    return budget
