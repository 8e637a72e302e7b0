"""Exception types shared across the package."""


class SubsumError(Exception):
    """Base class for errors raised by this package."""


class IndexBeyondFinite(SubsumError):
    """A term past the end of a finite sequence was requested."""


class UnsupportedExponent(SubsumError):
    """Power-sum sequences support integer exponents only."""


class UnsupportedKind(SubsumError):
    """The operation is not defined for this tail kind."""


class DivergentTail(SubsumError):
    """A finite tail sum was required but the series diverges."""


class NotDivergent(SubsumError):
    """The greedy filler needs a divergent positive sequence."""


class CapExceeded(SubsumError):
    """An endpoint or component cap was hit during construction."""


class EmptyUnion(SubsumError):
    """The operation needs a nonempty interval union."""


class IndeterminateComparison(SubsumError):
    """A term/tail comparison survived the whole refinement budget."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"comparison at index {index} is indeterminate")


class NotDigitForm(SubsumError):
    """The sequence does not reduce to integer digit strands over a base."""


class NotApplicable(SubsumError):
    """Preconditions for this analysis do not hold."""


class DepthLimit(SubsumError):
    """Brute-force enumeration depth limit exceeded."""
