"""Exception types shared across the package.

An error with constructor arguments keeps them in `args` and builds its
message in `__str__`, so it survives the pickling that carries it out of a
`verify --jobs` worker.
"""


class RinglabError(Exception):
    """Base class for all ringlab errors."""


class CapacityError(RinglabError):
    """A construction would exceed the configured ring-size cap."""

    def __init__(self, would_be_size, cap):
        super().__init__(would_be_size, cap)
        self.would_be_size = would_be_size
        self.cap = cap

    def __str__(self):
        return (f"construction would produce a ring with {self.would_be_size} "
                f"elements, above the size cap of {self.cap}")


class SpecParseError(RinglabError):
    """A ring-spec string does not match the grammar."""

    def __init__(self, message, text, pos):
        super().__init__(message, text, pos)
        self.text = text
        self.pos = pos

    def __str__(self):
        message, text, pos = self.args
        return f"{message} at position {pos} in {text!r}"


class LiteralParseError(RinglabError):
    """An element literal does not match the ring's shape."""


class RingMismatchError(RinglabError):
    """An operation received operands bound to different rings."""


class HypothesisViolation(RinglabError):
    """Inputs fail a stated precondition (not regular, not unimodular, ...)."""


class ConstructionAbort(RinglabError):
    """A step of the unimodular construction found no candidate.

    On a ring verified to satisfy the summand-sum and internal-cancellation
    hypotheses this indicates a defect, so the failing step is named loudly.
    """

    def __init__(self, step, message):
        super().__init__(step, message)
        self.step = step

    def __str__(self):
        step, message = self.args
        return f"construction aborted at step {step}: {message}"


class SearchBudgetExceeded(RinglabError):
    """A homomorphism search would enumerate more candidates than allowed."""


class InvariantViolation(RinglabError):
    """A verified internal invariant failed; signals a defect upstream."""
