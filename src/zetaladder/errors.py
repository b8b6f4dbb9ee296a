"""Exception types shared across the package.

Numerical failures (NonConvergence, NoCrossing, ...) are distinct from usage
errors (bad domain, degenerate parameters) so the CLI can map them to
different exit codes: 2 for usage/config problems, 3 for numerical ones.
"""
from __future__ import annotations


class ZetaLadderError(Exception):
    """Base class for everything raised deliberately by this package."""


class UsageError(ZetaLadderError):
    """Bad parameters or configuration (CLI exit code 2)."""


class NumericalError(ZetaLadderError):
    """A numerical procedure failed to meet its contract (CLI exit code 3)."""


class DomainTooSmall(UsageError):
    """Evaluation requested below the supported domain floor."""


class RangeTooLarge(UsageError):
    """Evaluation requested above a hard resource bound."""


class DeltaDegenerate(UsageError):
    """A two-exponent operation was given delta3 == delta4."""


class IndexOutOfTower(UsageError):
    """Segment or chain index outside the built iteration depth."""


class CacheHashMismatch(UsageError):
    """Persisted cumulative table was built under a different configuration."""


class CacheCorrupt(UsageError):
    """Persisted table is damaged or foreign to the knot grid.

    Unparsable, non-finite, decreasing or off-grid rows; no rows at all; a
    first row that is not A(0) = 0; values that do not match their checksum;
    a spacing header other than the knot spacing; or text that is not UTF-8.
    """


class NonConvergence(NumericalError):
    """Adaptive quadrature or a Newton solve could not reach its tolerance."""


class BracketInvalid(NumericalError):
    """Root bracket does not enclose the target value."""


class NoCrossing(NumericalError):
    """Level-crossing scan found no sign change at maximum refinement."""


class TableExhausted(NumericalError):
    """Cumulative table cannot be extended far enough."""


class ConditionTooHigh(NumericalError):
    """Accumulated log-magnitude of chain factors exceeds the trust bound."""

    def __init__(self, msg: str, condition: float):
        super().__init__(msg)
        self.condition = condition
