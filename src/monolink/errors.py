"""Exception types shared across the package.

Every error corresponds to a violated precondition or an inconsistent
input; no operation silently rounds, truncates, or skips.
"""


class MonolinkError(Exception):
    """Base class for all package errors."""


class InputError(MonolinkError, ValueError):
    """An argument is outside the range a function accepts."""


class DimensionMismatch(MonolinkError):
    """Class coordinates do not match the rank of the intersection form."""


class SearchExhausted(MonolinkError):
    """Bounded hyperbolic-pair search found nothing (not a proof of absence)."""


class NotDivisible(MonolinkError):
    """An integer division by 2, 4, or 8 has a nonzero remainder."""


class NegativeDimension(MonolinkError):
    """A moduli-space dimension came out negative for a nonzero invariant."""


class EmptySupport(MonolinkError):
    """An operation needing basic classes was given none."""


class DivisionByZeroPochhammer(MonolinkError):
    """Degenerate hypergeometric parameters: (c)_u = 0 under a nonzero term."""


class JacobiZeroDivide(MonolinkError):
    """A standalone coefficient ratio was requested at a Jacobi-value zero."""


class NonzeroConstantTerm(MonolinkError):
    """exp of a truncated polynomial requires a zero constant term."""


class HypothesisViolated(MonolinkError):
    """A formula was invoked outside the hypotheses under which it holds."""


class BoundTooHigh(MonolinkError):
    """Requested series degree needs data beyond the level-one range."""


class NotCongruent(MonolinkError):
    """Sign-change comparison requires w' = w (mod 2)."""


class MissingMoment(MonolinkError):
    """A positive-dimensional basic class has no recorded moment value."""


class FixtureError(MonolinkError):
    """Base class for fixture-file problems."""


class ParseError(FixtureError):
    """Fixture file is not valid JSON."""


class SchemaError(FixtureError):
    """Fixture JSON is missing a field or has a wrongly-typed field."""


class InvariantError(FixtureError):
    """Fixture parsed but violates a structural invariant."""
