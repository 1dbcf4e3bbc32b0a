"""Exception types shared across the package.

Every domain error raised by the library derives from PuiseuxError, so
callers (the CLI in particular) can distinguish "the input is outside the
mathematical domain" from programming errors.
"""


class PuiseuxError(Exception):
    """Base class for all domain errors raised by this package."""


class NonPositive(PuiseuxError):
    """A value that must be positive (or nonnegative) is not."""


class NotPrime(PuiseuxError):
    """A purported prime fails a primality check."""


class BadProgression(PuiseuxError):
    """An arithmetic progression cannot contain more than one prime."""


class NotFoundWithinLimit(PuiseuxError):
    """A bounded search ran out of budget before finding its target."""


class NotCofinite(PuiseuxError):
    """Generators with gcd > 1 do not give a cofinite submonoid of N."""


class BadIndex(PuiseuxError):
    """A sequence or family index is out of range."""


class NotDense(PuiseuxError):
    """A construction that needs a dense monoid received one that is not
    (or whose density cannot be established)."""


class HypothesisViolated(PuiseuxError):
    """The closed-form hypotheses of a criterion do not hold, or an
    identity a construction rests on fails its exact re-check."""


class NotAtomic(PuiseuxError):
    """An operation defined only for atomic monoids got a non-atomic one."""


class InsufficientMultiplicity(PuiseuxError):
    """A factorization rewrite needs more copies of an atom than present."""


class GcdOne(PuiseuxError):
    """Numerators share no prime factor, so no embedding prime exists."""


class UnknownClaim(PuiseuxError):
    """An unrecognized claim identifier was passed to the verifier."""


class ParseError(PuiseuxError):
    """A token could not be parsed as an exact rational."""
