"""Domain error taxonomy.

Every error the library raises on bad input or violated hypotheses derives
from DomainError; the CLI maps the `code` attribute into its error JSON.
"""


class DomainError(Exception):
    code = "domain-error"


class EmptyGenerators(DomainError):
    code = "empty-generators"


class NotCoprime(DomainError):
    code = "not-coprime"


class ModulusNotInSemigroup(DomainError):
    code = "modulus-not-in-semigroup"


class InternalInconsistency(DomainError):
    """Two characterizations that must agree disagreed: an implementation bug."""

    code = "internal-inconsistency"


class NonStabilized(DomainError):
    code = "non-stabilized"


class AmbientMismatch(DomainError):
    code = "ambient-mismatch"


class NotAGap(DomainError):
    code = "not-a-gap"


class StepInSemigroup(DomainError):
    code = "step-in-semigroup"


class NotInSemigroup(DomainError):
    code = "not-in-semigroup"


class NotSymmetric(DomainError):
    code = "not-symmetric"


class HypothesisViolated(DomainError):
    code = "hypothesis-violated"


class MembershipViolated(DomainError):
    code = "membership-violated"


class NotCoprimeMultipliers(DomainError):
    code = "not-coprime-multipliers"


class CaseExhausted(DomainError):
    """The constructive witness case machine ran out of cases; a bug, never expected."""

    code = "case-exhausted"


class TooLarge(DomainError):
    """A multiplicity, Frobenius number or modulus above semigroup.MAX_WINDOW."""

    code = "too-large"
