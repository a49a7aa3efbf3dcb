"""Exception hierarchy for the audit library.

Every domain failure raises a subclass of :class:`AuditError`, so callers
(and the CLI) can distinguish "the input violates a contract" from plain
programming errors.  Non-existence of a causal representation is NOT an
error anywhere in this package — it is a report field.
"""


class AuditError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidDesign(AuditError, ValueError):
    """A cell table or subpopulation rule violates its invariants."""


class DegenerateWeights(AuditError):
    """E[a(X)|W0=1] = 0: the weighted estimand is undefined."""


class MissingTau(AuditError):
    """An operation needs CATE values that were not supplied."""


class EmptySubpopulation(AuditError):
    """A subpopulation rule selects a zero-mass population."""


class OverlapViolation(AuditError):
    """A propensity score equals 0 or 1 in some cell."""


class NoCompliers(AuditError):
    """The instrument moves treatment in no cell (zero complier mass)."""


class NoTreatedGroups(AuditError):
    """Every unit in the group distribution is never treated."""


class MissingNumericLabels(AuditError):
    """Numeric cell labels are required (convex-hull check) but absent."""


class NegativeBound(AuditError):
    """A bound parameter that must be nonnegative is negative."""


class InstanceTooLarge(AuditError):
    """Brute-force enumeration refused: too many cells."""


class EmptyCellArm(AuditError):
    """A within-cell conditional frequency has no observations."""


class AllCellsTrimmed(AuditError):
    """Every cell fell below the w0 trimming threshold c_n."""


class ResampleDegenerate(AuditError):
    """Bootstrap resampling repeatedly produced unusable resamples."""


class DimensionMismatch(AuditError, ValueError):
    """Vector arguments do not align with the design's cells."""


class ParseError(AuditError):
    """A CSV/JSON payload is malformed (reported with a line number)."""


class SchemaError(AuditError):
    """A file has the wrong header or structurally inconsistent rows."""


class UnbalancedPanel(AuditError):
    """A panel is missing unit-period observations."""


class InvalidSpec(AuditError):
    """A simulation spec fails validation."""


class NonFiniteResult(AuditError):
    """A computed report number overflowed or is undefined."""


class InvalidSupport(AuditError):
    """Support information is inconsistent (e.g. lower bound above upper)."""
