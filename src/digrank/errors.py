"""Exception taxonomy for the digrank package.

Everything raised on purpose derives from DigraphError so callers can catch
one base class; the CLI maps ParseError-like failures to exit code 2 and
oracle disagreements (InternalMismatch) to exit code 3.
"""


class DigraphError(Exception):
    """Base class for all digrank errors."""


class ZeroWeight(DigraphError):
    """An arc was given weight 0 (absent arcs are encoded by omission)."""


class DuplicateArc(DigraphError):
    """The same ordered pair (u, v) appeared twice in an arc list."""


class VertexOutOfRange(DigraphError):
    """A vertex id is not an integer in [0, n), or a vertex count not one >= 0."""


class DimensionMismatch(DigraphError):
    """Vector/matrix shapes are inconsistent for the requested operation."""


class IndexOutOfRange(DigraphError):
    """A block index is outside the decomposition's block list."""


class InvalidSplit(DigraphError):
    """A (v, H) cut split violates the no-crossing-arc hypothesis."""


class PreconditionViolated(DigraphError):
    """A rank formula was applied to a digraph outside its hypotheses."""


class InconsistentClassification(DigraphError):
    """Membership-derived case disagrees with the rank-difference case (a bug)."""


class NotAForest(DigraphError):
    """The underlying graph contains a cycle where a forest was required."""


class InvalidSpec(DigraphError):
    """A malformed input that is not a vertex: a generator spec (unknown
    family, bad n or sizes, ...), a weight Fraction cannot read, an arc that
    is not a (u, v, weight) triple, an attachment kind that is not an
    EdgeKind, or a container (arcs, weights, attachments) that is not
    iterable."""


class ParseError(DigraphError):
    """The text graph format could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownSuite(DigraphError):
    """`verify --suite` was given a name that is not a known suite."""


class InternalMismatch(DigraphError):
    """Two routes that must agree (formula vs oracle) disagreed: a bug."""
