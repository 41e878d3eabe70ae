"""Exception hierarchy shared across the package."""


class GraphError(Exception):
    """Base class for every error raised by this package."""


class ParseError(GraphError):
    """A dg document or map file is malformed."""


class DuplicateVertex(GraphError):
    """A vertex label was listed more than once."""


class DuplicateArrow(GraphError):
    """The same arrow appears twice in an input document."""


class UnknownVertex(GraphError):
    """An arrow endpoint or argument references a vertex that does not exist."""


class NotReflexive(GraphError):
    """Operation requires every vertex to carry a loop."""


class NotStable(GraphError):
    """Operation requires a stable graph; carries the violating witness."""


class LockedClasp(GraphError):
    """The graph has a locked clasp, so no preordered expansion exists."""

    def __init__(self, vertex, witness=None):
        super().__init__(vertex)
        self.vertex = vertex
        self.witness = witness


class DomainMismatch(GraphError):
    """A vertex assignment is not a total map into the target's vertices."""


class ChainMismatch(GraphError):
    """Two maps cannot be composed: inner target differs from outer source."""


class InvalidSplit(GraphError):
    """A proposed vertex split does not yield a verified compression."""

    def __init__(self, verdict):
        super().__init__(verdict)
        self.verdict = verdict


class PreconditionViolated(GraphError):
    """Arguments fail an operation's stated precondition."""


class BoundExceeded(GraphError):
    """Requested size is beyond the supported enumeration bounds."""


class InternalInvariantBreached(GraphError):
    """A runtime check of a proved invariant failed; this is a bug, not bad input."""
