"""Exception types shared across the library."""


class Ofc2dError(Exception):
    """Base class for all library errors."""


class OutOfBounds(Ofc2dError):
    """A segment or point leaves the declared bounding box."""


class OverlappingSegments(Ofc2dError):
    """Two input segments properly cross or overlap collinearly."""


class PointOutsideBBox(Ofc2dError):
    """Query point is not inside the structure's bounding box."""


class InvalidParameter(Ofc2dError):
    """A numeric parameter is outside its allowed range."""


class RetryExhausted(Ofc2dError):
    """Every allowed sample of a randomized construction missed its size
    budget; a construction that fails its verification raises ValueError."""


class NotRootToLeaf(Ofc2dError):
    """Query path is not exactly a root-to-leaf path."""


class VertexNotOnPath(Ofc2dError):
    """A queried vertex does not belong to the catalog path."""


class DisconnectedSubgraph(Ofc2dError):
    """Subgraph query names a vertex set that is not connected."""


class UnknownVertex(Ofc2dError):
    """A query references a vertex id that does not exist."""


class InfeasibleParams(Ofc2dError):
    """Adversarial-instance parameters violate the feasibility inequality."""


class ParseError(Ofc2dError):
    """Malformed instance or query file.

    Carries the offending path and 1-based line number.
    """

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno
