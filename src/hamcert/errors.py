"""Exception types shared across the package."""


class GraphInputError(ValueError):
    """Malformed caller input: bad vertex ids, loops, degenerate queries."""


class Graph6ParseError(GraphInputError):
    """Invalid graph6 text; ``offset`` is the byte position of the problem
    and ``line``, when the text came from a file, its 1-based line."""

    def __init__(self, message: str, offset: int, line: int | None = None):
        where = f"byte offset {offset}" if line is None else f"line {line}, byte offset {offset}"
        super().__init__(f"{message} ({where})")
        self.message = message
        self.offset = offset
        self.line = line


class CapacityError(RuntimeError):
    """Input exceeds a desk-scale ceiling of an exponential routine."""


class EngineError(RuntimeError):
    """Internal inconsistency in the extraction engine; always a bug."""
