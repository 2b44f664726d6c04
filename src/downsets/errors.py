"""Exception types shared across the package, one per kind of failure.

cli.main exits 2 on ParseError or OSError (a file's CycleError arrives as a
ParseError), 3 on CapacityError and 4 on DomainError; any other error
propagates as an internal fault.  Two builtins stay: Poset(...) raises
ValueError for rows that are not a partial order, and a mask outside the
carrier raises IndexError."""


class DownsetError(Exception):
    """Base class for all package errors."""


class CycleError(DownsetError):
    """The cover digraph contains a directed cycle; position is the index of
    the first cover that closes one with the covers before it."""

    def __init__(self, message, position):
        super().__init__(message)
        self.position = position


class CapacityError(DownsetError):
    """A size or enumeration bound was exceeded."""


class NotADownSet(DownsetError):
    """A set that must be downward closed is not."""


class DomainError(DownsetError):
    """Arguments outside the domain an operation is defined on, or a
    required input value that was not supplied."""


class StructureError(DownsetError):
    """A residual or derived table lacks the shape a method relies on."""


class ParseError(DownsetError):
    """Malformed poset text."""
