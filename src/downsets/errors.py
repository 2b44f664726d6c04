"""Exception types shared across the package."""


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


class TraceMismatch(DownsetError):
    """D intersected with the pivot set M is not the expected trace N."""


class DomainError(DownsetError):
    """Arguments outside the domain an operation is defined on."""


class MissingInput(DownsetError):
    """A required input value was not supplied."""


class ShapeError(DownsetError):
    """A residual poset does not have the structure the method relies on."""


class StructureError(DownsetError):
    """Empirically derived structural data violates a required shape."""


class ParseError(DownsetError):
    """Malformed poset text."""
