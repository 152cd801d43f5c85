"""Exception types shared across the package."""

from __future__ import annotations


class NclError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatchError(NclError):
    """Two operands live over different prime fields."""


class DimensionMismatchError(NclError):
    """Shapes or ambient dimensions do not line up."""


class UnknownBlockError(NclError):
    """A block, variable, or constraint id that the receiver does not know."""


class EnumerationLimitError(NclError):
    """An exhaustive enumeration would exceed the allowed number of points."""


class NotReducibleError(NclError):
    """A local reduction was requested where none applies (no-op)."""


class NotCycleFreeError(NclError):
    """An operation restricted to cycle-free graphs was given a cyclic one."""


class DocumentError(NclError):
    """A realization document failed to parse; `path` names the offending spot."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


class InvalidRealizationError(NclError):
    """Validation failed; `issues` holds the structured findings."""

    def __init__(self, issues) -> None:
        self.issues = tuple(issues)
        detail = "; ".join(f"[{i.tag}] {i.message}" for i in self.issues)
        super().__init__(detail or "invalid realization")
