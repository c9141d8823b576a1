"""Semantic exceptions shared across the package."""


class QBoundError(Exception):
    """Base class for all qbound errors."""


class DomainError(QBoundError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UsageError(QBoundError, ValueError):
    """A structurally invalid request (bad grid, bad flag combination)."""


__all__ = [
    "QBoundError",
    "DomainError",
    "UsageError",
]
