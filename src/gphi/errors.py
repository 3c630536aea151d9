"""Exception types shared across the package.

Every raised condition gets its own class so callers (and the CLI) can map
failures to exit codes without string matching.  Exceptions that carry a
counterexample expose it on ``.witness``.
"""

from __future__ import annotations


class GphiError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str = "", witness=None):
        super().__init__(message)
        self.witness = witness


# --- spaces ---------------------------------------------------------------

class AsymmetricMatrix(GphiError):
    pass


class NegativeEntry(GphiError):
    pass


class NonFiniteEntry(GphiError):
    pass


class ZeroOffDiagonal(GphiError):
    pass


class NonzeroDiagonal(GphiError):
    pass


class TooManyPoints(GphiError):
    pass


class ConstantTooSmall(GphiError):
    pass


class ConstantOverflow(GphiError):
    pass


class PointOutOfDomain(GphiError):
    pass


class EmptySequence(GphiError):
    pass


class TailLongerThanSequence(GphiError):
    pass


class NonpositiveRadius(GphiError):
    pass


# --- gauges ---------------------------------------------------------------

class NonpositiveArgument(GphiError):
    pass


class EmptyGrid(GphiError):
    pass


class NotStrictlyIncreasing(GphiError):
    pass


class NoValidEpsilon(GphiError):
    pass


class BudgetExhausted(GphiError):
    pass


# --- contraction ----------------------------------------------------------

class ModeUnsupportedWarning(UserWarning):
    """Random sampling requested where an exhaustive scan is feasible."""


class PsiNotNondecreasing(GphiError):
    pass


class PsiNotDiverging(GphiError):
    pass


class NotInvertible(GphiError):
    pass


class DomainRestricted(GphiError):
    pass


# --- solver ---------------------------------------------------------------

class OrbitTooShort(GphiError):
    pass


class TailNotSmall(GphiError):
    pass


# --- harness --------------------------------------------------------------

class ConfigInvalid(GphiError):
    pass
