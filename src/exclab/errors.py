"""Exception types raised by the exclab library, and the per-cell check
that raises them for a batch of parameter points."""

import numpy as np


class ExclabError(Exception):
    """Base class for all library errors."""


class NegativeRate(ExclabError):
    """An off-diagonal transition rate is negative."""


class NonzeroDiagonal(ExclabError):
    """The raw rate matrix has a nonzero diagonal entry."""


class Reducible(ExclabError):
    """The transition graph is not strongly connected."""


class SingularSystem(ExclabError):
    """The steady-state linear solve failed beyond tolerance."""


class EigenFailure(ExclabError):
    """The eigenvalue solver did not converge."""


class StepCollapse(ExclabError):
    """Finite-difference refinement could not reach the requested tolerance."""


class BadPartition(ExclabError):
    """Region A is empty, the full state space, or not a single state."""


class SingularB(ExclabError):
    """The B block of the generator is not invertible."""


class DimensionMismatch(ExclabError):
    """Weight scheme and rate matrix have different dimensions."""


class NonIntegerScheme(ExclabError):
    """Operation requires an integer-valued weight scheme."""


class MassDeficit(ExclabError):
    """Outcome distribution range captured too little probability mass."""


class DegenerateFermi(ExclabError):
    """A Fermi occupation is exactly 0 or 1, so entropy weights diverge."""


class TooFewRecords(ExclabError):
    """Not enough excursion records for the requested estimate."""


class UnknownColumn(ExclabError):
    """Requested column is not present in the CSV header."""


class MalformedCsv(ExclabError):
    """Sweep CSV could not be parsed as a complete rectangular grid."""


def raise_first(bad, exc_type, template: str, *values) -> None:
    """Raise ``exc_type`` if the mask ``bad`` is true at any cell.

    ``bad`` has the batch shape of the checked arrays (0-d for one point).
    The message is ``template`` formatted with each of ``values`` taken at
    the first failing cell.
    """
    if not (bad.any() if isinstance(bad, np.ndarray) else bad):
        return
    i = int(np.argmax(bad))
    shape = np.shape(bad)
    raise exc_type(template.format(
        *(np.broadcast_to(v, shape).flat[i].item() for v in values)))
