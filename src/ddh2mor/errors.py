"""Exception taxonomy shared across the package."""


class ReductionError(Exception):
    """Base class for all domain errors raised by this package."""


class NotStable(ReductionError):
    """A state matrix has spectral radius at (or numerically beyond) one."""


class NoUniqueSolution(ReductionError):
    """Coefficient spectra collide, so the matrix equation has no unique solution."""


class SingularShift(ReductionError):
    """Transfer-function evaluation point coincides with a system pole."""


class GenerationFailed(ReductionError):
    """Synthetic system generation kept producing unstable matrices."""


class RankDeficientData(ReductionError):
    """Snapshot blocks do not satisfy the required full-rank conditions."""


class AssumptionViolated(ReductionError):
    """Spectral separation required by the data-driven solves does not hold."""


class InsufficientData(ReductionError):
    """Initializer data has lower numerical rank than the target order."""


class SingularE(ReductionError):
    """Loewner descriptor matrix is numerically singular at the target order."""


class StabilizationFailed(ReductionError):
    """Eigenvalue adjustments did not reach the stability annulus."""


class NumericalOverflow(ReductionError):
    """Finite data led to a non-finite intermediate: it spans beyond the float range."""


class FormatError(ReductionError):
    """On-disk matrix data is malformed or inconsistent with its manifest."""
