"""Exception types shared across the package."""


class KlscError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(KlscError):
    """Malformed or mathematically inadmissible input data."""


class InconsistentSystemError(KlscError):
    """A linear system Ax = b has no solution (distinct from a zero kernel)."""


class NonEulerianError(KlscError):
    """A poset required to be Eulerian is not."""


class NotGeometricError(KlscError):
    """A lattice required to be geometric (atomic and semimodular) is not."""


class InvalidKernelError(KlscError):
    """A kernel table violates the kernel axioms, or the KLS solver's
    consistency assertion failed on it."""


class DegreeBoundError(KlscError):
    """A boundary module acquired a minimal generator at or above the
    half-degree bound that the characteristic-zero theory forbids."""

    def __init__(self, where, degree, bound):
        self.where = where
        self.degree = degree
        self.bound = bound
        super().__init__(
            f"boundary module at {where!r} has a minimal generator in "
            f"half-degree {degree} >= {bound}"
        )


class TruncationBoundError(KlscError):
    """A minimal generator appeared at the truncation bound of a graded
    module; the result would be unreliable and the caller must raise the
    bound."""


class PGKMError(KlscError):
    """A moment graph fails the p-GKM condition, so the mod-p sheaf
    computation is not meaningful."""
