"""Exception types shared across the library."""


class SchottkyFoldError(Exception):
    """Base class for all library-specific errors."""


class UnsupportedFieldError(SchottkyFoldError):
    """No supported field carries a primitive p-th root of unity for (p, ell)."""


class DegeneratePairError(SchottkyFoldError):
    """An order-p map was requested for a pair of equal fixed points."""


class InvalidInputError(SchottkyFoldError):
    """A configuration violates the algorithm's input contract."""


class PairingError(SchottkyFoldError):
    """Base class for pair_up failures."""


class NotClusteredInPairsError(PairingError):
    """Some equivalence class of the even-cluster relation has size != 2."""


class NotSeparatedError(PairingError):
    """Pair axes come within twice the separation radius of each other."""

    def __init__(self, margin):
        super().__init__(f"separation margin {margin} is not > twice the radius")
        self.margin = margin


class RepeatedPointsError(SchottkyFoldError, ValueError):
    """A configuration that must hold distinct points repeats one."""
