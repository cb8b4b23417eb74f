"""Exception types shared across the library, and the pairing rules a
``PairingError`` names."""

from enum import Enum


class SchottkyFoldError(Exception):
    """Base class for all library-specific errors."""


class UnsupportedFieldError(SchottkyFoldError):
    """No supported field carries a primitive p-th root of unity for (p, ell)."""


class InvalidInputError(SchottkyFoldError):
    """A configuration violates the algorithm's input contract."""


class PairingFailure(Enum):
    """The pairing rule a set breaks: one of pair_up's two, or, after a
    fold, two distinct inherited pairs that share a fixed point."""

    NOT_CLUSTERED_IN_PAIRS = "not_clustered_in_pairs"
    NOT_SEPARATED = "not_separated"
    SHARED_FIXED_POINT = "shared_fixed_point"


class PairingError(SchottkyFoldError):
    """pair_up's refusal: ``failure`` names the rule that broke."""

    def __init__(self, failure: PairingFailure, message: str):
        super().__init__(message)
        self.failure = failure

    def __reduce__(self):
        # rebuilt from both arguments, so a copy or a pickle keeps the failure
        return type(self), (self.failure, str(self))


class RepeatedPointsError(SchottkyFoldError, ValueError):
    """A configuration, or a pair, that must hold distinct points repeats one.
    ``classes``, from ``cluster_data`` (empty from the audit), holds each
    repeated value's indices into the points, infinity's too, ascending and
    in order of first index."""

    def __init__(self, message: str, classes: tuple[tuple[int, ...], ...] = ()):
        super().__init__(message)
        self.classes = classes

    def __reduce__(self):
        # rebuilt from both arguments, so a copy or a pickle keeps the classes
        return type(self), (str(self), self.classes)
