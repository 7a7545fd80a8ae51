"""Exception types raised across the package."""

__all__ = [
    "AttKitError",
    "ConfigError",
    "GoldenMismatch",
    "InconsistentUpdate",
    "MissingGyro",
    "NotRotation",
    "NotSkew",
    "NotSymmetricPD",
    "PotentialGradientNotSkewCompatible",
    "ReflectionProfile",
    "ShapeMismatch",
    "SingularProfile",
    "StepTooLarge",
]


class AttKitError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(AttKitError):
    """Operands do not have conformable shapes."""


class NotSkew(AttKitError):
    """Matrix is not skew-symmetric within tolerance."""


class NotRotation(AttKitError):
    """Matrix is not a proper rotation within tolerance."""


class NotSymmetricPD(AttKitError):
    """Matrix is not symmetric positive definite within tolerance."""


class SingularProfile(AttKitError):
    """Attitude profile matrix is numerically singular (ill-posed problem)."""


class ReflectionProfile(AttKitError):
    """Attitude profile matrix has non-positive determinant; the closed-form
    solver would produce a reflection instead of a rotation."""


class PotentialGradientNotSkewCompatible(AttKitError):
    """Moment term built from a user potential gradient failed the skew check."""


class StepTooLarge(AttKitError):
    """A single integrator step would rotate the body by more than the guard angle."""


class InconsistentUpdate(AttKitError):
    """Angular velocity update equation has a non-negligible symmetric residual,
    typically caused by a non-symmetric rate weight or corrupted inputs."""


class MissingGyro(AttKitError):
    """Angular velocity measurement (or its weight) required but absent."""


class GoldenMismatch(AttKitError):
    """Computed result deviates from the bundled known-good reference values."""


class ConfigError(AttKitError):
    """Invalid or unparsable run configuration."""
