"""Exception hierarchy and warning categories used across the package."""


class SctError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianInput(SctError):
    """A matrix that must be Hermitian violates the tolerance."""


class EigenFailure(SctError):
    """Hermitian eigendecomposition did not converge."""


class InvalidRange(SctError):
    """A parameter is outside its declared range (negative magnitude, ...)."""


class WrongDimension(SctError):
    """Operation defined only for a specific dimension was called on another."""


class DimensionMismatch(SctError):
    """Objects of incompatible dimensions were combined."""


class BadLabel(SctError):
    """Projector label out of range for the dimension."""


class MissingUnknown(SctError):
    """A setting references a process unknown that was not supplied."""


class UnknownScenario(SctError):
    """Requested scenario name is not in the catalog."""


class MissingSymbol(SctError):
    """A closed-form expression needs a symbol absent from the point."""


class EmptyRegion(SctError):
    """Singularity scan called with no axes or a degenerate grid."""


class RankDeficient(SctError):
    """Linear inversion design matrix has deficient rank."""


class StructuralSingularity(SctError):
    """A declared unknown does not influence the protocol's statistics anywhere."""


class SchemaError(SctError):
    """A file failed schema validation; message names the offending field."""


class FingerprintMismatch(SctError):
    """Counts file fingerprint does not match the supplied protocol."""


class SingularAtSolutionWarning(UserWarning):
    """Jacobian at the reconstruction solution is (near-)singular."""
