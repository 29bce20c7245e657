"""Exception types shared across the package."""


class GhzforgeError(Exception):
    """Base class for all library-specific errors."""


class EmptyState(GhzforgeError):
    """A state was requested where every amplitude vanished."""


class PortCollision(GhzforgeError):
    """Two operands claimed the same spatial port."""


class BDCollision(GhzforgeError):
    """A beam-displacer merge would map two occupied modes onto one."""


class NotSingleOccupancy(GhzforgeError):
    """A projective measurement requires exactly one photon in its target."""


class MissingCorrection(GhzforgeError):
    """A feedforward rule has no entry for an observed outcome."""


class BranchMismatch(GhzforgeError):
    """Measurement branches that must merge into one state disagree."""


class InvalidParameters(GhzforgeError):
    """Dimension or photon number outside the supported range; the base of
    every usage error, which the CLI reports with exit code 2."""


class InvalidCoefficients(InvalidParameters):
    """Source coefficients are not a unit-norm real vector of length d."""


class OracleTooLarge(GhzforgeError):
    """Requested parameters exceed the brute-force enumeration bound."""
