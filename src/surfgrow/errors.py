"""Exception types raised by the simulation layers.

Every error that reflects a violated contract (bad input, broken scheme
precondition, unattainable request) derives from :class:`SurfgrowError`
so callers can catch the whole family at the CLI boundary.
"""


class SurfgrowError(Exception):
    """Base class for all package-specific errors."""


class SingularTensor(SurfgrowError):
    """2x2 tensor inversion requested below the determinant tolerance."""


class CFLViolation(SurfgrowError):
    """Explicit transport step exceeds the advective stability bound."""


class OutOfDomain(SurfgrowError):
    """A characteristic left the body other than through an outflow boundary."""


class GrowthNotSupported(SurfgrowError):
    """Inverse-motion transport invoked while mass is being added or removed."""


class NotReduced(SurfgrowError):
    """Elastic deformation field is outside the through-thickness ansatz."""


class SingularSystem(SurfgrowError):
    """Quasistatic solve attempted on a degenerate grid or matrix."""


class NegativeHeight(SurfgrowError):
    """Domain update ablated the body past extinction."""


class OutOfBody(SurfgrowError):
    """Closed-form solution queried above the growth front."""


class NoOracle(SurfgrowError):
    """Convergence study requested for a scenario without a closed form."""


class IncompatibleAnsatz(SurfgrowError):
    """Through-thickness reduction produced inconsistent constraints."""


class NoInverse(SurfgrowError):
    """Attachment stress cannot be matched by the constrained family."""


class ParseError(SurfgrowError):
    """Malformed configuration text; message carries the line number."""


class ValidationError(SurfgrowError):
    """Well-formed input violating an invariant; message names the field."""


class IoError(SurfgrowError):
    """Output serialization failed."""


class UsageError(SurfgrowError):
    """Bad command-line invocation."""
