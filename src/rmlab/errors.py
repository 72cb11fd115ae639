"""Exception hierarchy shared by all rmlab modules."""


class RmlabError(Exception):
    """Base class for all rmlab errors."""


class AlgebraMismatch(RmlabError):
    """Operands live in different quaternion algebras or field towers."""


class MixedDiscriminant(AlgebraMismatch):
    """Quadratic irrationalities over incompatible discriminants."""


class NotInvertible(RmlabError):
    """Inversion requested for an element whose norm vanishes."""


class PrecisionExhausted(RmlabError):
    """A p-adic result has no significant digits at the working precision."""


class NotIsotropic(RmlabError):
    """A quadric operation received a vector of nonzero norm."""


class NonSquareNorm(RmlabError):
    """Internal error: -nrd(alpha) should be a square but is not."""


class NotRM(RmlabError):
    """The form is split at p, so its root is not an RM point for p."""


class DoesNotStabilize(RmlabError):
    """The matrix does not fix the given point."""


class DegenerateEndpoint(RmlabError):
    """A chain endpoint lies on a geodesic it must avoid."""


class DegenerateConfiguration(RmlabError):
    """Segments share support or touch non-transversally."""


class SamplesExhausted(RmlabError):
    """The winding oracle ran out of refinement budget."""


class Mismatch(RmlabError):
    """Two independent computations of the same value disagree."""


class NotRegular(RmlabError):
    """Evaluation point collides with the divisor of the cocycle."""


class SameOrbit(RmlabError):
    """The two RM points lie in one orbit; the pairing is undefined."""


class Inconsistent(RmlabError):
    """The generating series does not come from a modular form."""
