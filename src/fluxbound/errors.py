"""Exception types shared across the package."""


class FluxboundError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSimplex(FluxboundError):
    """Simplex volume below the degeneracy threshold (1e-14 * h^d)."""


class NonConformingMesh(FluxboundError):
    """Facet incidence is not 1 (boundary) or 2 (interior), or tags are inconsistent."""


class MeshFormatError(FluxboundError):
    """Mesh text file could not be parsed or is inconsistent."""


class UnsupportedDegree(FluxboundError):
    """Requested quadrature exactness degree exceeds the supported maximum."""


class UnsolvableProblem(FluxboundError):
    """Problem data or matrix fails the solvability/SPD preconditions."""


class NoConvergence(FluxboundError):
    """Iterative solver did not reach the requested tolerance."""


class InfeasibleConstraints(FluxboundError):
    """Equality constraints of a vertex patch could not be satisfied."""


class DivergenceAuditFailed(FluxboundError):
    """Divergence residual of the polynomial flux is not zero where it must be."""


class ConformityAuditFailed(FluxboundError):
    """Normal traces of the reconstructed flux disagree across an interior facet."""


class InvalidVariant(FluxboundError):
    """Flux variant requested on an element where it is not defined."""


class NegativeDifference(FluxboundError):
    """Energy-difference route produced a significantly negative radicand."""


class SingularSystem(FluxboundError):
    """Closed-form coefficient system is singular (should not happen for kappa > 0)."""


class KappaJumpWarning(UserWarning):
    """Reaction-coefficient jump between patch neighbours exceeds the threshold."""
