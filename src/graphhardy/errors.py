"""Exception types shared across the package."""


class GraphHardyError(Exception):
    """Base class for all package errors."""


class DisconnectedGraph(GraphHardyError):
    """The edge set does not span a single connected component."""


class NegativeWeight(GraphHardyError):
    """An edge weight is negative."""


class ZeroMeasureVertex(GraphHardyError):
    """Some vertex has m(x) = 0 (no incident weight)."""


class KernelComponent(GraphHardyError):
    """Input has a component on the constants, where the requested
    operator is singular."""


class NonConvergent(GraphHardyError):
    """A truncated series could not reach the requested tolerance."""


class OracleCapExceeded(GraphHardyError):
    """A dense oracle was asked for above its cap (`calculus.SpectralOracle`);
    nothing else needs it there, lambda_star included."""


class UncertifiedSpectrum(GraphHardyError):
    """lambda_star could not be certified: the Lanczos estimate failed,
    an inertia count disagreed with it, or no margin cleared the
    factorization's backward error."""


class PeriodicWalk(GraphHardyError):
    """The walk is periodic (lambda_star = 1 on the mean-zero subspace,
    e.g. a bipartite graph without loops), so no power series in P
    converges there."""


class OverlappingSets(GraphHardyError):
    """Decay fit requested for sets E, F that intersect."""


class ValidationFailed(GraphHardyError):
    """A molecule fails validation: its factorization or its size
    bounds."""


class FactorizationMismatch(ValidationFailed):
    """Stored molecule does not reproduce from its pre-image."""


class SizeBoundViolated(ValidationFailed):
    """Annulus size bound fails for some ring index j."""

    def __init__(self, j, measured, bound):
        self.j = j
        self.measured = measured
        self.bound = bound
        super().__init__(
            f"annulus j={j}: ||b||_L2(C_j) = {measured:.6e} exceeds bound {bound:.6e}"
        )


class NotExactForm(GraphHardyError):
    """Edge function is not the differential of any vertex function."""
