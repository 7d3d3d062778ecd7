"""Exception types shared across the toolkit."""


class LorentzGasError(Exception):
    """Base class for all toolkit errors."""


class NonConvex(LorentzGasError):
    """Scatterer boundary has non-positive curvature somewhere."""


class SelfIntersecting(LorentzGasError):
    """Radial profile is non-positive somewhere."""


class Overlap(LorentzGasError):
    """Two scatterers (or torus images) intersect."""


class ArclengthMismatch(LorentzGasError):
    """Configurations being compared have different boundary lengths."""


class NoCollision(LorentzGasError):
    """Free flight exceeded the flight cap (infinite-horizon corridor)."""

    def __init__(self, msg="flight cap exceeded", tau=None):
        super().__init__(msg)
        self.tau = tau


class Tangential(LorentzGasError):
    """Collision is within grazing tolerance of tangency."""


class SingularityTooClose(LorentzGasError):
    """Point is too close to a singularity curve for the requested operation."""


class EnergyDrift(LorentzGasError):
    """Flow integration lost the conserved quantity beyond tolerance."""


class KickEjected(LorentzGasError):
    """Collision kick produced a non-outgoing velocity."""


class CurveNotHomogeneous(LorentzGasError):
    """Curve straddles a homogeneity strip boundary."""


class RefinementBudgetExceeded(LorentzGasError):
    """Curve pullback needed more cut refinement than allowed."""


class DisjointIntervals(LorentzGasError):
    """Curves share no common r-interval."""


class PhaseSpaceMismatch(LorentzGasError):
    """Maps live on different phase spaces (component lengths differ)."""


class InfiniteHorizon(LorentzGasError):
    """Operation requires a finite-horizon configuration."""


class NoConvergence(LorentzGasError):
    """Iterative solver exhausted its budget."""


class WeightNotNormalized(LorentzGasError):
    """Random-ensemble weight function does not integrate to one."""


class ValidationFailed(LorentzGasError):
    """A config file or manifest failed validation."""

    def __init__(self, field, msg):
        super().__init__(f"{field}: {msg}")
        self.field = field
