"""Dispersing billiards of the periodic Lorentz gas: maps, perturbations,
hyperbolicity measurements, and transfer-operator spectra."""

__version__ = "0.1.0"

from .geometry import (ScattererConfig, Scatterer, config_metrics,
                       deformation_distance)
from .classical_map import (PhasePoint, CollisionResult, ClassicalMap,
                            free_flight, homogeneity_index,
                            singularity_distance)
from .forced_dynamics import (ForceField, KickMap, ForcedMap,
                              integrate_flight, apply_reflection)
from .curve_machinery import (NormParams, StableCurve, GenerationTree,
                              curve_distance, test_fn_distance,
                              pullback_generation, growth_sums,
                              sample_stable_curves, norm_estimates)
from .hyperbolicity import (ConeField, HypothesisReport, adapted_norm,
                            check_cone_invariance, expansion_stats,
                            distortion_constant, one_step_expansion_sum,
                            calibrate_delta0, curvature_propagation,
                            measure_jacobian_bound, verify_hypotheses)
from .perturbation_metric import (DistanceReport, map_distance,
                                  singular_set_samples, forced_displacement,
                                  geometric_scaling_checks)
from .transfer_spectrum import (UlamOperator, SpectrumResult, build_ulam,
                                spectrum, track_path, random_operator,
                                operator_distance, sample_invariant,
                                correlations, limit_stats)

__all__ = [
    "ScattererConfig", "Scatterer", "config_metrics",
    "deformation_distance", "PhasePoint", "CollisionResult", "ClassicalMap",
    "free_flight", "homogeneity_index", "singularity_distance",
    "ForceField", "KickMap", "ForcedMap", "integrate_flight",
    "apply_reflection",
    "NormParams", "StableCurve", "GenerationTree", "curve_distance",
    "test_fn_distance", "pullback_generation", "growth_sums",
    "sample_stable_curves", "norm_estimates",
    "ConeField", "HypothesisReport", "adapted_norm", "check_cone_invariance",
    "expansion_stats", "distortion_constant", "one_step_expansion_sum",
    "calibrate_delta0", "curvature_propagation", "measure_jacobian_bound",
    "verify_hypotheses",
    "DistanceReport", "map_distance", "singular_set_samples",
    "forced_displacement", "geometric_scaling_checks",
    "UlamOperator", "SpectrumResult", "build_ulam", "spectrum", "track_path",
    "random_operator", "operator_distance", "sample_invariant",
    "correlations", "limit_stats",
]
