"""Cone invariance, expansion, distortion, curvature, hypothesis report."""

import math

import numpy as np
import pytest

from lorentzgas import ScattererConfig, ClassicalMap, config_metrics
from lorentzgas.curve_machinery import (NormParams, StableCurve,
                                        sample_stable_curves)
from lorentzgas.hyperbolicity import (ConeField, adapted_norm,
                                      check_cone_invariance, expansion_stats,
                                      distortion_constant,
                                      one_step_expansion_sum, calibrate_delta0,
                                      curvature_propagation,
                                      measure_jacobian_bound,
                                      verify_hypotheses)
from lorentzgas.classical_map import PhasePoint, homogeneity_index
from lorentzgas.cli import fixture_path, load_forced
from lorentzgas.errors import LorentzGasError, ValidationFailed


def four_disk():
    return ScattererConfig.from_dict({"scatterers": [
        {"R": 0.30, "center": [0.0, 0.0]},
        {"R": 0.30, "center": [0.5, 0.5]},
        {"R": 0.15, "center": [0.0, 0.5]},
        {"R": 0.15, "center": [0.5, 0.0]}]})


@pytest.fixture(scope="module")
def setup():
    cfg = four_disk()
    met = config_metrics(cfg)
    return cfg, met, ClassicalMap(cfg)


def test_cone_field_basics(setup):
    _, met, _ = setup
    cone = ConeField.unstable(met)
    assert cone.slope_lo == pytest.approx(met.K_min)
    assert cone.slope_hi == pytest.approx(met.K_max + 1.0 / met.tau_min)
    assert cone.contains(0.5 * (cone.slope_lo + cone.slope_hi))
    assert not cone.contains(cone.slope_lo - 1.0)
    narrow = cone.scaled(0.5)
    assert narrow.slope_hi - narrow.slope_lo == pytest.approx(
        0.5 * (cone.slope_hi - cone.slope_lo))
    with pytest.raises(ValidationFailed):
        ConeField("unstable", 2.0, 1.0)


def test_adapted_norm_vertical_is_euclidean():
    cfg = four_disk()
    x = PhasePoint(0, 0.2, 0.3)
    assert adapted_norm(x, [0.0, 0.7], cfg) == pytest.approx(0.7)
    # homogeneity of the norm
    a = adapted_norm(x, [1.0, -2.0], cfg)
    b = adapted_norm(x, [3.0, -6.0], cfg)
    assert b == pytest.approx(3 * a, rel=1e-12)


def test_cone_invariance_holds(setup):
    cfg, met, T = setup
    cone = ConeField.unstable(met)
    out = check_cone_invariance(T, cone, n_samples=4000, seed=1)
    assert out["failures"] == 0
    assert out["checked"] > 15000
    assert out["worst"]["margin"] >= 0


def test_narrowed_cone_fails(setup):
    """Negative control: a strictly smaller cone cannot be invariant."""
    cfg, met, T = setup
    cone = ConeField.unstable(met).scaled(0.5)
    out = check_cone_invariance(T, cone, n_samples=4000, seed=1)
    assert out["failures"] > 0


def test_expansion_floor(setup):
    cfg, met, T = setup
    cone = ConeField.unstable(met)
    st = expansion_stats(T, cone, n_samples=4000, seed=2)
    floor = 1.0 + met.K_min * met.tau_min
    assert st["Lambda_measured"] >= floor - 1e-6
    # expansion * cos(phi1) stays flat, so expansion ~ 1/cos(phi1)
    assert abs(st["grazing_fit"]["slope"]) < 0.5


def test_one_step_sum_below_one(setup):
    cfg, met, T = setup
    params = NormParams()
    curves = sample_stable_curves(cfg, met, 8, params, seed=3)
    for w in curves:
        s = one_step_expansion_sum(T, w, params)
        assert 0.0 < s["sum_star"] < 1.0
        assert np.isfinite(s["sum_sigma"])


def test_calibrated_delta0(setup):
    cfg, met, T = setup
    d0, worst = calibrate_delta0(T, met, n_curves=10, target=0.9, seed=0,
                                 iters=5)
    assert d0 > 2e-3
    assert worst <= 0.9


def test_rebuilt_params_keep_sigma0(setup):
    """alpha = 0.9 is valid with sigma0 = 0.05 only: both rebuilds of the
    params with a new delta0 keep its sigma0."""
    cfg, met, T = setup
    params = NormParams(alpha=0.9, sigma0=0.05)
    w = sample_stable_curves(cfg, met, 1, params, seed=3)[0]
    assert one_step_expansion_sum(T, w, params)["pieces"] > 0
    d0, worst = calibrate_delta0(T, met, n_curves=2, target=0.9, seed=0,
                                 iters=1, params=params)
    assert d0 > 0 and np.isfinite(worst)


def test_distortion_estimate_and_refinement(setup):
    cfg, met, T = setup
    curves = sample_stable_curves(cfg, met, 15, NormParams(), seed=4)
    a = distortion_constant(T, curves, n=3, pairs_per_curve=20, seed=5)
    assert a["pairs"] > 100
    assert 0 < a["C_d_W"] <= a["C_d_W_sup"]
    assert 0 <= a["C_d_mu"] <= a["C_d_mu_sup"]
    # the quantile estimate stays the same order when pairs double
    # (the acceptance suite checks the tighter bound at full scale)
    b = distortion_constant(T, curves, n=3, pairs_per_curve=40, seed=5)
    assert abs(b["C_d_W"] - a["C_d_W"]) <= 0.5 * a["C_d_W"]


def _scalar_distortion(map_def, curves, n, pairs_per_curve, seed):
    """distortion_constant as a loop of scalar steps, one orbit at a time."""
    def orbit(x, slope):
        jw, jmu = [], []
        itinerary = [(x.scatterer, homogeneity_index(x.phi))]
        v = np.array([1.0, slope])
        for _ in range(n):
            res, J = map_def.step(x)
            u = J.m @ v
            jw.append(float(np.linalg.norm(u) / np.linalg.norm(v)))
            jmu.append(abs(J.det) * math.cos(res.next.phi) / math.cos(x.phi))
            x = res.next
            itinerary.append((x.scatterer, homogeneity_index(x.phi)))
            v = u / np.linalg.norm(u)
        return np.prod(jw), np.prod(jmu), itinerary

    rng = np.random.default_rng(seed)
    qw, qmu = [], []
    for W in curves:
        a, b = W.interval
        for _ in range(pairs_per_curve):
            r1, r2 = sorted(rng.uniform(a, b, 2))
            if r2 - r1 < 1e-7:
                continue
            try:
                w1, m1, s1 = orbit(W.point(r1), float(W.slope_at(r1)))
                w2, m2, s2 = orbit(W.point(r2), float(W.slope_at(r2)))
            except LorentzGasError:
                continue
            if s1 != s2:
                continue
            d = (r2 - r1) * math.hypot(1.0, float(W.slope_at(0.5 * (r1 + r2))))
            qw.append(abs(math.log(w1) - math.log(w2)) / d ** (1.0 / 3.0))
            qmu.append(abs(math.log(m1) - math.log(m2)) / d ** (1.0 / 3.0))
    return {"C_d_W": float(np.quantile(qw, 0.95)),
            "C_d_mu": float(np.quantile(qmu, 0.95)),
            "C_d_W_sup": max(qw), "C_d_mu_sup": max(qmu), "pairs": len(qw)}


@pytest.mark.parametrize("name", ["classical", "forced"])
def test_distortion_matches_scalar_orbits(setup, name):
    """The array orbits give the pairs and constants of scalar orbits."""
    if name == "classical":
        cfg, met, T = setup
        curves = sample_stable_curves(cfg, met, 15, NormParams(), seed=4)
        # a curve across four strip boundaries near grazing: pairs that
        # straddle one have different itineraries and are skipped
        curves.append(StableCurve.from_function(
            0, 0.50, 0.52, lambda r: math.pi / 2 - 1 / 144 - 0.2 * (r - 0.51),
            require_homogeneous=False))
        n, pairs = 3, 20
    else:
        T = load_forced(fixture_path("forced_four_disk"), 3.0)[0]
        curves = sample_stable_curves(T.config, config_metrics(T.config), 4,
                                      NormParams(), seed=3)
        n, pairs = 3, 6
    got = distortion_constant(T, curves, n=n, pairs_per_curve=pairs, seed=5)
    want = _scalar_distortion(T, curves, n, pairs, seed=5)
    assert got["pairs"] == want["pairs"] > 10
    for key in ("C_d_W", "C_d_W_sup"):
        assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key
    if name == "forced":
        for key in ("C_d_mu", "C_d_mu_sup"):
            assert got[key] == pytest.approx(want[key], rel=1e-12), key
    else:  # roundoff of a measure Jacobian identically 1
        assert max(got["C_d_mu_sup"], want["C_d_mu_sup"]) < 1e-8


def test_measure_jacobian_identity(setup):
    cfg, met, T = setup
    mj = measure_jacobian_bound(T, n_samples=800, seed=6)
    assert mj["eta_measured"] == pytest.approx(1.0, abs=1e-8)


def test_curvature_propagation_bounded(setup):
    cfg, met, T = setup
    rr = np.linspace(0.30, 0.34, 33)
    phi = 0.1 + 4.0 * (rr - rr[0])  # unstable-cone slope on scatterer 0
    out = curvature_propagation(T, (0, rr, phi), n=3, centers=4)
    assert len(out) == 4
    assert out[0] == pytest.approx(0.0, abs=1e-6)
    finite = [v for v in out[1:] if not math.isnan(v)]
    assert len(finite) >= 2
    assert max(finite) < 500.0


def test_hypothesis_report(setup):
    cfg, met, T = setup
    params = NormParams()
    rep = verify_hypotheses(T, met, params, n_samples=4000, n_curves=10,
                            seed=0)
    assert set(rep.results) == {"H1", "H2", "H3", "H4", "H5"}
    assert rep.all_passed
    d = rep.to_dict()
    assert d["all_passed"]
    assert d["hypotheses"]["H2"]["constants"]["Lambda_measured"] >= 1.0
