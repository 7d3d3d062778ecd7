"""Stable curves, distances, pullback trees, growth sums, norms."""

import math

import numpy as np
import pytest

from lorentzgas import ScattererConfig, ClassicalMap, config_metrics
from lorentzgas.curve_machinery import (NormParams, StableCurve, curve_distance,
                                        pullback_generation, growth_sums,
                                        sample_stable_curves, norm_estimates)
from lorentzgas.classical_map import homogeneity_index
from lorentzgas.curve_machinery import test_fn_distance as fn_distance
from lorentzgas.errors import (CurveNotHomogeneous, DisjointIntervals,
                               ValidationFailed)


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


def flat_curve(sc=0, r0=0.3, r1=0.45, phi0=0.1, slope=-4.0):
    return StableCurve.from_function(sc, r0, r1,
                                     lambda r: phi0 + slope * (r - r0))


def test_curve_basics():
    w = flat_curve()
    assert w.interval == (0.3, 0.45)
    assert w.phi_at(0.3) == pytest.approx(0.1)
    assert w.slope_at(0.37) == pytest.approx(-4.0, abs=1e-9)
    # arclength of a straight graph
    assert w.length == pytest.approx(0.15 * math.hypot(1, 4.0), rel=1e-8)
    assert w.max_curvature() < 1e-6


def test_curve_validation():
    with pytest.raises(ValidationFailed):
        StableCurve(0, [0.1, 0.2], [0.0, 0.0])  # too few knots
    # a curve crossing many strips is rejected
    with pytest.raises(CurveNotHomogeneous):
        StableCurve.from_function(0, 0.1, 0.5,
                                  lambda r: (math.pi / 2 - 1e-4) * (r - 0.1) / 0.4)


def test_restricted_and_translated():
    w = flat_curve()
    v = w.restricted(0.35, 0.40)
    assert v.interval == (0.35, 0.40)
    assert v.phi_at(0.37) == pytest.approx(w.phi_at(0.37), abs=1e-12)
    u = w.translated(0.05)
    assert u.phi_at(0.4) == pytest.approx(w.phi_at(0.4) + 0.05, abs=1e-12)


def test_curve_distance_metric_properties():
    w = flat_curve()
    v = flat_curve(phi0=0.12)
    assert curve_distance(w, w) == pytest.approx(0.0, abs=1e-12)
    assert curve_distance(w, v) == pytest.approx(curve_distance(v, w))
    assert curve_distance(w, v) >= 0.02
    # different scatterers are infinitely far apart
    assert curve_distance(w, flat_curve(sc=1)) == math.inf


def test_pulled_back_fn_distance():
    w = flat_curve()
    v = flat_curve(r0=0.32, r1=0.47, phi0=0.1 - 0.02 * 4.0)
    d0 = fn_distance(lambda r, p: np.cos(r), w,
                     lambda r, p: np.cos(r), w, q=0.5)
    assert d0 == pytest.approx(0.0, abs=1e-12)
    d = fn_distance(lambda r, p: np.cos(r), w,
                    lambda r, p: np.cos(r) + 0.1, v, q=0.5)
    assert d > 0.05
    far = flat_curve(r0=0.8, r1=0.9)
    with pytest.raises(DisjointIntervals):
        fn_distance(lambda r, p: r, w, lambda r, p: r, far, q=0.5)


def test_strip_indices_sign():
    ks = homogeneity_index(np.array([0.0, 1.566, -1.566]))
    assert ks[0] == 0
    assert ks[1] > 0
    assert ks[2] == -ks[1]


def test_sampled_curves_are_homogeneous_stable(setup):
    cfg, met, T = setup
    params = NormParams()
    curves = sample_stable_curves(cfg, met, 20, params, seed=3)
    assert len(curves) == 20
    lo = -(met.K_max + 1.0 / met.tau_min)
    hi = -met.K_min
    for w in curves:
        assert w.length <= params.delta0 + 1e-9
        rr = np.linspace(*w.interval, 33)
        ks = homogeneity_index(w.phi_at(rr))
        assert np.unique(ks).size == 1
        sl = w.slope_at(rr)
        assert np.all(sl >= lo - 1e-6) and np.all(sl <= hi + 1e-6)


def test_pullback_pieces_map_onto_root(setup):
    """Forward images of level-n pieces must land back on the root graph."""
    cfg, met, T = setup
    params = NormParams()
    curves = sample_stable_curves(cfg, met, 3, params, seed=11)
    root = curves[0]
    tree = pullback_generation(root, T, 2, params)
    n_checked = 0
    for level in (1, 2):
        for nd in tree.nodes(level):
            w = nd.curve
            x = w.point(0.5 * (w.r[0] + w.r[-1]))
            for _ in range(level):
                x = T.forward(x).next
            assert x.scatterer == root.scatterer
            assert abs(float(root.phi_at(x.r)) - x.phi) < 1e-6
            n_checked += 1
    assert n_checked >= 3


def test_pullback_covers_root_length(setup):
    """The forward arclengths of the level pieces re-cover the root curve."""
    cfg, met, T = setup
    params = NormParams()
    root = sample_stable_curves(cfg, met, 3, params, seed=7)[0]
    tree = pullback_generation(root, T, 3, params)
    for level in (1, 2, 3):
        covered = {}
        for nd in tree.nodes(level):
            rr = nd.parent_r
            covered[nd.parent] = (covered.get(nd.parent, 0.0)
                                  + abs(float(rr[-1]) - float(rr[0])))
        for pi, total in covered.items():
            pw = tree.nodes(level - 1)[pi].curve
            span = pw.r[-1] - pw.r[0]
            # tiny near-grazing slivers at branch ends may be dropped,
            # but the pieces must neither overlap nor leave real holes
            assert total == pytest.approx(span, rel=2e-2)


def test_growth_sums_structure(setup):
    cfg, met, T = setup
    params = NormParams()
    root = sample_stable_curves(cfg, met, 3, params, seed=5)[0]
    tree = pullback_generation(root, T, 3, params)
    sums = growth_sums(tree, sigma=5.0 / 6.0)
    assert [s["level"] for s in sums] == [0, 1, 2, 3]
    for s in sums[1:]:
        assert s["count"] > 0
        assert 0.0 <= s["sum_a"] <= s["sum_b"] + 1e-12
        assert np.isfinite(s["sum_b"]) and np.isfinite(s["sum_c"])
    # contraction: the level-sum of stable Jacobians stays bounded
    assert sums[-1]["sum_b"] < 10.0
    # the tree of the point-by-point bisection these cuts were found with,
    # its pieces past the length cap split into pieces of exact preimages
    assert [(s["count"], s["sum_a"], s["sum_b"], s["sum_c"], s["sum_d"])
            for s in sums] == [
        (1, 1.0, 1.0, 1.0, 1.0),
        (2, 0.0, 0.6588102204495315, 0.9373342714497843, 0.7927525074014072),
        (4, 0.0, 0.536744383432427, 0.9022824883766776, 0.7501523206407948),
        (26, 0.0, 0.39418488585431277, 0.9053301439960171, 0.7746669939615728)]


def test_pullback_knots_are_preimages(setup):
    """Every knot of a level-n piece, pushed n steps forward, lies on the
    root curve: within 1e-8 at levels 1-2 and 1e-4 at levels 3-4, where
    what is left is the parents' spline error grown by each step."""
    cfg, met, T = setup
    params = NormParams()
    worst = np.zeros(5)
    for seed in range(4):
        for root in sample_stable_curves(cfg, met, 3, params, seed=seed):
            tree = pullback_generation(root, T, 4, params)
            a, b = root.interval
            L = cfg[root.scatterer].L
            for level in range(1, 5):
                nodes = tree.nodes(level)
                idx = np.concatenate([np.full(nd.curve.r.size,
                                              nd.curve.scatterer)
                                      for nd in nodes])
                r = np.concatenate([nd.curve.r for nd in nodes])
                phi = np.concatenate([nd.curve.phi for nd in nodes])
                for _ in range(level):
                    idx, r, phi, _, ok = T.forward_batch(idx, r, phi)
                    assert ok.all()
                assert np.all(idx == root.scatterer)
                r = np.where(r < a - L / 2, r + L, r)
                assert np.all((r >= a - 1e-8) & (r <= b + 1e-8))
                worst[level] = max(worst[level],
                                   np.max(np.abs(phi - root.phi_at(r))))
    assert np.all(worst[1:3] <= 1e-8), worst
    assert np.all(worst[3:] <= 1e-4), worst


def test_norm_estimates_finite(setup):
    cfg, met, T = setup
    params = NormParams()
    curves = sample_stable_curves(cfg, met, 6, params, seed=9)
    est = norm_estimates(lambda r, p: np.cos(p), curves, params)
    for key in ("weak", "strong_stable", "strong_unstable"):
        assert key in est
        assert np.isfinite(est[key])
    assert est["weak"] > 0
