"""Geometry oracles: dense-sampled curvature, arclength, validation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentzgas import (ClassicalMap, Scatterer, ScattererConfig,
                        config_metrics)
from lorentzgas import classical_map
from lorentzgas.classical_map import PhasePoint, free_flight
from lorentzgas.cli import fixture_path
from lorentzgas.geometry import _launches, deformation_distance
from lorentzgas.errors import LorentzGasError, Overlap, ValidationFailed


def four_disk(shift=0.0):
    return ScattererConfig.from_dict({"scatterers": [
        {"R": 0.28, "center": [0.0, 0.0]},
        {"R": 0.28, "center": [0.5, 0.5]},
        {"R": 0.12, "center": [0.0 + shift, 0.5]},
        {"R": 0.12, "center": [0.5, 0.0]}]})


def two_disk():
    """Infinite horizon: free corridors along the diagonals."""
    return ScattererConfig.from_dict({"scatterers": [
        {"R": 0.35, "center": [0.0, 0.0]},
        {"R": 0.35, "center": [0.5, 0.5]}]})


def fixture_four_disk(cos_coeffs=()):
    with open(fixture_path("four_disk")) as fh:
        d = json.load(fh)
    d["scatterers"][0]["cos_coeffs"] = list(cos_coeffs)
    if len(cos_coeffs):
        d["scatterers"][0]["kind"] = "profile"
    return ScattererConfig.from_dict(d)


def test_circle_basics():
    sc = Scatterer([0.2, 0.3], 0.25)
    assert sc.is_circle
    assert sc.L == pytest.approx(2 * np.pi * 0.25, rel=1e-12)
    assert sc.curvature_r(0.1) == pytest.approx(4.0, rel=1e-12)


def _six_newton_iterations(sc, r):
    """theta_of_r as it was: always six Newton iterations."""
    r = np.mod(np.asarray(r, dtype=float), sc.L)
    th = np.interp(r, sc._inv_arc, sc._inv_theta)
    for _ in range(6):
        th = th - (sc.arclength(th) - r) / sc._speed(th)
    return th


@pytest.mark.parametrize("cos_coeffs", [(), (0.0, 0.02)],
                         ids=["four_disk", "profile"])
def test_theta_of_r_early_exit_is_exact(cos_coeffs, monkeypatch):
    """Stopping Newton at a fixed point changes no bit of frame or
    r_of_point, for scalar and array r."""
    cfg = fixture_four_disk(cos_coeffs)
    rng = np.random.default_rng(4)
    for sc in cfg.scatterers:
        rs = [float(r) for r in rng.uniform(-0.1, sc.L + 0.1, 50)]
        rs.append(rng.uniform(0.0, sc.L, 2000))
        new = [sc.frame(r) for r in rs]
        with monkeypatch.context() as m:
            m.setattr(sc, "theta_of_r",
                      lambda r, sc=sc: _six_newton_iterations(sc, r))
            old = [sc.frame(r) for r in rs]
        for a, b in zip(new, old):
            for u, v in zip(a, b):
                assert np.array_equal(u, v)
            assert np.array_equal(sc.r_of_point(a[0]), sc.r_of_point(b[0]))


def test_curvature_against_dense_sampling():
    """Osculating-circle fit through dense boundary samples."""
    sc = Scatterer([0.5, 0.5], 0.2, cos_coeffs=[0.0, 0.03],
                   sin_coeffs=[0.01])
    for r0 in np.linspace(0.05, sc.L - 0.05, 7):
        h = 1e-4
        p0 = sc.point_theta(sc.theta_of_r(r0 - h))
        p1 = sc.point_theta(sc.theta_of_r(r0))
        p2 = sc.point_theta(sc.theta_of_r(r0 + h))
        # curvature from three nearby points (circumscribed circle)
        a = np.linalg.norm(p1 - p0)
        b = np.linalg.norm(p2 - p1)
        c = np.linalg.norm(p2 - p0)
        u, v = p1 - p0, p2 - p0
        area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
        k_fit = 4.0 * area / (a * b * c)
        assert k_fit == pytest.approx(sc.curvature_r(r0), rel=1e-5)


def test_arclength_table_against_quadrature():
    sc = Scatterer([0.0, 0.0], 0.3, cos_coeffs=[0.0, 0.02])
    th = np.linspace(0, 2 * np.pi, 200001)
    speed = np.sqrt(sc.rho(th) ** 2 + sc.rho(th, 1) ** 2)
    L_quad = np.trapezoid(speed, th)
    assert sc.L == pytest.approx(L_quad, rel=1e-9)


def test_r_of_point_roundtrip():
    sc = Scatterer([0.1, 0.9], 0.22, cos_coeffs=[0.0, 0.0, 0.01],
                   rotation=0.4)
    for r in np.linspace(0.0, sc.L, 17, endpoint=False):
        p = sc.point_theta(sc.theta_of_r(r))
        assert sc.r_of_point(p) == pytest.approx(r, abs=1e-10)


@given(st.floats(0.0, 1.0), st.floats(0.05, 0.4))
@settings(max_examples=25, deadline=None)
def test_gap_sign_property(frac, radius):
    sc = Scatterer([0.0, 0.0], radius)
    th = 2 * np.pi * frac
    inside = 0.5 * radius * np.array([np.cos(th), np.sin(th)])
    outside = 2.0 * radius * np.array([np.cos(th), np.sin(th)])
    assert sc.gap(inside) < 0 < sc.gap(outside)


def test_overlap_names_pair():
    with pytest.raises(Overlap, match="0 and 1"):
        ScattererConfig.from_dict({"scatterers": [
            {"R": 0.3, "center": [0.0, 0.0]},
            {"R": 0.3, "center": [0.3, 0.0]}]})


def test_overlap_across_lattice_translate():
    with pytest.raises(Overlap):
        ScattererConfig.from_dict({"scatterers": [
            {"R": 0.45, "center": [0.0, 0.0]},
            {"R": 0.45, "center": [0.5, 0.5]}]})


def test_overlap_through_a_far_lattice_image():
    """The discs overlap by 0.05 through offset 2, outside the 3x3 block."""
    with pytest.raises(Overlap, match=r"offset \(2, 0\)"):
        ScattererConfig.from_dict({"scatterers": [
            {"R": 0.1, "center": [0.9, 0.5]},
            {"R": 0.1, "center": [-0.95, 0.5]}]})


def test_from_file_missing_field(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"scatterers": [{"center": [0, 0]}]}))
    with pytest.raises(ValidationFailed):
        ScattererConfig.from_file(str(p))


@pytest.mark.parametrize("kind, coeffs", [
    ("ellipse", {}),
    ("circle", {"cos_coeffs": [0.0, 0.02]}),
    ("circle", {"sin_coeffs": [0.01]}),
])
def test_from_dict_rejects_bad_kind(kind, coeffs):
    with pytest.raises(ValidationFailed):
        ScattererConfig.from_dict({"scatterers": [
            dict(kind=kind, R=0.3, center=[0.0, 0.0], **coeffs)]})


def test_from_dict_accepts_declared_kinds():
    cfg = ScattererConfig.from_dict({"scatterers": [
        {"kind": "circle", "R": 0.3, "center": [0.0, 0.0],
         "cos_coeffs": [0.0]},
        {"kind": "profile", "R": 0.15, "center": [0.5, 0.5],
         "cos_coeffs": [0.0, 0.02]}]})
    assert not cfg[1].is_circle


def test_config_metrics_four_disk():
    met = config_metrics(four_disk())
    assert met.horizon == "finite"
    assert met.K_min == pytest.approx(1 / 0.28, rel=1e-12)
    assert met.K_max == pytest.approx(1 / 0.12, rel=1e-12)
    # the nearest pair is a big and a small disk along a half-diagonal
    gap = np.hypot(0.25, 0.25) * np.sqrt(2) - 0.28 - 0.12
    assert met.tau_min == pytest.approx(0.1, abs=1e-6)
    assert met.tau_max > met.tau_min


def test_tau_min_against_ray_march():
    """Brute-force the shortest flight by dense ray sampling."""
    from lorentzgas.classical_map import free_flight, PhasePoint
    cfg = four_disk()
    met = config_metrics(cfg)
    best = np.inf
    rng = np.random.default_rng(0)
    for _ in range(2000):
        j = rng.integers(0, 4)
        x = PhasePoint(int(j), rng.random() * cfg[j].L,
                       (rng.random() - 0.5) * 3.0)
        try:
            best = min(best, free_flight(cfg, x).tau)
        except LorentzGasError:
            pass
    assert best >= met.tau_min - 1e-9


def test_infinite_horizon_detected():
    assert config_metrics(two_disk()).horizon == "infinite"


# reference values of the map's own flights; tau_max is the longest of
# the random launches, drawn as three arrays (index, r, phi)
@pytest.mark.parametrize("make, expected", [
    (fixture_four_disk, dict(
        tau_min=0.049999999999999406, tau_max=0.9814921036212244,
        K_min=3.333333333333333, K_max=6.666666666666666,
        E_max=52.761111081865124, horizon="finite", flight_cap=50.0)),
    (two_disk, dict(
        tau_min=0.007106781186547451, tau_max=float("inf"),
        K_min=2.8571428571428577, K_max=2.8571428571428577,
        E_max=13.077514939085585, horizon="infinite", flight_cap=50.0)),
    (lambda: fixture_four_disk(cos_coeffs=[0.0, 0.02]),
     dict(tau_min=0.04400000000000001, tau_max=0.9764640664659471,
          K_min=3.1236984589754266, K_max=6.666666666666666,
          E_max=52.761111081865124, horizon="finite", flight_cap=50.0)),
], ids=["four_disk", "two_disk", "profile"])
def test_config_metrics_pinned(make, expected):
    met = config_metrics(make())
    assert {k: getattr(met, k) for k in expected} == expected


def _image_distance(cfg):
    """min |C_i - C_j - n| - R_i - R_j over distinct images of circles."""
    cells = np.arange(-2, 3)
    best = np.inf
    for i, a in enumerate(cfg.scatterers):
        for j, b in enumerate(cfg.scatterers):
            for nx in cells:
                for ny in cells:
                    if i != j or nx or ny:
                        d = np.hypot(*(a.center - b.center - [nx, ny]))
                        best = min(best, d - a.R - b.R)
    return best


def test_tau_min_is_the_least_image_distance():
    """tau_min is the closed-form image distance on circles, and the
    earlier search's value on the profile configs."""
    for make in (fixture_four_disk, two_disk):
        cfg = make()
        assert config_metrics(cfg).tau_min == pytest.approx(
            _image_distance(cfg), rel=0, abs=1e-14)
    profile = fixture_four_disk(cos_coeffs=[0.0, 0.02])
    assert config_metrics(profile).tau_min == 0.04400000000000001
    with open(fixture_path("four_disk")) as fh:
        d = json.load(fh)
    d["scatterers"][0].update(kind="profile", cos_coeffs=[0.0, 0.02, 0.005],
                              sin_coeffs=[0.01], rotation=0.3)
    rotated = ScattererConfig.from_dict(d)
    assert config_metrics(rotated).tau_min == pytest.approx(
        0.04489522928516337, rel=1e-13, abs=0)


def test_config_metrics_memoised_per_instance(monkeypatch):
    """Every flight, batch or one-point, goes through the one search."""
    flights = []
    fn = classical_map._first_hits
    monkeypatch.setattr(classical_map, "_first_hits",
                        lambda *a, **kw: flights.append(1) or fn(*a, **kw))
    cfg = four_disk()
    met = config_metrics(cfg)
    assert flights
    flights.clear()
    assert config_metrics(cfg) is met
    assert not flights
    assert config_metrics(four_disk()) == met
    assert flights


def profile_four_disk():
    return fixture_four_disk(cos_coeffs=[0.0, 0.02])


@pytest.mark.parametrize("make", [fixture_four_disk, two_disk,
                                  profile_four_disk])
def test_batch_flights_match_scalar_on_metric_launches(make):
    """A flight does not depend on the batch that flies it: every metric
    launch, flown alone by free_flight, equals its batch flight."""
    cfg = make()
    idx, r, phi = _launches(cfg, 4000, 0)
    _, _, _, tau, ok = ClassicalMap(cfg).forward_batch(idx, r, phi)
    assert ok.all()
    for k in range(len(idx)):
        x = PhasePoint(int(idx[k]), float(r[k]), float(phi[k]))
        assert tau[k] == free_flight(cfg, x).tau


def test_deformation_distance_zero_and_symmetry():
    c1 = four_disk()
    c2 = four_disk(1e-3)
    assert deformation_distance(c1, c1) == pytest.approx(0.0, abs=1e-12)
    d12 = deformation_distance(c1, c2)
    d21 = deformation_distance(c2, c1)
    assert d12 == pytest.approx(d21, rel=1e-9)
    assert 0 < d12 < 5e-3
