"""Map distance, singular-set sampling, scaling laws."""

import math

import numpy as np
import pytest

from lorentzgas import ScattererConfig, ClassicalMap
from lorentzgas.classical_map import PhasePoint
from lorentzgas.perturbation_metric import (default_eps_grid, map_distance,
                                            singular_set_samples,
                                            forced_displacement,
                                            parallel_ray_spread,
                                            geometric_scaling_checks)
from lorentzgas.errors import LorentzGasError, PhaseSpaceMismatch


def four_disk(shift=0.0):
    return ScattererConfig.from_dict({"scatterers": [
        {"R": 0.30, "center": [0.0, 0.0]},
        {"R": 0.30, "center": [0.5, 0.5]},
        {"R": 0.15, "center": [0.0 + shift, 0.5]},
        {"R": 0.15, "center": [0.5, 0.0]}]})


def test_eps_grid():
    grid = default_eps_grid()
    assert grid[0] == 2.0 ** -20
    assert grid[-1] == 2.0 ** -2
    assert np.allclose(np.diff(np.log2(grid)), 1.0)


def test_self_distance_is_grid_floor():
    T = ClassicalMap(four_disk())
    rep = map_distance(T, T, grid=32)
    assert rep.epsilon_star == 2.0 ** -20
    assert rep.mask_area == 0.0
    assert rep.c1_worst < 1e-12
    assert rep.c4_worst < 1e-9


def test_distance_orders_with_shift():
    T0 = ClassicalMap(four_disk())
    d_small = map_distance(T0, ClassicalMap(four_disk(1e-4)), grid=48)
    d_large = map_distance(T0, ClassicalMap(four_disk(1e-3)), grid=48)
    assert 0 < d_small.epsilon_star <= d_large.epsilon_star
    assert d_large.epsilon_star < 0.25


def test_phase_space_mismatch():
    T0 = ClassicalMap(four_disk())
    other = ScattererConfig.from_dict({"scatterers": [
        {"R": 0.2, "center": [0.0, 0.0]},
        {"R": 0.2, "center": [0.5, 0.5]}]})
    with pytest.raises(PhaseSpaceMismatch):
        map_distance(T0, ClassicalMap(other), grid=16)


def test_singular_samples_are_images_of_grazing():
    """Backward images of singular-set samples must be nearly grazing."""
    T = ClassicalMap(four_disk())
    samples = singular_set_samples(T, n_r=50)
    total = sum(len(s) for s in samples)
    assert total > 100
    rng = np.random.default_rng(0)
    checked = 0
    for j, pts in enumerate(samples):
        for i in rng.choice(len(pts), size=min(10, len(pts)), replace=False):
            r, phi = pts[i]
            try:
                y = T.backward(PhasePoint(j, float(r), float(phi))).next
            except LorentzGasError:
                continue
            assert math.pi / 2 - abs(y.phi) < 1e-4
            checked += 1
    assert checked > 10


def test_forward_singular_set_is_angle_flip():
    T = ClassicalMap(four_disk())
    back = singular_set_samples(T, n_r=40)
    fwd = singular_set_samples(T, n_r=40, forward=True)
    for b, f in zip(back, fwd):
        assert b.shape == f.shape
        assert np.allclose(b[:, 0], f[:, 0])
        assert np.allclose(b[:, 1], -f[:, 1])


def test_forced_displacement_small_at_weak_forcing():
    from lorentzgas.forced_dynamics import ForceField, KickMap, ForcedMap
    cfg = four_disk()
    T0 = ClassicalMap(cfg)
    eps = 1e-3
    F = ForceField.potential(eps, [(1, 0, 0.7, 0.2), (0, 1, -0.4, 0.5)])
    G = KickMap(eps, cos1=[0.6], cos2=[0.4])
    TF = ForcedMap(cfg, F, G)
    worst, n = forced_displacement(TF, T0, eps, grid=10)
    assert n > 50
    assert 0 < worst < 10 * math.sqrt(eps)


def test_parallel_ray_spread_closed_form():
    R = 0.3
    assert parallel_ray_spread(R, 0.0) == 0.0
    for gamma in (1e-6, 1e-8):
        spread = parallel_ray_spread(R, gamma, n_b=400000)
        assert spread == pytest.approx(math.sqrt(2 * R * gamma), rel=1e-2)


def test_geometric_scaling_checks():
    out = geometric_scaling_checks(R=0.3)
    assert out["slope"] == pytest.approx(0.5, abs=1e-3)
    assert out["prefactor"] == pytest.approx(math.sqrt(2 * 0.3), rel=1e-2)
    # stays below the coarse curvature bound
    assert out["prefactor"] <= out["bound_prefactor"]
    assert out["zero_offset_spread"] == 0.0
