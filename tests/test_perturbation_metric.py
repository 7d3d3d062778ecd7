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


# ----------------------------------------------------------------------
# the lockstep singular-set sweep against one curve at a time, and the
# distance figures pinned to the values of the per-curve sweep

def profile_four_disk(shift=0.0):
    d = four_disk(shift).to_dict()
    d["scatterers"][0]["cos_coeffs"] = [0.0, 0.02]
    return ScattererConfig.from_dict(d)


def _singular_set_per_curve(map_def, n_r, forward=False, graze=1e-6):
    """The singular-set sweep refining one (scatterer, sign) curve at a
    time, each with its own push per round."""
    cfg = map_def.config
    push = map_def.backward_batch if forward else map_def.forward_batch
    signs = (-1.0, 1.0) if forward else (1.0, -1.0)
    pts = [[] for _ in cfg.scatterers]
    for j, sc in enumerate(cfg.scatterers):
        for sgn in signs:
            phi0 = sgn * (math.pi / 2 - graze)
            rr = np.linspace(0.0, sc.L, n_r, endpoint=False)
            jj, r1, p1, _, ok = push(np.full(rr.size, j), rr,
                                     np.full(rr.size, phi0))
            for _round in range(10):
                if rr.size > 60000:
                    break
                L1 = cfg.lengths[jj]
                dr = np.abs(np.diff(r1))
                dr = np.minimum(dr, L1[:-1] - dr)
                gap = np.hypot(dr, np.diff(p1))
                need = ok[:-1] & ok[1:] & (
                    (jj[:-1] != jj[1:]) | (gap > 5e-3))
                need &= np.diff(rr) > sc.L * 1e-7
                if not np.any(need):
                    break
                mids = 0.5 * (rr[:-1][need] + rr[1:][need])
                jm, rm, pm, _, om = push(np.full(mids.size, j), mids,
                                         np.full(mids.size, phi0))
                rr = np.concatenate([rr, mids])
                order = np.argsort(rr)
                rr = rr[order]
                jj = np.concatenate([jj, jm])[order]
                r1 = np.concatenate([r1, rm])[order]
                p1 = np.concatenate([p1, pm])[order]
                ok = np.concatenate([ok, om])[order]
            for k in np.nonzero(ok)[0]:
                pts[int(jj[k])].append((float(r1[k]), float(p1[k])))
    return [np.array(lst, dtype=float).reshape(-1, 2) for lst in pts]


@pytest.mark.parametrize("forward", [False, True], ids=["image", "preimage"])
@pytest.mark.parametrize("make", [four_disk, profile_four_disk],
                         ids=["four_disk", "profile"])
def test_singular_set_lockstep_equals_per_curve_sweep(make, forward):
    T = ClassicalMap(make(), flight_cap=3.0)
    got = singular_set_samples(T, n_r=100, forward=forward)
    ref = _singular_set_per_curve(T, 100, forward=forward)
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


def test_singular_set_pushes_once_per_round(monkeypatch):
    """One push launches every curve, and each round pushes all its
    midpoints at once: at most 11 pushes, against 88 curve by curve."""
    T = ClassicalMap(four_disk())
    calls = []
    fwd = T.forward_batch

    def counting(*a):
        calls.append(len(a[1]))
        return fwd(*a)

    monkeypatch.setattr(T, "forward_batch", counting)
    samples = singular_set_samples(T)
    assert 2 <= len(calls) <= 11
    assert calls[0] == 8 * 400
    assert sum(len(s) for s in samples) > 8 * 400 * 0.9


_EPS_GRID = [2.0 ** (-k) for k in range(20, 1, -1)]


@pytest.mark.parametrize("make, grid, pinned", [
    (four_disk, 24, dict(
        epsilon_star=0.03125, c1_worst=0.009621330823743592,
        c2_worst=1.354472090042691e-14, c3_worst=0.01594170426384256,
        c4_worst=0.08553113035568026, mask_area=0.3559027777777778,
        grid=24, n_points=2304)),
    (profile_four_disk, 16, dict(
        epsilon_star=0.03125, c1_worst=0.007829252689423388,
        c2_worst=1.5765166949677223e-14, c3_worst=0.007743639410022762,
        c4_worst=0.03994875426246835, mask_area=0.34375,
        grid=16, n_points=1024)),
], ids=["four_disk", "profile"])
def test_map_distance_pinned(make, grid, pinned):
    """Scatterer 2 moved by 1e-3: the report equals the per-curve sweep's."""
    rep = map_distance(ClassicalMap(make()), ClassicalMap(make(1e-3)),
                       grid=grid)
    assert rep.to_dict() == dict(pinned, n_dirs=64, eps_grid=_EPS_GRID)


def test_map_distance_vacuous_when_the_mask_covers_the_grid():
    """Scatterer 2 moved by 0.04 on a 6 x 6 grid: the least passing eps
    masks every point, so the worst values read 0 and the mask 1."""
    rep = map_distance(ClassicalMap(four_disk()),
                       ClassicalMap(four_disk(0.04)), grid=6)
    assert rep.to_dict() == dict(
        epsilon_star=0.125, c1_worst=0.0, c2_worst=0.0, c3_worst=0.0,
        c4_worst=0.0, mask_area=1.0, grid=6, n_points=144, n_dirs=64,
        eps_grid=_EPS_GRID)


@pytest.mark.parametrize("make, grid, pinned", [
    (four_disk, 24, (0.003090798523376716, 1472)),
    (profile_four_disk, 12, (0.002192618430673178, 341)),
], ids=["four_disk", "profile"])
def test_forced_displacement_pinned(make, grid, pinned):
    """The forced_four_disk force and kick at eps 1e-3."""
    from lorentzgas.cli import fixture_path, load_forced
    from lorentzgas.forced_dynamics import ForcedMap
    TF, _ = load_forced(fixture_path("forced_four_disk"), 50.0)
    cfg = make()
    assert forced_displacement(ForcedMap(cfg, TF.force, TF.kick),
                               ClassicalMap(cfg), 1e-3, grid=grid) == pinned
