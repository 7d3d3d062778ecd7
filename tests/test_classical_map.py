"""Classical billiard map: roundtrips, Jacobians, batch path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentzgas import ScattererConfig, ClassicalMap, config_metrics
from lorentzgas import classical_map
from lorentzgas.classical_map import (PhasePoint, free_flight, time_reverse,
                                      homogeneity_index, singularity_distance,
                                      _first_circle_hits)
from lorentzgas.errors import NoCollision


def four_disk(shift=0.0):
    return ScattererConfig.from_dict({"scatterers": [
        {"R": 0.30, "center": [0.0, 0.0]},
        {"R": 0.30, "center": [0.5, 0.5]},
        {"R": 0.15, "center": [0.0 + shift, 0.5]},
        {"R": 0.15, "center": [0.5, 0.0]}]})


def two_disk():
    """Infinite horizon: corridors clear both disk families."""
    return ScattererConfig.from_dict({"scatterers": [
        {"R": 0.35, "center": [0.0, 0.0]},
        {"R": 0.35, "center": [0.5, 0.5]}]})


@pytest.fixture(scope="module")
def T():
    return ClassicalMap(four_disk())


def random_points(cfg, n, seed=0, margin=0.05):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(cfg), n)
    r = rng.random(n) * np.array([cfg[int(j)].L for j in idx])
    phi = rng.uniform(-math.pi / 2 + margin, math.pi / 2 - margin, n)
    return idx, r, phi


def test_forward_backward_roundtrip(T):
    idx, r, phi = random_points(T.config, 300, seed=1)
    for i in range(300):
        x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
        y = T.forward(x).next
        z = T.backward(y).next
        assert z.scatterer == x.scatterer
        L = T.config[x.scatterer].L
        dr = abs(z.r - x.r)
        assert min(dr, L - dr) < 1e-10
        assert abs(z.phi - x.phi) < 1e-10


def test_measure_jacobian_is_one(T):
    """|det DT| cos(phi1) / cos(phi) = 1 for the unforced map."""
    idx, r, phi = random_points(T.config, 300, seed=2)
    for i in range(300):
        x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
        y = T.forward(x).next
        det = T.dt(x).det
        jmu = abs(det) * math.cos(y.phi) / math.cos(x.phi)
        assert jmu == pytest.approx(1.0, abs=1e-10)


def test_jacobian_against_finite_differences(T):
    idx, r, phi = random_points(T.config, 40, seed=3)
    h = 1e-6
    checked = 0
    for i in range(40):
        x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
        try:
            J = T.dt(x).m
            col_r = np.zeros(2)
            col_p = np.zeros(2)
            for s, dr, dp in ((1, h, 0.0), (-1, -h, 0.0)):
                y = T.forward(PhasePoint(x.scatterer, x.r + dr, x.phi)).next
                col_r += s * np.array([y.r, y.phi])
            for s, dp in ((1, h), (-1, -h)):
                y = T.forward(PhasePoint(x.scatterer, x.r, x.phi + dp)).next
                col_p += s * np.array([y.r, y.phi])
            J_fd = np.column_stack([col_r, col_p]) / (2 * h)
        except Exception:
            continue
        if np.abs(J_fd - J).max() > 1e-3 * np.abs(J).max():
            continue  # straddled a branch cut
        assert np.abs(J_fd - J).max() < 1e-4 * max(1.0, np.abs(J).max())
        checked += 1
    assert checked > 25


def test_backward_jacobian_inverts_forward(T):
    idx, r, phi = random_points(T.config, 50, seed=4)
    for i in range(50):
        x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
        y = T.forward(x).next
        J = T.dt(x).m
        Jb = T.dt(y, direction="backward").m
        assert np.abs(Jb @ J - np.eye(2)).max() < 1e-8


def test_batch_matches_scalar(T):
    idx, r, phi = random_points(T.config, 2000, seed=5)
    jj, r1, p1, tau, ok = T.forward_batch(idx, r, phi)
    n_bad = 0
    for i in range(2000):
        x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
        try:
            res = T.forward(x)
        except Exception:
            continue
        if not ok[i]:
            n_bad += 1
            continue
        y = res.next
        assert jj[i] == y.scatterer
        assert abs(r1[i] - y.r) < 1e-9
        assert abs(p1[i] - y.phi) < 1e-9
        assert abs(tau[i] - res.tau) < 1e-9
    assert n_bad == 0


def test_batch_on_profile_config_is_the_scalar_map():
    d = four_disk().to_dict()
    d["scatterers"][0]["cos_coeffs"] = [0.0, 0.02]
    Tp = ClassicalMap(ScattererConfig.from_dict(d))
    idx, r, phi = random_points(Tp.config, 20, seed=8)
    phi[0] = math.pi / 2  # grazing launch: the scalar map raises
    jj, r1, p1, tau, ok = Tp.forward_batch(idx, r, phi)
    assert not ok[0] and ok[1:].all()
    for i in range(1, 20):
        res = Tp.forward(PhasePoint(int(idx[i]), float(r[i]), float(phi[i])))
        y = res.next
        assert (jj[i], r1[i], p1[i], tau[i]) == (y.scatterer, y.r, y.phi,
                                                 res.tau)


def _window_scan(config, q, v, flight_cap, launch=None, max_cells=3):
    """Reference batch search: every circle image of the cell window in
    turn, in the discriminant form of _first_circle_hits."""
    best_t = np.full(len(q), np.inf)
    best_j = np.full(len(q), -1, dtype=int)
    best_off = np.zeros((len(q), 2))
    qx, qy, vx, vy = q[:, 0], q[:, 1], v[:, 0], v[:, 1]
    q2 = qx * qx + qy * qy
    cells = range(-max_cells, max_cells + 1)
    reach = min(flight_cap, max_cells * 2.0) + math.sqrt(2.0)
    for j, sc in enumerate(config.scatterers):
        for ox in cells:
            for oy in cells:
                Cx, Cy = sc.center[0] + ox, sc.center[1] + oy
                if math.hypot(Cx - 0.5, Cy - 0.5) > reach + sc.R:
                    continue
                b = (qx - Cx) * vx + (qy - Cy) * vy
                c = q2 - 2.0 * (qx * Cx + qy * Cy) \
                    + (Cx * Cx + Cy * Cy) - sc.R ** 2
                disc = b * b - c
                valid = disc > 0
                t1 = -b - np.sqrt(disc, where=valid,
                                  out=np.zeros_like(disc))
                hit = valid & (t1 > 1e-11) & (t1 < best_t)
                if ox == 0 and oy == 0 and launch is not None:
                    hit &= launch != j
                best_t[hit] = t1[hit]
                best_j[hit] = j
                best_off[hit] = (ox, oy)
    return best_t, best_j, best_off


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make_cfg", [four_disk, two_disk])
@pytest.mark.parametrize("cap", [3.0, 50.0])
def test_pruned_search_equals_window_scan(make_cfg, cap):
    cfg = make_cfg()
    rng = np.random.default_rng(11)
    n = 4000
    idx = rng.integers(0, len(cfg), n)
    theta = rng.uniform(0.0, 2 * math.pi, n)
    phi = rng.uniform(-math.pi / 2, math.pi / 2, n)
    nrm = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    tng = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    q = np.stack([cfg[int(i)].center for i in idx]) \
        + np.array([cfg[int(i)].R for i in idx])[:, None] * nrm
    v = np.cos(phi)[:, None] * nrm + np.sin(phi)[:, None] * tng
    free_q = rng.uniform(-0.5, 1.5, (2000, 2))
    ang = rng.uniform(0.0, 2 * math.pi, 2000)
    free_v = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    for rays, launch in (((q, v), idx), ((free_q, free_v), None)):
        got = _first_circle_hits(cfg, *rays, cap, launch=launch)
        want = _window_scan(cfg, *rays, cap, launch=launch)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_batch_resolves_flights_that_leave_the_window():
    """At cap 50 on the infinite-horizon config, flights can leave the
    7x7 cell window; the batch flies those on the scalar map."""
    cfg = two_disk()
    T50 = ClassicalMap(cfg, flight_cap=50.0)
    rng = np.random.default_rng(7)
    n = 20000
    idx = rng.integers(0, len(cfg), n)
    r = rng.random(n) * np.array([cfg[int(j)].L for j in idx])
    phi = rng.uniform(-math.pi / 2, math.pi / 2, n)
    jj, r1, p1, tau, ok = T50.forward_batch(idx, r, phi)
    assert ok.all()
    long = np.flatnonzero(tau > 3.0)
    assert long.size
    for k in long:
        res = T50.forward(PhasePoint(int(idx[k]), float(r[k]), float(phi[k])))
        assert (jj[k], r1[k], p1[k], tau[k]) == (
            res.next.scatterer, res.next.r, res.next.phi, res.tau)


def test_candidate_table_is_built_once_per_config(monkeypatch):
    """...and mapping in chunks leaves every point's image as it is."""
    calls = []
    build = classical_map._candidate_table

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return build(*args, **kwargs)

    monkeypatch.setattr(classical_map, "_candidate_table", counted)
    T3 = ClassicalMap(four_disk(), flight_cap=3.0)
    idx, r, phi = random_points(T3.config, 5000, seed=9)
    whole = T3.forward_batch(idx, r, phi)
    tail = T3.forward_batch(idx[-100:], r[-100:], phi[-100:])
    assert calls == [(3.0, 3)]
    for a, b in zip(whole, tail):
        assert np.array_equal(a[-100:], b)


def test_backward_batch_is_time_reversal(T):
    idx, r, phi = random_points(T.config, 500, seed=6)
    jj, r1, p1, tau, ok = T.backward_batch(idx, r, phi)
    jf, rf, pf, tf, okf = T.forward_batch(idx, r, -phi)
    assert np.array_equal(ok, okf)
    assert np.allclose(r1[ok], rf[ok])
    assert np.allclose(p1[ok], -pf[ok])


def test_flight_time_bounds(T):
    met = config_metrics(T.config)
    idx, r, phi = random_points(T.config, 2000, seed=7)
    _, _, _, tau, ok = T.forward_batch(idx, r, phi)
    assert tau[ok].min() >= met.tau_min - 1e-9
    # tau_max is a Monte Carlo estimate, so allow sampling slack
    assert tau[ok].max() <= 1.1 * met.tau_max + 0.05


def test_time_reverse_involution():
    x = PhasePoint(2, 0.3, 0.7)
    y = time_reverse(time_reverse(x))
    assert (y.scatterer, y.r, y.phi) == (x.scatterer, x.r, x.phi)


def test_homogeneity_index():
    assert homogeneity_index(0.0) == 0
    assert homogeneity_index(math.pi / 2 - 1e-4) == 100
    assert homogeneity_index(-(math.pi / 2 - 1e-4)) == -100
    k0 = 10
    u = math.pi / 2 - abs(1.2)
    expected = int(1.0 / math.sqrt(u)) if u * k0 * k0 <= 1.0 else 0
    assert homogeneity_index(1.2) == expected


def test_infinite_horizon_corridor_raises():
    cfg = two_disk()
    # the line x + y = 1/2 clears both disk families by ~0.0036
    from lorentzgas.classical_map import free_flight_ray
    q0 = np.array([0.25, 0.25])
    v = np.array([1.0, -1.0]) / math.sqrt(2.0)
    with pytest.raises(NoCollision):
        free_flight_ray(cfg, q0, v, flight_cap=20.0)


def test_singularity_distance_positive(T):
    d = singularity_distance(PhasePoint(0, 0.3, 0.2), T)
    assert d > 0
    d_far = singularity_distance(PhasePoint(0, 0.3, 0.0), T)
    near = singularity_distance(PhasePoint(0, 0.3, math.pi / 2 - 1e-3), T)
    assert near < d_far


@given(st.integers(0, 3), st.floats(0.05, 0.95), st.floats(-1.4, 1.4))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(j, rf, phi):
    cfg = four_disk()
    T = ClassicalMap(cfg)
    x = PhasePoint(j, rf * cfg[j].L, phi)
    try:
        y = T.forward(x).next
        z = T.backward(y).next
    except Exception:
        return
    L = cfg[x.scatterer].L
    dr = abs(z.r - x.r)
    assert min(dr, L - dr) < 1e-9
    assert abs(z.phi - x.phi) < 1e-9
