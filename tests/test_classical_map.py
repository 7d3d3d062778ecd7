"""Classical billiard map: roundtrips, Jacobians, batch path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentzgas import ScattererConfig, ClassicalMap, config_metrics
from lorentzgas import classical_map
from lorentzgas.classical_map import (PhasePoint, time_reverse,
                                      homogeneity_index, singularity_distance,
                                      _first_hits)
from lorentzgas.errors import NoCollision, Tangential


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


def _window_scan(config, q, v, flight_cap, launch=None):
    """Reference search for circle configs: every image whose disc can lie
    within the cap of a ray start, in blocks in order of distance from the
    base cell (a ray skips the blocks it cannot reach before its best hit),
    in the discriminant form of _first_hits; hits past the cap are dropped."""
    scs = config.scatterers
    m = math.ceil(flight_cap) + 3
    j, ox, oy = (a.ravel() for a in np.meshgrid(
        np.arange(len(scs)), np.arange(-m, m + 1), np.arange(-m, m + 1),
        indexing="ij"))
    Cx = np.array([sc.center[0] for sc in scs])[j] + ox
    Cy = np.array([sc.center[1] for sc in scs])[j] + oy
    R2 = np.array([sc.R ** 2 for sc in scs])[j]
    D = np.hypot(Cx - 0.5, Cy - 0.5) - np.array([sc.R for sc in scs])[j]
    order = np.argsort(D)
    rho = np.hypot(q[:, 0] - 0.5, q[:, 1] - 0.5)
    best_t = np.full(len(q), np.inf)
    best_j = np.full(len(q), -1, dtype=int)
    best_off = np.zeros((len(q), 2))
    for a in range(0, len(order), 256):
        blk = order[a:a + 256]
        rays = np.flatnonzero(np.minimum(best_t, flight_cap) >= D[blk[0]] - rho)
        if not rays.size:
            continue
        qx, qy = q[rays, :1], q[rays, 1:]
        vx, vy = v[rays, :1], v[rays, 1:]
        bx, by = Cx[blk], Cy[blk]
        b = (qx - bx) * vx + (qy - by) * vy
        c = (qx * qx + qy * qy) - 2.0 * (qx * bx + qy * by) \
            + (bx * bx + by * by) - R2[blk]
        disc = b * b - c
        valid = disc > 0
        t1 = -b - np.sqrt(disc, where=valid, out=np.zeros_like(disc))
        hit = valid & (t1 > 1e-11)
        if launch is not None:
            hit &= ~((j[blk] == launch[rays, None]) & (ox[blk] == 0)
                     & (oy[blk] == 0))
        t1 = np.where(hit, t1, np.inf)
        k = np.argmin(t1, axis=1)
        tk = t1[np.arange(rays.size), k]
        win = tk < best_t[rays]
        best_t[rays[win]] = tk[win]
        best_j[rays[win]] = j[blk[k[win]]]
        best_off[rays[win]] = np.stack([ox[blk[k[win]]], oy[blk[k[win]]]],
                                       axis=-1)
    past = best_t > flight_cap
    best_t[past], best_j[past], best_off[past] = np.inf, -1, 0.0
    return best_t, best_j, best_off


def _launch_rays(cfg, idx, r, phi):
    """The outgoing rays of phase points on circles, formed as the map
    forms them."""
    R = np.array([cfg[int(i)].R for i in idx])
    polar = r / R + np.array([cfg[int(i)].rotation for i in idx])
    nrm = np.stack([np.cos(polar), np.sin(polar)], axis=-1)
    tng = np.stack([-np.sin(polar), np.cos(polar)], axis=-1)
    q = np.stack([cfg[int(i)].center for i in idx]) + R[:, None] * nrm
    v = np.cos(phi)[:, None] * nrm + np.sin(phi)[:, None] * tng
    return q, v


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
        got = _first_hits(cfg, *rays, cap, launch=launch)
        want = _window_scan(cfg, *rays, cap, launch=launch)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_batch_resolves_flights_that_leave_the_window():
    """At cap 50 on the infinite-horizon config, flights cross many cells;
    the batch finds each one's first hit, as the reference scan does."""
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
    t, j, _ = _window_scan(cfg, *_launch_rays(cfg, idx[long], r[long],
                                              phi[long]), 50.0,
                           launch=idx[long])
    assert np.array_equal(t, tau[long]) and np.array_equal(j, jj[long])


def test_candidate_table_is_built_once_per_config(monkeypatch):
    """...and mapping in chunks leaves every point's image as it is."""
    calls = []
    build = classical_map._candidate_table

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return build(*args, **kwargs)

    monkeypatch.setattr(classical_map, "_candidate_table", counted)
    T3 = ClassicalMap(four_disk(), flight_cap=3.0)
    idx, r, phi = random_points(T3.config, 5000, seed=9)
    whole = T3.forward_batch(idx, r, phi)
    tail = T3.forward_batch(idx[-100:], r[-100:], phi[-100:])
    assert calls == [(3.0,)]
    for a, b in zip(whole, tail):
        assert np.array_equal(a[-100:], b)


@pytest.mark.parametrize("phi", [s * (math.pi / 2 - e) for s in (1, -1)
                                 for e in (1e-12, 1e-9)])
def test_one_grazing_rule(phi):
    """The batch, the batch step both ways and the one-point map reject
    the same launches near grazing."""
    T3 = ClassicalMap(four_disk(), flight_cap=3.0)
    pts = (np.array([0]), np.array([0.1]), np.array([phi]))
    ok = T3.forward_batch(*pts)[4][0]
    steps = [T3.step_batch(*pts, direction=d)[5][0]
             for d in ("forward", "backward")]
    try:
        T3.forward(PhasePoint(0, 0.1, phi))
        raised = False
    except Tangential:
        raised = True
    assert ok == steps[0] == steps[1] == (not raised)
    assert ok == (math.pi / 2 - abs(phi) >= T3.grazing_tol)


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
    # the tangent of disk 0 at polar angle pi/4, x + y = 0.35 sqrt(2),
    # clears both disk families by ~0.007; a launch 1e-6 off it stays
    # clear past the cap
    T20 = ClassicalMap(cfg, flight_cap=20.0)
    with pytest.raises(NoCollision):
        T20.forward(PhasePoint(0, 0.35 * math.pi / 4, -(math.pi / 2 - 1e-6)))
    # and so does a free ray on the corridor's midline x + y = 1/2
    q0 = np.array([[0.25, 0.25]])
    v = np.array([[1.0, -1.0]]) / math.sqrt(2.0)
    t, j, _ = _first_hits(cfg, q0, v, 20.0)
    assert np.isinf(t[0]) and j[0] == -1


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
