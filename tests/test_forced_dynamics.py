"""Forced flights: invariants, exact differentials, inversion, kicks."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from lorentzgas import ScattererConfig, ClassicalMap
from lorentzgas import forced_dynamics
from lorentzgas.classical_map import PhasePoint
from lorentzgas.cli import fixture_path, load_forced
from lorentzgas.forced_dynamics import (FlightTranscript, ForceField,
                                        KickMap, ForcedMap, integrate_flight)
from lorentzgas.errors import (LorentzGasError, NoCollision, NoConvergence,
                               ValidationFailed)
from lorentzgas.transfer_spectrum import sample_invariant


def four_disk():
    return ScattererConfig.from_dict({"scatterers": [
        {"R": 0.30, "center": [0.0, 0.0]},
        {"R": 0.30, "center": [0.5, 0.5]},
        {"R": 0.15, "center": [0.0, 0.5]},
        {"R": 0.15, "center": [0.5, 0.0]}]})


def standard_force(eps):
    return ForceField.potential(eps, [(1, 0, 0.7, 0.2), (0, 1, -0.4, 0.5),
                                      (1, 1, 0.3, -0.3)])


def standard_kick(eps):
    return KickMap(eps, cos1=[0.6], sin1=[-0.3], cos2=[0.4], sin2=[0.2])


@pytest.fixture(scope="module")
def TF():
    return ForcedMap(four_disk(), standard_force(1e-3), standard_kick(1e-3))


def random_points(cfg, n, seed=0, margin=0.1):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(cfg), n)
    r = rng.random(n) * np.array([cfg[int(j)].L for j in idx])
    phi = rng.uniform(-math.pi / 2 + margin, math.pi / 2 - margin, n)
    return idx, r, phi


def test_zero_force_matches_classical():
    cfg = four_disk()
    T0 = ClassicalMap(cfg)
    TF = ForcedMap(cfg)  # no force, no kick
    idx, r, phi = random_points(cfg, 50, seed=1)
    for i in range(50):
        x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
        y0 = T0.forward(x).next
        y1 = TF.forward(x).next
        assert y1.scatterer == y0.scatterer
        assert abs(y1.r - y0.r) < 1e-9
        assert abs(y1.phi - y0.phi) < 1e-9


def test_energy_conserved_along_flights(TF):
    idx, r, phi = random_points(TF.config, 20, seed=2)
    F = TF.force
    for i in range(20):
        x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
        try:
            res = TF.forward(x)
        except LorentzGasError:
            continue
        tr = res.transcript
        drift = abs(F.energy(tr.q1, tr.p1) - F.energy(tr.q0, tr.p0))
        assert drift < 1e-9
        # flights launch on the reference level surface
        assert F.energy(tr.q0, tr.p0) == pytest.approx(0.5, abs=1e-12)


def test_constant_force_flight_is_a_parabola():
    cfg = four_disk()
    F = ForceField.constant(1e-2, [0.3, -1.0])
    TF = ForcedMap(cfg, F)
    x = PhasePoint(0, 0.3, 0.4)
    res = TF.forward(x)
    tr = res.transcript
    Fv = F(tr.q0)
    q_par = tr.q0 + tr.p0 * tr.t1 + 0.5 * Fv * tr.t1 ** 2
    assert np.abs(q_par - tr.q1).max() < 1e-9
    assert np.abs(tr.p0 + Fv * tr.t1 - tr.p1).max() < 1e-9


def _fd_jacobian(step, x, h=1e-6):
    """Central differences of step at x, or None at a scatterer change."""
    ys = {}
    for dr, dp in ((h, 0), (-h, 0), (0, h), (0, -h)):
        ys[(dr, dp)] = step(PhasePoint(x.scatterer, x.r + dr, x.phi + dp)).next
    if len({y.scatterer for y in ys.values()}) > 1:
        return None
    return np.column_stack([
        [(ys[(h, 0)].r - ys[(-h, 0)].r) / (2 * h),
         (ys[(h, 0)].phi - ys[(-h, 0)].phi) / (2 * h)],
        [(ys[(0, h)].r - ys[(0, -h)].r) / (2 * h),
         (ys[(0, h)].phi - ys[(0, -h)].phi) / (2 * h)]])


def test_differential_against_finite_differences(TF):
    idx, r, phi = random_points(TF.config, 12, seed=3)
    checked = 0
    for i in range(12):
        x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
        try:
            J = TF.dt(x).m
            J_fd = _fd_jacobian(TF.forward, x)
        except LorentzGasError:
            continue
        if J_fd is None:
            continue
        if np.abs(J_fd - J).max() > 1e-2 * np.abs(J).max():
            continue  # branch cut inside the stencil
        assert np.abs(J_fd - J).max() < 1e-4 * max(1.0, np.abs(J).max())
        checked += 1
    assert checked >= 6


def test_differential_reduces_to_classical_at_zero_force():
    cfg = four_disk()
    T0 = ClassicalMap(cfg)
    TF = ForcedMap(cfg, standard_force(0.0))
    x = PhasePoint(1, 0.8, -0.5)
    J0 = T0.dt(x).m
    JF = TF.dt(x).m
    assert np.abs(J0 - JF).max() < 1e-9


def test_backward_inverts_forward(TF):
    idx, r, phi = random_points(TF.config, 40, seed=4)
    n_ok = 0
    for i in range(40):
        x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
        try:
            y = TF.forward(x).next
            z = TF.backward(y).next
        except LorentzGasError:
            continue
        L = TF.config[x.scatterer].L
        dr = abs(z.r - x.r)
        assert z.scatterer == x.scatterer
        assert min(dr, L - dr) < 1e-8
        assert abs(z.phi - x.phi) < 1e-8
        n_ok += 1
    assert n_ok >= 35


def _roundtrip_err(cfg, x, back):
    assert back.scatterer == x.scatterer
    L = cfg[x.scatterer].L
    dr = abs(back.r - x.r)
    return math.hypot(min(dr, L - dr), back.phi - x.phi)


def test_backward_inverts_fixture_draw_near_singularities():
    """Points of the fixed invariant draw of forced_four_disk that lie near
    the forward singular set or near grazing, where a Newton inverse
    seeded with the classical preimage crossed a singular curve."""
    TF, _ = load_forced(fixture_path("forced_four_disk"), 50.0)
    cfg = TF.config
    idx, r, phi = sample_invariant(cfg, 1000, np.random.default_rng(1))
    for i in (220, 277, 530, 542):
        x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
        back = TF.backward(TF.forward(x).next).next
        assert _roundtrip_err(cfg, x, back) <= 1e-9


@pytest.mark.parametrize("kick", [None, standard_kick(1e-2)])
def test_constant_force_backward_inverts_forward(kick):
    """The "constant" potential is not periodic: the inverse must find the
    lattice offset of the forward flight."""
    cfg = four_disk()
    TF = ForcedMap(cfg, ForceField.constant(1e-2, [0.3, -1.0]), kick)
    idx, r, phi = sample_invariant(cfg, 300, np.random.default_rng(5))
    worst, n = 0.0, 0
    for i in range(300):
        x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
        try:
            y = TF.forward(x).next
        except LorentzGasError:
            continue
        worst = max(worst, _roundtrip_err(cfg, x, TF.backward(y).next))
        n += 1
    assert n >= 290
    assert worst <= 1e-9


def test_backward_differential(TF):
    idx, r, phi = random_points(TF.config, 12, seed=6)
    checked = 0
    for i in range(12):
        x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
        try:
            y = TF.forward(x).next
            J = TF.dt(y, direction="backward").m
            J_fd = _fd_jacobian(TF.backward, y)
        except LorentzGasError:
            continue
        pre = TF.backward(y).next
        assert np.array_equal(J, np.linalg.inv(TF.dt(pre).m))
        if J_fd is None:
            continue
        if np.abs(J_fd - J).max() > 1e-2 * np.abs(J).max():
            continue  # branch cut inside the stencil
        assert np.abs(J_fd - J).max() < 1e-4 * max(1.0, np.abs(J).max())
        checked += 1
    assert checked >= 6


def test_short_chord_not_skipped():
    """A tiny force must not change the collision branch.

    The trajectory here crosses a disk along a chord much shorter than
    the integrator's natural step, which endpoint-only event detection
    used to fly straight through.
    """
    cfg = four_disk()
    T0 = ClassicalMap(cfg)
    TF = ForcedMap(cfg, standard_force(1e-5), standard_kick(1e-5))
    x = PhasePoint(0, 0.117810, -0.065450)
    y0 = T0.forward(x)
    y1 = TF.forward(x)
    assert y1.next.scatterer == y0.next.scatterer
    assert abs(y1.tau - y0.tau) < 1e-3
    assert abs(y1.next.r - y0.next.r) < 1e-3


def test_kick_vanishes_at_grazing():
    G = standard_kick(1e-2)
    L = 2 * math.pi * 0.3
    g1, g2 = G.g(0.7, math.pi / 2, L)
    assert g1 == pytest.approx(0.0, abs=1e-15)
    assert g2 == pytest.approx(0.0, abs=1e-15)


def test_kick_jacobian_against_finite_differences():
    G = standard_kick(3e-3)
    L = 2 * math.pi * 0.15
    r, phi = 0.37, -0.8
    J = G.dg(r, phi, L)
    h = 1e-7
    for col, (dr, dp) in enumerate(((h, 0.0), (0.0, h))):
        gp = np.array(G.g(r + dr, phi + dp, L))
        gm = np.array(G.g(r - dr, phi - dp, L))
        fd = (gp - gm) / (2 * h)
        assert np.abs(fd - J[:, col]).max() < 1e-6


def test_force_field_validation():
    with pytest.raises(ValidationFailed):
        ForceField("magnetic")
    with pytest.raises(ValidationFailed):
        ForceField.constant(1e-3, [0.0, 0.0])
    with pytest.raises(ValidationFailed):
        ForceField.potential(1e-3, [])
    deep = ForceField.potential(1.0, [(1, 0, 5.0, 0.0)])
    with pytest.raises(ValidationFailed):
        deep.launch_speed(np.array([0.0, 0.0]))


def test_force_field_gradient_consistency():
    F = standard_force(2e-3)
    q = np.array([0.31, 0.77])
    h = 1e-7
    for k in range(2):
        dq = np.zeros(2)
        dq[k] = h
        fd = -(F.potential_value(q + dq) - F.potential_value(q - dq)) / (2 * h)
        assert F(q)[k] == pytest.approx(fd, abs=1e-7)
        jfd = (F(q + dq) - F(q - dq)) / (2 * h)
        assert np.abs(F.jac_q(q)[:, k] - jfd).max() < 1e-6


def test_round_trip_serialization():
    F = standard_force(1e-3)
    F2 = ForceField.from_dict(F.to_dict())
    q = np.array([0.2, 0.9])
    assert np.allclose(F(q), F2(q))
    import json
    json.dumps(F.to_dict())
    json.dumps(standard_kick(1e-3).to_dict())


# ----------------------------------------------------------------------
# reference flight: solve_ivp with event detection, a whole-flight scan of
# the dense output, and a second integration for the variations

def _first_crossing(gap, sol, t_lo, t_hi, speed, coarse=4e-3, fine=2.0e-4):
    if t_hi - t_lo <= fine:
        return None
    ts = np.linspace(t_lo, t_hi,
                     max(int((t_hi - t_lo) / (coarse / max(speed, 1e-6))), 2)
                     + 1)
    g = gap.batch_min(sol.sol(ts)[0:2].T)
    step = ts[1] - ts[0]
    near = g < 1.5 * step * max(speed, 1e-6)
    for i in np.nonzero(near[:-1] | near[1:])[0]:
        tf = np.linspace(ts[i], ts[i + 1], max(int(step / fine), 2) + 1)
        hit = np.nonzero(gap.batch_min(sol.sol(tf)[0:2].T) <= 0.0)[0]
        if hit.size:
            k = int(hit[0])
            if k == 0:
                return (max(t_lo, tf[0] - step), tf[0])
            return (tf[k - 1], tf[k])
    return None


def _variation_rhs(force, y):
    out = np.empty_like(y)
    out[0:2] = y[2:4]
    out[2:4] = force(y[0:2])
    J = force.jac_q(y[0:2])
    for k in range(4, y.size, 4):
        out[k:k + 2] = y[k + 2:k + 4]
        out[k + 2:k + 4] = J @ y[k:k + 2]
    return out


def _solve_ivp_flight(fmap, q0, p0, exclude=None, variations=None):
    """integrate_flight as one solve_ivp call with a terminal event."""
    force, gap = fmap.force, fmap._gap
    if force.is_zero:
        return forced_dynamics._straight_flight(fmap, q0, p0, exclude,
                                                variations)
    speed0 = np.linalg.norm(p0)
    t_cap = fmap.flight_cap / max(speed0 * 0.5, 1e-6)

    def rhs(_t, y):
        f = force(y[0:2], y[2:4])
        return np.array([y[2], y[3], f[0], f[1], math.hypot(y[2], y[3])])

    dt0 = min(1e-3, 0.02 / speed0)
    y = np.concatenate([q0, p0, [0.0]])
    for _ in range(2):
        h = dt0 / 2
        k1 = rhs(0, y)
        k2 = rhs(0, y + h / 2 * k1)
        k3 = rhs(0, y + h / 2 * k2)
        k4 = rhs(0, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    if gap(y[0:2])[0] <= 0:
        dt0, y = 0.0, np.concatenate([q0, p0, [0.0]])

    def event(_t, yv):
        return gap(yv[0:2])[0]
    event.terminal = True
    event.direction = -1

    sol = solve_ivp(rhs, (dt0, t_cap), y, method="DOP853", events=event,
                    dense_output=True, rtol=fmap.rtol, atol=fmap.atol,
                    max_step=0.25)
    f_of = lambda t: gap(sol.sol(t)[0:2])[0]
    bracket = _first_crossing(gap, sol, dt0, sol.t[-1], speed0)
    if bracket is not None:
        t_hit = brentq(f_of, bracket[0], bracket[1], xtol=1e-13)
    elif sol.t_events[0].size:
        t_hit = float(sol.t_events[0][0])
        lo = max(dt0, t_hit - 1e-3)
        if f_of(lo) > 0:
            try:
                t_hit = brentq(f_of, lo, min(t_hit + 1e-6, sol.t[-1]),
                               xtol=1e-13)
            except ValueError:
                pass
    else:
        raise NoCollision(tau=t_cap)
    y1 = sol.sol(t_hit)
    var1 = None
    if variations is not None:
        y0 = np.concatenate([q0, p0, *variations[0], *variations[1]])
        yv = solve_ivp(lambda t, y: _variation_rhs(force, y), (0.0, t_hit),
                       y0, method="DOP853", rtol=fmap.rtol, atol=fmap.atol,
                       max_step=0.25).y[:, -1]
        var1 = ((yv[4:6], yv[6:8]), (yv[8:10], yv[10:12]))
    _, j, off = gap(y1[0:2])
    return FlightTranscript(q0, p0, y1[0:2], y1[2:4], t_hit, j, off,
                            float(y1[4]), variations=var1)


def _round(TF, x):
    """forward, backward of the image and step at x, or None."""
    try:
        fwd = TF.forward(x)
        back = TF.backward(fwd.next)
        res, J = TF.step(x)
    except LorentzGasError:
        return None
    return fwd, back, res, J.m


def test_stepping_loop_matches_solve_ivp_flight(monkeypatch):
    """On the fixed 1000-point draw of forced_four_disk: forward and
    backward agree with the reference flight to 1e-12, step's Jacobian to
    1e-7 relative, and step's image (integrated with the variations in
    the state) lies within 1e-9 of forward's."""
    TF, _ = load_forced(fixture_path("forced_four_disk"), 50.0)
    idx, r, phi = sample_invariant(TF.config, 1000, np.random.default_rng(1))
    xs = [PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
          for i in range(1000)]
    new = [_round(TF, x) for x in xs]
    monkeypatch.setattr(forced_dynamics, "integrate_flight",
                        _solve_ivp_flight)
    ref = [_round(TF, x) for x in xs]
    assert [a is None for a in new] == [b is None for b in ref]
    n = 0
    for a, b in zip(new, ref):
        if a is None:
            continue
        for u, v in ((a[0].next, b[0].next), (a[1].next, b[1].next)):
            assert u.scatterer == v.scatterer
            assert abs(u.r - v.r) <= 1e-12 and abs(u.phi - v.phi) <= 1e-12
        assert abs(a[0].tau - b[0].tau) <= 1e-12
        assert np.abs(a[3] - b[3]).max() <= 1e-7 * np.abs(b[3]).max()
        y, z = a[2].next, a[0].next
        assert y.scatterer == z.scatterer
        assert abs(y.r - z.r) <= 1e-9 and abs(y.phi - z.phi) <= 1e-9
        n += 1
    assert n >= 990


def test_failed_integration_is_no_convergence(monkeypatch):
    """A solver that gives up raises the toolkit's NoConvergence."""
    class Failing(forced_dynamics.DOP853):
        def step(self):
            self.status = "failed"
            return "step size too small"

    monkeypatch.setattr(forced_dynamics, "DOP853", Failing)
    TF = ForcedMap(four_disk(), standard_force(1e-3))
    with pytest.raises(NoConvergence):
        TF.forward(PhasePoint(0, 0.3, 0.4))


# ----------------------------------------------------------------------
# the wall-gap matrix on a profile scatterer

def profile_forced_map():
    """The forced_four_disk force and kick on four_disk with cos_coeffs
    [0, 0.02] on scatterer 0."""
    TF, _ = load_forced(fixture_path("forced_four_disk"), 50.0)
    d = TF.config.to_dict()
    d["scatterers"][0]["cos_coeffs"] = [0.0, 0.02]
    return ForcedMap(ScattererConfig.from_dict(d), TF.force, TF.kick)


def test_gap_oracle_is_the_brute_force_minimum_near_profile_walls():
    """Points within 0.05 of every wall, in random lattice cells: the
    batch minimum is the one-point gap, and the one-point gap names the
    wall of least Scatterer.gap over a 5 x 5 block of images."""
    cfg = profile_forced_map().config
    gap = forced_dynamics._GapOracle(cfg)
    rng = np.random.default_rng(4)
    Q = []
    for sc in cfg:
        r = rng.random(200) * sc.L
        p, _, n, _ = sc.frame(r)
        Q.append(p + rng.uniform(0.0, 0.05, (200, 1)) * n
                 + rng.integers(-3, 4, (200, 2)))
    Q = np.concatenate(Q)
    assert np.array_equal(gap.batch_min(Q), [gap(q)[0] for q in Q])
    block = [(ox, oy) for ox in range(-2, 3) for oy in range(-2, 3)]
    for q in Q:
        cell = np.floor(q).astype(int)
        _, j, off = min((float(sc.gap(q - cell - o)), j, tuple(cell + o))
                        for j, sc in enumerate(cfg) for o in block)
        _, j1, off1 = gap(q)
        assert (j1, tuple(off1)) == (j, off)


@pytest.mark.parametrize("i, fwd, jac, back", [
    (0, (0, 0.5034373395294715, -0.7878478836473448, 0.22561771894867033),
     [[-2.3294609440949996, -0.3188501871553901],
      [-10.64167965810625, -2.0011239431175163]],
     (2, 0.5221225323237026, -0.09868998827559905, 0.06789043144744829)),
    (1, (0, 0.16172607575004022, 1.081283452556389, 0.13375238479185053),
     [[-4.001444962097961, -0.28367173455669964],
      [-20.412879437533686, -1.9754174120524104]],
     (2, 0.7677775662195069, 0.45055462005399943, 0.42115204362494846)),
    (2, (3, 0.8992617895702801, 0.8949970049210497, 0.7268138411595104),
     [[-5.217918494819971, -1.1529022913256384],
      [-38.015085325339584, -8.702884189533643]],
     (2, 0.5956346648255749, 0.8955788280797099, 0.10818737563456456)),
    (3, (1, 0.27545679400441814, -1.2595730332350876, 0.16859475445425567),
     [[-6.9403419078804385, -0.5515372943623831],
      [-29.78768837228879, -2.837908216861971]],
     (1, 0.27721439270229475, 1.253914118745411, 0.1668881702038145)),
])
def test_forced_map_on_profile_config_pinned(i, fwd, jac, back):
    """forward, dt and backward on the first points of a 150-point draw
    (seed 1), pinned to the values of the pointwise profile gap."""
    TP = profile_forced_map()
    idx, r, phi = sample_invariant(TP.config, 150, np.random.default_rng(1))
    x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
    res = TP.forward(x)
    assert (res.next.scatterer, res.next.r, res.next.phi, res.tau) == fwd
    assert TP.dt(x).m.tolist() == jac
    res = TP.backward(x)
    assert (res.next.scatterer, res.next.r, res.next.phi, res.tau) == back
