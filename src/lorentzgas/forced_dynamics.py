"""Billiard dynamics under a small external force and collision kick.

The flow between collisions solves dq/dt = p, dp/dt = F(q, p) for a force
from a closed-form family with a known conserved quantity; collisions are
specular reflection followed by a small kick/slip acting on the collision
coordinates (r, phi).  The map differential is assembled from an exact
linearization of the launch, the flight (a variational integration), and
the collision conversion.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import (EnergyDrift, KickEjected, NoCollision, NoConvergence,
                     SingularityTooClose, Tangential, ValidationFailed)
from .classical_map import (CollisionResult, PhasePoint, Jacobian2x2,
                            GRAZING_TOL, FD_GUARD)

TWO_PI = 2.0 * math.pi


def _perp(v):
    """Rotate a 2-vector by +90 degrees."""
    return np.array([-v[1], v[0]])


class ForceField:
    """External force from a parametric family with exact invariant.

    kind is one of "zero", "constant" (F = epsilon * direction), or
    "potential" (F = -grad U with U = epsilon * trig polynomial on the
    torus).  Each family supplies the conserved quantity and its exact
    gradient data needed by the variational equations.
    """

    def __init__(self, kind, epsilon=0.0, direction=None, modes=None):
        if kind not in ("zero", "constant", "potential"):
            raise ValidationFailed("force.kind", f"unknown kind {kind!r}")
        self.kind = kind
        self.epsilon = float(epsilon)
        if kind == "constant":
            d = np.asarray(direction, dtype=float)
            if d.shape != (2,) or not np.linalg.norm(d) > 0:
                raise ValidationFailed("force.direction", "need a nonzero 2-vector")
            self.direction = d / np.linalg.norm(d)
        else:
            self.direction = None
        if kind == "potential":
            if not modes:
                raise ValidationFailed("force.modes", "potential needs modes")
            self.modes = [(int(m), int(n), float(ac), float(asn))
                          for (m, n, ac, asn) in modes]
        else:
            self.modes = None

    @staticmethod
    def zero():
        return ForceField("zero")

    @staticmethod
    def constant(epsilon, direction):
        return ForceField("constant", epsilon, direction=direction)

    @staticmethod
    def potential(epsilon, modes):
        return ForceField("potential", epsilon, modes=modes)

    @property
    def is_zero(self):
        return self.kind == "zero" or self.epsilon == 0.0

    def __call__(self, q, p=None):
        if self.kind == "constant":
            return self.epsilon * self.direction
        if self.kind == "potential":
            f = np.zeros(2)
            for m, n, ac, asn in self.modes:
                ph = TWO_PI * (m * q[0] + n * q[1])
                s, c = math.sin(ph), math.cos(ph)
                # -dU/dq with U = eps*(ac*cos(ph) + asn*sin(ph))
                f += self.epsilon * TWO_PI * (ac * s - asn * c) * np.array([m, n])
            return f
        return np.zeros(2)

    def jac_q(self, q):
        """d F / d q (force is momentum-independent in every family)."""
        J = np.zeros((2, 2))
        if self.kind == "potential":
            for m, n, ac, asn in self.modes:
                ph = TWO_PI * (m * q[0] + n * q[1])
                s, c = math.sin(ph), math.cos(ph)
                k = np.array([m, n])
                J += (self.epsilon * TWO_PI ** 2
                      * (ac * c + asn * s)) * np.outer(k, k)
        return J

    def potential_value(self, q):
        if self.kind == "potential":
            u = 0.0
            for m, n, ac, asn in self.modes:
                ph = TWO_PI * (m * q[0] + n * q[1])
                u += ac * math.cos(ph) + asn * math.sin(ph)
            return self.epsilon * u
        if self.kind == "constant":
            return -self.epsilon * float(self.direction @ q)
        return 0.0

    def energy(self, q, p):
        """Conserved quantity along flights (position taken in the plane)."""
        return 0.5 * float(p @ p) + self.potential_value(q)

    def launch_speed(self, q):
        """Speed on the reference level surface energy = 1/2 at base point q."""
        val = 1.0 - 2.0 * self.potential_value(q)
        if val <= 0.0:
            raise ValidationFailed("force.epsilon", "potential too deep for the "
                                   "reference energy level")
        return math.sqrt(val)

    def c1_norm(self, n_grid=64):
        """Sampled sup of |F| + |dF/dq| over the torus."""
        xs = np.linspace(0.0, 1.0, n_grid, endpoint=False)
        best = 0.0
        for x in xs:
            for y in xs:
                q = np.array([x, y])
                best = max(best, float(np.linalg.norm(self(q)))
                           + float(np.linalg.norm(self.jac_q(q), 2)))
        return best

    def to_dict(self):
        d = {"kind": self.kind, "epsilon": self.epsilon}
        if self.direction is not None:
            d["direction"] = list(self.direction)
        if self.modes is not None:
            d["modes"] = [list(m) for m in self.modes]
        return d

    @staticmethod
    def from_dict(d):
        return ForceField(d.get("kind", "zero"), d.get("epsilon", 0.0),
                          direction=d.get("direction"), modes=d.get("modes"))


class KickMap:
    """Collision kick/slip acting on (r, phi).

    (r, phi) -> (r + g1(r, phi), phi + g2(r, phi)) with
    g_i = epsilon * cos(phi) * (trig polynomial in 2*pi*r/L), so the kick
    vanishes identically at grazing angles phi = +-pi/2.
    """

    def __init__(self, epsilon, cos1=(), sin1=(), cos2=(), sin2=()):
        self.epsilon = float(epsilon)
        self.cos1 = np.asarray(cos1, dtype=float)
        self.sin1 = np.asarray(sin1, dtype=float)
        self.cos2 = np.asarray(cos2, dtype=float)
        self.sin2 = np.asarray(sin2, dtype=float)

    @staticmethod
    def zero():
        return KickMap(0.0)

    @property
    def is_zero(self):
        return self.epsilon == 0.0 or (self.cos1.size == 0 and self.sin1.size == 0
                                       and self.cos2.size == 0 and self.sin2.size == 0)

    def _trig(self, u, cos_c, sin_c):
        val = 0.0
        dval = 0.0
        for n, c in enumerate(cos_c, start=1):
            val += c * math.cos(n * u)
            dval += -c * n * math.sin(n * u)
        for n, s in enumerate(sin_c, start=1):
            val += s * math.sin(n * u)
            dval += s * n * math.cos(n * u)
        return val, dval

    def g(self, r, phi, L):
        """Kick components (g1, g2) at collision coordinates (r, phi)."""
        u = TWO_PI * r / L
        t1, _ = self._trig(u, self.cos1, self.sin1)
        t2, _ = self._trig(u, self.cos2, self.sin2)
        c = self.epsilon * math.cos(phi)
        return c * t1, c * t2

    def dg(self, r, phi, L):
        """Jacobian [[dg1/dr, dg1/dphi], [dg2/dr, dg2/dphi]]."""
        u = TWO_PI * r / L
        t1, dt1 = self._trig(u, self.cos1, self.sin1)
        t2, dt2 = self._trig(u, self.cos2, self.sin2)
        c, s = math.cos(phi), math.sin(phi)
        e = self.epsilon
        return np.array([
            [e * c * dt1 * TWO_PI / L, -e * s * t1],
            [e * c * dt2 * TWO_PI / L, -e * s * t2],
        ])

    def c1_norm(self, L, n_grid=128):
        rs = np.linspace(0.0, L, n_grid, endpoint=False)
        phis = np.linspace(-math.pi / 2, math.pi / 2, 33)
        best = 0.0
        for r in rs:
            for phi in phis:
                g1, g2 = self.g(r, phi, L)
                best = max(best, abs(g1) + abs(g2)
                           + float(np.abs(self.dg(r, phi, L)).max()))
        return best

    def to_dict(self):
        return {"epsilon": float(self.epsilon),
                "cos1": [float(c) for c in self.cos1],
                "sin1": [float(c) for c in self.sin1],
                "cos2": [float(c) for c in self.cos2],
                "sin2": [float(c) for c in self.sin2]}

    @staticmethod
    def from_dict(d):
        return KickMap(d.get("epsilon", 0.0), d.get("cos1", ()), d.get("sin1", ()),
                       d.get("cos2", ()), d.get("sin2", ()))


class FlightTranscript:
    """Record of one free flight: endpoints, duration, and hit bookkeeping."""

    def __init__(self, q0, p0, q1, p1, t1, scatterer, offset, arc_length,
                 force, straight=False):
        self.q0 = np.asarray(q0, dtype=float)
        self.p0 = np.asarray(p0, dtype=float)
        self.q1 = np.asarray(q1, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        self.t1 = float(t1)
        self.scatterer = int(scatterer)
        self.offset = np.asarray(offset, dtype=int)
        self.arc_length = float(arc_length)
        self.force = force
        self.straight = bool(straight)


class JacobiState:
    """Transverse displacement and its derivative along a flight."""

    __slots__ = ("w", "wdot")

    def __init__(self, w, wdot):
        self.w = float(w)
        self.wdot = float(wdot)

    def __repr__(self):
        return f"JacobiState(w={self.w!r}, wdot={self.wdot!r})"


class _GapOracle:
    """Fast signed distance from a plane point to the nearest boundary."""

    def __init__(self, config):
        self.config = config
        cen, sidx, off = [], [], []
        for j, s in enumerate(config):
            for ox in (-1, 0, 1):
                for oy in (-1, 0, 1):
                    cen.append(np.asarray(s.center) + (ox, oy))
                    sidx.append(j)
                    off.append((ox, oy))
        self.centers = np.array(cen)
        self.sidx = np.array(sidx)
        self.offsets = np.array(off)
        self.rho_max = np.array([config[j].rho_max for j in self.sidx])
        self.is_circle = np.array([config[j].is_circle for j in self.sidx])
        self.R = np.array([config[j].R for j in self.sidx])

    def batch_min(self, Q):
        """Vectorized min gap over an (n, 2) array of plane points.

        Exact for circles; polar profiles contribute a conservative lower
        bound refined pointwise only where it could matter.
        """
        Q = np.asarray(Q, dtype=float)
        qb = Q - np.floor(Q)
        d = np.hypot(qb[:, None, 0] - self.centers[None, :, 0],
                     qb[:, None, 1] - self.centers[None, :, 1])
        lb = d - np.where(self.is_circle, self.R, self.rho_max)
        g = lb.min(axis=1)
        if not self.is_circle.all():
            for i in np.nonzero(g < 0.05)[0]:
                if not self.is_circle[int(np.argmin(lb[i]))]:
                    g[i] = self(Q[i])[0]
        return g

    def __call__(self, q):
        """Return (gap, scatterer index, lattice offset of the nearest wall)."""
        cell = np.floor(q)
        qb = q - cell
        d = np.hypot(qb[0] - self.centers[:, 0], qb[1] - self.centers[:, 1])
        circ = self.is_circle
        best, k = np.inf, -1
        if circ.any():
            cg = d[circ] - self.R[circ]
            i = int(np.argmin(cg))
            best, k = float(cg[i]), int(np.nonzero(circ)[0][i])
        # refine non-circle candidates whose lower bound could beat the best
        for i in np.nonzero(~circ)[0]:
            if d[i] - self.rho_max[i] > best:
                continue
            g = self.config[self.sidx[i]].gap(qb - self.offsets[i])
            if g < best:
                best, k = float(g), int(i)
        return best, int(self.sidx[k]), self.offsets[k] + cell.astype(int)


class ForcedMap:
    """The billiard map of the forced flow with a collision kick."""

    def __init__(self, config, force=None, kick=None, flight_cap=50,
                 grazing_tol=GRAZING_TOL, rtol=1e-11, atol=1e-11):
        self.config = config
        self.force = force if force is not None else ForceField.zero()
        self.kick = kick if kick is not None else KickMap.zero()
        self.flight_cap = float(flight_cap)
        self.grazing_tol = float(grazing_tol)
        self.rtol = rtol
        self.atol = atol
        self._gap = _GapOracle(config)

    # ------------------------------------------------------------------
    # launch / landing geometry

    def _launch(self, x, offset=(0, 0)):
        """Plane position and momentum for an outgoing phase point, on the
        energy-1/2 level at the lattice image `offset` of the base point."""
        s = self.config[x.scatterer]
        q, t, n, _K = s.frame(x.r)
        v = math.cos(x.phi) * n + math.sin(x.phi) * t
        speed = self.force.launch_speed(q + offset)
        return q, speed * v

    def forward(self, x):
        """One step of the forced map with kick."""
        return self._fly(x, (0, 0), self.kick)

    def _fly(self, x, offset, kick):
        if math.pi / 2 - abs(x.phi) < self.grazing_tol:
            raise Tangential("outgoing direction within grazing tolerance")
        q0, p0 = self._launch(x, offset)
        tr = integrate_flight(self, q0, p0, exclude=(x.scatterer, (0, 0)))
        return self._land(tr, kick)

    def _land(self, tr, kick):
        r1, phi1, rbar, phibar, margin = apply_reflection(
            self.config, tr.scatterer, tr.q1 - tr.offset, tr.p1, kick,
            self.grazing_tol)
        nxt = PhasePoint(tr.scatterer, rbar, phibar)
        return ForcedResult(nxt, tr.t1, tr.arc_length, margin, tr,
                            PhasePoint(tr.scatterer, r1, phi1))

    def backward(self, x):
        """Invert the map by time reversal: F^-1 = I T_f I K^-1, with
        I(j, r, phi) = (j, r, -phi), T_f the kick-free map and K the kick.

        The reversed flight needs the speed the forward one arrived with,
        1 - 2U(q1 + off) for its lattice offset off.  U is periodic except
        for the "constant" kind, where the flight is repeated until it lands
        at offset -off: energy conservation makes that landing the preimage.
        """
        pre = self._unkick(x)
        y = PhasePoint(pre.scatterer, pre.r, -pre.phi)
        offset = np.zeros(2, dtype=int)
        for _ in range(4):
            res = self._fly(y, offset, None)
            back = -res.transcript.offset
            if (self.force.kind != "constant"
                    or np.array_equal(back, offset)):
                z = res.next
                return CollisionResult(PhasePoint(z.scatterer, z.r, -z.phi),
                                       res.tau, res.grazing_margin)
            offset = back
        raise NoConvergence("reversed flight found no consistent offset")

    def _unkick(self, x):
        """Pre-kick coordinates K^-1(x), by Newton on the closed-form kick."""
        L = self.config[x.scatterer].L
        y = np.array([x.r, x.phi])
        for _ in range(20):
            g1, g2 = self.kick.g(y[0], y[1], L)
            f = np.array([(y[0] + g1 - x.r + L / 2) % L - L / 2,
                          y[1] + g2 - x.phi])
            if np.abs(f).max() <= 1e-14:
                return PhasePoint(x.scatterer, y[0] % L, y[1])
            y = y - np.linalg.solve(np.eye(2) + self.kick.dg(y[0], y[1], L),
                                    f)
        raise NoConvergence("kick inverse exhausted its budget")

    # ------------------------------------------------------------------
    # differential

    def dt(self, x, direction="forward"):
        """Differential of the map, exact at integrator tolerance."""
        if direction == "backward":
            pre = self.backward(x).next
            return Jacobian2x2(np.linalg.inv(self.dt(pre).m))
        return self.step(x)[1]

    def step(self, x):
        """The forward step and its differential, from one flight."""
        if math.pi / 2 - abs(x.phi) < FD_GUARD:
            raise SingularityTooClose("too close to grazing for a differential")
        res = self._fly(x, (0, 0), self.kick)
        if res.grazing_margin < FD_GUARD:
            raise SingularityTooClose("image within guard of grazing")
        tr = res.transcript
        var_r, var_phi = self._launch_variations(x, tr.q0, tr.p0)
        (dq1, dp1), (dq2, dp2) = _evolve_variation_pair(
            tr, self.force, var_r, var_phi, rtol=self.rtol, atol=self.atol)
        col1 = self._collision_coords(tr, dq1, dp1)
        col2 = self._collision_coords(tr, dq2, dp2)
        M = np.column_stack([col1, col2])
        if not self.kick.is_zero:
            pre = res.pre_kick
            G = np.eye(2) + self.kick.dg(pre.r, pre.phi,
                                         self.config[pre.scatterer].L)
            M = G @ M
        return res, Jacobian2x2(M)

    def _launch_variations(self, x, q0, p0):
        """Exact (dq, dp) flow variations for the basis vectors d/dr, d/dphi."""
        s = self.config[x.scatterer]
        _q, t, n, K = s.frame(x.r)
        speed = np.linalg.norm(p0)
        vhat = p0 / speed
        F = self.force(q0, p0)
        cphi, sphi = math.cos(x.phi), math.sin(x.phi)
        # d/dr: boundary point moves along t; speed varies on the level surface
        dq_r = t.copy()
        ds_dr = float(F @ t) / speed
        dp_r = ds_dr * vhat + speed * K * (cphi * t - sphi * n)
        # d/dphi: direction rotates at fixed point and speed
        dq_p = np.zeros(2)
        dp_p = speed * (-sphi * n + cphi * t)
        return (dq_r, dp_r), (dq_p, dp_p)

    def _collision_coords(self, tr, dq, dp):
        """Convert an endpoint flow variation to (dr1, dphi1) at the image."""
        s = self.config[tr.scatterer]
        q_loc = tr.q1 - tr.offset
        r1 = s.r_of_point(q_loc)
        _pt, t, n, K1 = s.frame(r1)
        p_minus = tr.p1
        F1 = self.force(tr.q1, p_minus)
        # collision-time shift keeping the perturbed point on the boundary
        dtau = -float(n @ dq) / float(n @ p_minus)
        dq_c = dq + p_minus * dtau
        dp_c = dp + F1 * dtau
        dr1 = float(t @ dq_c)
        dn = K1 * dr1 * t
        dt_frame = -K1 * dr1 * n
        pn = float(p_minus @ n)
        dp_plus = (dp_c - 2.0 * float(dp_c @ n) * n
                   - 2.0 * float(p_minus @ dn) * n - 2.0 * pn * dn)
        p_plus = p_minus - 2.0 * pn * n
        a, b = float(p_plus @ t), float(p_plus @ n)
        da = float(dp_plus @ t) + float(p_plus @ dt_frame)
        db = float(dp_plus @ n) + float(p_plus @ dn)
        dphi1 = (b * da - a * db) / (a * a + b * b)
        return np.array([dr1, dphi1])

    def __repr__(self):
        return (f"ForcedMap(force={self.force.kind}, eps={self.force.epsilon}, "
                f"kick_eps={self.kick.epsilon})")


class ForcedResult:
    """Outcome of one forced step."""

    def __init__(self, nxt, tau, arc_length, grazing_margin, transcript,
                 pre_kick):
        self.next = nxt
        self.tau = float(tau)
        self.arc_length = float(arc_length)
        self.grazing_margin = float(grazing_margin)
        self.transcript = transcript
        self.pre_kick = pre_kick


# ----------------------------------------------------------------------
# flight integration

def _first_crossing(gap, sol, t_lo, t_hi, speed, coarse=4e-3, fine=2.0e-4):
    """Bracket the earliest sign change of the wall gap on a dense output.

    Coarse samples flag wall approaches (the gap is 1-Lipschitz in
    position), which are then rescanned at a resolution fine enough to
    catch chords down to sub-milliradian landing angles.
    """
    if t_hi - t_lo <= fine:
        return None
    ts = np.linspace(t_lo, t_hi,
                     max(int((t_hi - t_lo) / (coarse / max(speed, 1e-6))), 2) + 1)
    g = gap.batch_min(sol.sol(ts)[0:2].T)
    step = ts[1] - ts[0]
    near = g < 1.5 * step * max(speed, 1e-6)
    for i in np.nonzero(near[:-1] | near[1:])[0]:
        n_f = max(int(step / fine), 2)
        tf = np.linspace(ts[i], ts[i + 1], n_f + 1)
        gf = gap.batch_min(sol.sol(tf)[0:2].T)
        hit = np.nonzero(gf <= 0.0)[0]
        if hit.size:
            k = int(hit[0])
            if k == 0:
                return (max(t_lo, tf[0] - step), tf[0])
            return (tf[k - 1], tf[k])
    return None


def integrate_flight(fmap, q0, p0, exclude=None):
    """Integrate the flow from an outgoing boundary state to the next wall.

    Returns a FlightTranscript.  The collision time is located by event
    detection and polished to 1e-12; the invariant drift is checked.
    """
    force = fmap.force
    gap = fmap._gap
    if force.is_zero:
        return _straight_flight(fmap, q0, p0, exclude)

    speed0 = np.linalg.norm(p0)
    t_cap = fmap.flight_cap / max(speed0 * 0.5, 1e-6)

    def rhs(_t, y):
        f = force(y[0:2], y[2:4])
        return np.array([y[2], y[3], f[0], f[1], math.hypot(y[2], y[3])])

    # short manual start so the event function leaves zero at the launch wall
    dt0 = min(1e-3, 0.02 / speed0)
    y = np.concatenate([q0, p0, [0.0]])
    for _ in range(2):
        h = dt0 / 2
        k1 = rhs(0, y)
        k2 = rhs(0, y + h / 2 * k1)
        k3 = rhs(0, y + h / 2 * k2)
        k4 = rhs(0, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    g0, _, _ = gap(y[0:2])
    if g0 <= 0:
        # immediate regraze of the launch wall; treat as a collision there
        dt0, y = 0.0, np.concatenate([q0, p0, [0.0]])

    def event(_t, yv):
        return gap(yv[0:2])[0]
    event.terminal = True
    event.direction = -1

    sol = solve_ivp(rhs, (dt0, t_cap), y, method="DOP853", events=event,
                    dense_output=True, rtol=fmap.rtol, atol=fmap.atol,
                    max_step=0.25)
    f_of = lambda t: gap(sol.sol(t)[0:2])[0]
    t_ev = float(sol.t_events[0][0]) if sol.t_events[0].size else None
    # the solver only checks the event at step endpoints, so a short
    # collision chord can hide inside one step; scan the dense output
    # for the earliest true crossing
    bracket = _first_crossing(gap, sol, dt0, sol.t[-1], speed0)
    if bracket is not None:
        t_hit = brentq(f_of, bracket[0], bracket[1], xtol=1e-13)
    elif t_ev is not None:
        t_hit = t_ev
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
    q1, p1 = y1[0:2], y1[2:4]
    drift = abs(force.energy(q1, p1) - force.energy(q0, p0))
    if drift > 1e-9:
        raise EnergyDrift(f"invariant drift {drift:.3e} over one flight")
    _, j, off = gap(q1)
    return FlightTranscript(q0, p0, q1, p1, t_hit, j, off, float(y1[4]),
                            force)


def _straight_flight(fmap, q0, p0, exclude=None):
    from .classical_map import free_flight_ray
    speed = np.linalg.norm(p0)
    v = p0 / speed
    j, off, t_len, hit = free_flight_ray(fmap.config, q0, v,
                                         fmap.flight_cap, exclude=exclude)
    return FlightTranscript(q0, p0, hit + np.asarray(off, dtype=float), p0,
                            t_len / speed, j, off, t_len, fmap.force,
                            straight=True)


# ----------------------------------------------------------------------
# reflection with kick

def apply_reflection(config, j, q_loc, p_minus, kick=None, grazing_tol=GRAZING_TOL):
    """Specular reflection followed by the kick, in collision coordinates.

    q_loc is the collision point in the scatterer's base cell.  Returns
    (r1, phi1, r_bar, phi_bar, grazing_margin) where (r1, phi1) are the
    pre-kick coordinates.
    """
    s = config[j]
    r1 = s.r_of_point(q_loc)
    _pt, t, n, _K = s.frame(r1)
    pn = float(p_minus @ n)
    p_plus = p_minus - 2.0 * pn * n
    phi1 = math.atan2(float(p_plus @ t), float(p_plus @ n))
    margin = math.pi / 2 - abs(phi1)
    if margin < grazing_tol:
        raise Tangential("collision within grazing tolerance")
    if kick is None or kick.is_zero:
        return r1, phi1, r1, phi1, margin
    g1, g2 = kick.g(r1, phi1, s.L)
    rbar = (r1 + g1) % s.L
    phibar = phi1 + g2
    margin_bar = math.pi / 2 - abs(phibar)
    if margin_bar <= 0:
        raise KickEjected("kicked state is no longer outgoing")
    return r1, phi1, rbar, phibar, min(margin, margin_bar)


# ----------------------------------------------------------------------
# Jacobi fields

def _variation_rhs(force, y):
    """Right side for (q, p) plus stacked linear variations (dq, dp)."""
    q, p = y[0:2], y[2:4]
    f = force(q, p)
    J = force.jac_q(q)
    out = np.empty_like(y)
    out[0:2] = p
    out[2:4] = f
    k = 4
    while k < y.size:
        dq, dp = y[k:k + 2], y[k + 2:k + 4]
        out[k:k + 2] = dp
        out[k + 2:k + 4] = J @ dq
        k += 4
    return out


def _evolve_variation_pair(tr, force, var1, var2, rtol=1e-11, atol=1e-11):
    """Evolve two flow variations along a transcript; exact for F = 0."""
    if tr.straight or force.is_zero:
        out = []
        for dq, dp in (var1, var2):
            out.append((dq + tr.t1 * dp, dp.copy()))
        return out
    y0 = np.concatenate([tr.q0, tr.p0, var1[0], var1[1], var2[0], var2[1]])
    sol = solve_ivp(lambda t, y: _variation_rhs(force, y), (0.0, tr.t1), y0,
                    method="DOP853", rtol=rtol, atol=atol, max_step=0.25)
    y1 = sol.y[:, -1]
    return [(y1[4:6], y1[6:8]), (y1[8:10], y1[10:12])]


def trajectory_curvature(force, q, p):
    """Signed curvature of the flow trajectory through (q, p)."""
    speed2 = float(p @ p)
    return float(force(q, p) @ _perp(p / math.sqrt(speed2))) / speed2


def jacobi_from_state(state, q, p, force):
    """Flow variation (dq, dp) representing a JacobiState at (q, p)."""
    speed = np.linalg.norm(p)
    vhat = p / speed
    vperp = _perp(vhat)
    dq = state.w * vperp
    dp = speed * state.wdot * vperp + (float(force(q, p) @ dq) / speed) * vhat
    return dq, dp


def jacobi_to_state(dq, dp, q, p, force):
    """Read a JacobiState off a flow variation at (q, p)."""
    speed = np.linalg.norm(p)
    vhat = p / speed
    vperp = _perp(vhat)
    h = trajectory_curvature(force, q, p)
    w = float(dq @ vperp)
    wdot = float(dp @ vperp) / speed - h * float(dq @ vhat)
    return JacobiState(w, wdot)


def evolve_jacobi(state, transcript, force=None, rtol=1e-11, atol=1e-11):
    """Evolve a JacobiState along a flight transcript."""
    force = force if force is not None else transcript.force
    if transcript.straight or force.is_zero:
        return JacobiState(state.w + state.wdot * transcript.t1, state.wdot)
    dq, dp = jacobi_from_state(state, transcript.q0, transcript.p0, force)
    (dq1, dp1), _ = _evolve_variation_pair(transcript, force, (dq, dp),
                                           (np.zeros(2), np.zeros(2)),
                                           rtol=rtol, atol=atol)
    return jacobi_to_state(dq1, dp1, transcript.q1, transcript.p1, force)


def jacobi_collision_update(state, K, phi, h_plus, h_minus):
    """Reflect a JacobiState at a wall of curvature K hit at angle phi."""
    w_plus = -state.w
    wdot_plus = (-state.wdot
                 - (2.0 * K + (h_plus + h_minus) * math.sin(phi))
                 / math.cos(phi) * state.w)
    return JacobiState(w_plus, wdot_plus)

