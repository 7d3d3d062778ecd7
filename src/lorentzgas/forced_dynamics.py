"""Billiard dynamics under a small external force and collision kick.

The flow between collisions solves dq/dt = p, dp/dt = F(q, p) for a force
from a closed-form family with a known conserved quantity; collisions are
specular reflection followed by a small kick/slip acting on the collision
coordinates (r, phi).  The map differential is assembled from an exact
linearization of the launch, the flight (variational equations carried in
the flight's own integration), and the collision conversion.
"""

import math

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .errors import (EnergyDrift, KickEjected, NoCollision, NoConvergence,
                     SingularityTooClose, Tangential, ValidationFailed)
from .classical_map import (CollisionResult, PhasePoint, Jacobian2x2,
                            GRAZING_TOL, FD_GUARD, _first_hits, _is_backward,
                            is_grazing, pointwise, pointwise_images)

TWO_PI = 2.0 * math.pi


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
        # constants of the float loops in __call__ and jac_q
        self._f_const = (self.epsilon * self.direction if kind == "constant"
                         else np.zeros(2))
        self._terms = [(m, n, ac, asn, float(m * m), float(m * n),
                        float(n * n)) for m, n, ac, asn in self.modes or ()]
        self._e2p = self.epsilon * TWO_PI
        self._e4p2 = self.epsilon * TWO_PI ** 2

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
        if not self._terms:
            return self._f_const.copy()
        x, y = float(q[0]), float(q[1])
        fx = fy = 0.0
        for m, n, ac, asn, _, _, _ in self._terms:
            ph = TWO_PI * (m * x + n * y)
            # -dU/dq with U = eps*(ac*cos(ph) + asn*sin(ph))
            w = self._e2p * (ac * math.sin(ph) - asn * math.cos(ph))
            fx += w * m
            fy += w * n
        return np.array([fx, fy])

    def _jac_entries(self, x, y):
        """(dFx/dx, dFx/dy = dFy/dx, dFy/dy) at the plane point (x, y)."""
        jxx = jxy = jyy = 0.0
        for m, n, ac, asn, mm, mn, nn in self._terms:
            ph = TWO_PI * (m * x + n * y)
            w = self._e4p2 * (ac * math.cos(ph) + asn * math.sin(ph))
            jxx += w * mm
            jxy += w * mn
            jyy += w * nn
        return jxx, jxy, jyy

    def jac_q(self, q):
        """d F / d q (force is momentum-independent in every family)."""
        jxx, jxy, jyy = self._jac_entries(float(q[0]), float(q[1]))
        return np.array([[jxx, jxy], [jxy, jyy]])

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
                 force, straight=False, variations=None):
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
        # the launch variations ((dq, dp), (dq, dp)) carried to the hit
        self.variations = variations


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
        energy-1/2 level at the lattice image `offset` of the base point,
        and the boundary frame (t, n, K) there."""
        q, t, n, K = self.config[x.scatterer].frame(x.r)
        v = math.cos(x.phi) * n + math.sin(x.phi) * t
        speed = self.force.launch_speed(q + offset)
        return q, speed * v, (t, n, K)

    def forward(self, x):
        """One step of the forced map with kick."""
        return self._fly(x, (0, 0), self.kick)

    def _fly(self, x, offset, kick, variations=False):
        if is_grazing(x.phi, self.grazing_tol):
            raise Tangential("outgoing direction within grazing tolerance")
        q0, p0, frame = self._launch(x, offset)
        var = (self._launch_variations(x, q0, p0, frame) if variations
               else None)
        tr = integrate_flight(self, q0, p0, exclude=(x.scatterer, (0, 0)),
                              variations=var)
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
    # batches, point by point

    def forward_batch(self, idx, r, phi):
        """forward of arrays of phase points: (idx1, r1, phi1, tau, ok)."""
        return pointwise_images(self.forward, idx, r, phi)

    def backward_batch(self, idx, r, phi):
        """backward of arrays of phase points: (idx1, r1, phi1, tau, ok)."""
        return pointwise_images(self.backward, idx, r, phi)

    def step_batch(self, idx, r, phi, direction="forward"):
        """step (or, for direction="backward", the inverse step) of arrays
        of phase points: (idx1, r1, phi1, tau, J, ok), J NaN where not ok."""
        return pointwise(self._step_back if _is_backward(direction)
                         else self.step, idx, r, phi)

    # ------------------------------------------------------------------
    # differential

    def dt(self, x, direction="forward"):
        """Differential of the map, exact at integrator tolerance."""
        if _is_backward(direction):
            return self._step_back(x)[1]
        return self.step(x)[1]

    def _step_back(self, x):
        """The inverse step: the preimage, and the inverse of the forward
        differential there."""
        res = self.backward(x)
        return res, Jacobian2x2(np.linalg.inv(self.step(res.next)[1].m))

    def step(self, x):
        """The forward step and its differential, from one flight."""
        if math.pi / 2 - abs(x.phi) < FD_GUARD:
            raise SingularityTooClose("too close to grazing for a differential")
        res = self._fly(x, (0, 0), self.kick, variations=True)
        if res.grazing_margin < FD_GUARD:
            raise SingularityTooClose("image within guard of grazing")
        tr = res.transcript
        # the landing frame, at the r1 of apply_reflection
        pre = res.pre_kick
        frame1 = self.config[pre.scatterer].frame(pre.r)[1:]
        M = np.column_stack([self._collision_coords(tr, frame1, dq, dp)
                             for dq, dp in tr.variations])
        if not self.kick.is_zero:
            G = np.eye(2) + self.kick.dg(pre.r, pre.phi,
                                         self.config[pre.scatterer].L)
            M = G @ M
        return res, Jacobian2x2(M)

    def _launch_variations(self, x, q0, p0, frame):
        """Exact (dq, dp) flow variations for the basis vectors d/dr, d/dphi,
        given the boundary frame (t, n, K) at x."""
        t, n, K = frame
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

    def _collision_coords(self, tr, frame1, dq, dp):
        """Convert an endpoint flow variation to (dr1, dphi1) at the image,
        given the landing frame (t, n, K1)."""
        t, n, K1 = frame1
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

_COARSE = 4e-3   # arclength between the wall-gap samples of a step
_FINE = 2e-4     # resolution of the rescan near a wall


def _flow_rhs(force, with_variations):
    """Right side of (q, p, arclength), plus two stacked flow variations
    (dq, dp) with d(dq)/dt = dp, d(dp)/dt = dF/dq dq when asked."""
    if not with_variations:
        def rhs(_t, y):
            qx, qy, px, py, _ = y.tolist()
            f = force((qx, qy))
            return np.array([px, py, f[0], f[1], math.hypot(px, py)])
        return rhs

    def rhs_var(_t, y):
        qx, qy, px, py, _, *var = y.tolist()
        f = force((qx, qy))
        jxx, jxy, jyy = force._jac_entries(qx, qy)
        out = [px, py, f[0], f[1], math.hypot(px, py)]
        for k in range(0, len(var), 4):
            dqx, dqy, dpx, dpy = var[k:k + 4]
            out += (dpx, dpy, jxx * dqx + jxy * dqy, jxy * dqx + jyy * dqy)
        return np.array(out)
    return rhs_var


def _step_crossing(gap, sol, t_lo, t_hi, speed):
    """Bracket the earliest sign change of the wall gap on one step's
    dense output, or None.

    Coarse samples flag wall approaches (the gap is 1-Lipschitz in
    position), which are then rescanned at a resolution fine enough to
    catch chords down to sub-milliradian landing angles.
    """
    speed = max(speed, 1e-6)
    ts = np.linspace(t_lo, t_hi,
                     max(math.ceil((t_hi - t_lo) * speed / _COARSE), 1) + 1)
    g = gap.batch_min(sol(ts)[0:2].T)
    step = ts[1] - ts[0]
    near = g < 1.5 * step * speed
    for i in np.flatnonzero(near[:-1] | near[1:]):
        tf = np.linspace(ts[i], ts[i + 1], max(int(step / _FINE), 2) + 1)
        hit = np.flatnonzero(gap.batch_min(sol(tf)[0:2].T) <= 0.0)
        if hit.size:
            k = int(hit[0])
            # k == 0 only where the step starts on the wall
            return tf[max(k - 1, 0)], tf[k]
    return None


def integrate_flight(fmap, q0, p0, exclude=None, variations=None):
    """Integrate the flow from an outgoing boundary state to the next wall.

    One DOP853 stepping loop: the dense output of each accepted step is
    scanned for a wall crossing, the first step that holds one ends the
    flight, and the collision time is polished on that step's interpolant
    to 1e-13; the invariant drift is checked.  `variations`, a pair of
    launch variations ((dq, dp), (dq, dp)), rides in the same state and
    comes back at the collision as the transcript's `variations`.
    Returns a FlightTranscript.
    """
    force = fmap.force
    if force.is_zero:
        return _straight_flight(fmap, q0, p0, exclude, variations)
    gap = fmap._gap
    speed0 = np.linalg.norm(p0)
    t_cap = fmap.flight_cap / max(speed0 * 0.5, 1e-6)
    rhs = _flow_rhs(force, variations is not None)
    y0 = np.concatenate([q0, p0, [0.0],
                         *(np.concatenate(v) for v in variations or ())])

    # short manual start so the gap leaves zero at the launch wall
    dt0 = min(1e-3, 0.02 / speed0)
    y = y0
    for _ in range(2):
        h = dt0 / 2
        k1 = rhs(0, y)
        k2 = rhs(0, y + h / 2 * k1)
        k3 = rhs(0, y + h / 2 * k2)
        k4 = rhs(0, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    if gap(y[0:2])[0] <= 0:
        # immediate regraze of the launch wall; treat as a collision there
        dt0, y = 0.0, y0

    solver = DOP853(rhs, dt0, y, t_cap, max_step=0.25, rtol=fmap.rtol,
                    atol=fmap.atol)
    while True:
        msg = solver.step()
        if solver.status == "failed":
            raise NoConvergence(f"flight integration failed: {msg}")
        sol = solver.dense_output()
        bracket = _step_crossing(gap, sol, solver.t_old, solver.t, speed0)
        if bracket is not None:
            break
        if solver.status == "finished":
            raise NoCollision(tau=t_cap)
    t_lo, t_hit = bracket
    if t_lo < t_hit:
        try:
            t_hit = brentq(lambda t: gap(sol(t)[0:2])[0], t_lo, t_hit,
                           xtol=1e-13)
        except ValueError as exc:
            raise NoConvergence("wall bracket does not change sign") from exc
    y1 = sol(t_hit)
    q1, p1 = y1[0:2], y1[2:4]
    drift = abs(force.energy(q1, p1) - force.energy(q0, p0))
    if drift > 1e-9:
        raise EnergyDrift(f"invariant drift {drift:.3e} over one flight")
    _, j, off = gap(q1)
    var1 = None if variations is None else (
        (y1[5:7], y1[7:9]), (y1[9:11], y1[11:13]))
    return FlightTranscript(q0, p0, q1, p1, t_hit, j, off, float(y1[4]),
                            force, variations=var1)


def _straight_flight(fmap, q0, p0, exclude=None, variations=None):
    speed = np.linalg.norm(p0)
    v = p0 / speed
    t, j, off = _first_hits(fmap.config, q0[None], v[None], fmap.flight_cap,
                            launch=None if exclude is None else [exclude[0]])
    t_len = float(t[0])
    if not math.isfinite(t_len):
        raise NoCollision(tau=fmap.flight_cap)
    t1 = t_len / speed
    var1 = None if variations is None else tuple(
        (dq + t1 * dp, dp.copy()) for dq, dp in variations)
    return FlightTranscript(q0, p0, q0 + t_len * v, p0, t1, int(j[0]),
                            off[0].astype(int), t_len, fmap.force,
                            straight=True, variations=var1)


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
