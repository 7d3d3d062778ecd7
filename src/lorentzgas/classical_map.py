"""The unperturbed billiard map: collision search on the unfolded torus,
forward/backward evaluation, closed-form Jacobians, and singularity /
homogeneity-strip classification.

Phase point convention: x = (scatterer index, arclength r, angle phi) with
phi in [-pi/2, pi/2] measured from the outward normal toward the tangent of
increasing r, so the outgoing velocity is v = cos(phi) n + sin(phi) t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (LorentzGasError, NoCollision, SingularityTooClose,
                     Tangential)

GRAZING_TOL = 1e-10
FD_GUARD = 1e-6
DEFAULT_K0 = 10


@dataclass(frozen=True)
class PhasePoint:
    scatterer: int
    r: float
    phi: float

    def reduced(self, config):
        L = config[self.scatterer].L
        return PhasePoint(self.scatterer, float(np.mod(self.r, L)), self.phi)


@dataclass(frozen=True)
class CollisionResult:
    next: PhasePoint
    tau: float
    grazing_margin: float


@dataclass(frozen=True)
class Jacobian2x2:
    m: np.ndarray  # 2x2, (dr, dphi) coordinates

    @property
    def det(self):
        return float(np.linalg.det(self.m))


# ---------------------------------------------------------------------------
# ray tracing on the unfolded torus


def _ray_circle_first(q, v, C, R, t_lo):
    """First t > t_lo where q + t v hits circle (C, R); None if it misses."""
    d = q - C
    b = d @ v
    c = d @ d - R * R
    disc = b * b - c
    if disc <= 0:
        return None
    s = np.sqrt(disc)
    t1 = -b - s
    return t1 if t1 > t_lo else None


def _ray_profile_first(sc, offset, q, v, t_lo, t_hi):
    """First root of the signed radial gap along q + t v against a
    non-circular scatterer image; None if no crossing in (t_lo, t_hi)."""
    off = np.asarray(offset, dtype=float)
    C = sc.center + off

    def g(t):
        return sc.gap(q + t * v - off)

    def gdot(t):
        return sc.gap_grad(q + t * v - off) @ v

    # restrict to the chord through the bounding circle
    chord = _chord_interval(q, v, C, sc.rho_max, t_lo, t_hi)
    if chord is None:
        return None
    ta, tb = chord
    ts = np.linspace(ta, tb, 49)
    gs = np.array([g(t) for t in ts])
    neg = np.nonzero(gs <= 0)[0]
    if neg.size:
        k = neg[0]
        if k == 0:
            return None  # started inside: stale bracket
        return _polish_root(g, gdot, ts[k - 1], ts[k])
    # no sample below zero: check for a grazing dip around the sampled minimum
    k = int(np.argmin(gs))
    if 0 < k < len(ts) - 1:
        from scipy.optimize import minimize_scalar
        res = minimize_scalar(g, bracket=(ts[k - 1], ts[k], ts[k + 1]),
                              options={"xtol": 1e-14})
        if res.fun <= 0:
            return _polish_root(g, gdot, ta, res.x)
    return None


def _chord_interval(q, v, C, R, t_lo, t_hi):
    d = q - C
    b = d @ v
    c = d @ d - R * R
    disc = b * b - c
    if disc <= 0:
        return None
    s = np.sqrt(disc)
    ta, tb = max(-b - s, t_lo), min(-b + s, t_hi)
    if ta >= tb:
        return None
    return ta, tb


def _polish_root(g, gdot, ta, tb):
    """Bisection bracket + Newton polish of g on [ta, tb] to 1e-12."""
    fa = g(ta)
    for _ in range(60):
        tm = 0.5 * (ta + tb)
        fm = g(tm)
        if fa * fm <= 0:
            tb = tm
        else:
            ta, fa = tm, fm
        if tb - ta < 1e-13:
            break
    t = 0.5 * (ta + tb)
    for _ in range(4):
        gd = gdot(t)
        if gd == 0:
            break
        t = t - g(t) / gd
    return t


def free_flight_ray(config, q, v, flight_cap=50.0, exclude=None):
    """Trace the ray q + t v through the periodic scatterer array.

    Returns (scatterer index, lattice offset, t, hit point in base cell
    coordinates).  `exclude` is an (index, offset) pair for the image the
    ray starts on.  Raises NoCollision past flight_cap.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    best_t = np.inf
    best = None
    tried = set()

    # grid walk (DDA) over unit cells crossed by the ray
    cx, cy = int(np.floor(q[0])), int(np.floor(q[1]))
    step_x = 1 if v[0] > 0 else -1
    step_y = 1 if v[1] > 0 else -1
    tmax_x = ((cx + (step_x > 0)) - q[0]) / v[0] if v[0] != 0 else np.inf
    tmax_y = ((cy + (step_y > 0)) - q[1]) / v[1] if v[1] != 0 else np.inf
    tdel_x = abs(1.0 / v[0]) if v[0] != 0 else np.inf
    tdel_y = abs(1.0 / v[1]) if v[1] != 0 else np.inf
    t_entry = 0.0

    while t_entry <= min(best_t, flight_cap):
        for j, sc in enumerate(config.scatterers):
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    off = (cx + dx, cy + dy)
                    key = (j, off)
                    if key in tried:
                        continue
                    tried.add(key)
                    if exclude is not None and j == exclude[0] and off == tuple(exclude[1]):
                        continue
                    C = sc.center + np.array(off, dtype=float)
                    if sc.is_circle:
                        t = _ray_circle_first(q, v, C, sc.R, 1e-11)
                    else:
                        t = _ray_profile_first(sc, off, q, v, 1e-11,
                                               min(best_t, flight_cap))
                    if t is not None and t < best_t:
                        best_t = t
                        best = (j, off)
        if tmax_x < tmax_y:
            t_entry = tmax_x
            tmax_x += tdel_x
            cx += step_x
        else:
            t_entry = tmax_y
            tmax_y += tdel_y
            cy += step_y

    if best is None or best_t > flight_cap:
        raise NoCollision(tau=flight_cap)
    j, off = best
    hit = q + best_t * v - np.array(off, dtype=float)
    return j, off, best_t, hit


_BLOCK = 8          # candidate images tested per pass
_CHUNK = 4096       # points mapped together, to bound the temporaries
_LB_SLACK = 1e-6    # > the rounding error of a grazing discriminant root


def _candidate_table(config, flight_cap, max_cells, q=None):
    """The circle images a ray may hit first, sorted per ray source.

    The images are those of the (2 max_cells + 1)^2 cell window around
    the base cell, less the copies whose center is farther than the cap
    plus the cell diagonal and their radius (they can never win).  A
    source is a disc (S, rho): each scatterer, whose rays skip its base
    image, or, given ray origins q, one disc around all of them.  Its row
    sorts the images by lb = |C_img - S| - rho - R_j, a lower bound on the
    flight of a unit-speed ray from the disc to the image.  A skipped
    image is a dummy (lb inf, R^2 = -1) that no ray hits.  Returns
    (lb, Cx, Cy, |C|^2, R^2, scatterer, offset), one row per source.
    """
    reach = min(flight_cap, max_cells * 2.0) + math.sqrt(2.0)
    cells = range(-max_cells, max_cells + 1)
    scs = config.scatterers
    j, ox, oy = np.array([(j, ox, oy) for j, sc in enumerate(scs)
                          for ox in cells for oy in cells
                          if math.hypot(sc.center[0] + ox - 0.5,
                                        sc.center[1] + oy - 0.5)
                          <= reach + sc.R]).T
    Cs = np.stack([sc.center for sc in scs])
    R = np.array([sc.R for sc in scs])
    Cx, Cy = Cs[j, 0] + ox, Cs[j, 1] + oy
    if q is None:
        S, rho = Cs, R
    else:
        S = q.mean(axis=0, keepdims=True)
        rho = np.sqrt(((q - S) ** 2).sum(axis=1)).max(keepdims=True)
    lb = (np.hypot(Cx - S[:, :1], Cy - S[:, 1:]) - rho[:, None] - R[j]
          - _LB_SLACK)
    if q is None:
        lb[(j == np.arange(len(R))[:, None]) & (ox == 0) & (oy == 0)] = np.inf
    order = np.argsort(lb, axis=1, kind="stable")
    lb = np.take_along_axis(lb, order, axis=1)
    dummy = np.isinf(lb)
    Cx, Cy = np.where(dummy, 0.0, Cx[order]), np.where(dummy, 0.0, Cy[order])
    R2 = np.array([sc.R ** 2 for sc in scs])[j[order]]
    return (lb, Cx, Cy, Cx * Cx + Cy * Cy, np.where(dummy, -1.0, R2),
            j[order], np.stack([ox[order], oy[order]], axis=-1))


def _first_circle_hits(config, q, v, flight_cap, max_cells=3, launch=None):
    """First circle image hit by each unit-speed ray q[k] + t v[k], t > 1e-11.

    Every scatterer must be a circle.  `launch` holds each ray's own
    scatterer, whose base-cell image the ray starts on and skips; the
    candidate table of these sources is memoised on the config.  Each
    pass tests the next _BLOCK candidates of every open ray, which closes
    once the lower bound of its next candidate reaches its best hit, so
    the result is that of testing every image of the table.  Returns (t,
    scatterer, offset) arrays; t is inf where no image is hit.
    """
    if launch is None:
        src = np.zeros(len(q), dtype=int)
        tab = _candidate_table(config, flight_cap, max_cells, q)
    else:
        src, key = launch, (flight_cap, max_cells)
        if key not in config._hit_tables:
            config._hit_tables[key] = _candidate_table(config, flight_cap,
                                                       max_cells)
        tab = config._hit_tables[key]
    lb, Cx, Cy, C2, R2, js, offs = tab
    best_t = np.full(len(q), np.inf)
    best_c = np.zeros(len(q), dtype=int)
    act = np.arange(len(q))
    for c0 in range(0, lb.shape[1], _BLOCK):
        if not act.size:
            break
        s, blk = src[act], slice(c0, c0 + _BLOCK)
        qx, qy = q[act, :1], q[act, 1:]
        vx, vy = v[act, :1], v[act, 1:]
        bx, by = Cx[s, blk], Cy[s, blk]
        # c = |q|^2 - 2 q.C + |C|^2 - R^2 summed in this order, so that t
        # is bit-identical to a plain scan of the window (see the tests)
        b = (qx - bx) * vx + (qy - by) * vy
        c = (qx * qx + qy * qy) - 2.0 * (qx * bx + qy * by) \
            + C2[s, blk] - R2[s, blk]
        disc = b * b - c
        valid = disc > 0
        t1 = -b - np.sqrt(disc, where=valid, out=np.zeros_like(disc))
        t1 = np.where(valid & (t1 > 1e-11), t1, np.inf)
        k = np.argmin(t1, axis=1)
        tk = t1[np.arange(act.size), k]
        win = tk < best_t[act]
        best_t[act[win]] = tk[win]
        best_c[act[win]] = c0 + k[win]
        if c0 + _BLOCK < lb.shape[1]:
            act = act[best_t[act] > lb[s, c0 + _BLOCK]]
    hit = np.isfinite(best_t)
    best_j = np.where(hit, js[src, best_c], -1)
    best_off = np.where(hit[:, None], offs[src, best_c], 0).astype(float)
    return best_t, best_j, best_off


# ---------------------------------------------------------------------------
# the map


def _outgoing(config, x):
    """Boundary point and outgoing unit velocity for a phase point."""
    sc = config[x.scatterer]
    p, t, n, K = sc.frame(x.r)
    v = np.cos(x.phi) * n + np.sin(x.phi) * t
    return p, v, t, n, K


def free_flight(config, x, flight_cap=50.0, grazing_tol=GRAZING_TOL):
    """Next collision of the outgoing ray of x; Tangential launches rejected."""
    if np.pi / 2 - abs(x.phi) < grazing_tol:
        raise Tangential(f"phi within {grazing_tol} of +-pi/2")
    p, v, _, _, _ = _outgoing(config, x)
    j, off, tau, hit = free_flight_ray(config, p, v, flight_cap,
                                       exclude=(x.scatterer, (0, 0)))
    scj = config[j]
    r1 = float(scj.r_of_point(hit))
    _, t1, n1, _ = scj.frame(r1)
    v_out = v - 2.0 * (v @ n1) * n1
    phi1 = float(np.arctan2(v_out @ t1, v_out @ n1))
    return CollisionResult(PhasePoint(j, r1, phi1), float(tau),
                           float(np.pi / 2 - abs(phi1)))


def time_reverse(x):
    return PhasePoint(x.scatterer, x.r, -x.phi)


class ClassicalMap:
    """The billiard map T0 of a scatterer configuration."""

    def __init__(self, config, flight_cap=50.0, grazing_tol=GRAZING_TOL):
        self.config = config
        self.flight_cap = flight_cap
        self.grazing_tol = grazing_tol
        self.all_circles = all(s.is_circle for s in config.scatterers)

    def forward(self, x):
        return free_flight(self.config, x, self.flight_cap, self.grazing_tol)

    def backward(self, x):
        res = free_flight(self.config, time_reverse(x), self.flight_cap,
                          self.grazing_tol)
        return CollisionResult(time_reverse(res.next), res.tau,
                               res.grazing_margin)

    def step(self, x):
        """The forward step and its closed-form differential."""
        cfg = self.config
        res = self.forward(x)
        y = res.next
        tau = res.tau
        K = cfg[x.scatterer].curvature_r(x.r)
        K1 = cfg[y.scatterer].curvature_r(y.r)
        c, c1 = np.cos(x.phi), np.cos(y.phi)
        m = (-1.0 / c1) * np.array([
            [tau * K + c, tau],
            [K1 * (tau * K + c) + K * c1, tau * K1 + c1]])
        return res, Jacobian2x2(m)

    def dt(self, x, direction="forward"):
        """Closed-form one-step Jacobian in (dr, dphi) coordinates."""
        if direction == "forward":
            return self.step(x)[1]
        cfg = self.config
        res = self.backward(x)
        y = res.next  # y = T^{-1} x
        tau = res.tau
        K = cfg[x.scatterer].curvature_r(x.r)
        Km = cfg[y.scatterer].curvature_r(y.r)
        c, cm = np.cos(x.phi), np.cos(y.phi)
        m = (-1.0 / cm) * np.array([
            [tau * K + c, -tau],
            [-Km * (tau * K + c) - K * cm, tau * Km + cm]])
        return Jacobian2x2(m)

    # -- vectorized batch path ----------------------------------------------

    def forward_batch(self, idx, r, phi, max_cells=3):
        """Forward map of arrays of phase points.

        Returns (idx1, r1, phi1, tau, ok) arrays; ok is False where no
        collision was found within the cell window or flight cap.
        All-circle configs are searched vectorised over the cell window,
        _CHUNK points at a time; configs with profile scatterers take the
        scalar map point by point, with ok False where it raises.
        """
        idx = np.asarray(idx, dtype=int)
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if not self.all_circles:
            return self._forward_each(idx, r, phi)
        n = len(r)
        out = (np.zeros(n, dtype=int), np.zeros(n), np.zeros(n), np.zeros(n),
               np.zeros(n, dtype=bool))
        for a in range(0, n, _CHUNK):
            sl = slice(a, a + _CHUNK)
            for o, x in zip(out, self._forward_circles(idx[sl], r[sl],
                                                       phi[sl], max_cells)):
                o[sl] = x
        return out

    def _forward_circles(self, idx, r, phi, max_cells):
        """forward_batch of an all-circle config."""
        Rs = np.array([s.R for s in self.config.scatterers])
        rots = np.array([s.rotation for s in self.config.scatterers])
        Cs = np.stack([s.center for s in self.config.scatterers])

        Ri = Rs[idx]
        polar = r / Ri + rots[idx]
        n = np.stack([np.cos(polar), np.sin(polar)], axis=-1)
        t = np.stack([-np.sin(polar), np.cos(polar)], axis=-1)
        q = Cs[idx] + Ri[:, None] * n
        v = np.cos(phi)[:, None] * n + np.sin(phi)[:, None] * t

        best_t, best_j, best_off = _first_circle_hits(
            self.config, q, v, self.flight_cap, max_cells, launch=idx)

        ok = np.isfinite(best_t) & (best_t <= self.flight_cap)
        jj = np.where(ok, best_j, 0)
        p_hit = q + np.where(ok, best_t, 0.0)[:, None] * v - best_off
        d = p_hit - Cs[jj]
        polar1 = np.arctan2(d[:, 1], d[:, 0])
        r1 = np.mod((polar1 - rots[jj]), 2 * np.pi) * Rs[jj]
        n1 = np.stack([np.cos(polar1), np.sin(polar1)], axis=-1)
        t1v = np.stack([-np.sin(polar1), np.cos(polar1)], axis=-1)
        vn = np.einsum("ij,ij->i", v, n1)
        v_out = v - 2.0 * vn[:, None] * n1
        phi1 = np.arctan2(np.einsum("ij,ij->i", v_out, t1v),
                          np.einsum("ij,ij->i", v_out, n1))
        return jj, r1, phi1, best_t, ok

    def _forward_each(self, idx, r, phi):
        """forward_batch through the scalar map, one point at a time."""
        n = len(r)
        jj = np.zeros(n, dtype=int)
        r1 = np.zeros(n)
        phi1 = np.zeros(n)
        tau = np.full(n, np.inf)
        ok = np.zeros(n, dtype=bool)
        for k in range(n):
            try:
                res = self.forward(PhasePoint(int(idx[k]), float(r[k]),
                                              float(phi[k])))
            except LorentzGasError:
                continue
            jj[k], r1[k], phi1[k] = res.next.scatterer, res.next.r, res.next.phi
            tau[k] = res.tau
            ok[k] = True
        return jj, r1, phi1, tau, ok

    def backward_batch(self, idx, r, phi, max_cells=3):
        """Vectorized backward map (time reversal of the forward batch)."""
        jj, r1, phi1, tau, ok = self.forward_batch(idx, np.asarray(r),
                                                   -np.asarray(phi), max_cells)
        return jj, r1, -phi1, tau, ok


# ---------------------------------------------------------------------------
# homogeneity strips and singularity distance


def homogeneity_index(phi, k0=DEFAULT_K0):
    """Index k of the homogeneity strip containing phi (0 = central strip)."""
    u = np.pi / 2 - abs(phi)
    if u * k0 * k0 > 1.0:
        return 0
    if u <= 0:
        return int(np.sign(phi)) * 10 ** 9
    k = int(np.floor(1.0 / np.sqrt(u)))
    return k if phi > 0 else -k


def _probe_slopes(config, x):
    """Stable/unstable probe slopes through x (cone-center estimates)."""
    K = config[x.scatterer].curvature_r(x.r)
    s = K + 0.5 * (1.0 / K + 1.0)
    return (-s, s)


def singularity_distance(x, map_def, n=1, homog=False, probe_radius=0.05,
                         n_probe=33, k0=DEFAULT_K0):
    """Estimated phase distance from x to S_{-n} (n=+1) or S_{n} (n=-1).

    Probes short segments through x in the stable and unstable directions
    and bisects where the one-step image (backward for S_{-1}, forward for
    S_{1}) changes scatterer, fails, or (homog=True) changes strip.
    """
    assert abs(n) == 1
    config = map_def.config
    step = map_def.backward if n == 1 else map_def.forward

    def image(y):
        if abs(y.phi) >= np.pi / 2:
            return None
        try:
            res = step(y)
        except (NoCollision, Tangential):
            return None
        img = res.next
        k = homogeneity_index(img.phi, k0) if homog else 0
        return (img.scatterer, k, img.r, img.phi)

    def separated(a, b, ds):
        """True if images a, b cannot lie on one smooth branch over step ds."""
        if (a is None) != (b is None):
            return True
        if a is None:
            return False
        if a[0] != b[0] or a[1] != b[1]:
            return True
        L = config[a[0]].L
        dr = abs(a[2] - b[2])
        dr = min(dr, L - dr)
        jump = np.hypot(dr, a[3] - b[3])
        stretch = 1.0 / max(min(np.cos(a[3]), np.cos(b[3])), 1e-9)
        return jump > 50.0 * ds * (1.0 + stretch)

    best = np.inf
    for slope in _probe_slopes(config, x):
        e = np.array([1.0, slope])
        e /= np.linalg.norm(e)
        ss = np.linspace(-probe_radius, probe_radius, n_probe)
        imgs = [image(PhasePoint(x.scatterer, x.r + s * e[0], x.phi + s * e[1]))
                for s in ss]
        for i in range(len(ss) - 1):
            if not separated(imgs[i], imgs[i + 1], ss[i + 1] - ss[i]):
                continue
            lo, hi = ss[i], ss[i + 1]
            ilo, ihi = imgs[i], imgs[i + 1]
            for _ in range(45):
                mid = 0.5 * (lo + hi)
                im = image(PhasePoint(x.scatterer, x.r + mid * e[0],
                                      x.phi + mid * e[1]))
                if separated(ilo, im, mid - lo):
                    hi, ihi = mid, im
                else:
                    lo, ilo = mid, im
            best = min(best, abs(0.5 * (lo + hi)))
    return best
