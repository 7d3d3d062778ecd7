"""The unperturbed billiard map: collision search on the unfolded torus,
forward/backward evaluation, closed-form Jacobians, and singularity /
homogeneity-strip classification.

Phase point convention: x = (scatterer index, arclength r, angle phi) with
phi in [-pi/2, pi/2] measured from the outward normal toward the tangent of
increasing r, so the outgoing velocity is v = cos(phi) n + sin(phi) t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LorentzGasError, NoCollision, Tangential

GRAZING_TOL = 1e-10
FD_GUARD = 1e-6
DEFAULT_K0 = 10


@dataclass(frozen=True)
class PhasePoint:
    scatterer: int
    r: float
    phi: float


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
# the collision search on the unfolded torus

_BLOCK = 8                 # candidate images tested per pass, at least
_CHUNK = 4096              # points mapped together, to bound the temporaries
_FEW_PAIRS = 2048          # passes this small widen, to save passes
_NEAR = 4.0                # reach of the first table a ray searches: the
                           # cap's table holds ~pi cap^2 images per source
_LB_SLACK = 1e-6           # > rounding error of a grazing discriminant root
_T_MIN = 1e-11             # a hit closer than this is the ray's own start
_N_CHORD = 49              # gap samples along a profile image's chord
_SMALL = np.int16          # dtype of the table's scatterer and offsets


def is_grazing(phi, grazing_tol=GRAZING_TOL):
    """The grazing rule: phi within grazing_tol of +-pi/2 (or past it)."""
    return np.pi / 2 - np.abs(phi) < grazing_tol


def _candidate_table(config, reach, q=None):
    """The scatterer images a ray may hit within `reach`, sorted per source.

    Every image is bounded by its circumscribed disc, of radius rho_max (R
    for a circle).  A source is a disc (S, rho): each scatterer's bounding
    disc, whose rays skip its base image, or, given ray origins q, one disc
    around all of them.  lb = |C_img - S| - rho - rho_max_j is a lower
    bound on the flight of a unit-speed ray from the source to the image;
    each row sorts the images by its lb and keeps at least those with lb
    <= reach.  A skipped image is a dummy (lb inf, rho_max^2 = -1) that no
    ray meets.  Returns (lb, Cx, Cy, |C|^2, rho_max^2, scatterer, offset),
    one row per source.
    """
    scs = config.scatterers
    Cs = np.stack([sc.center for sc in scs])
    rho = np.array([sc.rho_max for sc in scs])
    if q is None:
        S, rho_s = Cs, rho
    else:
        S = q.mean(axis=0, keepdims=True)
        rho_s = np.sqrt(((q - S) ** 2).sum(axis=1)).max(keepdims=True)
    m = reach + rho_s.max() + rho.max() + np.abs(S[:, None] - Cs).max()
    cells = np.arange(-np.ceil(m), np.ceil(m) + 1, dtype=_SMALL)
    j, ox, oy = (a.ravel() for a in np.meshgrid(
        np.arange(len(scs), dtype=_SMALL), cells, cells, indexing="ij"))
    Cx, Cy = Cs[j, 0] + ox, Cs[j, 1] + oy
    lb = (np.hypot(Cx - S[:, :1], Cy - S[:, 1:]) - rho_s[:, None] - rho[j]
          - _LB_SLACK)
    if q is None:
        lb[(j == np.arange(len(S))[:, None]) & (ox == 0) & (oy == 0)] = np.inf
    width = (lb <= reach).sum(axis=1).max()
    order = np.argsort(lb, axis=1, kind="stable")[:, :width]
    lb = np.take_along_axis(lb, order, axis=1)
    dummy = np.isinf(lb)
    Cx, Cy = np.where(dummy, 0.0, Cx[order]), np.where(dummy, 0.0, Cy[order])
    rho2 = np.array([sc.rho_max ** 2 for sc in scs])[j[order]]
    return (lb, Cx, Cy, Cx * Cx + Cy * Cy, np.where(dummy, -1.0, rho2),
            j[order], np.stack([ox[order], oy[order]], axis=-1))


def _first_hits(config, q, v, flight_cap, launch=None):
    """First scatterer image hit by each unit-speed ray q[k] + t v[k] with
    1e-11 < t <= flight_cap.

    `launch` holds each ray's own scatterer, whose base image the ray
    starts on and skips; the candidate tables of these sources are
    memoised on the config per reach.  Every ray is searched on the table
    of reach min(flight_cap, _NEAR), and a ray whose best hit lies past
    that reach is searched again on the table of reach flight_cap, which
    holds every image a flight within the cap can meet.  Returns (t,
    scatterer, offset) arrays; t is inf where nothing is hit within the cap.
    """
    def table(reach, rays):
        if launch is None:
            return _candidate_table(config, reach, q[rays])
        if reach not in config._hit_tables:
            config._hit_tables[reach] = _candidate_table(config, reach)
        return config._hit_tables[reach]

    src = np.zeros(len(q), dtype=int) if launch is None else np.asarray(launch)
    near = min(flight_cap, _NEAR)
    out = _scan(config, table(near, slice(None)), src, q, v, flight_cap)
    far = np.flatnonzero(out[0] > near)
    if far.size and near < flight_cap:
        for o, f in zip(out, _scan(config, table(flight_cap, far), src[far],
                                   q[far], v[far], flight_cap)):
            o[far] = f
    return out


def _scan(config, tab, src, q, v, flight_cap):
    """_first_hits on one table, whose rows are the rays' sources `src`.

    Each pass tests the next candidates of every open ray (_BLOCK, more
    once only few pairs remain), and a ray closes once the lower bound of
    its next candidate reaches its best hit, so the result is that of
    testing every image of the table.  A circle is hit where the ray meets
    it, a profile image where its gap first changes sign on the chord of
    its bounding disc (_first_root), searched only where that chord starts
    before the ray's best hit.
    """
    scs = config.scatterers
    lb, Cx, Cy, C2, R2, js, offs = tab
    profiles = [j for j, sc in enumerate(scs) if not sc.is_circle]
    best_t = np.full(len(q), np.nextafter(flight_cap, np.inf))
    best_c = np.zeros(len(q), dtype=int)
    act = np.arange(len(q))
    c0, width = 0, _BLOCK
    while act.size and c0 < lb.shape[1]:
        c1 = c0 + max(_BLOCK, min(width, _FEW_PAIRS // act.size))
        width *= 2
        s, blk = src[act], slice(c0, c1)
        qx, qy = q[act, :1], q[act, 1:]
        vx, vy = v[act, :1], v[act, 1:]
        bx, by = Cx[s, blk], Cy[s, blk]
        # c = |q|^2 - 2 q.C + |C|^2 - rho^2 summed in this order, so that a
        # circle's t is bit-identical to a plain scan (see the tests)
        b = (qx - bx) * vx + (qy - by) * vy
        c = (qx * qx + qy * qy) - 2.0 * (qx * bx + qy * by) \
            + C2[s, blk] - R2[s, blk]
        disc = b * b - c
        valid = disc > 0
        root = np.sqrt(disc, where=valid, out=np.zeros_like(disc))
        t_in = -b - root
        t1 = np.where(valid & (t_in > _T_MIN), t_in, np.inf)
        if profiles:
            jb = js[s, blk]
            t1[np.isin(jb, profiles)] = np.inf
            ta = np.maximum(t_in, _T_MIN)
            tb = np.minimum(-b + root, flight_cap)
            chord = valid & (ta < tb) \
                & (ta < np.minimum(best_t[act], t1.min(axis=1))[:, None])
            for j in profiles:
                i, k = np.nonzero(chord & (jb == j))
                if i.size:
                    t1[i, k] = _first_root(scs[j],
                                           q[act[i]] - offs[s[i], c0 + k],
                                           v[act[i]], ta[i, k], tb[i, k])
        k = np.argmin(t1, axis=1)
        tk = t1[np.arange(act.size), k]
        win = tk < best_t[act]
        best_t[act[win]] = tk[win]
        best_c[act[win]] = c0 + k[win]
        if c1 < lb.shape[1]:
            act = act[best_t[act] > lb[s, c1]]
        c0 = c1
    hit = best_t <= flight_cap
    return (np.where(hit, best_t, np.inf),
            np.where(hit, js[src, best_c], -1).astype(int),
            np.where(hit[:, None], offs[src, best_c], 0).astype(float))


def _first_root(sc, p, v, ta, tb):
    """First root of the gap of scatterer sc along each p[k] + t v[k] on the
    chord [ta[k], tb[k]] of its bounding disc; inf where there is none.

    p is the ray origin less the image's lattice offset.  The chord is
    sampled at _N_CHORD points and the first sign change is solved by
    bracketed Newton; a ray whose chord starts inside the profile has no
    root.  Where no sample is below zero, the gap is minimised (to 1e-13)
    between the samples around the smallest one, to find a grazing dip
    between samples.  Each ray's root depends on that ray alone.
    """
    ts = np.linspace(ta, tb, _N_CHORD, axis=1)
    gs = sc.gap(p[:, None] + ts[..., None] * v[:, None])
    rows = np.arange(len(ta))
    neg = gs <= 0
    k = np.argmax(neg, axis=1)
    crossed = neg[rows, k] & (k > 0)
    lo, hi = ts[rows, k - 1], ts[rows, k]
    k = np.argmin(gs, axis=1)
    dip = np.flatnonzero(~neg.any(axis=1) & (k > 0) & (k < _N_CHORD - 1))
    if dip.size:
        # the minimum is where the gap's slope changes sign; Newton on the
        # slope takes a forward difference of it for its derivative
        def slope(t, m):
            s0, s1 = (sc.gap_slope(p[dip[m]] + tt[:, None] * v[dip[m]],
                                   v[dip[m]])[1] for tt in (t, t + 1e-7))
            return -s0, (s0 - s1) / 1e-7

        x = _bracketed_newton(slope, ts[dip, k[dip] - 1], ts[dip, k[dip] + 1])
        fx = sc.gap(p[dip] + x[:, None] * v[dip])
        dip, x = dip[fx <= 0], x[fx <= 0]
        crossed[dip] = True
        lo[dip], hi[dip] = ts[dip, k[dip] - 1], x
    t = np.full(len(ta), np.inf)
    i = np.flatnonzero(crossed)
    if i.size:
        t[i] = _bracketed_newton(
            lambda t, m: sc.gap_slope(p[i[m]] + t[:, None] * v[i[m]], v[i[m]]),
            lo[i], hi[i])
    return t


def _bracketed_newton(f, lo, hi):
    """Roots of f(., m) -> (value, slope) in the brackets [lo, hi], value
    > 0 at lo and <= 0 at hi.  Newton steps from the midpoints, halving
    the bracket wherever a step would leave it, until a step is below
    1e-14 (relative) or the bracket narrower than 1e-13; 60 steps at most."""
    x = 0.5 * (lo + hi)
    live = np.arange(len(x))
    for _ in range(60):
        fx, dfx = f(x[live], live)
        below = fx <= 0
        hi[live[below]] = x[live[below]]
        lo[live[~below]] = x[live[~below]]
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x[live] - fx / dfx
        a, b = lo[live], hi[live]
        out = ~((xn >= a) & (xn <= b))
        xn[out] = 0.5 * (a + b)[out]
        done = (np.abs(xn - x[live]) <= 1e-14 * (1.0 + np.abs(xn))) \
            | (b - a < 1e-13)
        x[live] = xn
        live = live[~done]
        if not live.size:
            break
    return x


# ---------------------------------------------------------------------------
# the map


def _forward_chunk(config, idx, r, phi, flight_cap, grazing_tol):
    """The billiard map at arrays of phase points: (idx1, r1, phi1, tau,
    ok), ok False (and tau inf) where the launch is grazing or nothing is
    hit within the flight cap.  Frames are closed-form on circles and come
    from Scatterer.frame (launch) and frame_theta (landing) on profiles."""
    scs = config.scatterers
    Rs = np.array([s.R for s in scs])
    rots = np.array([s.rotation for s in scs])
    Cs = np.stack([s.center for s in scs])
    profiles = [j for j, s in enumerate(scs) if not s.is_circle]
    Ri = Rs[idx]
    polar = r / Ri + rots[idx]
    n = np.stack([np.cos(polar), np.sin(polar)], axis=-1)
    t = np.stack([-np.sin(polar), np.cos(polar)], axis=-1)
    q = Cs[idx] + Ri[:, None] * n
    for j in profiles:
        sel = idx == j
        if sel.any():
            q[sel], t[sel], n[sel], _ = scs[j].frame(r[sel])
    v = np.cos(phi)[:, None] * n + np.sin(phi)[:, None] * t

    tau, best_j, best_off = _first_hits(config, q, v, flight_cap, launch=idx)
    ok = np.isfinite(tau) & ~is_grazing(phi, grazing_tol)
    jj = np.where(ok, best_j, 0)
    p_hit = q + np.where(ok, tau, 0.0)[:, None] * v - best_off
    d = p_hit - Cs[jj]
    polar1 = np.arctan2(d[:, 1], d[:, 0])
    r1 = np.mod((polar1 - rots[jj]), 2 * np.pi) * Rs[jj]
    n1 = np.stack([np.cos(polar1), np.sin(polar1)], axis=-1)
    t1v = np.stack([-np.sin(polar1), np.cos(polar1)], axis=-1)
    for j in profiles:
        sel = ok & (jj == j)
        if sel.any():
            th = scs[j].theta_of_point(p_hit[sel])
            r1[sel] = scs[j].arclength(th)
            _, t1v[sel], n1[sel], _ = scs[j].frame_theta(th)
    vn = np.einsum("ij,ij->i", v, n1)
    v_out = v - 2.0 * vn[:, None] * n1
    phi1 = np.arctan2(np.einsum("ij,ij->i", v_out, t1v),
                      np.einsum("ij,ij->i", v_out, n1))
    return jj, r1, phi1, np.where(ok, tau, np.inf), ok


def free_flight(config, x, flight_cap=50.0, grazing_tol=GRAZING_TOL):
    """Next collision of the outgoing ray of x: the batch map of one point,
    raising Tangential for a grazing launch and NoCollision past the cap."""
    if is_grazing(x.phi, grazing_tol):
        raise Tangential(f"phi within {grazing_tol} of +-pi/2")
    jj, r1, phi1, tau, ok = _forward_chunk(
        config, np.array([x.scatterer]), np.array([float(x.r)]),
        np.array([float(x.phi)]), flight_cap, grazing_tol)
    if not ok[0]:
        raise NoCollision(tau=flight_cap)
    phi1 = float(phi1[0])
    return CollisionResult(PhasePoint(int(jj[0]), float(r1[0]), phi1),
                           float(tau[0]), float(np.pi / 2 - abs(phi1)))


def time_reverse(x):
    return PhasePoint(x.scatterer, x.r, -x.phi)


class ClassicalMap:
    """The billiard map T0 of a scatterer configuration."""

    def __init__(self, config, flight_cap=50.0, grazing_tol=GRAZING_TOL):
        self.config = config
        self.flight_cap = flight_cap
        self.grazing_tol = grazing_tol

    def forward(self, x):
        return free_flight(self.config, x, self.flight_cap, self.grazing_tol)

    def backward(self, x):
        res = free_flight(self.config, time_reverse(x), self.flight_cap,
                          self.grazing_tol)
        return CollisionResult(time_reverse(res.next), res.tau,
                               res.grazing_margin)

    def step(self, x):
        """The forward step and its closed-form differential."""
        res = self.forward(x)
        y = res.next
        K, K1 = (self.config[z.scatterer].curvature_r(z.r) for z in (x, y))
        m = billiard_jacobian(res.tau, K, np.cos(x.phi), K1, np.cos(y.phi))
        return res, Jacobian2x2(m)

    def dt(self, x, direction="forward"):
        """Closed-form one-step Jacobian in (dr, dphi) coordinates; the
        backward one is the time-reversal conjugate of the forward one."""
        if _is_backward(direction):
            return Jacobian2x2(self.step(time_reverse(x))[1].m * _REVERSE)
        return self.step(x)[1]

    # -- vectorized batch path ----------------------------------------------

    def forward_batch(self, idx, r, phi):
        """Forward map of arrays of phase points, _CHUNK at a time.

        Returns (idx1, r1, phi1, tau, ok) arrays; ok is False, and tau inf,
        where the launch is grazing or no collision lies within the cap.
        """
        idx = np.asarray(idx, dtype=int)
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        n = len(r)
        out = (np.zeros(n, dtype=int), np.zeros(n), np.zeros(n), np.zeros(n),
               np.zeros(n, dtype=bool))
        for a in range(0, n, _CHUNK):
            sl = slice(a, a + _CHUNK)
            for o, x in zip(out, _forward_chunk(
                    self.config, idx[sl], r[sl], phi[sl], self.flight_cap,
                    self.grazing_tol)):
                o[sl] = x
        return out

    def backward_batch(self, idx, r, phi):
        """Vectorized backward map (time reversal of the forward batch)."""
        jj, r1, phi1, tau, ok = self.forward_batch(idx, np.asarray(r),
                                                   -np.asarray(phi))
        return jj, r1, -phi1, tau, ok

    def step_batch(self, idx, r, phi, direction="forward"):
        """The step of arrays of phase points with its differentials.

        Returns (idx1, r1, phi1, tau, J, ok): the forward_batch (or, for
        direction="backward", backward_batch) images and flights, and J
        (n, 2, 2) the closed-form differential of that map at each point,
        NaN where ok is False.
        """
        back = _is_backward(direction)
        idx = np.asarray(idx, dtype=int)
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        jj, r1, phi1, tau, ok = (self.backward_batch if back
                                 else self.forward_batch)(idx, r, phi)
        J = billiard_jacobian(np.where(ok, tau, 0.0),
                              curvature_at(self.config, idx, r), np.cos(phi),
                              curvature_at(self.config, jj, r1), np.cos(phi1))
        if back:
            J = J * _REVERSE
        J[~ok] = np.nan
        return jj, r1, phi1, tau, J, ok


# ---------------------------------------------------------------------------
# differentials and point-by-point batches

# diag(1, -1) J diag(1, -1) = J * _REVERSE: the differential of the inverse
# map at x is that of the forward map at the time reverse (r, -phi) of x,
# conjugated by the time reversal
_REVERSE = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _is_backward(direction):
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', "
                         f"not {direction!r}")
    return direction == "backward"


def billiard_jacobian(tau, K, cos0, K1, cos1):
    """Closed-form differential of the billiard map in (dr, dphi).

    The flight of length tau leaves a boundary point of curvature K at
    cos(phi) = cos0 and lands on one of curvature K1 at cos(phi1) = cos1.
    Broadcasts over arrays; returns shape (..., 2, 2).
    """
    a = tau * K + cos0
    f = -1.0 / cos1
    return np.stack([np.stack([f * a, f * tau], axis=-1),
                     np.stack([f * (K1 * a + K * cos1), f * (tau * K1 + cos1)],
                              axis=-1)], axis=-2)


def curvature_at(config, idx, r):
    """Boundary curvature at arrays of (scatterer index, arclength)."""
    K = np.empty(len(r))
    for j, sc in enumerate(config.scatterers):
        sel = idx == j
        if sel.any():
            K[sel] = sc.curvature_r(r[sel])
    return K


def pointwise(step, idx, r, phi):
    """A batch step of a scalar map, one point at a time.

    step(x) returns (CollisionResult, Jacobian2x2 or None).  Returns
    (idx1, r1, phi1, tau, J, ok) as step_batch does: where step raises a
    LorentzGasError, ok is False, tau inf and J NaN.
    """
    n = len(r)
    jj = np.zeros(n, dtype=int)
    r1 = np.zeros(n)
    phi1 = np.zeros(n)
    tau = np.full(n, np.inf)
    J = np.full((n, 2, 2), np.nan)
    ok = np.zeros(n, dtype=bool)
    for k in range(n):
        try:
            res, jac = step(PhasePoint(int(idx[k]), float(r[k]),
                                       float(phi[k])))
        except LorentzGasError:
            continue
        jj[k], r1[k], phi1[k] = res.next.scatterer, res.next.r, res.next.phi
        tau[k] = res.tau
        if jac is not None:
            J[k] = jac.m
        ok[k] = True
    return jj, r1, phi1, tau, J, ok


def pointwise_images(fmap, idx, r, phi):
    """forward_batch's (idx1, r1, phi1, tau, ok) of a scalar map fmap(x)."""
    jj, r1, phi1, tau, _, ok = pointwise(lambda x: (fmap(x), None),
                                         idx, r, phi)
    return jj, r1, phi1, tau, ok


# ---------------------------------------------------------------------------
# homogeneity strips and singularity distance


def homogeneity_index(phi, k0=DEFAULT_K0):
    """Index k of the homogeneity strip containing phi (0 = central strip,
    +-10**9 at or past grazing); an int, or an int array for an array."""
    phi = np.asarray(phi, dtype=float)
    u = np.pi / 2 - np.abs(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(u <= 0, 10 ** 9, np.floor(1.0 / np.sqrt(u)))
    k = np.where(u * k0 * k0 > 1.0, 0, np.where(phi > 0, k, -k)).astype(int)
    return int(k) if k.ndim == 0 else k


def _probe_slopes(config, x):
    """Stable/unstable probe slopes through x (cone-center estimates)."""
    K = config[x.scatterer].curvature_r(x.r)
    s = K + 0.5 * (1.0 / K + 1.0)
    return (-s, s)


def singularity_distance(x, map_def, n=1, homog=False, probe_radius=0.05,
                         n_probe=33, k0=DEFAULT_K0):
    """Estimated phase distance from x to S_{-n} (n=+1) or S_{n} (n=-1).

    Probes short segments through x in the stable and unstable directions
    and bisects, all intervals in lockstep, where the one-step image
    (backward for S_{-1}, forward for S_{1}) changes scatterer, fails, or
    (homog=True) changes strip.
    """
    assert abs(n) == 1
    lengths = map_def.config.lengths
    push = map_def.backward_batch if n == 1 else map_def.forward_batch

    def image(s, e):
        """Rows (ok, scatterer, strip, r, phi) of the images of x + s e."""
        jj, r1, phi1, _, ok = push(np.full(len(s), x.scatterer),
                                   x.r + s * e[:, 0], x.phi + s * e[:, 1])
        k = homogeneity_index(phi1, k0) if homog else np.zeros_like(jj)
        return np.column_stack([ok, jj, k, r1, phi1])

    def separated(a, b, ds):
        """True where images a, b cannot lie on one smooth branch over ds."""
        ok_a, ok_b = a[:, 0] > 0, b[:, 0] > 0
        L = lengths[a[:, 1].astype(int)]
        dr = np.abs(a[:, 3] - b[:, 3])
        jump = np.hypot(np.minimum(dr, L - dr), a[:, 4] - b[:, 4])
        stretch = 1.0 / np.maximum(np.minimum(np.cos(a[:, 4]),
                                              np.cos(b[:, 4])), 1e-9)
        apart = (a[:, 1] != b[:, 1]) | (a[:, 2] != b[:, 2]) \
            | (jump > 50.0 * ds * (1.0 + stretch))
        return np.where(ok_a & ok_b, apart, ok_a != ok_b)

    E = np.array([[1.0, s] for s in _probe_slopes(map_def.config, x)])
    E /= [[np.linalg.norm(v)] for v in E]
    ss = np.linspace(-probe_radius, probe_radius, n_probe)
    e = np.repeat(E, n_probe, axis=0)
    s = np.tile(ss, len(E))
    imgs = image(s, e)
    # neighbours on one probe segment, not the last probe of one and the
    # first of the other
    cut = np.flatnonzero(separated(imgs[:-1], imgs[1:], s[1:] - s[:-1])
                         & (np.arange(len(s) - 1) % n_probe < n_probe - 1))
    if not cut.size:
        return np.inf
    lo, hi, e, ilo = s[cut], s[cut + 1], e[cut], imgs[cut]
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        im = image(mid, e)
        sep = separated(ilo, im, mid - lo)
        hi = np.where(sep, mid, hi)
        lo = np.where(sep, lo, mid)
        ilo = np.where(sep[:, None], ilo, im)
    return np.abs(0.5 * (lo + hi)).min()
