"""Scatterer configurations on the unit torus.

Scatterer boundaries are radial trigonometric polynomials
rho(theta) = R * (1 + sum_n a_n cos(n theta) + b_n sin(n theta)),
which are smooth, easy to differentiate exactly, and convex for small
coefficients.  Arclength tables are built from the Fourier antiderivative
of the polar speed, so lookups are accurate to near machine precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (ArclengthMismatch, NoCollision, NonConvex, Overlap,
                     SelfIntersecting, ValidationFailed)

_N_TABLE = 4096


class Scatterer:
    """Convex closed curve on the torus, parametrized by arclength.

    center, R, cos/sin coefficients define the radial profile; rotation
    rotates the whole curve rigidly about its center (the arclength origin
    rotates with it).
    """

    def __init__(self, center, R, cos_coeffs=(), sin_coeffs=(), rotation=0.0):
        if R <= 0:
            raise ValidationFailed("R", "must be positive")
        self.center = np.asarray(center, dtype=float)
        self.R = float(R)
        self.cos_coeffs = np.asarray(cos_coeffs, dtype=float)
        self.sin_coeffs = np.asarray(sin_coeffs, dtype=float)
        self.rotation = float(rotation)
        self.is_circle = self.cos_coeffs.size == 0 and self.sin_coeffs.size == 0
        self._build_tables()

    # -- radial profile and exact derivatives ------------------------------

    def _trig(self, theta, order):
        """d^order/dtheta^order of the profile modulation (without R)."""
        out = np.ones_like(theta) if order == 0 else np.zeros_like(theta)
        m = order % 4
        for coeffs, fn, sign in (
                (self.cos_coeffs, (np.cos, np.sin)[m % 2], (1, -1, -1, 1)[m]),
                (self.sin_coeffs, (np.sin, np.cos)[m % 2], (1, 1, -1, -1)[m])):
            for n, a in enumerate(coeffs, start=1):
                if a:  # a zero coefficient adds exact zeros
                    out = out + float(n) ** order * (sign * a * fn(n * theta))
        return out

    def rho(self, theta, order=0):
        return self.R * self._trig(np.asarray(theta, dtype=float), order)

    def curvature_theta(self, theta):
        """Curvature at polar parameter theta (positive for convex)."""
        r = self.rho(theta)
        r1 = self.rho(theta, 1)
        r2 = self.rho(theta, 2)
        return (r * r + 2.0 * r1 * r1 - r * r2) / (r * r + r1 * r1) ** 1.5

    def _speed(self, theta):
        r = self.rho(theta)
        r1 = self.rho(theta, 1)
        return np.sqrt(r * r + r1 * r1)

    # -- arclength table ----------------------------------------------------

    def _build_tables(self):
        th = np.linspace(0.0, 2.0 * np.pi, _N_TABLE, endpoint=False)
        rho = self.rho(th)
        if np.min(rho) <= 0:
            raise SelfIntersecting("radial profile non-positive")
        K = self.curvature_theta(th)
        if np.min(K) <= 0:
            raise NonConvex("curvature non-positive")
        self.K_min = float(np.min(K))
        self.K_max = float(np.max(K))
        self.rho_max = float(np.max(rho))
        self.rho_min = float(np.min(rho))

        sp = self._speed(th)
        # Fourier antiderivative of the (smooth, periodic) speed.
        coef = np.fft.rfft(sp) / _N_TABLE
        self._arc_mean = float(coef[0].real)
        keep = np.nonzero(np.abs(coef[1:]) > 1e-15)[0] + 1
        self._arc_k = keep.astype(float)
        self._arc_c = coef[keep]
        self.L = 2.0 * np.pi * self._arc_mean
        # coarse inverse table for Newton seeding
        arc = self.arclength(th)
        self._inv_arc = arc
        self._inv_theta = th

    def arclength(self, theta):
        """Arclength from parameter 0 to theta (exact Fourier integration)."""
        theta = np.asarray(theta, dtype=float)
        a = self._arc_mean * theta
        if self._arc_k.size:
            kt = np.multiply.outer(theta, self._arc_k)
            # Integral of 2*Re(c_k e^{ik theta}) from 0 to theta.
            term = (self._arc_c.real * np.sin(kt)
                    + self._arc_c.imag * (np.cos(kt) - 1.0)) / self._arc_k
            a = a + 2.0 * np.sum(term, axis=-1)
        return a

    def theta_of_r(self, r):
        """Invert the arclength table by Newton iteration.

        At most six iterations; the loop stops once one leaves theta
        unchanged, since every later one would repeat it exactly.
        """
        r = np.mod(np.asarray(r, dtype=float), self.L)
        th = np.interp(r, self._inv_arc, self._inv_theta)
        for _ in range(6):
            f = self.arclength(th) - r
            th_new = th - f / self._speed(th)
            if np.array_equal(th_new, th):
                break
            th = th_new
        return th

    # -- frames -------------------------------------------------------------

    def point_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        ang = theta + self.rotation
        e = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        return self.center + self.rho(theta)[..., None] * e

    def frame(self, r):
        """Return (point, unit tangent, outward normal, curvature) at arclength r."""
        return self.frame_theta(self.theta_of_r(r))

    def frame_theta(self, th):
        """frame() at polar parameter th."""
        ang = th + self.rotation
        e = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        eperp = np.stack([-np.sin(ang), np.cos(ang)], axis=-1)
        rho = self.rho(th)[..., None]
        rho1 = self.rho(th, 1)[..., None]
        p = self.center + rho * e
        t = rho1 * e + rho * eperp
        t = t / np.linalg.norm(t, axis=-1, keepdims=True)
        n = np.stack([t[..., 1], -t[..., 0]], axis=-1)
        return p, t, n, self.curvature_theta(th)

    def curvature_r(self, r):
        return self.curvature_theta(self.theta_of_r(r))

    def theta_of_point(self, p):
        """Polar parameter, in [0, 2 pi), of a boundary point p."""
        d = np.asarray(p, dtype=float) - self.center
        return np.mod(np.arctan2(d[..., 1], d[..., 0]) - self.rotation,
                      2.0 * np.pi)

    def r_of_point(self, p):
        """Arclength coordinate of a boundary point p."""
        return self.arclength(self.theta_of_point(p))

    def gap(self, p):
        """Signed radial distance from p to the boundary (>0 outside)."""
        d = np.asarray(p, dtype=float) - self.center
        rr = np.linalg.norm(d, axis=-1)
        th = np.arctan2(d[..., 1], d[..., 0]) - self.rotation
        return rr - self.rho(th)

    def gap_slope(self, p, v):
        """gap() at p and its derivative along the direction v."""
        d = np.asarray(p, dtype=float) - self.center
        rr = np.linalg.norm(d, axis=-1)
        th = np.arctan2(d[..., 1], d[..., 0]) - self.rotation
        dv = d[..., 0] * v[..., 0] + d[..., 1] * v[..., 1]
        dxv = d[..., 0] * v[..., 1] - d[..., 1] * v[..., 0]
        return rr - self.rho(th), dv / rr - self.rho(th, 1) * dxv / (rr * rr)

    # -- C3 norm estimate ----------------------------------------------------

    def c3_norm(self):
        """max over samples of |u| + |u'| + |u''| + |u'''| (finite-diff u''')."""
        r = np.linspace(0.0, self.L, 2048, endpoint=False)
        u = self.point_theta(self.theta_of_r(r))
        _, t, n, K = self.frame(r)
        upp = -K[:, None] * n  # Frenet: u'' points inward with magnitude K
        h = self.L * 1e-5
        upp_p = self.frame(r + h)[3][:, None] * -self.frame(r + h)[2]
        upp_m = self.frame(r - h)[3][:, None] * -self.frame(r - h)[2]
        uppp = (upp_p - upp_m) / (2.0 * h)
        total = (np.linalg.norm(u, axis=1) + 1.0
                 + np.linalg.norm(upp, axis=1) + np.linalg.norm(uppp, axis=1))
        return float(np.max(total))

    def to_dict(self):
        return {"center": self.center.tolist(), "R": self.R,
                "cos_coeffs": self.cos_coeffs.tolist(),
                "sin_coeffs": self.sin_coeffs.tolist(),
                "rotation": self.rotation}


class ScattererConfig:
    """Ordered, pairwise-disjoint scatterers on the unit torus."""

    def __init__(self, scatterers):
        self.scatterers = list(scatterers)
        self.torus_side = 1.0
        self._check_disjoint()
        self.lengths = np.array([s.L for s in self.scatterers])
        self._metrics = {}  # config_metrics memo
        self._hit_tables = {}  # batch collision search memo

    def _check_disjoint(self):
        scs = self.scatterers
        offsets = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        for i in range(len(scs)):
            for j in range(i, len(scs)):
                for off in offsets:
                    if i == j and off == (0, 0):
                        continue
                    ci = scs[i].center
                    cj = scs[j].center + np.array(off, dtype=float)
                    d = np.linalg.norm(ci - cj)
                    if d >= scs[i].rho_max + scs[j].rho_max:
                        continue
                    # fine check: sample boundary of j against gap of i
                    th = np.linspace(0, 2 * np.pi, 512, endpoint=False)
                    pts = scs[j].point_theta(th) + np.array(off, dtype=float)
                    if np.min(scs[i].gap(pts)) <= 0:
                        raise Overlap(f"scatterers {i} and {j} at offset {off}")

    def __len__(self):
        return len(self.scatterers)

    def __getitem__(self, i):
        return self.scatterers[i]

    def to_dict(self):
        return {"scatterers": [s.to_dict() for s in self.scatterers]}

    @classmethod
    def from_dict(cls, d):
        scs = []
        for s in d["scatterers"]:
            cos_c, sin_c = s.get("cos_coeffs", ()), s.get("sin_coeffs", ())
            kind = s.get("kind")
            if kind not in (None, "circle", "profile"):
                raise ValidationFailed("kind", f"unknown scatterer kind {kind!r}")
            if kind == "circle" and (np.any(cos_c) or np.any(sin_c)):
                raise ValidationFailed("kind", "circle with profile coefficients")
            scs.append(Scatterer(s["center"], s["R"], cos_c, sin_c,
                                 s.get("rotation", 0.0)))
        return cls(scs)

    @classmethod
    def from_file(cls, path):
        with open(path) as f:
            d = json.load(f)
        try:
            return cls.from_dict(d)
        except KeyError as e:
            raise ValidationFailed(str(e), "missing field") from e


@dataclass(frozen=True)
class ConfigMetrics:
    tau_min: float
    tau_max: float
    K_min: float
    K_max: float
    E_max: float
    horizon: str  # "finite" | "infinite"
    flight_cap: float = 50.0

    def to_dict(self):
        return {"tau_min": self.tau_min, "tau_max": self.tau_max,
                "K_min": self.K_min, "K_max": self.K_max, "E_max": self.E_max,
                "horizon": self.horizon, "flight_cap": self.flight_cap}


def _corridor_free(config, flight_cap, n_dirs=5, n_off=48):
    """Detect an unbounded free corridor by firing rays along lattice
    directions from a grid of offsets; returns True if one survives the cap."""
    from .classical_map import _first_hits
    q0, v = [], []
    for p in range(0, n_dirs + 1):
        for q in range(-n_dirs, n_dirs + 1):
            if p == 0 and q <= 0:
                continue
            if np.gcd(p, abs(q)) == 1:
                d = np.array([p, q], dtype=float)
                d /= np.linalg.norm(d)
                perp = np.array([-d[1], d[0]])
                for s in np.linspace(0.0, 1.0, n_off, endpoint=False):
                    q0.append(s * perp)
                    v.append(d)
    t, _, _ = _first_hits(config, np.array(q0), np.array(v), flight_cap)
    return bool(np.isinf(t).any())


def _launches(config, n_samples, seed):
    """The random launches (idx, r, phi) config_metrics flies."""
    rng = np.random.default_rng(seed)
    idx = np.empty(n_samples, dtype=int)
    r = np.empty(n_samples)
    phi = np.empty(n_samples)
    for k in range(n_samples):
        idx[k] = i = int(rng.integers(len(config)))
        r[k] = rng.uniform(0, config[i].L)
        phi[k] = rng.uniform(-np.pi / 2 * 0.999, np.pi / 2 * 0.999)
    return idx, r, phi


def config_metrics(config, flight_cap=50.0, n_samples=4000, seed=0):
    """Measure tau_min/tau_max, curvature bounds, C3 norm, and horizon.

    Flight times come from one batch sweep over n_samples random launches;
    the Nelder-Mead refinements of the five shortest flights take the
    one-point free_flight.  The result is memoised on the config instance
    per (flight_cap, n_samples, seed), so a ScattererConfig must not be
    mutated after construction.
    """
    key = (flight_cap, n_samples, seed)
    if key in config._metrics:
        return config._metrics[key]
    from scipy.optimize import minimize
    from .classical_map import ClassicalMap, PhasePoint, free_flight
    idx, r, phi = _launches(config, n_samples, seed)

    def tau_of(z, i):
        try:
            return free_flight(config, PhasePoint(i, z[0], z[1]),
                               flight_cap=flight_cap).tau
        except NoCollision:
            return flight_cap

    _, _, _, taus, ok = ClassicalMap(config, flight_cap).forward_batch(
        idx, r, phi)
    infinite = not ok.all()
    flown = np.flatnonzero(ok)

    # local descent refinement of the minimum from the five shortest flights
    seeds = flown[np.argsort(taus[flown])[:5]]
    tau_min = float(taus[seeds].min())
    for k in seeds:
        res = minimize(tau_of, x0=[r[k], phi[k]], args=(int(idx[k]),),
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 300})
        tau_min = min(tau_min, float(res.fun))

    if not infinite:
        infinite = _corridor_free(config, flight_cap)
    tau_max = float("inf") if infinite else float(taus[flown].max())
    met = ConfigMetrics(
        tau_min=tau_min,
        tau_max=tau_max,
        K_min=min(s.K_min for s in config.scatterers),
        K_max=max(s.K_max for s in config.scatterers),
        E_max=max(s.c3_norm() for s in config.scatterers),
        horizon="infinite" if infinite else "finite",
        flight_cap=flight_cap,
    )
    config._metrics[key] = met
    return met


def deformation_distance(Q, Q0, n_grid=2048):
    """Sum over scatterers of the sampled C2 distance between the arclength
    parametrizations (sup |u-v| + sup |u'-v'| + sup |u''-v''|)."""
    if len(Q) != len(Q0):
        raise ArclengthMismatch("different number of scatterers")
    total = 0.0
    for s, s0 in zip(Q.scatterers, Q0.scatterers):
        if abs(s.L - s0.L) > 1e-9:
            raise ArclengthMismatch(f"lengths differ: {s.L} vs {s0.L}")
        r = np.linspace(0.0, s.L, n_grid, endpoint=False)
        u, tu, nu, Ku = s.frame(r)
        v, tv, nv, Kv = s0.frame(r)
        upp = -Ku[:, None] * nu
        vpp = -Kv[:, None] * nv
        total += (np.max(np.linalg.norm(u - v, axis=1))
                  + np.max(np.linalg.norm(tu - tv, axis=1))
                  + np.max(np.linalg.norm(upp - vpp, axis=1)))
    return float(total)
