"""Numeric verification of the hyperbolicity hypotheses.

Cone fields and their invariance, adapted-norm expansion floors, stable
distortion constants, one-step expansion sums with homogeneity cutting,
and curvature propagation of unstable curves.  Every check is a sampled
measurement with the extremal sample recorded; nothing here is a proof.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationFailed
from .classical_map import curvature_at, homogeneity_index
from .curve_machinery import (NormParams, pullback_generation,
                              sample_stable_curves)


@dataclass
class ConeField:
    """A slope sector dphi/dr, constant over phase space."""

    kind: str  # "stable" | "unstable"
    slope_lo: float
    slope_hi: float

    def __post_init__(self):
        if not self.slope_lo < self.slope_hi:
            raise ValidationFailed("cone", "need slope_lo < slope_hi")

    @classmethod
    def unstable(cls, metrics, eps1=0.0, c1=0.0, c2=0.0):
        """Unstable cone from config metrics, optionally widened by eps1."""
        lo = metrics.K_min * (1.0 - c1 * eps1)
        hi = (metrics.K_max + 1.0 / metrics.tau_min) * (1.0 + c2 * eps1)
        return cls("unstable", lo, hi)

    @classmethod
    def stable(cls, metrics, eps1=0.0, c1=0.0, c2=0.0):
        u = cls.unstable(metrics, eps1, c1, c2)
        return cls("stable", -u.slope_hi, -u.slope_lo)

    def contains(self, slope, margin=0.0):
        return (self.slope_lo + margin <= slope) & (slope <= self.slope_hi
                                                    - margin)

    def sample_slopes(self, n_interior=3):
        return np.concatenate([[self.slope_lo, self.slope_hi],
                               np.linspace(self.slope_lo, self.slope_hi,
                                           n_interior + 2)[1:-1]])

    def scaled(self, factor):
        """Cone shrunk (factor < 1) or grown about its center."""
        mid = 0.5 * (self.slope_lo + self.slope_hi)
        half = 0.5 * (self.slope_hi - self.slope_lo) * factor
        return ConeField(self.kind, mid - half, mid + half)


@dataclass
class HypothesisReport:
    """Pass/fail verdicts and measured constants for (H1)-(H5)."""

    results: dict = field(default_factory=dict)

    def record(self, name, passed, constants, n_samples, worst=None):
        self.results[name] = {"passed": bool(passed),
                              "constants": constants,
                              "n_samples": int(n_samples),
                              "worst": worst or {}}

    @property
    def all_passed(self):
        return all(v["passed"] for v in self.results.values())

    def to_dict(self):
        return {"all_passed": self.all_passed, "hypotheses": self.results}


def adapted_norm(x, v, config):
    """Norm (K(x) + |V|) / sqrt(1 + V^2) * ||v|| of a tangent vector."""
    v = np.asarray(v, dtype=float)
    K = float(config[x.scatterer].curvature_r(x.r))
    nrm = float(np.hypot(v[0], v[1]))
    if nrm == 0.0:
        return 0.0
    if v[0] == 0.0:
        return nrm  # vertical: factor (K + |V|)/sqrt(1+V^2) -> 1
    V = v[1] / v[0]
    return (K + abs(V)) / math.sqrt(1.0 + V * V) * nrm


# ----------------------------------------------------------------------
# sampling helpers

def _sample_points(config, n, seed, margin=1e-3):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(config), n)
    r = rng.uniform(0.0, 1.0, n) * config.lengths[idx]
    phi = rng.uniform(-math.pi / 2 + margin, math.pi / 2 - margin, n)
    return idx, r, phi


def _sampled_steps(map_def, n_samples, seed):
    """Sample points and their step_batch images and differentials; ok
    also drops images within 1e-9 of grazing."""
    idx, r, phi = _sample_points(map_def.config, n_samples, seed)
    jj, r1, phi1, _, J, ok = map_def.step_batch(idx, r, phi)
    ok &= math.pi / 2 - np.abs(phi1) > 1e-9
    return idx, r, phi, jj, r1, phi1, J, ok


def _images(J, s):
    """Components (u0, u1) of J @ (1, s) for a stack of differentials."""
    return J[:, 0, 0] + J[:, 0, 1] * s, J[:, 1, 0] + J[:, 1, 1] * s


def check_cone_invariance(map_def, cone, n_samples=10000, seed=0,
                          margin_frac=0.0):
    """Strict invariance of an unstable cone under the map differential."""
    idx, r, phi, _, _, _, J, ok = _sampled_steps(map_def, n_samples, seed)
    failures = 0
    worst = {"margin": math.inf, "point": None}
    checked = 0
    for s in cone.sample_slopes():
        u0, u1 = _images(J, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            V1 = np.where(ok, u1 / u0, 0.0)
        inside = cone.contains(V1, margin=margin_frac)
        failures += int((ok & ~inside).sum())
        checked += int(ok.sum())
        m = np.where(ok, np.minimum(V1 - cone.slope_lo, cone.slope_hi - V1),
                     math.inf)
        i = int(np.argmin(m))
        if m[i] < worst["margin"]:
            worst = {"margin": float(m[i]),
                     "point": (int(idx[i]), float(r[i]), float(phi[i]),
                               float(s))}
    return {"failures": failures, "checked": checked, "worst": worst}


def expansion_stats(map_def, cone, n_samples=10000, seed=0):
    """One-step adapted-norm expansion over the unstable cone, plus the
    grazing law expansion * cos(phi1) ~ const."""
    idx, r, phi, jj, r1, phi1, J, ok = _sampled_steps(map_def, n_samples,
                                                      seed)
    K = curvature_at(map_def.config, idx, r)
    K1 = curvature_at(map_def.config, jj, r1)
    c1 = np.cos(phi1)
    lam_min = math.inf
    worst = None
    log_ratio = []
    log_cos1 = []
    for s in cone.sample_slopes():
        u0, u1 = _images(J, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            V1 = np.where(u0 != 0, u1 / u0, np.inf)
        # adapted norm (K + |V|) |du_r| of the image over that of (1, s)
        f = np.where(ok, (K1 + np.abs(V1)) * np.abs(u0) / (K + abs(s)),
                     np.inf)
        i = int(np.argmin(f))
        if f[i] < lam_min:
            lam_min = float(f[i])
            worst = (int(idx[i]), float(r[i]), float(phi[i]), float(s))
        eucl = np.hypot(u0, u1) / math.sqrt(1 + s * s)
        sel = ok & np.isfinite(eucl)
        log_ratio.append(np.log(eucl[sel] * c1[sel]))
        log_cos1.append(np.log(c1[sel]))
    ly = np.concatenate(log_ratio)
    lx = np.concatenate(log_cos1)
    slope_fit, intercept = np.polyfit(lx, ly, 1)
    band = float(np.max(np.abs(ly - np.median(ly))))
    return {"Lambda_measured": lam_min, "worst": worst,
            "grazing_fit": {"slope": float(slope_fit),
                            "intercept": float(intercept),
                            "band": band},
            "n_samples": int(lx.size)}


# ----------------------------------------------------------------------
# distortion

def distortion_constant(map_def, curves, n=3, pairs_per_curve=12, seed=0):
    """Empirical Hölder-1/3 distortion constants along stable curves.

    Every pair is drawn first; then all their points step n times
    together.  Pairs whose orbits fail or separate (different scatterer
    sequence or strip sequence) are skipped; returns sup |ln J ratio| /
    d^(1/3) for the curve Jacobian and the measure Jacobian.
    """
    rng = np.random.default_rng(seed)
    idx, d = [np.empty((0, 2), dtype=int)], [np.empty(0)]
    rs, phi, slope = ([np.empty((0, 2))] for _ in range(3))
    for W in curves:
        a, b = W.interval
        pr = np.sort(rng.uniform(a, b, (pairs_per_curve, 2)), axis=1)
        pr = pr[pr[:, 1] - pr[:, 0] >= 1e-7]
        idx.append(np.full(pr.shape, W.scatterer))
        rs.append(pr)
        phi.append(W.phi_at(pr))
        slope.append(W.slope_at(pr))
        d.append((pr[:, 1] - pr[:, 0])
                 * np.hypot(1.0, W.slope_at(0.5 * (pr[:, 0] + pr[:, 1]))))
    # the first points of every pair, then the second points
    idx, r, phi, slope = (np.concatenate(x).T.ravel()
                          for x in (idx, rs, phi, slope))
    m = r.size // 2
    v = np.column_stack([np.ones_like(slope), slope])
    jw, jmu = np.ones(2 * m), np.ones(2 * m)
    alive = np.ones(2 * m, dtype=bool)
    itinerary = [idx, homogeneity_index(phi)]
    for _ in range(n):
        a = np.flatnonzero(alive)
        jj, r1, phi1, _, J, ok = map_def.step_batch(idx[a], r[a], phi[a])
        u = np.einsum("kij,kj->ki", J, v[a])
        nu = np.hypot(u[:, 0], u[:, 1])
        jw[a] *= nu / np.hypot(v[a, 0], v[a, 1])
        jmu[a] *= np.abs(np.linalg.det(J)) * np.cos(phi1) / np.cos(phi[a])
        v[a] = u / nu[:, None]
        idx, r, phi = idx.copy(), r.copy(), phi.copy()
        idx[a], r[a], phi[a] = jj, r1, phi1
        alive[a] = ok
        itinerary += [idx, homogeneity_index(phi)]
    seq = np.array(itinerary)
    same = alive[:m] & alive[m:] & (seq[:, :m] == seq[:, m:]).all(axis=0)
    scale = np.concatenate(d)[same] ** (1.0 / 3.0)
    qw = np.abs(np.log(jw[:m]) - np.log(jw[m:]))[same] / scale
    qmu = np.abs(np.log(jmu[:m]) - np.log(jmu[m:]))[same] / scale
    pairs = int(same.sum())
    if not pairs:
        qw = qmu = np.zeros(1)
    # the raw sup over random pairs is heavy-tailed and never saturates;
    # a high quantile is the refinement-stable estimate
    return {"C_d_W": float(np.quantile(qw, 0.95)),
            "C_d_mu": float(np.quantile(qmu, 0.95)),
            "C_d_W_sup": float(qw.max()),
            "C_d_mu_sup": float(qmu.max()),
            "pairs": pairs}


# ----------------------------------------------------------------------
# one-step expansion sums

def one_step_expansion_sum(map_def, W, params=None, sigma=5.0 / 6.0):
    """Adapted-norm and sigma-power Jacobian sums over one pullback step.

    The sum runs over maximal homogeneous components of the preimage;
    the length-cap subdivision used in deeper trees is deliberately not
    applied here.
    """
    params = params or NormParams()
    cfg = map_def.config
    tree = pullback_generation(W, map_def, 1, replace(params, delta0=1e9))
    sum_star = 0.0
    sum_sigma = 0.0
    pieces = 0
    for nd in tree.nodes(1):
        V = nd.curve
        rr = V.r
        sl = V.slope_at(rr)
        Kx = cfg[V.scatterer].curvature_r(rr)
        par = nd.parent_r
        slw = W.slope_at(par)
        Kw = cfg[W.scatterer].curvature_r(par)
        fac_w = (Kw + np.abs(slw)) / np.sqrt(1.0 + slw ** 2)
        fac_v = (Kx + np.abs(sl)) / np.sqrt(1.0 + sl ** 2)
        jstar = nd.cum_jac * fac_w / fac_v
        sum_star += float(np.max(jstar))
        sum_sigma += nd.jac_c0 ** sigma
        pieces += 1
    return {"sum_star": sum_star, "sum_sigma": sum_sigma, "pieces": pieces}


def calibrate_delta0(map_def, metrics, n_curves=60, target=0.9, seed=0,
                     lo=2e-3, hi=0.4, iters=12, params=None):
    """Largest delta0 whose worst one-step adapted sum stays below target."""
    base = params or NormParams()

    def worst_sum(delta0):
        p = replace(base, delta0=delta0, eps0=min(base.eps0, delta0 / 2))
        curves = sample_stable_curves(map_def.config, metrics, n_curves, p,
                                      seed=seed)
        worst = 0.0
        for W in curves:
            s = one_step_expansion_sum(map_def, W, p)["sum_star"]
            worst = max(worst, s)
        return worst

    if worst_sum(lo) > target:
        return lo, worst_sum(lo)
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if worst_sum(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo, worst_sum(lo)


# ----------------------------------------------------------------------
# curvature propagation of unstable curves

def _flown(map_def, sc, rs, phis, n):
    """Scatterer itineraries (n + 1, k) and images of n forward steps of
    the points (sc, rs, phis), and whether each orbit stayed defined."""
    idx = np.full(len(rs), sc)
    seq = [idx]
    alive = np.ones(len(rs), dtype=bool)
    for _ in range(n):
        idx, rs, phis, _, ok = map_def.forward_batch(idx, rs, phis)
        alive &= ok
        seq.append(idx)
    return np.array(seq), rs, phis, alive


def _fit_second_derivative(rs, phis):
    """Least-squares quadratic fit: returns 2 * (quadratic coefficient)."""
    r0 = rs.mean()
    A = np.column_stack([np.ones_like(rs), rs - r0, (rs - r0) ** 2])
    coef, *_ = np.linalg.lstsq(A, phis, rcond=None)
    return 2.0 * float(coef[2])


def curvature_propagation(map_def, curve_pts, n=4, centers=5, img_span=2e-3):
    """Max |d2 phi / dr2| of the forward image graphs of an unstable curve.

    curve_pts: (scatterer, r array, phi array) of a smooth unstable curve.
    At each step the image curvature is measured through a 5-point stencil
    around tracked center points, with the stencil width shrunk so the
    image spread stays at img_span (keeping all points on one branch).
    """
    from scipy.interpolate import CubicSpline
    sc, rr, phi = curve_pts
    spline = CubicSpline(rr, phi)
    d2s = spline.derivative(2)(np.linspace(rr[0], rr[-1], 65))
    out = [float(np.max(np.abs(d2s)))]
    span = rr[-1] - rr[0]
    center_rs = np.linspace(rr[0] + 0.2 * span, rr[-1] - 0.2 * span, centers)
    for level in range(1, n + 1):
        vals = []
        for c in center_rs:
            h = 0.05 * span
            for _attempt in range(30):
                # the middle point of the stencil is the center itself
                rc = c + h * np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
                ok = rc[0] >= rr[0] and rc[-1] <= rr[-1]
                if ok:
                    seq, r_img, p_img, alive = _flown(map_def, sc, rc,
                                                      spline(rc), level)
                    if not alive[2]:
                        break
                    ok = alive.all() and (seq == seq[:, 2:3]).all()
                if ok:
                    spread = r_img.max() - r_img.min()
                    if spread > 2.0 * img_span:
                        h *= 0.8 * img_span / spread * 2.0
                        continue
                    if spread < 0.2 * img_span and h < 0.2 * span:
                        h = min(h * 2.0, 0.2 * span)
                        continue
                    if np.any(np.diff(np.sort(r_img)) <= 0):
                        ok = False
                    else:
                        vals.append(abs(_fit_second_derivative(r_img,
                                                               p_img)))
                        break
                if not ok:
                    h *= 0.5
                    if h < 1e-12:
                        break
        out.append(float(np.max(vals)) if vals else math.nan)
    return out


# ----------------------------------------------------------------------
# measure Jacobian bound (H5)

def measure_jacobian_bound(map_def, n_samples=5000, seed=0):
    """Measured max of (J_mu T)^{-1}; equals 1 for the classical map."""
    idx, r, phi = _sample_points(map_def.config, n_samples, seed)
    _, _, phi1, _, J, ok = map_def.step_batch(idx, r, phi)
    jmu = np.abs(np.linalg.det(J)) * np.cos(phi1) / np.cos(phi)
    inv = np.where(ok, 1.0 / jmu, 0.0)
    i = int(np.argmax(inv))
    if not inv[i] > 0.0:
        return {"eta_measured": 0.0, "worst": None}
    return {"eta_measured": float(inv[i]),
            "worst": (int(idx[i]), float(r[i]), float(phi[i]))}


def verify_hypotheses(map_def, metrics, params=None, n_samples=20000,
                      n_curves=40, seed=0, eps1=0.0, cone_widening=(2.0, 2.0),
                      lambda_floor=None):
    """Assemble a HypothesisReport for (H1)-(H5) on one map."""
    params = params or NormParams()
    rep = HypothesisReport()
    c1, c2 = cone_widening if eps1 > 0 else (0.0, 0.0)
    cone = ConeField.unstable(metrics, eps1, c1, c2)

    inv = check_cone_invariance(map_def, cone, n_samples, seed)
    rep.record("H1", inv["failures"] == 0,
               {"slope_lo": cone.slope_lo, "slope_hi": cone.slope_hi,
                "failures": inv["failures"]},
               inv["checked"], {"margin": inv["worst"]["margin"]})

    exp = expansion_stats(map_def, cone, n_samples, seed)
    floor = lambda_floor if lambda_floor is not None else (
        1.0 + metrics.K_min * metrics.tau_min / (3.0 if eps1 > 0 else 1.0))
    rep.record("H2", exp["Lambda_measured"] >= floor - 1e-6,
               {"Lambda_measured": exp["Lambda_measured"],
                "Lambda_floor": floor,
                "grazing_slope": exp["grazing_fit"]["slope"]},
               exp["n_samples"], {"point": exp["worst"]})

    curves = sample_stable_curves(map_def.config, metrics,
                                  max(10, n_curves // 2), params, seed=seed)
    oss_worst = 0.0
    sig_worst = 0.0
    for W in curves[:n_curves]:
        s = one_step_expansion_sum(map_def, W, params)
        oss_worst = max(oss_worst, s["sum_star"])
        sig_worst = max(sig_worst, s["sum_sigma"])
    rep.record("H3", oss_worst < 1.0,
               {"theta_star": oss_worst, "sigma_sum": sig_worst,
                "delta0": params.delta0, "k0": params.k0}, len(curves))

    dc = distortion_constant(map_def, curves[:n_curves], n=3, seed=seed)
    rep.record("H4", math.isfinite(dc["C_d_W"]) and dc["pairs"] > 0,
               {"C_d_W": dc["C_d_W"], "C_d_mu": dc["C_d_mu"]}, dc["pairs"])

    mj = measure_jacobian_bound(map_def, min(n_samples, 5000), seed)
    eta = mj["eta_measured"]
    lam = max(exp["Lambda_measured"], 1.0 + 1e-9)
    bound = min(lam ** params.beta, lam ** params.q,
                oss_worst ** (params.alpha - 1.0) if oss_worst > 0 else
                math.inf)
    rep.record("H5", eta <= bound + 1e-9,
               {"eta_measured": eta, "eta_bound": bound}, min(n_samples, 5000),
               {"point": mj["worst"]})
    return rep
