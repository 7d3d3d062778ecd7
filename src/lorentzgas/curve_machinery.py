"""Stable curves, pullback generation trees, and norm estimation.

Stable curves are graphs phi_W(r) over arclength intervals.  Pulling a
curve back n steps and cutting at singularities, homogeneity-strip
boundaries, and the length cap delta_0 produces the generation tree whose
per-level Jacobian sums drive the growth estimates.  Norms of observables
are estimated as sampled suprema over curve families and a trig-polynomial
test-function dictionary; they are lower bounds by construction.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (CurveNotHomogeneous, DisjointIntervals,
                     RefinementBudgetExceeded, ValidationFailed)
from .classical_map import (PhasePoint, homogeneity_index, is_grazing,
                             DEFAULT_K0)


@dataclass
class NormParams:
    """Exponents and scales for the curve norms."""

    p: float = 1.0 / 3.0
    q: float = 1.0 / 6.0
    alpha: float = 2.0 / 3.0
    beta: float = 1.0 / 6.0
    sigma0: float = 1.0 / 6.0
    delta0: float = 0.05
    eps0: float = 0.01
    k0: int = DEFAULT_K0
    b: float = 1e-2

    def __post_init__(self):
        if not 0 < self.p <= 1.0 / 3.0:
            raise ValidationFailed("p", "need 0 < p <= 1/3")
        if not self.q < self.p:
            raise ValidationFailed("q", "need q < p")
        if not self.alpha < 1.0 - self.sigma0:
            raise ValidationFailed("alpha", "need alpha < 1 - sigma0")
        if not self.beta <= min(self.alpha, self.p - self.q):
            raise ValidationFailed("beta", "need beta <= min(alpha, p - q)")
        if not self.eps0 < self.delta0:
            raise ValidationFailed("eps0", "need eps0 < delta0")


class StableCurve:
    """A stable curve as the cubic graph of phi_W over an r-interval."""

    def __init__(self, scatterer, r, phi, k0=DEFAULT_K0, require_homogeneous=True,
                 min_knots=8):
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if r.size != phi.size or r.size < max(2, min_knots):
            raise ValidationFailed("knots", "need matching knot arrays of "
                                   f"size >= {max(2, min_knots)}")
        if not np.all(np.diff(r) > 0):
            order = np.argsort(r)
            r, phi = r[order], phi[order]
            if not np.all(np.diff(r) > 0):
                raise ValidationFailed("knots", "knots must be strictly ordered")
        self.scatterer = int(scatterer)
        self.r = r
        self.phi = phi
        self.k0 = int(k0)
        self.spline = CubicSpline(r, phi)
        self.deriv = self.spline.derivative()
        ks = homogeneity_index(phi, self.k0)
        if require_homogeneous and np.unique(ks).size > 1:
            raise CurveNotHomogeneous(
                f"strip indices {sorted(set(int(k) for k in ks))} on one curve")
        self.homog_k = int(ks[0])
        self.length = self._arclength()

    @classmethod
    def from_function(cls, scatterer, r_lo, r_hi, f, n_knots=64,
                      k0=DEFAULT_K0, **kw):
        r = np.linspace(r_lo, r_hi, n_knots)
        return cls(scatterer, r, np.asarray([f(x) for x in r], dtype=float),
                   k0=k0, **kw)

    def _arclength(self):
        rr = np.linspace(self.r[0], self.r[-1], max(4 * self.r.size, 129))
        sp = np.hypot(1.0, self.deriv(rr))
        return float(np.trapezoid(sp, rr))

    @property
    def interval(self):
        return (float(self.r[0]), float(self.r[-1]))

    def phi_at(self, r):
        return self.spline(r)

    def slope_at(self, r):
        return self.deriv(r)

    def point(self, r):
        return PhasePoint(self.scatterer, float(r), float(self.spline(r)))

    def max_curvature(self):
        rr = np.linspace(self.r[0], self.r[-1], max(2 * self.r.size, 65))
        return float(np.max(np.abs(self.spline.derivative(2)(rr))))

    def restricted(self, a, b, n_knots=None):
        """The same graph restricted to [a, b]."""
        n = n_knots or max(8, self.r.size)
        rr = np.linspace(a, b, n)
        return StableCurve(self.scatterer, rr, self.spline(rr), k0=self.k0,
                           require_homogeneous=False, min_knots=2)

    def translated(self, dphi):
        """Vertical translate (slide along the phase-vertical direction)."""
        return StableCurve(self.scatterer, self.r.copy(), self.phi + dphi,
                           k0=self.k0, require_homogeneous=False, min_knots=2)

    def __repr__(self):
        return (f"StableCurve(sc={self.scatterer}, I=({self.r[0]:.4f},"
                f"{self.r[-1]:.4f}), k={self.homog_k}, len={self.length:.4f})")


# ----------------------------------------------------------------------
# curve and test-function distances

def curve_distance(w1, w2):
    """Distance between stable curves: strip mismatch, interval symmetric
    difference, and C1 graph distance on the common interval."""
    if w1.scatterer != w2.scatterer:
        return math.inf
    if w1.homog_k != w2.homog_k:
        return math.inf
    a1, b1 = w1.interval
    a2, b2 = w2.interval
    inter_lo, inter_hi = max(a1, a2), min(b1, b2)
    sym = (b1 - a1) + (b2 - a2) - 2.0 * max(0.0, inter_hi - inter_lo)
    if inter_hi <= inter_lo:
        return sym
    rr = np.linspace(inter_lo, inter_hi, 129)
    c0 = float(np.max(np.abs(w1.phi_at(rr) - w2.phi_at(rr))))
    c1 = float(np.max(np.abs(w1.slope_at(rr) - w2.slope_at(rr))))
    return sym + c0 + c1


def _holder_seminorm(rr, vals, q, max_pairs=4000):
    n = rr.size
    if n < 2:
        return 0.0
    idx = np.arange(n)
    if n * (n - 1) // 2 > max_pairs:
        rng = np.random.default_rng(0)
        i = rng.integers(0, n, max_pairs)
        j = rng.integers(0, n, max_pairs)
        keep = i != j
        i, j = i[keep], j[keep]
    else:
        i, j = np.triu_indices(n, k=1)
    dv = np.abs(vals[i] - vals[j])
    dr = np.abs(rr[i] - rr[j])
    return float(np.max(dv / dr ** q)) if dv.size else 0.0


def test_fn_distance(psi1, w1, psi2, w2, q, n_samples=129):
    """C^q distance of the pulled-back test functions on the common interval.

    psi_i are callables of a phase point (r, phi) on the curve.
    """
    a1, b1 = w1.interval
    a2, b2 = w2.interval
    lo, hi = max(a1, a2), min(b1, b2)
    if hi <= lo:
        raise DisjointIntervals("curves share no r-interval")
    rr = np.linspace(lo, hi, n_samples)
    f = (np.asarray([psi1(r, float(w1.phi_at(r))) for r in rr])
         - np.asarray([psi2(r, float(w2.phi_at(r))) for r in rr]))
    return float(np.max(np.abs(f))) + _holder_seminorm(rr, f, q)


# ----------------------------------------------------------------------
# pullback trees

@dataclass
class TreeNode:
    """One homogeneous piece in a generation tree."""

    curve: StableCurve
    level: int
    index: int
    parent: int  # index in the previous level, -1 for the root
    parent_r: np.ndarray  # forward-image r on the parent at this node's knots
    cum_jac: np.ndarray  # Jacobian of T^level along this piece, at knots
    long: bool = False
    never_long: bool = True
    mrla: tuple = (0, 0)  # (level, index) of most recent long ancestor

    @property
    def jac_c0(self):
        return float(np.max(self.cum_jac))


class GenerationTree:
    """Levels of homogeneous preimage pieces of a root stable curve."""

    def __init__(self, root, delta0, k0=DEFAULT_K0):
        self.delta0 = float(delta0)
        self.k0 = int(k0)
        root_node = TreeNode(curve=root, level=0, index=0, parent=-1,
                             parent_r=root.r.copy(),
                             cum_jac=np.ones_like(root.r),
                             long=root.length >= delta0 / 3.0,
                             never_long=True, mrla=(0, 0))
        self.levels = [[root_node]]

    @property
    def root(self):
        return self.levels[0][0].curve

    def nodes(self, level):
        return self.levels[level]


# columns of the rows _pull returns
_S, _OK, _J, _K, _R, _PHI, _JAC = range(7)
_N_PROBE = 96            # probes along a curve in one pullback step
_MAX_CUTS = 400          # cuts one curve may have in one pullback step
_MAX_PIECES = 100_000    # pieces one generation tree may hold


def _pull(map_def, W, rs, k0):
    """One backward step of the points of W at the curve parameters rs.

    Returns one row per parameter: (parameter, ok, scatterer, strip, r,
    phi, one-step Jacobian of T along the preimage); ok is 0 where the
    inverse step fails or either end is within the grazing tolerance.
    """
    slope = W.slope_at(rs)
    jj, yr, yphi, _, A, ok = map_def.step_batch(
        np.full(rs.size, W.scatterer), rs, W.phi_at(rs), direction="backward")
    ok = ok & ~is_grazing(yphi, map_def.grazing_tol)
    u1 = A[:, 0, 0] + A[:, 0, 1] * slope
    u2 = A[:, 1, 0] + A[:, 1, 1] * slope
    jac = np.hypot(1.0, slope) / np.hypot(u1, u2)
    return np.column_stack([rs, ok, jj, homogeneity_index(yphi, k0), yr,
                            yphi, jac])


def _jumped(lengths, a, b):
    """Where rows a and b lie on different smooth branches: one of them
    failed, their (scatterer, strip) differ, or r jumps by over L/5."""
    ok_a, ok_b = a[:, _OK] > 0, b[:, _OK] > 0
    L = lengths[a[:, _J].astype(int)]
    dr = np.abs(b[:, _R] - a[:, _R])
    split = ((a[:, _J] != b[:, _J]) | (a[:, _K] != b[:, _K])
             | (np.minimum(dr, L - dr) > 0.2 * L))
    return np.where(ok_a & ok_b, split, ok_a != ok_b)


def _pull_node(map_def, node, delta0, k0):
    """One pullback step: homogeneous pieces of T^-1 of a node's curve.

    Probes the curve, bisects every branch or strip change between
    consecutive probes to 1e-10, all cuts in lockstep, and densifies short
    runs; each round of probes is one _pull.
    """
    W = node.curve
    lengths = map_def.config.lengths
    probes = _pull(map_def, W, np.linspace(*W.interval, _N_PROBE), k0)
    ok = probes[:, _OK] > 0
    cut = 1 + np.flatnonzero(ok[:-1] & ok[1:]
                             & _jumped(lengths, probes[:-1], probes[1:]))
    if cut.size > _MAX_CUTS:
        raise RefinementBudgetExceeded("too many cuts on one piece")
    # per cut: lo the left-branch row nearest the cut, hi the right end of
    # the bracket and right the right-branch row nearest the cut
    lo, right = probes[cut - 1], probes[cut]
    hi = right[:, _S].copy()
    rows = [probes]
    live = np.flatnonzero(hi - lo[:, _S] > 1e-10)
    while live.size:
        mid = _pull(map_def, W, 0.5 * (lo[live, _S] + hi[live]), k0)
        left = ~_jumped(lengths, lo[live], mid)
        on_right = ~left & ~_jumped(lengths, mid, right[live])
        rows.append(mid[left])
        lo[live[left]] = mid[left]
        hi[live[~left]] = mid[~left, _S]
        right[live[on_right]] = mid[on_right]
        live = live[hi[live] - lo[live, _S] > 1e-10]
    rows.append(right[right[:, _S] < probes[cut, _S] - 1e-12])
    rows = np.concatenate(rows)
    rows = rows[np.argsort(rows[:, _S])]

    # a run ends at each failed probe and after each cut's last left row
    failed = rows[:, _OK] == 0
    ends = np.isin(rows[:, _S], lo[:, _S])
    run_of = np.cumsum(failed) + np.cumsum(ends) - ends
    rows, run_of = rows[~failed], run_of[~failed]
    children = []
    for run in np.split(rows, 1 + np.flatnonzero(np.diff(run_of))):
        # densify short runs so every child has enough knots
        while 4 <= len(run) < 12:
            mid = _pull(map_def, W, 0.5 * (run[:-1, _S] + run[1:, _S]), k0)
            extra = mid[~_jumped(lengths, run[:1], mid)]
            if not extra.size:
                break
            run = np.concatenate([run, extra])
            run = run[np.argsort(run[:, _S])]
        children.extend(_materialize_run(map_def, node, run, delta0, k0))
    return children


def _piece(map_def, node, rows, key, k0):
    """The piece (curve, parent_r, cum_jac) through the rows on branch key,
    or None where fewer than four distinct knots remain."""
    rows = rows[(rows[:, _OK] > 0) & (rows[:, _J] == key[0])
                & (rows[:, _K] == key[1])]
    if len(rows) < 4:
        return None
    par_r, yphi, jac1 = rows[:, _S], rows[:, _PHI], rows[:, _JAC]
    # unwrap the child r-coordinate across the scatterer's period
    L = map_def.config.lengths[int(key[0])]
    yr = rows[:, _R].copy()
    for i in range(1, yr.size):
        d = yr[i] - yr[i - 1]
        if d > L / 2:
            yr[i:] -= L
        elif d < -L / 2:
            yr[i:] += L
    order = np.argsort(yr)
    yr, yphi, par_r, jac1 = yr[order], yphi[order], par_r[order], jac1[order]
    if np.any(np.diff(yr) <= 0):
        keep = np.concatenate([[True], np.diff(yr) > 1e-13])
        yr, yphi, par_r, jac1 = yr[keep], yphi[keep], par_r[keep], jac1[keep]
        if yr.size < 4:
            return None
    # cumulative Jacobian of T^(level+1) at the child knots
    cum = jac1 * np.interp(par_r, node.curve.r, node.cum_jac)
    try:
        child = StableCurve(int(key[0]), yr, yphi, k0=k0,
                            require_homogeneous=False, min_knots=4)
    except ValidationFailed:
        return None
    return child, par_r, cum


def _materialize_run(map_def, node, run, delta0, k0):
    """Build homogeneous child pieces from one smooth sample run."""
    if len(run) < 4:
        return []
    key = run[len(run) // 2, [_J, _K]]
    piece = _piece(map_def, node, run, key, k0)
    if piece is None:
        return []
    child, par_r, cum = piece
    if child.length <= delta0:
        return [piece]
    # cut at equal arclength; each sub-piece takes its knots from one pull
    # at evenly spaced parent parameters of its span
    m = int(math.ceil(child.length / delta0))
    rr = np.linspace(child.r[0], child.r[-1], 513)
    sp = np.hypot(1.0, child.slope_at(rr))
    s = np.concatenate([[0.0], np.cumsum(0.5 * (sp[1:] + sp[:-1])
                                         * np.diff(rr))])
    par = np.interp(np.interp(np.linspace(0.0, s[-1], m + 1), s, rr),
                    child.r, par_r)
    n = max(8, child.r.size // m + 4)
    rows = _pull(map_def, node.curve, np.concatenate(
        [np.linspace(a, b, n) for a, b in zip(par[:-1], par[1:])]), k0)
    pieces = [_piece(map_def, node, sub, key, k0)
              for sub in np.split(rows, m)]
    return [p for p in pieces if p is not None]


def pullback_generation(root, map_def, n, params=None):
    """Build the generation tree of a stable curve down to level n.

    Raises RefinementBudgetExceeded once the tree holds more than
    _MAX_PIECES pieces."""
    params = params or NormParams()
    tree = GenerationTree(root, params.delta0, params.k0)
    pieces = 0
    for level in range(1, n + 1):
        new_nodes = []
        for pidx, node in enumerate(tree.levels[level - 1]):
            for child, par_r, cum in _pull_node(map_def, node, params.delta0,
                                                params.k0):
                is_long = child.length >= params.delta0 / 3.0
                mrla = ((level, len(new_nodes)) if is_long
                        else node.mrla if not node.long
                        else (level - 1, pidx))
                new_nodes.append(TreeNode(
                    curve=child, level=level, index=len(new_nodes),
                    parent=pidx, parent_r=par_r, cum_jac=cum,
                    long=is_long,
                    never_long=node.never_long and not is_long,
                    mrla=mrla))
            if pieces + len(new_nodes) > _MAX_PIECES:
                raise RefinementBudgetExceeded(
                    f"more than {_MAX_PIECES} pieces in the tree at level "
                    f"{level}")
        pieces += len(new_nodes)
        tree.levels.append(new_nodes)
    return tree


def growth_sums(tree, sigma=0.5):
    """Per-level Jacobian sums of the generation tree.

    Returns a list of dicts with keys sum_a (never-long pieces), sum_b
    (all pieces), sum_c (length-weighted), sum_d (sigma-power).
    """
    out = []
    root_len = tree.root.length
    for level, nodes in enumerate(tree.levels):
        sa = sb = sc = sd = 0.0
        for nd in nodes:
            j = nd.jac_c0
            sb += j
            sc += (nd.curve.length / root_len) ** sigma * j
            sd += j ** sigma
            if nd.never_long:
                sa += j
        out.append({"level": level, "sum_a": sa, "sum_b": sb,
                    "sum_c": sc, "sum_d": sd, "count": len(nodes)})
    return out


# ----------------------------------------------------------------------
# curve sampling and norm estimates

def sample_stable_curves(config, metrics, n_curves, params=None, seed=0,
                         grazing_frac=0.2):
    """Random homogeneous stable curves with cone-compatible slopes."""
    params = params or NormParams()
    rng = np.random.default_rng(seed)
    slope_hi = -metrics.K_min
    slope_lo = -(metrics.K_max + 1.0 / max(metrics.tau_min, 1e-6))
    curves = []
    guard = 0
    while len(curves) < n_curves and guard < 50 * n_curves:
        guard += 1
        i = int(rng.integers(len(config)))
        L = config[i].L
        slope = rng.uniform(slope_lo, slope_hi)
        if rng.random() < grazing_frac:
            k = int(rng.integers(params.k0, 4 * params.k0))
            sgn = 1 if rng.random() < 0.5 else -1
            lo_b = math.pi / 2 - 1.0 / k ** 2
            hi_b = math.pi / 2 - 1.0 / (k + 1) ** 2
            phi_c = sgn * rng.uniform(lo_b, hi_b)
            strip_h = hi_b - lo_b
        else:
            lim = math.pi / 2 - 1.0 / params.k0 ** 2
            phi_c = rng.uniform(-0.9 * lim, 0.9 * lim)
            strip_h = 2 * lim
        # r-extent limited by delta0 and by the strip height
        max_dr = min(params.delta0 / math.hypot(1.0, slope),
                     0.8 * strip_h / abs(slope), L / 4)
        dr = rng.uniform(0.3, 1.0) * max_dr
        r_c = rng.uniform(0.0, L - dr)
        rr = np.linspace(r_c, r_c + dr, 64)
        phi = phi_c + slope * (rr - rr.mean())
        if np.max(np.abs(phi)) >= math.pi / 2:
            continue
        try:
            curves.append(StableCurve(i, rr, phi, k0=params.k0))
        except CurveNotHomogeneous:
            continue
    return curves


def _dictionary(L, order=8):
    """Test functions psi(r, phi) used for norm estimation."""
    fns = [("one", lambda r, p: 1.0)]
    for m in range(1, order + 1):
        w = 2.0 * math.pi * m / L
        fns.append((f"cos{m}", lambda r, p, w=w: math.cos(w * r)))
        fns.append((f"sin{m}", lambda r, p, w=w: math.sin(w * r)))
    fns.append(("phi", lambda r, p: p))
    fns.append(("phi2", lambda r, p: p * p))
    return fns


def _curve_integral(w, h, psi, n=129):
    rr = np.linspace(w.r[0], w.r[-1], n)
    pp = w.phi_at(rr)
    sp = np.hypot(1.0, w.slope_at(rr))
    vals = np.asarray([h(r, p) * psi(r, p) for r, p in zip(rr, pp)])
    return float(np.trapezoid(vals * sp, rr))


def _psi_cnorm(w, psi, expo, n=65):
    rr = np.linspace(w.r[0], w.r[-1], n)
    pp = w.phi_at(rr)
    dd = np.hypot(1.0, w.slope_at(rr))
    vals = np.asarray([psi(r, p) for r, p in zip(rr, pp)])
    c0 = float(np.max(np.abs(vals)))
    # Hölder seminorm in the Euclidean metric along the curve
    s_coord = np.concatenate([[0.0], np.cumsum(
        0.5 * (dd[1:] + dd[:-1]) * np.diff(rr))])
    return c0 + _holder_seminorm(s_coord, vals, expo, max_pairs=1000)


def norm_estimates(h, curves, params=None, eps_list=(1e-3, 3e-3, 1e-2),
                   dict_order=8):
    """Sampled lower bounds for the weak/strong-stable/strong-unstable norms."""
    params = params or NormParams()
    weak = strong_s = strong_u = 0.0
    for w in curves:
        fns = _dictionary(w.r[-1] - w.r[0] + 1e-9, order=dict_order)
        for _name, psi in fns:
            cp = _psi_cnorm(w, psi, params.p)
            if cp > 0:
                weak = max(weak, abs(_curve_integral(w, h, psi)) / cp)
            cq = _psi_cnorm(w, psi, params.q) * w.length ** params.alpha
            if cq > 0:
                strong_s = max(strong_s,
                               abs(_curve_integral(w, h, psi)) / cq)
        # unstable norm: vertical translate pairs at distance eps
        for eps in eps_list:
            if eps > params.eps0:
                continue
            w2 = w.translated(eps)
            ks2 = homogeneity_index(w2.phi, params.k0)
            if np.unique(ks2).size > 1 or int(ks2[0]) != w.homog_k:
                continue
            for _name, psi in fns[:5]:
                cp1 = _psi_cnorm(w, psi, params.p)
                if cp1 <= 0:
                    continue
                psi_n = (lambda r, p, f=psi, c=cp1: f(r, p) / c)
                d = abs(_curve_integral(w, h, psi_n)
                        - _curve_integral(w2, h, psi_n))
                strong_u = max(strong_u, d / eps ** params.beta)
    return {"weak": weak, "strong_stable": strong_s,
            "strong_unstable": strong_u}
