"""Ulam discretization of the transfer operator and spectral estimators.

Boxes are uniform in (r, phi) per scatterer; box sampling uses the
cos(phi) density so the discrete reference measure matches the invariant
one and the pushforward matrix is row-stochastic.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (InfiniteHorizon, NoConvergence, WeightNotNormalized,
                     EigenvalueCollision)
from .geometry import config_metrics

__all__ = ["UlamOperator", "SpectrumResult", "build_ulam", "spectrum",
           "track_path", "random_operator", "operator_distance",
           "sample_invariant", "correlations", "limit_stats"]


# ---------------------------------------------------------------------------
# partition bookkeeping


class _Partition:
    """Uniform N x N boxes in (r, phi) for each scatterer."""

    def __init__(self, config, N):
        self.config = config
        self.N = N
        self.Ls = np.array([s.L for s in config.scatterers])
        self.n_sc = len(config.scatterers)
        self.per = N * N
        self.size = self.n_sc * self.per

    def box_of(self, idx, r, phi):
        N = self.N
        ir = np.clip((np.mod(r, self.Ls[idx]) / self.Ls[idx] * N).astype(int),
                     0, N - 1)
        ip = np.clip(((phi + math.pi / 2) / math.pi * N).astype(int),
                     0, N - 1)
        return idx * self.per + ir * N + ip

    def mu_weights(self):
        """Invariant-measure mass of every box, normalized to sum 1."""
        N = self.N
        w = np.empty(self.size)
        edges = -math.pi / 2 + np.arange(N + 1) * math.pi / N
        strip = np.diff(np.sin(edges))
        for j in range(self.n_sc):
            base = j * self.per
            col = (self.Ls[j] / N) * strip
            w[base:base + self.per] = np.tile(col, N)
        return w / w.sum()

    def sample_boxes(self, S, rng):
        """S points per box from the cos(phi) density; flat arrays."""
        N = self.N
        total = self.size * S
        b = np.repeat(np.arange(self.size), S)
        j = b // self.per
        rem = b - j * self.per
        ir = rem // N
        ip = rem - ir * N
        L = self.Ls[j]
        r = (ir + rng.random(total)) * L / N
        pa = -math.pi / 2 + ip * math.pi / N
        pb = pa + math.pi / N
        s = np.sin(pa) + rng.random(total) * (np.sin(pb) - np.sin(pa))
        phi = np.arcsin(np.clip(s, -1.0, 1.0))
        return b, j.astype(int), r, phi


def _push_points(map_def, idx, r, phi):
    """Forward images of many phase points; ok=False where the map fails.
    The flight times are dropped here, so their array is freed at once."""
    jj, r1, p1, _, ok = map_def.forward_batch(idx, r, phi)
    return jj, r1, p1, ok


# ---------------------------------------------------------------------------
# the Ulam operator


@dataclass
class UlamOperator:
    """Row-stochastic box-transition matrix of a billiard map."""

    P: sp.csr_matrix
    N: int
    S: int
    seed: int
    n_scatterers: int
    flight_cap: float
    drop_rate: float

    @property
    def size(self):
        return self.P.shape[0]

    def transfer_matrix(self):
        """Matrix acting on box densities (adjoint of the pushforward)."""
        return self.P.T.tocsr()

    def row_sum_defect(self):
        return float(np.max(np.abs(self.P.sum(axis=1).A1 - 1.0)))


def build_ulam(map_def, N=64, S=400, seed=0, require_finite=True):
    """Monte Carlo Ulam matrix with S cos(phi)-weighted samples per box."""
    if N & (N - 1) != 0 or N <= 0:
        raise ValueError("N must be a power of two")
    cfg = map_def.config
    if require_finite and config_metrics(cfg).horizon != "finite":
        raise InfiniteHorizon("Ulam discretization requires a finite horizon")
    part = _Partition(cfg, N)
    rng = np.random.default_rng(seed)
    b, j, r, phi = part.sample_boxes(S, rng)
    jj, r1, p1, ok = _push_points(map_def, j, r, phi)
    src = b[ok]
    dst = part.box_of(jj[ok], r1[ok], p1[ok])
    P = sp.coo_matrix((np.ones(src.size), (src, dst)),
                      shape=(part.size, part.size)).tocsr()
    counts = np.asarray(P.sum(axis=1)).ravel()
    empty = counts == 0
    if np.any(empty):
        idx_e = np.nonzero(empty)[0]
        P = P + sp.coo_matrix((np.ones(idx_e.size), (idx_e, idx_e)),
                              shape=P.shape).tocsr()
        counts[empty] = 1.0
    P = sp.diags(1.0 / counts) @ P
    return UlamOperator(P=P.tocsr(), N=N, S=S, seed=seed,
                        n_scatterers=len(cfg.scatterers),
                        flight_cap=getattr(map_def, "flight_cap", math.nan),
                        drop_rate=float(1.0 - ok.mean()))


# ---------------------------------------------------------------------------
# spectra


@dataclass
class SpectrumResult:
    """Leading eigenvalues/vectors of a discretized transfer operator."""

    eigenvalues: np.ndarray
    gap: float
    density: np.ndarray
    residuals: np.ndarray
    vectors: np.ndarray = field(repr=False, default=None)

    def leading_cluster_rank(self, tol=0.02):
        lam = np.abs(self.eigenvalues)
        return int(np.sum(lam >= lam[0] - tol))

    def to_dict(self):
        return {"eigenvalues": [[float(z.real), float(z.imag)]
                                for z in self.eigenvalues],
                "gap": self.gap,
                "residuals": [float(x) for x in self.residuals]}


def spectrum(op, k=6, tol=1e-8, seed=0, maxiter=20000):
    """Leading eigenpairs of the transfer matrix, residual-checked.

    Uses restarted Arnoldi iteration for large problems and a dense
    eigensolver for small ones; raises NoConvergence if any requested
    residual exceeds tol.
    """
    A = op.transfer_matrix() if isinstance(op, UlamOperator) else sp.csr_matrix(op).T
    n = A.shape[0]
    k = min(k, n - 2) if n > 3 else 1
    if n <= 256:
        lam, vec = np.linalg.eig(A.toarray())
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.random(n)
        try:
            lam, vec = spla.eigs(A, k=min(k + 4, n - 2), which="LM",
                                 v0=v0, maxiter=maxiter, tol=0)
        except spla.ArpackNoConvergence as exc:
            raise NoConvergence("Arnoldi iteration did not converge") from exc
    order = np.argsort(-np.abs(lam))
    lam = lam[order][:k]
    vec = vec[:, order][:, :k]
    res = np.array([np.linalg.norm(A @ vec[:, i] - lam[i] * vec[:, i])
                    / max(np.linalg.norm(vec[:, i]), 1e-300)
                    for i in range(lam.size)])
    if np.any(res > tol):
        raise NoConvergence(f"residuals {res.max():.2e} above {tol:.0e}")
    dens = vec[:, 0].real.copy()
    if dens.sum() < 0:
        dens = -dens
    dens = np.clip(dens, 0.0, None)
    if dens.sum() > 0:
        dens /= dens.sum()
    gap = float(1.0 - np.abs(lam[1])) if lam.size > 1 else math.nan
    return SpectrumResult(eigenvalues=lam, gap=gap, density=dens,
                          residuals=res, vectors=vec)


def _match(lam0, v0, lam1, v1):
    """Greedy nearest-modulus then eigenvector-overlap matching.

    Returns the permutation of (lam1, v1) aligning with (lam0, v0), or
    raises EigenvalueCollision when two candidates are indistinguishable.
    """
    used = set()
    perm = []
    for i in range(lam0.size):
        d = np.abs(np.abs(lam1) - np.abs(lam0[i]))
        d[list(used)] = np.inf
        cands = np.argsort(d)
        a, b = cands[0], cands[1] if cands.size > 1 else cands[0]
        if a != b and abs(d[a] - d[b]) < 1e-6:
            ova = abs(np.vdot(v0[:, i], v1[:, a]))
            ovb = abs(np.vdot(v0[:, i], v1[:, b]))
            if abs(ova - ovb) < 1e-3:
                raise EigenvalueCollision(
                    f"ambiguous continuation at eigenvalue {lam0[i]}")
            a = a if ova > ovb else b
        used.add(int(a))
        perm.append(int(a))
    return perm


def track_path(family, gammas, N=64, S=400, seed=0, k=6, max_refine=4):
    """Continue the leading spectrum along a one-parameter map family.

    family: gamma -> MapDef. Matches eigenvalues across consecutive
    gammas by modulus and eigenvector overlap, halving the gamma step on
    collisions (up to max_refine times). Returns a list of records.
    """
    gammas = list(gammas)
    specs = {}

    def spec_at(g):
        if g not in specs:
            specs[g] = spectrum(build_ulam(family(g), N=N, S=S, seed=seed),
                                k=k, seed=seed)
        return specs[g]

    def continue_between(lam0, v0, g0, g1, depth):
        """Align the spectrum at g1 with the aligned (lam0, v0) at g0."""
        s1 = spec_at(g1)
        try:
            perm = _match(lam0, v0, s1.eigenvalues, s1.vectors)
        except EigenvalueCollision:
            if depth >= max_refine:
                raise
            gm = 0.5 * (g0 + g1)
            lam_m, v_m = continue_between(lam0, v0, g0, gm, depth + 1)
            return continue_between(lam_m, v_m, gm, g1, depth + 1)
        return s1.eigenvalues[perm], s1.vectors[:, perm]

    base = spec_at(gammas[0])
    records = []
    prev_g = gammas[0]
    lam_prev, vec_prev = base.eigenvalues, base.vectors
    for g in gammas:
        if g == gammas[0]:
            lam, vec = base.eigenvalues, base.vectors
        else:
            lam, vec = continue_between(lam_prev, vec_prev, prev_g, g, 0)
        s = spec_at(g)
        v0 = base.vectors[:, 0]
        v0 = v0 / np.linalg.norm(v0)
        vg = vec[:, 0] / np.linalg.norm(vec[:, 0])
        ov = min(abs(np.vdot(v0, vg)), 1.0)
        records.append({
            "gamma": g,
            "eigenvalues": lam,
            "gap": float(1.0 - abs(lam[1])) if lam.size > 1 else math.nan,
            "drift": np.abs(lam - base.eigenvalues),
            "principal_angle_sin": math.sqrt(max(0.0, 1.0 - ov * ov)),
            "leading_cluster_rank": s.leading_cluster_rank(),
        })
        prev_g = g
        lam_prev, vec_prev = lam, vec
    return records


# ---------------------------------------------------------------------------
# averaged random operator


def random_operator(maps, g=None, nu=None, N=64, S=100, seed=0,
                    norm_tol=1e-6):
    """Ulam matrix of an averaged operator over an ensemble of maps.

    maps: list of MapDef; nu: probability weights (uniform by default);
    g(k, idx, r, phi): per-map sampling weight evaluated at the source
    point (constant 1 by default). Requires sum_k nu_k g_k = 1 pointwise.
    The operator's drop_rate is the nu-weighted share of samples the maps
    failed to push.
    """
    m = len(maps)
    nu = np.full(m, 1.0 / m) if nu is None else np.asarray(nu, dtype=float)
    if abs(nu.sum() - 1.0) > norm_tol or np.any(nu < 0):
        raise WeightNotNormalized("ensemble weights must be a probability "
                                  "vector")
    cfg = maps[0].config
    part = _Partition(cfg, N)
    rng = np.random.default_rng(seed)
    if g is not None:
        # pointwise normalization check of the weight family on a probe set
        pr_rng = np.random.default_rng(seed + 1)
        pr_i = pr_rng.integers(0, part.n_sc, 256)
        pr_r = pr_rng.random(256) * part.Ls[pr_i]
        pr_p = (pr_rng.random(256) - 0.5) * math.pi * 0.98
        tot = sum(nu[kk] * np.asarray(g(kk, pr_i, pr_r, pr_p))
                  for kk in range(m))
        if np.max(np.abs(tot - 1.0)) > 1e-3:
            raise WeightNotNormalized(
                f"sum_k nu_k g_k deviates from 1 by {np.max(np.abs(tot-1)):.2e}")
    rows, cols, vals = [], [], []
    weight_tot = np.zeros(part.size)
    drop_rate = 0.0
    for kk, T in enumerate(maps):
        b, j, r, phi = part.sample_boxes(S, rng)
        jj, r1, p1, ok = _push_points(T, j, r, phi)
        drop_rate += nu[kk] * (1.0 - ok.mean())
        w = np.full(b.size, nu[kk])
        if g is not None:
            w = w * np.asarray(g(kk, j, r, phi), dtype=float)
        src = b[ok]
        dst = part.box_of(jj[ok], r1[ok], p1[ok])
        rows.append(src)
        cols.append(dst)
        vals.append(w[ok])
        np.add.at(weight_tot, src, w[ok])
    P = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(part.size, part.size)).tocsr()
    tot = np.asarray(P.sum(axis=1)).ravel()
    empty = tot == 0
    if np.any(empty):
        idx_e = np.nonzero(empty)[0]
        P = P + sp.coo_matrix((np.ones(idx_e.size), (idx_e, idx_e)),
                              shape=P.shape).tocsr()
        tot[empty] = 1.0
    P = sp.diags(1.0 / tot) @ P
    return UlamOperator(P=P.tocsr(), N=N, S=S, seed=seed,
                        n_scatterers=len(cfg.scatterers),
                        flight_cap=getattr(maps[0], "flight_cap", math.nan),
                        drop_rate=float(drop_rate))


def operator_distance(op1, op2):
    """Grid proxies for the operator-difference norm.

    Returns the worst row l1 difference and the invariant-measure
    weighted average row difference of the transition matrices.
    """
    if op1.P.shape != op2.P.shape or op1.n_scatterers != op2.n_scatterers:
        raise ValueError("operators live on different partitions")
    D = (op1.P - op2.P).tocsr()
    row = np.asarray(np.abs(D).sum(axis=1)).ravel()
    # invariant weights from the leading density of op1
    try:
        w = spectrum(op1, k=2).density
    except NoConvergence:
        w = np.full(row.size, 1.0 / row.size)
    if w.sum() <= 0:
        w = np.full(row.size, 1.0 / row.size)
    return {"linf_row": float(row.max()),
            "weighted_l1": float(np.dot(w, row))}


# ---------------------------------------------------------------------------
# orbit statistics


def sample_invariant(config, n, rng):
    """Draw n phase points from the invariant measure."""
    Ls = np.array([s.L for s in config.scatterers])
    probs = Ls / Ls.sum()
    idx = rng.choice(len(Ls), size=n, p=probs)
    r = rng.random(n) * Ls[idx]
    phi = np.arcsin(2.0 * rng.random(n) - 1.0)
    return idx, r, phi


def correlations(map_def, f, g, n_max=40, n_points=1_000_000, n_batches=50,
                 seed=0):
    """Correlation series C_n = <f g o T^n> - <f><g> with batch error bars.

    f, g: callables (idx, r, phi) -> array. Initial points are exact
    samples of the invariant measure, so no burn-in is needed.
    """
    cfg = map_def.config
    rng = np.random.default_rng(seed)
    idx, r, phi = sample_invariant(cfg, n_points, rng)
    alive = np.ones(n_points, dtype=bool)
    f0 = np.asarray(f(idx, r, phi), dtype=float)
    batch = np.minimum((np.arange(n_points) * n_batches) // n_points,
                       n_batches - 1)
    mean_f = f0.mean()
    series, errs = [], []
    cur_i, cur_r, cur_p = idx.copy(), r.copy(), phi.copy()
    for n in range(n_max + 1):
        gv = np.asarray(g(cur_i, cur_r, cur_p), dtype=float)
        gv = np.where(alive, gv, np.nan)
        prod = f0 * gv
        means = np.array([np.nanmean(prod[batch == b]) -
                          np.nanmean(f0[batch == b]) *
                          np.nanmean(gv[batch == b])
                          for b in range(n_batches)])
        series.append(float(np.nanmean(means)))
        errs.append(float(np.nanstd(means) / math.sqrt(n_batches)))
        if n < n_max:
            jj, r1, p1, ok = _push_points(map_def, cur_i, cur_r, cur_p)
            alive &= ok
            cur_i, cur_r, cur_p = jj, r1, p1
    series = np.array(series)
    errs = np.array(errs)
    noise = 2.0 * np.median(errs)
    above = np.abs(series[1:]) > 2.0 * errs[1:]
    n_below = int(np.argmax(~above) + 1) if np.any(~above) else n_max + 1
    # C_0 .. C_{n_below - 1} lie above the noise
    lead = np.abs(series[:n_below])
    rate = math.nan
    if lead.size >= 2 and lead.min() > 0:
        rate = -np.polyfit(np.arange(lead.size), np.log(lead), 1)[0]
    return {"C_n": series, "err": errs, "rate": float(rate),
            "noise_floor": float(noise), "n_below_noise": n_below,
            "alive_fraction": float(alive.mean())}


def limit_stats(map_def, g, n_points=2000, n_steps=10000, seed=0,
                batch_scales=(1000, 10000), ld_ns=(8, 16, 32, 64),
                ld_bins=21):
    """Central-limit variance and empirical large-deviation rate of g.

    Runs an ensemble of orbits started from the invariant measure,
    mean-adjusts g, and reports the batch-means variance of S_n/sqrt(n)
    at several scales plus the empirical rate of S_n/n on a dyadic
    ladder.
    """
    cfg = map_def.config
    rng = np.random.default_rng(seed)
    idx, r, phi = sample_invariant(cfg, n_points, rng)
    n_total = max(max(batch_scales), max(ld_ns))
    n_total = min(n_total, n_steps) if n_steps else n_total
    gsum = np.zeros(n_points)
    snapshots = {}
    cur_i, cur_r, cur_p = idx, r, phi
    alive = np.ones(n_points, dtype=bool)
    gvals_mean = 0.0
    n_terms = 0  # sum over steps of the points alive at that step
    for n in range(1, n_total + 1):
        gv = np.asarray(g(cur_i, cur_r, cur_p), dtype=float)
        gsum += np.where(alive, gv, 0.0)
        gvals_mean += np.where(alive, gv, 0.0).sum()
        n_terms += int(alive.sum())
        if n in ld_ns or n in batch_scales:
            snapshots[n] = gsum.copy()
        if n < n_total:
            jj, r1, p1, ok = _push_points(map_def, cur_i, cur_r, cur_p)
            alive &= ok
            cur_i, cur_r, cur_p = jj, r1, p1
    mean_g = gvals_mean / max(n_terms, 1)
    var_by_scale = {}
    for m in batch_scales:
        if m not in snapshots:
            continue
        s = snapshots[m] - m * mean_g
        var_by_scale[m] = float(np.var(s[alive]) / m)
    # empirical large-deviation rate on the dyadic ladder
    ld = {}
    for n in ld_ns:
        if n not in snapshots:
            continue
        avg = snapshots[n][alive] / n - mean_g
        lo, hi = np.quantile(avg, [0.001, 0.999])
        edges = np.linspace(lo, hi, ld_bins + 1)
        hist, _ = np.histogram(avg, bins=edges)
        p = hist / max(avg.size, 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        with np.errstate(divide="ignore"):
            I = -np.log(np.where(p > 0, p, np.nan)) / n
        ld[n] = {"t": centers, "I": I}
    return {"sigma2": var_by_scale, "mean": float(mean_g),
            "rate_curves": ld, "alive_fraction": float(alive.mean())}
