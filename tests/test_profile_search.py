"""The batch map on a profile scatterer against a brute-force reference:
every image's chord sampled densely for the gap, each sign change solved
by brentq."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from lorentzgas import ClassicalMap, ScattererConfig
from lorentzgas.classical_map import _first_hits
from lorentzgas.cli import fixture_path

N_DENSE = 2001  # gap samples along one chord of a bounding disc


def profile_four_disk():
    with open(fixture_path("four_disk")) as fh:
        d = json.load(fh)
    d["scatterers"][0].update(kind="profile", cos_coeffs=[0.0, 0.02])
    return ScattererConfig.from_dict(d)


def _images(cfg, cap):
    """Every scatterer image whose bounding disc lies within cap + 2 of the
    base cell's centre: (scatterer, offset, centre, bounding radius, and
    that disc's distance from the centre), nearest first."""
    m = math.ceil(cap) + 3
    out = []
    for j, sc in enumerate(cfg.scatterers):
        for ox in range(-m, m + 1):
            for oy in range(-m, m + 1):
                C = sc.center + (ox, oy)
                D = math.hypot(C[0] - 0.5, C[1] - 0.5) - sc.rho_max
                if D <= cap + 2:
                    out.append((D, j, (ox, oy), C, sc.rho_max))
    out.sort(key=lambda o: o[0])
    return tuple(np.array([o[k] for o in out], dtype=None if k != 2 else float)
                 for k in range(5))


def _first_hit(cfg, images, i, r, phi, cap):
    """(scatterer, tau, r1, phi1) of the first collision of the outgoing ray
    of (i, r, phi) within the cap, or None.  The images within 2 of the ray
    start go first; the rest only if none of those is hit."""
    p, t, n, _ = cfg[i].frame(r)
    v = math.cos(phi) * n + math.sin(phi) * t
    reach = math.hypot(p[0] - 0.5, p[1] - 0.5)
    near = np.searchsorted(images[0], reach + 2.0)
    hit = _first_hit_among(cfg, [a[:near] for a in images], i, p, v,
                           min(cap, 2.0))
    if hit is None and cap > 2.0:
        hit = _first_hit_among(cfg, images, i, p, v, cap)
    return hit


def _first_hit_among(cfg, images, i, p, v, cap):
    _, j, off, C, rho = images
    d = p - C
    b = d @ v
    disc = b * b - (d * d).sum(axis=1) + rho * rho
    own = (j == i) & (off == 0).all(axis=1)
    cand = np.flatnonzero((disc > 0) & ~own)
    s = np.sqrt(disc[cand])
    t_in, t_out = -b[cand] - s, -b[cand] + s
    keep = (t_out > 1e-11) & (t_in < cap)
    cand, t_in, t_out = cand[keep], t_in[keep], t_out[keep]
    best = (math.inf, None)
    for k in np.argsort(t_in):
        if t_in[k] >= best[0]:
            break
        c = cand[k]
        sc = cfg[j[c]]
        if sc.is_circle:
            if t_in[k] > 1e-11:
                best = min(best, (t_in[k], c))
            continue

        def g(tt):
            return sc.gap(p + np.multiply.outer(tt, v) - off[c])

        ts = np.linspace(max(t_in[k], 1e-11), min(t_out[k], cap), N_DENSE)
        neg = np.flatnonzero(g(ts) <= 0)
        if neg.size and neg[0] > 0:
            root = brentq(lambda tt: float(g(np.array(tt))), ts[neg[0] - 1],
                          ts[neg[0]], xtol=1e-15, rtol=4 * np.finfo(float).eps)
            best = min(best, (root, c))
    tau, c = best
    if c is None or tau > cap:
        return None
    sc = cfg[j[c]]
    r1 = float(sc.r_of_point(p + tau * v - off[c]))
    _, t1, n1, _ = sc.frame(r1)
    v_out = v - 2.0 * (v @ n1) * n1
    return j[c], tau, r1, math.atan2(v_out @ t1, v_out @ n1)


@pytest.mark.parametrize("cap", [3.0, 50.0])
def test_batch_matches_brute_force_on_profile_config(cap):
    cfg = profile_four_disk()
    rng = np.random.default_rng(7)
    n = 2000
    idx = rng.integers(0, len(cfg), n)
    r = rng.random(n) * np.array([cfg[int(j)].L for j in idx])
    phi = rng.uniform(-math.pi / 2, math.pi / 2, n)
    jj, r1, p1, tau, ok = ClassicalMap(cfg, flight_cap=cap).forward_batch(
        idx, r, phi)
    images = _images(cfg, cap)
    n_prof = 0
    for k in range(n):
        ref = _first_hit(cfg, images, int(idx[k]), r[k], phi[k], cap)
        assert ok[k] == (ref is not None)
        if ref is None:
            continue
        j, t, rr, pp = ref
        L = cfg[j].L
        dr = abs(r1[k] - rr) % L
        assert jj[k] == j
        assert abs(tau[k] - t) <= 1e-12
        assert min(dr, L - dr) <= 1e-12
        assert abs(p1[k] - pp) <= 1e-12
        n_prof += j == 0 or idx[k] == 0
    assert n_prof > n // 4


def test_grazing_dip_between_chord_samples_is_hit():
    """A ray that cuts 1e-9 deep into the profile, for less than a chord
    sample spacing, still hits it where its gap first changes sign."""
    cfg = profile_four_disk()
    sc = cfg[0]
    p0, t0, n0, _ = sc.frame(0.4)
    q = p0 - 0.5 * t0 - 1e-9 * n0 + (1.0, 1.0)
    t, j, off = _first_hits(cfg, q[None], t0[None], 3.0)

    def g(tt):
        return float(sc.gap(q + tt * t0 - (1.0, 1.0)))

    assert g(0.5) < 0 < g(0.49)
    root = brentq(g, 0.49, 0.5, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    assert (j[0], tuple(off[0])) == (0, (1.0, 1.0))
    assert abs(t[0] - root) <= 1e-12
