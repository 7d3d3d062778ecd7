"""End-to-end acceptance checks.

Each check prints one `ACCEPTANCE <n> PASS/FAIL` line together with its
runtime and stated limit.  Tolerances are pinned in the assertions; where
a nominal sample count cannot fit the runtime limit (the forced map
integrates an ODE per flight), the reduced count is stated next to the
assertion.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from lorentzgas import ScattererConfig, ClassicalMap
from lorentzgas.classical_map import PhasePoint
from lorentzgas.cli import fixture_path, load_forced
from lorentzgas.curve_machinery import (NormParams, sample_stable_curves,
                                        pullback_generation, growth_sums)
from lorentzgas.errors import LorentzGasError
from lorentzgas.forced_dynamics import ForceField, KickMap, ForcedMap
from lorentzgas.geometry import config_metrics
from lorentzgas.hyperbolicity import (ConeField, check_cone_invariance,
                                      expansion_stats, distortion_constant,
                                      one_step_expansion_sum, calibrate_delta0)
from lorentzgas.perturbation_metric import map_distance, forced_displacement
from lorentzgas.transfer_spectrum import (build_ulam, spectrum, track_path,
                                          random_operator, operator_distance,
                                          sample_invariant, correlations,
                                          limit_stats)


@contextlib.contextmanager
def acceptance(capsys, n, limit_s):
    """Print the ACCEPTANCE verdict line and enforce the runtime limit."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {n} FAIL")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < limit_s else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} {verdict} "
              f"(runtime {elapsed:.1f}s, limit {limit_s:.0f}s)")
    assert elapsed < limit_s, f"runtime {elapsed:.1f}s exceeds {limit_s}s"


def four_disk(shift=0.0):
    return ScattererConfig.from_dict({"scatterers": [
        {"R": 0.30, "center": [0.0, 0.0]},
        {"R": 0.30, "center": [0.5, 0.5]},
        {"R": 0.15, "center": [0.0 + shift, 0.5]},
        {"R": 0.15, "center": [0.5, 0.0]}]})


@pytest.fixture(scope="module")
def classical():
    cfg = four_disk()
    met = config_metrics(cfg)
    return cfg, met, ClassicalMap(cfg, flight_cap=3.0)


@pytest.fixture(scope="module")
def forced():
    TF, _ = load_forced(fixture_path("forced_four_disk"), 3.0)
    return TF


def _roundtrip_err(cfg, x, back):
    L = cfg[x.scatterer].L
    dr = abs(back.r - x.r)
    return math.hypot(min(dr, L - dr), back.phi - x.phi)


def test_criterion_01_measure_invariance(classical, capsys):
    """det DT * cos(phi1)/cos(phi) == 1 on non-grazing samples."""
    with acceptance(capsys, 1, 10.0):
        two_disk = ScattererConfig.from_dict({"scatterers": [
            {"R": 0.35, "center": [0.0, 0.0]},
            {"R": 0.35, "center": [0.5, 0.5]}]})
        for cfg in (classical[0], two_disk):
            T = ClassicalMap(cfg, flight_cap=3.0)
            rng = np.random.default_rng(10)
            idx, r, phi = sample_invariant(cfg, 10000, rng)
            keep = (math.pi / 2 - np.abs(phi)) > 1e-2
            idx, r, phi = idx[keep], r[keep], phi[keep]
            jj, r1, p1, tau, ok = T.forward_batch(idx, r, phi)
            R = np.array([s.R for s in cfg.scatterers])
            K, K1 = 1.0 / R[idx], 1.0 / R[jj]
            c, c1 = np.cos(phi), np.cos(p1)
            J11 = -(tau * K + c) / c1
            J12 = -tau / c1
            J21 = -(K1 * (tau * K + c) + K * c1) / c1
            J22 = -(tau * K1 + c1) / c1
            det = J11 * J22 - J12 * J21
            err = np.abs(np.abs(det) * c1 / c - 1.0)[ok]
            assert err.size > 9000
            assert err.max() <= 1e-8

            # tie the batch entries to the per-point differential API
            worst = 0.0
            for i in range(0, err.size, max(1, err.size // 250)):
                x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
                try:
                    y = T.forward(x).next
                    jac = T.dt(x)
                except LorentzGasError:
                    continue
                worst = max(worst, abs(abs(jac.det) * math.cos(y.phi)
                                       / math.cos(x.phi) - 1.0))
            assert worst <= 1e-8


def test_criterion_02_invertibility(classical, forced, capsys):
    """backward(forward(x)) == x, classical and forced."""
    with acceptance(capsys, 2, 30.0):
        cfg, _, T = classical
        rng = np.random.default_rng(11)
        idx, r, phi = sample_invariant(cfg, 10000, rng)
        jj, r1, p1, tau, ok = T.forward_batch(idx, r, phi)
        bi, br, bp, _, bok = T.backward_batch(jj[ok], r1[ok], p1[ok])
        Ls = np.array([s.L for s in cfg.scatterers])
        dr = np.abs(br - r[ok])
        dr = np.minimum(dr, Ls[idx[ok]] - dr)
        err = np.hypot(dr, bp - phi[ok])
        good = bok & (bi == idx[ok])
        assert good.mean() > 0.97
        assert err[good].max() <= 1e-9

        # forced roundtrips: each integrates two ODE flights (about 350
        # roundtrips/s on a 2-vCPU VM), so the nominal 10^4 would take
        # the whole 30 s runtime cap; 300 samples here.
        fcfg = forced.config
        rng = np.random.default_rng(1)
        fi, fr, fp = sample_invariant(fcfg, 300, rng)
        worst = 0.0
        n = 0
        for i in range(300):
            x = PhasePoint(int(fi[i]), float(fr[i]), float(fp[i]))
            try:
                y = forced.forward(x).next
                back = forced.backward(y).next
            except LorentzGasError:
                continue
            worst = max(worst, _roundtrip_err(fcfg, x, back))
            n += 1
        assert n > 250
        assert worst <= 1e-9


def _fd_jacobian(map_def, cfg, x, h=1e-6):
    """Central-difference differential, or None at a branch change."""
    y0 = map_def.forward(x).next
    cols = []
    for dr_, dp_ in ((h, 0.0), (0.0, h)):
        yp = map_def.forward(PhasePoint(x.scatterer, x.r + dr_,
                                        x.phi + dp_)).next
        ym = map_def.forward(PhasePoint(x.scatterer, x.r - dr_,
                                        x.phi - dp_)).next
        if yp.scatterer != y0.scatterer or ym.scatterer != y0.scatterer:
            return None
        d1 = yp.r - ym.r
        if abs(d1) > cfg[y0.scatterer].L / 2:
            return None
        cols.append([d1 / (2 * h), (yp.phi - ym.phi) / (2 * h)])
    return np.array(cols).T


def test_criterion_03_jacobians_match_fd(classical, forced, capsys):
    """Closed-form/variational differentials vs central differences."""
    with acceptance(capsys, 3, 60.0):
        for map_def, label in ((classical[2], "classical"),
                               (forced, "forced")):
            cfg = map_def.config
            rng = np.random.default_rng(7)
            idx, r, phi = sample_invariant(cfg, 4000, rng)
            worst = 0.0
            n = 0
            for i in range(4000):
                if n >= 1000:
                    break
                if math.pi / 2 - abs(phi[i]) < 0.05:
                    continue
                x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
                try:
                    Jfd = _fd_jacobian(map_def, cfg, x)
                    if Jfd is None:
                        continue
                    J = map_def.dt(x).m
                except LorentzGasError:
                    continue
                rel = np.abs(J - Jfd).max() / max(np.abs(Jfd).max(), 1.0)
                worst = max(worst, rel)
                n += 1
            assert n >= 400, label
            assert worst <= 1e-4, (label, worst)


def test_criterion_04_cone_invariance_and_expansion(classical, forced,
                                                    capsys):
    with acceptance(capsys, 4, 120.0):
        cfg, met, T = classical
        cone = ConeField.unstable(met)
        inv = check_cone_invariance(T, cone, n_samples=100000, seed=0)
        assert inv["failures"] == 0
        assert inv["checked"] > 150000  # several slopes per sample

        exp = expansion_stats(T, cone, n_samples=100000, seed=0)
        assert exp["Lambda_measured"] >= 1.0 + met.K_min * met.tau_min - 1e-6

        # negative control: a strictly narrower cone cannot be invariant
        neg = check_cone_invariance(T, cone.scaled(0.5), n_samples=4000,
                                    seed=1)
        assert neg["failures"] > 0

        # forced map (no batch path): 2000 samples, widened cones
        fmet = config_metrics(forced.config)
        fcone = ConeField.unstable(fmet, eps1=1e-3, c1=2.0, c2=2.0)
        finv = check_cone_invariance(forced, fcone, n_samples=2000, seed=0)
        assert finv["failures"] == 0
        fexp = expansion_stats(forced, fcone, n_samples=2000, seed=0)
        assert fexp["Lambda_measured"] >= \
            1.0 + fmet.K_min * fmet.tau_min / 3.0 - 1e-6


def test_criterion_05_one_step_expansion(classical, capsys):
    """Calibrated cutoff length keeps the one-step sums below 0.9."""
    with acceptance(capsys, 5, 120.0):
        cfg, met, T = classical
        cal, _ = calibrate_delta0(T, met, n_curves=30, target=0.85,
                                  iters=8, seed=0)
        # halve the calibrated cutoff: the calibration ensemble cannot
        # see the tail of the length distribution over 10^3 curves
        delta0 = cal / 2
        base = NormParams()
        p = NormParams(delta0=delta0, eps0=min(base.eps0, delta0 / 2))
        curves = sample_stable_curves(cfg, met, 1000, p, seed=1)
        worst = 0.0
        worst_sigma = 0.0
        for W in curves:
            s = one_step_expansion_sum(T, W, p, sigma=5.0 / 6.0)
            worst = max(worst, s["sum_star"])
            worst_sigma = max(worst_sigma, s["sum_sigma"])
        assert len(curves) == 1000
        assert worst <= 0.9
        assert math.isfinite(worst_sigma)


def test_criterion_06_distortion_stability(classical, forced, capsys):
    """Distortion estimate stable under pair-density doubling."""
    with acceptance(capsys, 6, 120.0):
        cfg, met, T = classical
        p = NormParams()
        curves = sample_stable_curves(cfg, met, 30, p, seed=3)
        lo = distortion_constant(T, curves, n=5, pairs_per_curve=40, seed=0)
        hi = distortion_constant(T, curves, n=5, pairs_per_curve=80, seed=0)
        drift = abs(hi["C_d_W"] - lo["C_d_W"]) / lo["C_d_W"]
        assert drift <= 0.20, (lo["C_d_W"], hi["C_d_W"])
        # the measure Jacobian is identically 1 here, so its distortion
        # is pure roundoff: assert smallness, not relative stability
        assert max(lo["C_d_mu"], hi["C_d_mu"]) < 1e-8

        fcurves = sample_stable_curves(forced.config,
                                       config_metrics(forced.config),
                                       12, p, seed=3)
        flo = distortion_constant(forced, fcurves, n=3, pairs_per_curve=30,
                                  seed=0)
        fhi = distortion_constant(forced, fcurves, n=3, pairs_per_curve=60,
                                  seed=0)
        for key in ("C_d_W", "C_d_mu"):
            drift = abs(fhi[key] - flo[key]) / flo[key]
            assert drift <= 0.20, (key, flo[key], fhi[key])


def test_criterion_07_growth_sums(classical, capsys):
    """Uniform boundedness and geometric decay of the generation sums."""
    with acceptance(capsys, 7, 300.0):
        cfg, met, T = classical
        p = NormParams()
        curves = sample_stable_curves(cfg, met, 12, p, seed=2)
        curves.sort(key=lambda w: w.length)

        # moderate seed: pieces go long, the weighted piece count sum_b
        # must stay uniformly bounded across levels 1..8
        tree = pullback_generation(curves[1], T, 8, p)
        gs = growth_sums(tree, sigma=5.0 / 6.0)
        sb = [g["sum_b"] for g in gs if g["level"] >= 1]
        assert len(sb) == 8
        assert max(sb) / min(sb) < 2.0, sb

        # very short seed: every piece stays short, so the never-long
        # sum_a decays geometrically
        tree_s = pullback_generation(curves[0], T, 8, p)
        gs_s = growth_sums(tree_s, sigma=5.0 / 6.0)
        sa = np.array([g["sum_a"] for g in gs_s])
        pos = sa > 0
        assert pos.sum() >= 4
        lev = np.arange(len(sa))[pos]
        ratio = math.exp(np.polyfit(lev, np.log(sa[pos]), 1)[0])

        # one-step contraction factor measured on a curve ensemble
        theta = 0.0
        for W in curves:
            theta = max(theta, one_step_expansion_sum(T, W, p)["sum_star"])
        assert ratio <= theta + 0.05, (ratio, theta)


def test_criterion_08_perturbation_scaling(classical, capsys):
    """Map distance grows like a power of the scatterer shift."""
    with acceptance(capsys, 8, 600.0):
        cfg, met, T = classical
        self_rep = map_distance(T, T, grid=96)
        assert self_rep.epsilon_star == 2.0 ** -20
        assert self_rep.mask_area == 0.0

        gammas = (1e-5, 1e-4, 1e-3, 1e-2)
        eps_star = []
        for g in gammas:
            rep = map_distance(T, ClassicalMap(four_disk(g)), grid=96)
            assert rep.epsilon_star < 0.25
            eps_star.append(rep.epsilon_star)
        assert all(a <= b for a, b in zip(eps_star, eps_star[1:]))
        slope = np.polyfit(np.log(gammas), np.log(eps_star), 1)[0]
        assert slope >= 0.30, (slope, eps_star)


def test_criterion_09_forced_smallness(classical, capsys):
    """Forced-vs-free displacement scales like a power of the forcing."""
    with acceptance(capsys, 9, 300.0):
        cfg, met, T0 = classical
        modes = [(1, 0, 0.7, 0.2), (0, 1, -0.4, 0.5), (1, 1, 0.3, -0.3)]
        eps_list = (1e-5, 1e-4, 1e-3, 1e-2)
        disp = []
        for eps in eps_list:
            F = ForceField.potential(eps, modes)
            G = KickMap(eps, cos1=[0.6], sin1=[-0.3], cos2=[0.4],
                        sin2=[0.2])
            TF = ForcedMap(cfg, F, G, flight_cap=3.0)
            worst, n = forced_displacement(TF, T0, eps, grid=24)
            assert n > 50
            assert 0 < worst < 1.0
            disp.append(worst)
        s = np.polyfit(np.log(eps_list), np.log(disp), 1)[0]
        assert s >= 0.45, (s, disp)


def test_criterion_10_spectral_continuity(classical, capsys):
    """Ulam spectrum: leading eigenvalue, gap stability, smooth path."""
    with acceptance(capsys, 10, 900.0):
        T = classical[2]
        s64 = spectrum(build_ulam(T, N=64, S=400, seed=1), k=6, seed=0)
        assert abs(abs(s64.eigenvalues[0]) - 1.0) <= 0.02
        assert s64.gap > 0

        s128 = spectrum(build_ulam(T, N=128, S=400, seed=1), k=6, seed=0)
        assert abs(s128.gap - s64.gap) / s64.gap <= 0.20

        fam = lambda g: ClassicalMap(four_disk(g), flight_cap=3.0)
        recs = track_path(fam, [0.0, 3e-4, 1e-3], N=64, S=400, seed=1)
        drifts = [float(rec["drift"][1]) for rec in recs]
        assert drifts[-1] <= 0.10
        # monotone trend with a small numerical allowance
        assert all(b >= a - 5e-3 for a, b in zip(drifts, drifts[1:]))
        angles = [rec["principal_angle_sin"] for rec in recs]
        assert all(b >= a - 1e-3 for a, b in zip(angles, angles[1:]))
        ranks = {rec["leading_cluster_rank"] for rec in recs}
        assert len(ranks) == 1


def test_criterion_11_random_ensemble(classical, capsys):
    """Degenerate ensembles are exact; distance shrinks with the radius."""
    with acceptance(capsys, 11, 600.0):
        T = ClassicalMap(four_disk(), flight_cap=2.5)
        Tg = ClassicalMap(four_disk(1e-3), flight_cap=2.5)

        op = build_ulam(T, N=8, S=40, seed=3)
        dirac = random_operator([T], nu=[1.0], N=8, S=40, seed=3)
        assert (op.P != dirac.P).nnz == 0

        # a zero-weight member must not change the operator
        degen = random_operator([T, Tg], nu=[1.0, 0.0], N=8, S=40, seed=3)
        assert (op.P != degen.P).nnz == 0

        # uniform weights are the default
        u1 = random_operator([T, Tg], N=8, S=40, seed=4)
        u2 = random_operator([T, Tg], nu=[0.5, 0.5], N=8, S=40, seed=4)
        assert (u1.P != u2.P).nnz == 0

        # common random numbers isolate the radius dependence
        base = random_operator([T, T], nu=[0.5, 0.5], N=16, S=120, seed=5)
        dists = []
        for eps in (1e-4, 1e-3, 1e-2):
            ens = random_operator(
                [ClassicalMap(four_disk(eps), flight_cap=2.5),
                 ClassicalMap(four_disk(-eps), flight_cap=2.5)],
                nu=[0.5, 0.5], N=16, S=120, seed=5)
            dists.append(operator_distance(base, ens)["weighted_l1"])
        assert dists[0] < dists[1] < dists[2], dists
        assert dists[0] < 0.02


def test_criterion_12_statistics(classical, capsys):
    """Variance stability, rate-function shape, correlation decay."""
    with acceptance(capsys, 12, 900.0):
        T = classical[2]
        f = lambda i, r, p: np.sin(p)

        st = limit_stats(T, f, n_points=4000, n_steps=2048, seed=3,
                         batch_scales=(128, 512), ld_ns=(32, 128))
        v = [st["sigma2"][k] for k in sorted(st["sigma2"])]
        assert v[0] > 0
        assert abs(v[1] - v[0]) / v[0] <= 0.15, v
        for curve in st["rate_curves"].values():
            t = np.asarray(curve["t"])
            I = np.asarray(curve["I"])
            m = np.isfinite(I)
            tm, Im = t[m], I[m]
            step = tm[1] - tm[0]
            # convex up to sampling noise, minimized at the mean
            assert np.diff(Im, 2).min() >= -0.05
            assert abs(tm[np.argmin(Im)] - st["mean"]) <= 2 * step

        out = correlations(T, f, f, n_max=24, n_points=400000,
                           n_batches=20, seed=2)
        assert out["n_below_noise"] <= 20
        assert out["rate"] > 0
        assert abs(out["C_n"][0] - 1.0 / 3.0) < 0.05
