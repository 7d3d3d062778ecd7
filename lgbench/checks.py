"""Correctness checks of the benchmark, independent of the program.

Every check returns a list of problems (empty when the value is right).
References are computed here from the fixture data in closed form, or
are properties the method must have.
"""

import math

# Santalo tolerance: 5 standard errors with sigma_tau <= 0.15, an upper
# bound on the free-path standard deviation of four_disk (0.126 measured
# on 4e5 invariant samples).
SIGMA_TAU_BOUND = 0.15
SANTALO_Z = 5.0

GRID_FLOOR = 2.0 ** -20  # smallest epsilon of the map-distance grid


def santalo_mean_flight(config_dict):
    """pi |Q| / |dQ| for an all-circle config on the unit torus."""
    area = perimeter = 0.0
    for s in config_dict["scatterers"]:
        if s.get("cos_coeffs") or s.get("sin_coeffs"):
            raise ValueError("Santalo reference needs circular scatterers")
        area += math.pi * s["R"] ** 2
        perimeter += 2.0 * math.pi * s["R"]
    return math.pi * (1.0 - area) / perimeter


def santalo_tolerance(n_samples):
    return SANTALO_Z * SIGMA_TAU_BOUND / math.sqrt(n_samples)


def check_map_report(rep, reference, n_samples):
    """`lorentzgas map` output: mean flight, inverse and measure errors."""
    out = []
    tol = santalo_tolerance(n_samples)
    if not abs(rep["mean_flight"] - reference) <= tol:
        out.append(f"mean flight {rep['mean_flight']:.6f} vs Santalo "
                   f"{reference:.6f} (tol {tol:.2e})")
    if rep["ok_fraction"] != 1.0:
        out.append(f"map lost {1.0 - rep['ok_fraction']:.2e} of the samples")
    if not rep["invertibility_error"] <= 1e-9:
        out.append(f"invertibility error {rep['invertibility_error']:.2e}")
    if not rep["measure_jacobian_error"] <= 1e-8:
        out.append(f"measure-Jacobian error "
                   f"{rep['measure_jacobian_error']:.2e}")
    return out


def moduli(eigenvalues):
    """Sorted (descending) moduli of [[re, im], ...] eigenvalue pairs."""
    return sorted((math.hypot(re, im) for re, im in eigenvalues),
                  reverse=True)


def check_spectrum(rep, label):
    """Leading eigenvalue 1, stochastic bound on every modulus, a gap."""
    out = []
    lam0 = rep["eigenvalues"][0]
    if not math.hypot(lam0[0] - 1.0, lam0[1]) <= 1e-8:
        out.append(f"{label}: leading eigenvalue {lam0} is not 1")
    top = max(moduli(rep["eigenvalues"]))
    if not top <= 1.0 + 1e-8:
        out.append(f"{label}: eigenvalue modulus {top:.10f} above 1")
    if not rep["gap"] > 0.0:
        out.append(f"{label}: no spectral gap ({rep['gap']})")
    if not rep["row_sum_defect"] <= 1e-12:
        out.append(f"{label}: row sums off by {rep['row_sum_defect']:.2e}")
    return out


def check_continuity(base, shifted, label, tol=0.1):
    """Sorted leading moduli of a shifted copy stay within tol of base."""
    m0, m1 = moduli(base["eigenvalues"]), moduli(shifted["eigenvalues"])
    worst = max(abs(a - b) for a, b in zip(m0, m1))
    if len(m0) != len(m1) or not worst <= tol:
        return [f"{label}: leading moduli moved by {worst:.3f} (> {tol})"]
    return []


def check_orbit_stats(stats, n_points, n_steps):
    """limit_stats of sin(phi): no lost orbit, mean 0, stable sigma^2."""
    out = []
    if stats["alive_fraction"] != 1.0:
        out.append(f"orbits lost: alive {stats['alive_fraction']}")
    s2 = [v for _, v in sorted(stats["sigma2"].items())]
    if len(s2) != 2 or not min(s2) > 0.0:
        return out + [f"bad sigma^2 estimates {s2}"]
    se = math.sqrt(max(s2) / (n_points * n_steps))
    if not abs(stats["mean"]) <= 5.0 * se:
        out.append(f"mean of sin(phi) {stats['mean']:.2e} is more than "
                   f"5 standard errors ({se:.2e}) from 0")
    if not abs(s2[0] - s2[1]) <= 0.15 * max(s2):
        out.append(f"sigma^2 disagrees across batch scales: {s2}")
    return out


def decay_rate(c):
    """Least-squares rate r of |C_n| ~ exp(-r n) over n = 0..len(c)-1."""
    logs = [math.log(abs(x)) for x in c]
    n_mean = (len(c) - 1) / 2.0
    y_mean = sum(logs) / len(c)
    slope = (sum((n - n_mean) * (y - y_mean) for n, y in enumerate(logs))
             / sum((n - n_mean) ** 2 for n in range(len(c))))
    return -slope


def check_correlations(corr, n_points, n_max):
    """C_0 = Var sin(phi) = 1/3, and decay below the noise before n_max
    at a positive rate fitted here over the leading run above the noise."""
    out = []
    c = list(corr["C_n"])
    # Var of sin^2(phi) for sin(phi) uniform on [-1, 1] is 4/45
    tol = 5.0 * math.sqrt(4.0 / 45.0 / n_points)
    if not abs(c[0] - 1.0 / 3.0) <= tol:
        out.append(f"C_0 = {c[0]:.4f}, closed form 1/3 (tol {tol:.3f})")
    n_below = corr["n_below_noise"]
    if not n_below <= n_max:
        out.append(f"correlations stay above noise up to n_max={n_max}")
        return out
    # C_0 .. C_{n_below - 1} lie above the noise
    if n_below < 2 or 0.0 in c[:n_below]:
        out.append(f"no decay rate: C_n above the noise only for "
                   f"n < {n_below}")
        return out
    rate = decay_rate(c[:n_below])
    if not rate > 0.0:
        out.append(f"|C_n| for n < {n_below} decays at rate {rate:.3f}, "
                   "not a positive one")
    if math.isfinite(corr["rate"]) and not corr["rate"] > 0.0:
        out.append(f"the program's decay rate {corr['rate']} is not "
                   "positive")
    return out


def potential_energy(force, q):
    """U(q) = eps * sum(ac cos 2pi(m x + n y) + as sin 2pi(m x + n y))."""
    u = 0.0
    for m, n, ac, asn in force["modes"]:
        ph = 2.0 * math.pi * (m * q[0] + n * q[1])
        u += ac * math.cos(ph) + asn * math.sin(ph)
    return force["epsilon"] * u


def energy(force, q, p):
    return 0.5 * (p[0] * p[0] + p[1] * p[1]) + potential_energy(force, q)


def check_energy(e0, e1, tol=1e-9):
    """Launch on the level E = 1/2 and conservation along the flight."""
    out = []
    if not abs(e0 - 0.5) <= 1e-12:
        out.append(f"launch energy {e0!r} is not 1/2")
    if not abs(e1 - e0) <= tol:
        out.append(f"energy drift {abs(e1 - e0):.2e} over one flight")
    return out


def phase_error(L, a, b):
    """Distance of two (r, phi) points on a scatterer of perimeter L."""
    dr = abs(a[0] - b[0]) % L
    return math.hypot(min(dr, L - dr), a[1] - b[1])


def check_roundtrip(err, tol=1e-9):
    if not err <= tol:
        return [f"backward(forward(x)) misses x by {err:.2e}"]
    return []


def check_fd(J, Jfd, tol=1e-4):
    """Differential vs central differences, relative to max(|Jfd|, 1)."""
    scale = max(max(abs(v) for row in Jfd for v in row), 1.0)
    err = max(abs(J[i][j] - Jfd[i][j]) for i in range(2) for j in range(2))
    if not err / scale <= tol:
        return [f"dt differs from central differences by {err / scale:.2e}"]
    return []


def check_verify_report(rep):
    """H1-H5 all pass, H1 without failures, eta of H5 equal to 1."""
    out = []
    hyp = rep["hypotheses"]
    failed = sorted(k for k, v in hyp.items() if not v["passed"])
    if failed or not rep["all_passed"] or sorted(hyp) != [
            "H1", "H2", "H3", "H4", "H5"]:
        out.append(f"hypotheses failed or missing: {failed or sorted(hyp)}")
    if hyp.get("H1", {}).get("constants", {}).get("failures") != 0:
        out.append("H1 reports cone-invariance failures")
    eta = hyp.get("H5", {}).get("constants", {}).get("eta_measured", math.nan)
    if not abs(eta - 1.0) <= 1e-8:
        out.append(f"H5 eta {eta!r} is not 1 (the map preserves mu)")
    return out


def check_self_distance(rep):
    if not (rep["epsilon_star"] == GRID_FLOOR and rep["mask_area"] == 0.0):
        return [f"self distance {rep['epsilon_star']!r} (mask "
                f"{rep['mask_area']}) is not the grid floor 2^-20"]
    return []


def check_shifted_distance(rep):
    eps = rep["epsilon_star"]
    if not GRID_FLOOR < eps < 0.25:
        return [f"shifted distance {eps!r} outside (2^-20, 0.25)"]
    return []


def check_knot_landing(root_scatterer, root_interval, root_phi_at, L,
                       image, tol=1e-4):
    """A knot pushed forward to the root level lies on the root curve.

    Knots of unsplit pieces are exact preimages (they land within 1e-12);
    pieces split at the length cap are re-sampled on their cubic spline,
    which at depth 2 puts knots up to 1e-5 off.
    """
    j, r, phi = image
    if j != root_scatterer:
        return [f"knot lands on scatterer {j}, root is on {root_scatterer}"]
    a, b = root_interval
    r = r + L if r < a - tol else r
    off = max(a - r, r - b, 0.0)
    dphi = abs(phi - root_phi_at(r))
    if not (off <= tol and dphi <= tol):
        return [f"knot lands {max(off, dphi):.2e} off the root curve"]
    return []
