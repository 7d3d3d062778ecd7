"""Each correctness check passes the right value and fails a wrong one."""

import json
import math
import os

import checks
import tracing
import workloads

FOUR_DISK = {"scatterers": [
    {"R": 0.3, "center": [0.0, 0.0]}, {"R": 0.3, "center": [0.5, 0.5]},
    {"R": 0.15, "center": [0.0, 0.5]}, {"R": 0.15, "center": [0.5, 0.0]}]}
N_MAP = workloads.SIZES["ulam_spectra"]["map_samples"]


def test_santalo_reference_of_four_disk():
    assert abs(checks.santalo_mean_flight(FOUR_DISK) - 0.162856) < 1e-6


def map_report(mean_flight, inv=1e-12, det=1e-12, ok=1.0):
    return {"mean_flight": mean_flight, "ok_fraction": ok,
            "invertibility_error": inv, "measure_jacobian_error": det}


def test_map_report_catches_a_santalo_mean_one_percent_off():
    ref = checks.santalo_mean_flight(FOUR_DISK)
    assert checks.check_map_report(map_report(ref), ref, N_MAP) == []
    assert checks.check_map_report(map_report(1.01 * ref), ref, N_MAP)
    assert checks.check_map_report(map_report(0.99 * ref), ref, N_MAP)


def test_map_report_catches_inverse_and_measure_errors():
    ref = checks.santalo_mean_flight(FOUR_DISK)
    assert checks.check_map_report(map_report(ref, inv=2e-9), ref, N_MAP)
    assert checks.check_map_report(map_report(ref, det=2e-8), ref, N_MAP)
    assert checks.check_map_report(map_report(ref, ok=0.999), ref, N_MAP)


def spectrum_report(eigs, gap=0.1):
    return {"eigenvalues": eigs, "gap": gap, "row_sum_defect": 1e-15}


GOOD_EIGS = [[1.0, 0.0], [0.9, 0.0], [0.5, 0.4], [0.5, -0.4]]


def test_spectrum_catches_a_leading_modulus_of_1_01():
    assert checks.check_spectrum(spectrum_report(GOOD_EIGS), "g") == []
    assert checks.check_spectrum(
        spectrum_report([[1.01, 0.0]] + GOOD_EIGS[1:]), "g")
    assert checks.check_spectrum(
        spectrum_report(GOOD_EIGS[:1] + [[0.0, 1.01]] + GOOD_EIGS[2:]), "g")
    assert checks.check_spectrum(spectrum_report(GOOD_EIGS, gap=0.0), "g")


def test_continuity_catches_a_jump_of_the_leading_moduli():
    base = spectrum_report(GOOD_EIGS)
    near = spectrum_report([[1.0, 0.0], [0.95, 0.0], [0.5, 0.41],
                            [0.5, -0.41]])
    far = spectrum_report([[1.0, 0.0], [0.7, 0.0], [0.5, 0.4], [0.5, -0.4]])
    assert checks.check_continuity(base, near, "g") == []
    assert checks.check_continuity(base, far, "g")


def test_energy_catches_a_drift_of_1e_6():
    assert checks.check_energy(0.5, 0.5 + 1e-12) == []
    assert checks.check_energy(0.5, 0.5 + 1e-6)
    assert checks.check_energy(0.5 + 1e-6, 0.5 + 1e-6)


def test_energy_is_the_closed_form_of_the_fixture_potential():
    force = {"epsilon": 0.5, "modes": [[1, 0, 1.0, 0.0], [0, 1, 0.0, 2.0]]}
    q = (0.25, 0.125)
    u = 0.5 * (math.cos(math.pi / 2) + 2.0 * math.sin(math.pi / 4))
    assert abs(checks.potential_energy(force, q) - u) < 1e-15
    assert abs(checks.energy(force, q, (0.6, 0.8)) - (0.5 + u)) < 1e-15


def test_roundtrip_catches_an_error_of_1e_6():
    err = checks.phase_error(2.0, (1.999999999999, 0.3), (1e-12, 0.3))
    assert err < 1e-11
    assert checks.check_roundtrip(err) == []
    assert checks.check_roundtrip(1e-6)


def test_fd_check_catches_a_wrong_differential():
    J = [[-2.0, -0.5], [-9.0, -3.0]]
    assert checks.check_fd(J, [[-2.0, -0.5], [-9.0, -3.0 + 1e-7]]) == []
    assert checks.check_fd(J, [[-2.0, -0.5], [-9.0, -3.0 + 1e-2]])


def test_self_distance_catches_a_value_above_the_grid_floor():
    rep = {"epsilon_star": 2.0 ** -20, "mask_area": 0.0}
    assert checks.check_self_distance(rep) == []
    assert checks.check_self_distance({**rep, "epsilon_star": 2.0 ** -19})
    assert checks.check_self_distance({**rep, "mask_area": 0.01})


def test_shifted_distance_must_sit_between_floor_and_a_quarter():
    assert checks.check_shifted_distance({"epsilon_star": 2.0 ** -5}) == []
    assert checks.check_shifted_distance({"epsilon_star": 2.0 ** -20})
    assert checks.check_shifted_distance({"epsilon_star": math.inf})


def verify_report(eta=1.0, h1_failures=0, passed=True):
    hyp = {f"H{i}": {"passed": True, "constants": {}} for i in range(1, 6)}
    hyp["H1"]["constants"]["failures"] = h1_failures
    hyp["H5"]["constants"]["eta_measured"] = eta
    hyp["H3"]["passed"] = passed
    return {"all_passed": passed, "hypotheses": hyp}


def test_verify_report_checks():
    assert checks.check_verify_report(verify_report()) == []
    assert checks.check_verify_report(verify_report(eta=1.0 + 1e-6))
    assert checks.check_verify_report(verify_report(h1_failures=1))
    assert checks.check_verify_report(verify_report(passed=False))


def test_orbit_stats_checks():
    good = {"alive_fraction": 1.0, "mean": 1e-4,
            "sigma2": {100: 0.25, 1000: 0.26}}
    assert checks.check_orbit_stats(good, 2000, 1000) == []
    assert checks.check_orbit_stats({**good, "alive_fraction": 0.999},
                                    2000, 1000)
    assert checks.check_orbit_stats({**good, "mean": 0.01}, 2000, 1000)
    assert checks.check_orbit_stats(
        {**good, "sigma2": {100: 0.2, 1000: 0.26}}, 2000, 1000)


def test_decay_rate_is_the_exponential_rate():
    c = [(-1) ** n * math.exp(-0.7 * n) / 3.0 for n in range(4)]
    assert abs(checks.decay_rate(c) - 0.7) < 1e-12


def test_correlation_checks():
    good = {"C_n": [0.333, -0.05, 0.017, 0.001, 0.0005], "rate": math.nan,
            "n_below_noise": 3}
    assert checks.check_correlations(good, 5000, 4) == []
    assert checks.check_correlations({**good, "C_n": [0.36] + good["C_n"][1:]},
                                     5000, 4)
    assert checks.check_correlations({**good, "n_below_noise": 5}, 5000, 4)
    assert checks.check_correlations({**good, "rate": -0.1}, 5000, 4)
    # only C_0 above the noise: no rate to fit
    assert checks.check_correlations({**good, "n_below_noise": 1}, 5000, 4)
    # |C_n| that grows over the leading run
    growing = {**good, "C_n": [0.333, -0.2, 0.4, 0.001, 0.0005]}
    assert checks.check_correlations(growing, 5000, 4)


def test_knot_landing():
    def on_root(r):
        return 0.1 + 2.0 * r

    ok = checks.check_knot_landing(1, (0.2, 0.3), on_root, 1.0,
                                   (1, 0.25, on_root(0.25) + 1e-9))
    assert ok == []
    assert checks.check_knot_landing(1, (0.2, 0.3), on_root, 1.0,
                                     (1, 0.25, on_root(0.25) + 1e-3))
    assert checks.check_knot_landing(1, (0.2, 0.3), on_root, 1.0,
                                     (1, 0.4, on_root(0.4)))
    assert checks.check_knot_landing(1, (0.2, 0.3), on_root, 1.0,
                                     (0, 0.25, on_root(0.25)))


def test_benchmark_json_lists_every_metric():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.SIZES)
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "run_s", "phase_points_per_s", "peak_rss_mb"}
