"""One batch step for every map: step_batch against the scalar step, and
the hyperbolicity measurements built on it."""

import json
import math

import numpy as np
import pytest

from lorentzgas import ClassicalMap, ScattererConfig, config_metrics
from lorentzgas.classical_map import PhasePoint
from lorentzgas.cli import fixture_path, load_config, load_forced
from lorentzgas.errors import LorentzGasError
from lorentzgas.hyperbolicity import (ConeField, check_cone_invariance,
                                      expansion_stats, measure_jacobian_bound)


def classical_four_disk():
    return ClassicalMap(load_config(fixture_path("four_disk")),
                        flight_cap=3.0)


def profile_four_disk():
    with open(fixture_path("four_disk")) as fh:
        d = json.load(fh)
    d["scatterers"][0].update(kind="profile", cos_coeffs=[0.0, 0.02])
    return ClassicalMap(ScattererConfig.from_dict(d), flight_cap=3.0)


def forced_four_disk():
    return load_forced(fixture_path("forced_four_disk"), 3.0)[0]


MAPS = {"classical": classical_four_disk, "profile": profile_four_disk,
        "forced": forced_four_disk}


def _points(cfg, n, seed):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(cfg), n)
    r = rng.random(n) * cfg.lengths[idx]
    phi = rng.uniform(-1.45, 1.45, n)
    # within 1e-6 of grazing: the forced step has no differential there
    phi[0] = math.pi / 2 - 1e-7
    return idx, r, phi


def _scalar(T, x, direction):
    """(image, differential) from the scalar maps, or None if they fail."""
    try:
        if direction == "forward":
            res, J = T.step(x)
        else:
            res, J = T.backward(x), T.dt(x, direction="backward")
    except LorentzGasError:
        return None
    return res.next, J.m


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("name", sorted(MAPS))
def test_step_batch_is_the_scalar_step(name, direction):
    T = MAPS[name]()
    idx, r, phi = _points(T.config, 20, seed=11)
    jj, r1, phi1, tau, J, ok = T.step_batch(idx, r, phi, direction=direction)
    assert J.shape == (20, 2, 2)
    for k in range(20):
        x = PhasePoint(int(idx[k]), float(r[k]), float(phi[k]))
        ref = _scalar(T, x, direction)
        assert ok[k] == (ref is not None), k
        if ref is None:
            assert np.isnan(J[k]).all()
            continue
        y, m = ref
        assert jj[k] == y.scatterer
        assert abs(r1[k] - y.r) <= 1e-12 and abs(phi1[k] - y.phi) <= 1e-12
        assert np.abs(J[k] - m).max() <= 1e-9 * np.abs(m).max()
    assert ok.sum() >= 15


def test_step_batch_rejects_unknown_direction():
    T = classical_four_disk()
    with pytest.raises(ValueError):
        T.step_batch([0], [0.1], [0.2], direction="sideways")


def test_backward_dt_is_the_reversed_forward_formula():
    """dt(direction="backward") as the time-reversal conjugate of the
    forward differential repeats the float operations of the inverse-map
    formula, so the two agree bit for bit."""
    T = classical_four_disk()
    cfg = T.config
    idx, r, phi = _points(cfg, 200, seed=12)
    for k in range(200):
        x = PhasePoint(int(idx[k]), float(r[k]), float(phi[k]))
        res = T.backward(x)
        y, tau = res.next, res.tau
        K = cfg[x.scatterer].curvature_r(x.r)
        Km = cfg[y.scatterer].curvature_r(y.r)
        c, cm = np.cos(x.phi), np.cos(y.phi)
        m = (-1.0 / cm) * np.array([
            [tau * K + c, -tau],
            [-Km * (tau * K + c) - K * cm, tau * Km + cm]])
        assert np.array_equal(T.dt(x, direction="backward").m, m)


# Values of the scalar-loop and circle-only code these functions replaced,
# on the four_disk fixture (cap 3, unstable cone of its metrics, 2000
# samples) and the forced_four_disk fixture (cap 3, cone widened by
# eps1 = 1e-3, 200 samples), seed 0.
PINNED = {
    "classical": {
        "failures": 0, "checked": 10000, "margin": 0.0963272845782357,
        "Lambda": 1.5337424262081443, "n_samples": 10000,
        "slope": 0.2267633568318727, "intercept": 0.953871816556142,
        "band": 1.7875398372702045, "eta": 1.000000000000158},
    "forced": {
        "failures": 0, "checked": 1000, "margin": 0.13535375214929557,
        "Lambda": 1.5382503003485595, "n_samples": 1000,
        "slope": 0.2567066124174899, "intercept": 0.9210026547826841,
        "band": 1.8264863231172757, "eta": 1.00554516378175},
}


@pytest.mark.parametrize("name", ["classical", "forced"])
def test_hyperbolicity_measurements_pinned(name):
    T = MAPS[name]()
    met = config_metrics(T.config)
    if name == "classical":
        cone, n = ConeField.unstable(met), 2000
    else:
        cone, n = ConeField.unstable(met, eps1=1e-3, c1=2.0, c2=2.0), 200
    inv = check_cone_invariance(T, cone, n_samples=n, seed=0)
    exp = expansion_stats(T, cone, n_samples=n, seed=0)
    mj = measure_jacobian_bound(T, n_samples=n, seed=0)
    want = PINNED[name]
    assert (inv["failures"], inv["checked"], exp["n_samples"]) == (
        want["failures"], want["checked"], want["n_samples"])
    fit = exp["grazing_fit"]
    for got, key in ((inv["worst"]["margin"], "margin"),
                     (exp["Lambda_measured"], "Lambda"),
                     (fit["slope"], "slope"), (fit["intercept"], "intercept"),
                     (fit["band"], "band"), (mj["eta_measured"], "eta")):
        assert got == pytest.approx(want[key], rel=1e-9, abs=0.0), key
