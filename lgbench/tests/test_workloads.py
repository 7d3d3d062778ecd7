"""Every workload runs to its end at a tiny size, traced, and its trace
counts agree with counts derived from the workload sizes."""

import os
import shutil
import subprocess
import sys

import pytest

import run
import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def traced(name, tmp_path, seed=3):
    """A traced run: one untraced round, then one traced round."""
    sizes = workloads.TINY[name]
    wl = workloads.WORKLOADS[name](seed, sizes, str(tmp_path))
    res = run.measure(name, seed, 0, 1, sizes, str(tmp_path), speed.Probe())
    assert res["correct"]
    return wl, res["attempted"], res["failed"], {
        k: v["value"] for k, v in res["metrics"].items()}


def test_ulam_spectra(tmp_path):
    wl, attempted, failed, m = traced("ulam_spectra", tmp_path)
    n_spectra = 1 + len(workloads.TINY["ulam_spectra"]["shifts"])
    assert (attempted, failed) == (2 * (1 + n_spectra), 0)
    assert m["classical_map.forward_batch.points"] == wl.points
    # one in `map`, two in every `spectrum`
    assert m["geometry.config_metrics.calls"] == 1 + 2 * n_spectra
    assert m["cli.spectrum.s"] > 0 and m["cli.map.s"] > 0


def test_orbit_stats(tmp_path):
    wl, attempted, failed, m = traced("orbit_stats", tmp_path)
    assert (attempted, failed) == (4, 0)
    assert m["classical_map.forward_batch.points"] == wl.points
    assert m["classical_map.forward_batch.missed"] == 0
    assert m["geometry.config_metrics.calls"] == 0


def test_forced_roundtrip(tmp_path):
    wl, attempted, failed, m = traced("forced_roundtrip", tmp_path)
    n_known = sum(i in wl.indices for i in workloads.KNOWN_BACKWARD_FAULTS)
    assert n_known == 1
    assert (attempted, failed) == (2 * wl.points, 2 * n_known)
    assert m["forced_dynamics.ForcedMap.backward.calls"] == wl.points
    assert m["forced_dynamics.ForcedMap.backward.failed"] == n_known
    assert m["geometry.config_metrics.calls"] == 0
    assert m["classical_map.forward_batch.calls"] == 0
    assert m["forced_dynamics.force_evals_per_flight"] > 0


def test_hypotheses(tmp_path):
    wl, attempted, failed, m = traced("hypotheses", tmp_path)
    assert failed == 0
    assert attempted == 2 * (3 + workloads.TINY["hypotheses"]["curves"])
    # one in `verify`, three in every `distance`
    assert m["geometry.config_metrics.calls"] == 7
    assert m["curve_machinery.pullback_generation.pieces"] > 0
    assert m["cli.verify.s"] > 0 and m["cli.distance.s"] > 0


def test_tracer_restores_every_binding():
    import tracing
    from lorentzgas import cli, geometry, perturbation_metric
    from lorentzgas import transfer_spectrum
    orig = geometry.config_metrics
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (geometry, cli, perturbation_metric, transfer_spectrum):
            assert mod.config_metrics is not orig
            assert mod.config_metrics.__wrapped__ is orig
    finally:
        tracer.uninstall()
    for mod in (geometry, cli, perturbation_metric, transfer_spectrum):
        assert mod.config_metrics is orig


@pytest.mark.parametrize("argv", [["--workload", "orbit_stats"],
                                  ["--workload", "all"]])
def test_fails_without_the_program(tmp_path, argv):
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "lgbench"), tmp_path / "lgbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "lgbench/run.py", *argv, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
