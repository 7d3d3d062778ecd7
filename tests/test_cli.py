"""Command-line interface: manifests, determinism, error codes."""

import json
import os

import pytest

from lorentzgas import cli, curve_machinery
from lorentzgas.cli import main, fixture_path
from lorentzgas.hyperbolicity import HypothesisReport


def run(args):
    return main([str(a) for a in args])


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def test_bundled_fixtures_exist():
    for name in ("four_disk", "two_disk", "forced_four_disk"):
        assert os.path.exists(fixture_path(name))


def test_geom_on_fixture(tmp_path):
    assert run(["--out-dir", tmp_path, "geom", "four_disk"]) == 0
    man = read_manifest(tmp_path)
    assert man["command"] == "geom"
    assert "geom.json" in man["outputs"]
    with open(tmp_path / "geom.json") as fh:
        body = json.load(fh)
    assert body["manifest_digest"] == man["digest"]
    assert body["payload"]["metrics"]["horizon"] == "finite"


def test_reruns_are_bit_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["--seed", 3, "--out-dir", d, "map", "four_disk",
                    "--samples", 500]) == 0
    ma, mb = read_manifest(a), read_manifest(b)
    assert ma["digest"] == mb["digest"]
    assert ma["outputs"] == mb["outputs"]
    assert (a / "map.json").read_bytes() == (b / "map.json").read_bytes()


def test_different_seed_changes_digest(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["--seed", 1, "--out-dir", a, "map", "four_disk", "--samples", 200])
    run(["--seed", 2, "--out-dir", b, "map", "four_disk", "--samples", 200])
    assert read_manifest(a)["digest"] != read_manifest(b)["digest"]


def test_map_report_sanity(tmp_path):
    assert run(["--out-dir", tmp_path, "map", "four_disk",
                "--samples", 500]) == 0
    with open(tmp_path / "map.json") as fh:
        payload = json.load(fh)["payload"]
    assert payload["invertibility_error"] < 1e-9
    assert payload["measure_jacobian_error"] < 1e-8
    assert payload["horizon"] == "finite"


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scatterers": [
        {"R": 0.3, "center": [0.0, 0.0]},
        {"R": 0.3, "center": [0.2, 0.0]}]}))
    assert run(["--out-dir", tmp_path, "geom", bad]) == 2


def test_overlap_through_a_far_lattice_image_exits_2(tmp_path):
    bad = tmp_path / "far.json"
    bad.write_text(json.dumps({"scatterers": [
        {"R": 0.1, "center": [0.9, 0.5]},
        {"R": 0.1, "center": [-0.95, 0.5]}]}))
    assert run(["--out-dir", tmp_path, "geom", bad]) == 2
    assert not (tmp_path / "geom.json").exists()


def test_missing_config_exits_2(tmp_path):
    assert run(["--out-dir", tmp_path, "geom", "no_such_fixture"]) == 2


def test_distance_self_is_floor(tmp_path):
    assert run(["--out-dir", tmp_path, "distance", "four_disk", "four_disk",
                "--grid", 24]) == 0
    with open(tmp_path / "dist.json") as fh:
        payload = json.load(fh)["payload"]
    assert payload["epsilon_star"] == pytest.approx(2.0 ** -20)
    assert payload["mask_area"] == 0.0


def test_verify_reports_failed_hypotheses(tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        rep = HypothesisReport()
        rep.record("H1", True, {}, 10)
        rep.record("H3", False, {}, 10)
        return rep

    monkeypatch.setattr(cli, "verify_hypotheses", failing)
    assert run(["--out-dir", tmp_path, "verify", "four_disk"]) == 1
    assert "report.json" in read_manifest(tmp_path)["outputs"]
    out = capsys.readouterr().out
    assert "['H3']" in out and "H1" not in out


def test_map_on_profile_config(tmp_path):
    with open(fixture_path("four_disk")) as fh:
        d = json.load(fh)
    d["scatterers"][0].update(kind="profile", cos_coeffs=[0, 0.02])
    cfg = tmp_path / "profile.json"
    cfg.write_text(json.dumps(d))
    assert run(["--out-dir", tmp_path, "map", cfg, "--samples", 50]) == 0
    with open(tmp_path / "map.json") as fh:
        payload = json.load(fh)["payload"]
    assert payload["ok_fraction"] == 1.0


def test_forced_subcommand(tmp_path):
    assert run(["--out-dir", tmp_path, "forced", "forced_four_disk",
                "--samples", 20]) == 0
    with open(tmp_path / "forced.json") as fh:
        payload = json.load(fh)["payload"]
    assert payload["samples_used"] > 0
    assert payload["max_energy_drift"] < 1e-9
    assert payload["invertibility_error"] < 1e-7
    assert 0 <= payload["backward_failures"] <= payload["samples_used"]


def test_curves_subcommand(tmp_path):
    assert run(["--out-dir", tmp_path, "curves", "four_disk", "--depth", 2,
                "--curves", 2]) == 0
    man = read_manifest(tmp_path)
    assert "curves.csv" in man["outputs"]
    with open(tmp_path / "curves.csv") as fh:
        first = fh.readline()
    assert first.startswith("# manifest: " + man["digest"])


def test_curves_past_the_piece_budget_exit_1(tmp_path, monkeypatch, capsys):
    """A tree that outgrows its piece budget stops with exit 1 and a
    message naming the level, and writes no CSV."""
    monkeypatch.setattr(curve_machinery, "_MAX_PIECES", 5)
    assert run(["--out-dir", tmp_path, "curves", "four_disk", "--curves", 1,
                "--depth", 3]) == 1
    assert "at level " in capsys.readouterr().err
    assert not (tmp_path / "curves.csv").exists()


def test_spectrum_path_through_a_degenerate_pair(tmp_path):
    """At seed 1 the two eigenvalues next to 1 are a complex pair at
    gamma = 3e-4: equal moduli, which the assignment pairs as they come."""
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["--seed", 1, "--out-dir", d, "spectrum", "four_disk",
                    "--N", 32, "--S", 100, "--path", 0, 3e-4, 1e-3]) == 0
    with open(a / "spectrum_path.json") as fh:
        recs = json.load(fh)["payload"]
    assert [rec["gamma"] for rec in recs] == [0.0, 3e-4, 1e-3]
    assert recs[0]["drift"] == [0.0] * 6
    assert read_manifest(a)["outputs"] == read_manifest(b)["outputs"]


@pytest.mark.parametrize("index", [9, -1])
def test_spectrum_path_rejects_shift_scatterer_out_of_range(tmp_path, index):
    assert run(["--out-dir", tmp_path, "spectrum", "four_disk", "--N", 8,
                "--S", 4, "--path", 0, 1e-3,
                "--shift-scatterer", index]) == 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "four_disk", "--N", 48],
    ["spectrum", "four_disk", "--N", 8, "--S", 2, "--k", 0],
    ["spectrum", "four_disk", "--N", 8, "--S", 0],
    ["curves", "four_disk", "--curves", 0],
    ["stats", "four_disk", "--points", 0],
    ["verify", "four_disk", "--samples", 0],
    ["map", "four_disk", "--samples", 0],
    ["distance", "four_disk", "four_disk", "--grid", 0],
    ["--flight-cap", 0, "map", "four_disk"],
], ids=["N-not-power-of-two", "k-zero", "S-zero", "curves-zero",
        "points-zero", "verify-samples-zero", "map-samples-zero",
        "grid-zero", "flight-cap-zero"])
def test_size_arguments_out_of_range_exit_2(tmp_path, capsys, argv):
    """A size argument the computation cannot run on is a validation
    failure: exit 2 with a message, no traceback and no output."""
    assert run(["--out-dir", tmp_path] + argv) == 2
    assert "validation failed" in capsys.readouterr().err
    assert not os.listdir(tmp_path)
