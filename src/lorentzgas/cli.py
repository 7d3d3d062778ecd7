"""Command-line entry point: experiments, manifests, reproducible outputs.

Every subcommand writes JSON/CSV outputs plus a manifest echo with
content digests; re-running the same command with the same seed
reproduces the outputs bit-identically.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import __version__
from .errors import LorentzGasError, ValidationFailed
from .geometry import ScattererConfig, config_metrics
from .classical_map import ClassicalMap, PhasePoint
from .forced_dynamics import ForceField, KickMap, ForcedMap
from .curve_machinery import (NormParams, sample_stable_curves,
                              pullback_generation, growth_sums)
from .hyperbolicity import verify_hypotheses
from .perturbation_metric import map_distance, forced_displacement
from .transfer_spectrum import (build_ulam, spectrum, track_path,
                                correlations, limit_stats)

FIXTURES = {"four_disk", "two_disk", "forced_four_disk"}


def fixture_path(name):
    """Filesystem path of a bundled fixture config."""
    return str(resources.files("lorentzgas").joinpath(
        "fixtures", name + ".json"))


def _digest_bytes(data):
    return hashlib.sha256(data).hexdigest()


def _digest_file(path):
    with open(path, "rb") as fh:
        return _digest_bytes(fh.read())


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class ExperimentManifest:
    """Reproducibility record: command, parameters, seeds, digests."""

    def __init__(self, command, parameters, seed, config_paths):
        self.command = command
        self.parameters = parameters
        self.seed = seed
        self.configs = {p: _digest_file(p) for p in config_paths}
        self.version = __version__
        self.outputs = {}

    @property
    def digest(self):
        return _digest_bytes(_canonical({
            "command": self.command, "parameters": self.parameters,
            "seed": self.seed, "configs": self.configs,
            "version": self.version}).encode())[:16]

    def record_output(self, path):
        self.outputs[os.path.basename(path)] = _digest_file(path)

    def to_dict(self):
        return {"command": self.command, "parameters": self.parameters,
                "seed": self.seed, "configs": self.configs,
                "version": self.version, "digest": self.digest,
                "outputs": self.outputs}


class _Runner:
    """Writes outputs into the out dir and stamps them with the digest."""

    def __init__(self, manifest, out_dir):
        self.manifest = manifest
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def write_json(self, name, payload):
        path = os.path.join(self.out_dir, name)
        body = {"manifest_digest": self.manifest.digest, "payload": payload}
        with open(path, "w") as fh:
            json.dump(body, fh, indent=2, sort_keys=True, default=_jsonify)
            fh.write("\n")
        self.manifest.record_output(path)
        return path

    def write_csv(self, name, header, rows):
        path = os.path.join(self.out_dir, name)
        with open(path, "w", newline="") as fh:
            fh.write(f"# manifest: {self.manifest.digest}\n")
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([repr(float(x)) if isinstance(
                    x, (float, np.floating)) else x for x in row])
        self.manifest.record_output(path)
        return path

    def finish(self):
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(self.manifest.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _jsonify(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _resolve_config_path(arg):
    if arg in FIXTURES:
        return fixture_path(arg)
    if not os.path.exists(arg):
        raise ValidationFailed("config", f"no such file or fixture: {arg}")
    return arg


def load_config(path):
    """Load and validate a scatterer config, mapping errors to fields."""
    try:
        return ScattererConfig.from_file(path)
    except LorentzGasError as exc:
        raise ValidationFailed("scatterers", str(exc)) from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationFailed("config", str(exc)) from exc


def load_forced(path, flight_cap):
    """Build a ForcedMap from a forced-config JSON file."""
    with open(path) as fh:
        d = json.load(fh)
    base = d.get("base")
    if isinstance(base, str):
        cand = os.path.join(os.path.dirname(path), base)
        base_path = cand if os.path.exists(cand) else _resolve_config_path(
            os.path.splitext(base)[0])
        cfg = load_config(base_path)
        base_paths = [base_path]
    else:
        try:
            cfg = ScattererConfig.from_dict(base)
        except LorentzGasError as exc:
            raise ValidationFailed("base.scatterers", str(exc)) from exc
        base_paths = []
    force = ForceField.from_dict(d["force"]) if d.get("force") else None
    kick = KickMap.from_dict(d["kick"]) if d.get("kick") else None
    return ForcedMap(cfg, force, kick, flight_cap=flight_cap), base_paths


def _capped_map(cfg, flight_cap):
    met = config_metrics(cfg)
    cap = flight_cap
    if met.horizon == "finite":
        cap = min(flight_cap, 1.5 * met.tau_max + 1.0)
    return ClassicalMap(cfg, flight_cap=cap), met


# ---------------------------------------------------------------------------
# subcommands


def cmd_geom(args, runner):
    cfg = load_config(args.config)
    met = config_metrics(cfg)
    runner.write_json("geom.json", {
        "n_scatterers": len(cfg.scatterers),
        "arclengths": [s.L for s in cfg.scatterers],
        "metrics": met.to_dict()})


def cmd_map(args, runner):
    cfg = load_config(args.config)
    T, met = _capped_map(cfg, args.flight_cap)
    rng = np.random.default_rng(args.seed)
    from .transfer_spectrum import sample_invariant
    idx, r, phi = sample_invariant(cfg, args.samples, rng)
    _, _, _, tau, ok = T.forward_batch(idx, r, phi)
    # the step and its inverse at the ok samples among the first 200
    chk = np.flatnonzero(ok[:200])
    i0, r0, p0 = idx[chk], r[chk], phi[chk]
    i1, r1, p1, _, J, _ = T.step_batch(i0, r0, p0)
    _, rb, pb, _, back_ok = T.backward_batch(i1, r1, p1)
    dr = np.abs(rb - r0)
    inv_err = np.where(back_ok, np.hypot(np.minimum(dr, cfg.lengths[i0] - dr),
                                         pb - p0), np.inf)
    det_err = np.abs(np.abs(np.linalg.det(J)) * np.cos(p1) / np.cos(p0) - 1.0)
    runner.write_json("map.json", {
        "samples": int(args.samples), "ok_fraction": float(ok.mean()),
        "mean_flight": float(tau[ok].mean()),
        "invertibility_error": float(inv_err.max(initial=0.0)),
        "measure_jacobian_error": float(det_err.max(initial=0.0)),
        "horizon": met.horizon})


def cmd_forced(args, runner):
    TF, _ = load_forced(args.config, args.flight_cap)
    cfg = TF.config
    T0 = ClassicalMap(cfg, flight_cap=args.flight_cap)
    rng = np.random.default_rng(args.seed)
    from .transfer_spectrum import sample_invariant
    idx, r, phi = sample_invariant(cfg, args.samples, rng)
    drift = 0.0
    disp = 0.0
    inv_err = 0.0
    used = 0
    backward_failures = 0
    for i in range(args.samples):
        x = PhasePoint(int(idx[i]), float(r[i]), float(phi[i]))
        try:
            res = TF.forward(x)
            y0 = T0.forward(x).next
        except LorentzGasError:
            continue
        used += 1
        y = res.next
        tr = res.transcript
        if tr is not None and not tr.straight:
            e0 = TF.force.energy(tr.q0, tr.p0)
            e1 = TF.force.energy(tr.q1, tr.p1)
            drift = max(drift, abs(e1 - e0))
        if y.scatterer == y0.scatterer:
            L = cfg[y.scatterer].L
            dr = abs(y.r - y0.r)
            disp = max(disp, math.hypot(min(dr, L - dr), y.phi - y0.phi))
        try:
            back = TF.backward(y).next
            L = cfg[x.scatterer].L
            dr = abs(back.r - x.r)
            inv_err = max(inv_err, math.hypot(min(dr, L - dr),
                                              back.phi - x.phi))
        except LorentzGasError:
            backward_failures += 1
    runner.write_json("forced.json", {
        "samples_used": used, "max_energy_drift": drift,
        "max_displacement_vs_classical": disp,
        "invertibility_error": inv_err,
        "backward_failures": backward_failures})


def cmd_verify(args, runner):
    cfg = load_config(args.config)
    T, met = _capped_map(cfg, args.flight_cap)
    rep = verify_hypotheses(T, met, n_samples=args.samples,
                            n_curves=args.curves, seed=args.seed)
    payload = rep.to_dict()
    runner.write_json("report.json", payload)
    if not payload["all_passed"]:
        failed = [k for k, v in payload["hypotheses"].items()
                  if not v["passed"]]
        print("verify: FAILED hypotheses:", failed)
        return 1
    print("verify: all hypotheses passed")
    return 0


def cmd_curves(args, runner):
    cfg = load_config(args.config)
    T, met = _capped_map(cfg, args.flight_cap)
    params = NormParams()
    curves = sample_stable_curves(cfg, met, args.curves, params,
                                  seed=args.seed)
    rows = []
    sums = []
    for ci, W in enumerate(curves[:args.curves]):
        tree = pullback_generation(W, T, args.depth, params)
        gs = growth_sums(tree, sigma=args.sigma)
        sums.append(gs)
        for g in gs:
            rows.append([ci, g["level"], g["count"], g["sum_a"],
                         g["sum_b"], g["sum_c"], g["sum_d"]])
    runner.write_csv("curves.csv",
                     ["curve", "level", "count", "sum_a", "sum_b",
                      "sum_c", "sum_d"], rows)
    runner.write_json("curves.json", {
        "depth": args.depth, "sigma": args.sigma,
        "n_curves": len(curves),
        "max_sum_b": max(g["sum_b"] for gs in sums for g in gs)})


def cmd_distance(args, runner):
    cfg1 = load_config(args.config_a)
    T1, _ = _capped_map(cfg1, args.flight_cap)
    if args.force:
        T2, _ = load_forced(args.config_b, args.flight_cap)
    else:
        cfg2 = load_config(args.config_b)
        T2, _ = _capped_map(cfg2, args.flight_cap)
    rep = map_distance(T1, T2, grid=args.grid)
    runner.write_json("dist.json", rep.to_dict())


def cmd_spectrum(args, runner):
    cfg = load_config(args.config)
    if args.path:
        gammas = [float(g) for g in args.path]
        shift_index = args.shift_scatterer

        def family(g):
            d = cfg.to_dict()
            d["scatterers"][shift_index]["center"][0] += g
            c = ScattererConfig.from_dict(d)
            return _capped_map(c, args.flight_cap)[0]

        recs = track_path(family, gammas, N=args.N, S=args.S,
                          seed=args.seed, k=args.k)
        runner.write_json("spectrum_path.json", [
            {k2: v for k2, v in r.items()} for r in recs])
        return
    T, _ = _capped_map(cfg, args.flight_cap)
    op = build_ulam(T, N=args.N, S=args.S, seed=args.seed)
    s = spectrum(op, k=args.k, seed=args.seed)
    runner.write_json("spectrum.json", {
        "N": args.N, "S": args.S, "k": args.k,
        "row_sum_defect": op.row_sum_defect(),
        "drop_rate": op.drop_rate, **s.to_dict()})


def cmd_correlate(args, runner):
    cfg = load_config(args.config)
    T, _ = _capped_map(cfg, args.flight_cap)
    Ls = np.array([s.L for s in cfg.scatterers])

    def obs(idx, r, phi):
        return np.cos(2.0 * math.pi * r / Ls[idx])

    out = correlations(T, obs, obs, n_max=args.n,
                       n_points=args.points, seed=args.seed)
    rows = [[n, out["C_n"][n], out["err"][n]]
            for n in range(len(out["C_n"]))]
    runner.write_csv("correlations.csv", ["n", "C_n", "err"], rows)
    runner.write_json("correlate.json", {
        "rate": out["rate"], "n_below_noise": out["n_below_noise"],
        "noise_floor": out["noise_floor"],
        "alive_fraction": out["alive_fraction"]})


def cmd_stats(args, runner):
    cfg = load_config(args.config)
    T, _ = _capped_map(cfg, args.flight_cap)
    Ls = np.array([s.L for s in cfg.scatterers])

    def obs(idx, r, phi):
        return np.cos(2.0 * math.pi * r / Ls[idx])

    out = limit_stats(T, obs, n_points=args.points, seed=args.seed)
    runner.write_json("stats.json", {
        "sigma2": {str(k): v for k, v in out["sigma2"].items()},
        "mean": out["mean"],
        "alive_fraction": out["alive_fraction"],
        "rate_curves": {str(k): {"t": v["t"], "I": v["I"]}
                        for k, v in out["rate_curves"].items()}})


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    p = argparse.ArgumentParser(
        prog="lorentzgas",
        description="Dispersing billiard maps, perturbations, and "
                    "transfer-operator spectra.")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--flight-cap", type=float, default=50.0)
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("geom", help="validate a config and report metrics")
    s.add_argument("config")
    s.set_defaults(fn=cmd_geom, configs=lambda a: [a.config])

    s = sub.add_parser("map", help="classical map sanity diagnostics")
    s.add_argument("config")
    s.add_argument("--samples", type=int, default=10000)
    s.set_defaults(fn=cmd_map, configs=lambda a: [a.config])

    s = sub.add_parser("forced", help="forced map diagnostics")
    s.add_argument("config", help="forced-config JSON (base, force, kick)")
    s.add_argument("--samples", type=int, default=200)
    s.set_defaults(fn=cmd_forced, configs=lambda a: [a.config])

    s = sub.add_parser("verify", help="hyperbolicity hypothesis report")
    s.add_argument("config")
    s.add_argument("--samples", type=int, default=20000)
    s.add_argument("--curves", type=int, default=40)
    s.set_defaults(fn=cmd_verify, configs=lambda a: [a.config])

    s = sub.add_parser("curves", help="generation-tree growth sums")
    s.add_argument("config")
    s.add_argument("--curves", type=int, default=5)
    s.add_argument("--depth", type=int, default=4)
    s.add_argument("--sigma", type=float, default=0.8333333333333334)
    s.set_defaults(fn=cmd_curves, configs=lambda a: [a.config])

    s = sub.add_parser("distance", help="map distance between two configs")
    s.add_argument("config_a")
    s.add_argument("config_b")
    s.add_argument("--grid", type=int, default=96)
    s.add_argument("--force", action="store_true",
                   help="config_b is a forced-config JSON")
    s.set_defaults(fn=cmd_distance,
                   configs=lambda a: [a.config_a, a.config_b])

    s = sub.add_parser("spectrum", help="Ulam spectrum / gamma path")
    s.add_argument("config")
    s.add_argument("--N", type=int, default=64)
    s.add_argument("--S", type=int, default=400)
    s.add_argument("--k", type=int, default=6)
    s.add_argument("--path", nargs="*", default=None,
                   help="gamma values for a disk-shift path")
    s.add_argument("--shift-scatterer", type=int, default=0)
    s.set_defaults(fn=cmd_spectrum, configs=lambda a: [a.config])

    s = sub.add_parser("correlate", help="correlation decay series")
    s.add_argument("config")
    s.add_argument("--n", type=int, default=40)
    s.add_argument("--points", type=int, default=200000)
    s.set_defaults(fn=cmd_correlate, configs=lambda a: [a.config])

    s = sub.add_parser("stats", help="CLT variance and rate curves")
    s.add_argument("config")
    s.add_argument("--points", type=int, default=2000)
    s.set_defaults(fn=cmd_stats, configs=lambda a: [a.config])
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config_args = args.configs(args)
        resolved = []
        for i, c in enumerate(config_args):
            rc = _resolve_config_path(c)
            resolved.append(rc)
        for name in ("config", "config_a", "config_b"):
            if hasattr(args, name):
                setattr(args, name, _resolve_config_path(getattr(args, name)))
        params = {k: v for k, v in vars(args).items()
                  if k not in ("fn", "configs", "out_dir")
                  and not callable(v)}
        manifest = ExperimentManifest(args.cmd, params, args.seed, resolved)
        runner = _Runner(manifest, args.out_dir)
        rc = args.fn(args, runner)
        runner.finish()
        return rc or 0
    except ValidationFailed as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 2
    except LorentzGasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
