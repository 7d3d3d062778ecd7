"""Per-module spans and counters for the benchmark's traced run.

The tracer wraps public functions and methods of `lorentzgas` from the
outside: every binding of a wrapped function in every module of the
package is replaced (so `from .geometry import config_metrics` in
`cli`, `transfer_spectrum` and `perturbation_metric` is traced too), and
`uninstall` restores the originals.  A span's self time is its duration
minus the time of the traced spans it called.
"""

import importlib
import time

MODULES = ("geometry", "classical_map", "forced_dynamics", "curve_machinery",
           "hyperbolicity", "perturbation_metric", "transfer_spectrum",
           "cli")

# (module, attribute or Class.method, span name)
SPANS = (
    ("geometry", "config_metrics", "geometry.config_metrics"),
    ("geometry", "Scatterer.frame", "geometry.Scatterer.frame"),
    ("classical_map", "ClassicalMap.forward_batch",
     "classical_map.forward_batch"),
    ("classical_map", "free_flight", "classical_map.free_flight"),
    ("classical_map", "ClassicalMap.dt", "classical_map.ClassicalMap.dt"),
    ("forced_dynamics", "ForcedMap.forward",
     "forced_dynamics.ForcedMap.forward"),
    ("forced_dynamics", "ForcedMap.dt", "forced_dynamics.ForcedMap.dt"),
    ("forced_dynamics", "ForcedMap.backward",
     "forced_dynamics.ForcedMap.backward"),
    ("forced_dynamics", "integrate_flight",
     "forced_dynamics.integrate_flight"),
    ("curve_machinery", "pullback_generation",
     "curve_machinery.pullback_generation"),
    ("curve_machinery", "sample_stable_curves",
     "curve_machinery.sample_stable_curves"),
    ("hyperbolicity", "verify_hypotheses", "hyperbolicity.verify_hypotheses"),
    ("hyperbolicity", "check_cone_invariance",
     "hyperbolicity.check_cone_invariance"),
    ("hyperbolicity", "expansion_stats", "hyperbolicity.expansion_stats"),
    ("hyperbolicity", "one_step_expansion_sum",
     "hyperbolicity.one_step_expansion_sum"),
    ("hyperbolicity", "distortion_constant",
     "hyperbolicity.distortion_constant"),
    ("hyperbolicity", "measure_jacobian_bound",
     "hyperbolicity.measure_jacobian_bound"),
    ("perturbation_metric", "map_distance", "perturbation_metric.map_distance"),
    ("perturbation_metric", "singular_set_samples",
     "perturbation_metric.singular_set_samples"),
    ("transfer_spectrum", "build_ulam", "transfer_spectrum.build_ulam"),
    ("transfer_spectrum", "spectrum", "transfer_spectrum.spectrum"),
    ("transfer_spectrum", "limit_stats", "transfer_spectrum.limit_stats"),
    ("transfer_spectrum", "correlations", "transfer_spectrum.correlations"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_map", "cli.map"),
    ("cli", "cmd_spectrum", "cli.spectrum"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_distance", "cli.distance"),
)

# per-layer metric -> (unit, better); the order is the report order
PER_LAYER = {
    "geometry.config_metrics.calls": ("count", "lower"),
    "geometry.config_metrics.self_s": ("s", "lower"),
    "geometry.config_metrics.s": ("s", "lower"),
    "geometry.Scatterer.frame.calls": ("count", "lower"),
    "geometry.Scatterer.frame.self_s": ("s", "lower"),
    "classical_map.forward_batch.calls": ("count", "lower"),
    "classical_map.forward_batch.points": ("count", "lower"),
    "classical_map.forward_batch.self_s": ("s", "lower"),
    "classical_map.forward_batch.points_per_s": ("points/s", "higher"),
    "classical_map.forward_batch.s_per_call": ("s", "lower"),
    "classical_map.forward_batch.missed": ("count", "lower"),
    "classical_map.free_flight.calls": ("count", "lower"),
    "classical_map.free_flight.self_s": ("s", "lower"),
    "classical_map.ClassicalMap.dt.calls": ("count", "lower"),
    "classical_map.ClassicalMap.dt.self_s": ("s", "lower"),
    "forced_dynamics.ForcedMap.forward.calls": ("count", "lower"),
    "forced_dynamics.ForcedMap.forward.self_s": ("s", "lower"),
    "forced_dynamics.ForcedMap.dt.calls": ("count", "lower"),
    "forced_dynamics.ForcedMap.dt.self_s": ("s", "lower"),
    "forced_dynamics.ForcedMap.backward.calls": ("count", "lower"),
    "forced_dynamics.ForcedMap.backward.self_s": ("s", "lower"),
    "forced_dynamics.ForcedMap.backward.failed": ("count", "lower"),
    "forced_dynamics.integrate_flight.calls": ("count", "lower"),
    "forced_dynamics.integrate_flight.self_s": ("s", "lower"),
    "forced_dynamics.ForceField.evals": ("count", "lower"),
    "forced_dynamics.force_evals_per_flight": ("evals/flight", "lower"),
    "curve_machinery.pullback_generation.self_s": ("s", "lower"),
    "curve_machinery.pullback_generation.pieces": ("count", "lower"),
    "curve_machinery.sample_stable_curves.self_s": ("s", "lower"),
    "hyperbolicity.verify_hypotheses.self_s": ("s", "lower"),
    "hyperbolicity.check_cone_invariance.self_s": ("s", "lower"),
    "hyperbolicity.expansion_stats.self_s": ("s", "lower"),
    "hyperbolicity.one_step_expansion_sum.self_s": ("s", "lower"),
    "hyperbolicity.distortion_constant.self_s": ("s", "lower"),
    "hyperbolicity.measure_jacobian_bound.self_s": ("s", "lower"),
    "perturbation_metric.map_distance.self_s": ("s", "lower"),
    "perturbation_metric.singular_set_samples.self_s": ("s", "lower"),
    "transfer_spectrum.build_ulam.self_s": ("s", "lower"),
    "transfer_spectrum.spectrum.self_s": ("s", "lower"),
    "transfer_spectrum.limit_stats.self_s": ("s", "lower"),
    "transfer_spectrum.correlations.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.map.s": ("s", "lower"),
    "cli.spectrum.s": ("s", "lower"),
    "cli.verify.s": ("s", "lower"),
    "cli.distance.s": ("s", "lower"),
    "process.cpu_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "run.wall_s": ("s", "lower"),
    "run.probe_us": ("us", "lower"),
}


class Tracer:
    """Aggregated spans (calls, total, self time) and counters by name."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {"classical_map.forward_batch.points": 0,
                       "classical_map.forward_batch.missed": 0,
                       "forced_dynamics.ForcedMap.backward.failed": 0,
                       "forced_dynamics.ForceField.evals": 0,
                       "curve_machinery.pullback_generation.pieces": 0}
        self._child = []  # time of traced children, one slot per open span
        self._undo = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, name, on_result=None, on_error=None):
        spans, child = self.spans, self._child
        spans.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error()
                raise
            finally:
                dt = clock() - t0
                inner = child.pop()
                rec = spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
                if child:
                    child[-1] += dt
            if on_result is not None:
                on_result(args, res)
            return res

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, key, n=1):
        self.counts[key] += n

    def _hooks(self, name):
        if name == "classical_map.forward_batch":
            def on_result(args, res):
                ok = res[4]
                self._count("classical_map.forward_batch.points", len(ok))
                self._count("classical_map.forward_batch.missed",
                            int(len(ok) - ok.sum()))
            return on_result, None
        if name == "forced_dynamics.ForcedMap.backward":
            return None, lambda: self._count(
                "forced_dynamics.ForcedMap.backward.failed")
        if name == "curve_machinery.pullback_generation":
            def on_result(args, tree):
                self._count("curve_machinery.pullback_generation.pieces",
                            sum(len(lv) for lv in tree.levels[1:]))
            return on_result, None
        return None, None

    def install(self):
        mods = {m: importlib.import_module("lorentzgas." + m)
                for m in MODULES}
        everywhere = [importlib.import_module("lorentzgas"), *mods.values()]
        for mod_name, attr, name in SPANS:
            on_result, on_error = self._hooks(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod_name], cls_name)
                orig = vars(cls)[meth]
                self._set(cls, meth, self._wrap(orig, name, on_result,
                                                on_error))
                continue
            orig = getattr(mods[mod_name], attr)
            wrapped = self._wrap(orig, name, on_result, on_error)
            for mod in everywhere:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
        field = mods["forced_dynamics"].ForceField
        orig_call = vars(field)["__call__"]

        def counted_call(force, *args, **kwargs):
            self.counts["forced_dynamics.ForceField.evals"] += 1
            return orig_call(force, *args, **kwargs)

        self._set(field, "__call__", counted_call)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- report ----------------------------------------------------------

    def metrics(self, run_values):
        """Every per-layer metric; 0 for layers the workload never calls.

        run_values: the metrics of the run rather than of a layer
        (process.cpu_s, trace.overhead_s, run.wall_s, run.probe_us).
        """
        def span(name, i):
            return self.spans.get(name, [0, 0.0, 0.0])[i]

        vals = {}
        for key in PER_LAYER:
            base, _, stat = key.rpartition(".")
            if stat == "calls":
                vals[key] = span(base, 0)
            elif stat == "self_s":
                vals[key] = span(base, 2)
            elif stat == "s":
                vals[key] = span(base, 1)
            elif key in self.counts:
                vals[key] = self.counts[key]
        fb = "classical_map.forward_batch"
        calls, self_s = span(fb, 0), span(fb, 2)
        points = self.counts[fb + ".points"]
        vals[fb + ".points_per_s"] = points / self_s if self_s > 0 else 0.0
        vals[fb + ".s_per_call"] = self_s / calls if calls else 0.0
        flights = span("forced_dynamics.integrate_flight", 0)
        evals = self.counts["forced_dynamics.ForceField.evals"]
        vals["forced_dynamics.force_evals_per_flight"] = (
            evals / flights if flights else 0.0)
        vals.update(run_values)
        return {k: {"value": vals[k], "unit": PER_LAYER[k][0]}
                for k in PER_LAYER}
