"""Benchmark of the lorentzgas toolkit.

    python3 lgbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 lgbench/run.py --workload all --seed N --seconds S

Runs one workload in this process (with `all`, each workload in its own
child process, one after another) against the package under `src/` of
the checkout, checks its outputs and prints one JSON object as the last
line of standard output.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones of a
traced round, after an untraced round that gives `trace.overhead_s`.
End-to-end times are at reference speed (see speed.py and
lgbench/README.md).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".lgbench_runs")
NAMES = ("ulam_spectra", "orbit_stats", "forced_roundtrip", "hypotheses")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def process_age():
    """Seconds since this process started, 0 where /proc cannot tell."""
    try:
        with open("/proc/self/stat") as fh:
            start = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            up = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    age = up - start / os.sysconf("SC_CLK_TCK")
    return age if 0.0 <= age < 60.0 else 0.0


AGE_AT_T0 = process_age()


def cap_threads():
    """Cap BLAS/OpenMP pools at the cores this process may use."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(n, int(cur)) if cur.isdigit()
                              and int(cur) > 0 else n)
    return n


def measure(name, seed, seconds, trace, sizes, workdir, probe):
    """Set up, run whole rounds, check; returns the result object.

    probe: a speed.Probe, started at the beginning of set-up.
    """
    import speed
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](seed, sizes, workdir)
    setup_s = speed.at_reference(AGE_AT_T0 + time.perf_counter() - T0,
                                 probe.take())
    # round times at reference speed, wall times, mean probe task times
    times, walls, tasks = [], [], []
    attempted, failed, problems = 0, 0, []

    def one_round():
        nonlocal attempted, failed
        probe.take()
        t = time.perf_counter()
        out, a, f = wl.round()
        walls.append(time.perf_counter() - t)
        tasks.append(probe.take())
        times.append(speed.at_reference(walls[-1], tasks[-1]))
        attempted += a
        failed += f
        return out

    if trace:
        problems += wl.check(one_round())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            out = one_round()
        finally:
            tracer.uninstall()
        problems += wl.check(out)
        metrics = tracer.metrics({
            "process.cpu_s": time.process_time(),
            "trace.overhead_s": times[1] - times[0],
            "run.wall_s": walls[0], "run.probe_us": tasks[0] * 1e6})
        os.makedirs(RUNS, exist_ok=True)
        with open(os.path.join(RUNS, f"trace-{name}-seed{seed}.json"),
                  "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts},
                      fh, indent=1, sort_keys=True)
    else:
        start = time.perf_counter()
        while True:
            out = one_round()
            # start another round only if it can end within the budget
            if time.perf_counter() - start + walls[-1] > seconds:
                break
        problems += wl.check(out)
        run_s = statistics.median(times)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "phase_points_per_s": {"value": wl.points / run_s,
                                   "unit": "points/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    print(f"[{name}] {len(walls)} rounds, wall " + " ".join(
        f"{w:.2f}" for w in walls) + " s, probe task " + " ".join(
        f"{1e6 * t:.1f}" for t in tasks) + " us", file=sys.stderr)
    for p in problems:
        print(f"CHECK FAILED [{name}]: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own process, one at a time; a summary table."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']}"
              f" failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lorentzgas", "__init__.py")):
        print(f"no lorentzgas package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    cap_threads()
    sys.path[:0] = [SRC, HERE]
    import speed

    probe = speed.Probe()
    probe.start()
    try:
        import workloads

        os.makedirs(RUNS, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=RUNS)
        try:
            res = measure(args.workload, args.seed, args.seconds, args.trace,
                          workloads.SIZES[args.workload], workdir, probe)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    finally:
        probe.stop()
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
