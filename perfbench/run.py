#!/usr/bin/env python3
"""tdual benchmark: one closed-loop client calling tdual in-process.

    python3 perfbench/run.py --workload scenario_all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; tdual is imported from ./src.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, measured with tracing off; with
--trace 1 they are its per-layer ones: half the time runs untraced, half
traced, so the tracing overhead is measured in the same process.
"""

import os
import sys

# pin BLAS threads before numpy is imported, here and in the set-up probes
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7
NPROC = len(os.sched_getaffinity(0))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("scenario_all", "complex_laws", "cohomology_ladder"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def setup(args):
    """Everything a run does before its first op: imports, inputs, goldens."""
    sys.path.insert(0, SRC)
    import jsonschema  # noqa: F401  (tdual.cli imports it lazily; users pay it)
    import numpy  # noqa: F401
    import tdual.cli  # noqa: F401
    import workloads
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.environ["TMPDIR"] = workdir
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, workloads.load_goldens())
    return wl, workdir


class SetupTimer:
    """Times set-up in fresh interpreters, spread over the run.

    Host speed changes in phases of seconds, so the set-ups are spread
    evenly over the run, and each is scaled by a reference child spawned
    just before and just after it (hostspeed.scaled_child_time).  poll()
    runs between ops, outside the timed region; finish() runs any still
    missing.  times holds (raw, scaled) seconds per set-up.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--setup-probe"]
        self.every = args.seconds / SETUP_PROBES
        self.t0 = perf_counter()
        self.times: list[tuple[float, float]] = []

    def poll(self) -> None:
        if (len(self.times) < SETUP_PROBES
                and perf_counter() - self.t0 >= len(self.times) * self.every):
            self.spawn()

    def finish(self) -> list:
        while len(self.times) < SETUP_PROBES:
            self.spawn()
        return self.times

    def spawn(self) -> None:
        from hostspeed import scaled_child_time
        self.times.append(scaled_child_time(self.cmd))


def tail(durations):
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(durations)
    n = len(s)
    i = max(n - 11, 0)
    return s[i], 100.0 * (i + 1) / n, n


def environment() -> dict:
    import importlib.metadata as md
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "jsonschema": md.version("jsonschema"),
        "blas_threads": int(BLAS_THREADS),
        "tdual_jobs": 1,
    }


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tdual", "__init__.py")):
        print(f"no tdual sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    if args.setup_probe:
        wl, workdir = setup(args)
        shutil.rmtree(workdir, ignore_errors=True)
        print("ready", flush=True)
        return 0
    # The vCPUs of a shared VM change speed independently, so the ops, the
    # speed probes and the set-up probes (children inherit this) all
    # run on one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    end_to_end, per_layer = metric_specs()
    wl, workdir = setup(args)
    try:
        return measure(args, wl, end_to_end, per_layer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, end_to_end, per_layer) -> int:
    from workloads import run_cycles
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {wl.name} seed {args.seed}: {len(wl.rungs)} rungs per cycle; "
          + wl.golden_note())
    if args.trace:
        from tracer import Tracer
        # both halves run the same cycles, so their times compare directly
        times, outcomes = run_cycles(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            t_times, t_outcomes = run_cycles(wl, args.seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        outcomes += t_outcomes
    else:
        setups = SetupTimer(args)
        times, outcomes = run_cycles(wl, args.seconds, wl.cycles, between=setups.poll)
        setup_times = setups.finish()

    failed = [(k, o) for k, o in outcomes if not o.ok]
    unexpected = [(k, o) for k, o in failed if not o.known_defect]
    known = len(failed) - len(unexpected)
    for key, o in unexpected:
        print(f"FAILED op {key}: {'; '.join(o.problems)}", file=sys.stderr)
    golden = sum(o.golden for _, o in outcomes)
    print(f"ops {len(outcomes)}: {len(outcomes) - len(failed)} passed, "
          f"{known} failed by the known section_family defect, "
          f"{len(unexpected)} failed otherwise; {golden} compared with goldens")

    if args.trace:
        ops = len(t_times.raw)
        values = tracer.summarize(ops, sum(t_times.wall))
        values["trace.overhead"] = (statistics.mean(t_times.scaled())
                                    / statistics.mean(times.scaled()))
        values["fail_ratio"] = len(failed) / len(outcomes)
        for spec in per_layer:
            name = spec["name"]
            if name not in values and name.rsplit(".", 1)[0] not in tracer.names:
                print(f"per-layer metric {name} matches no traced function",
                      file=sys.stderr)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json")
        tracer.dump(path)
        print(f"trace: {len(tracer.spans)} spans over {ops} ops written to "
              f"{os.path.relpath(path, ROOT)}; coverage {values['trace.coverage']:.3f}, "
              f"overhead {values['trace.overhead']:.3f}")
        specs = per_layer
    else:
        durations = times.scaled()
        t_value, t_pct, n = tail(durations)
        print(f"op_s.tail is p{t_pct:.1f} of {n} ops ({n - 1 - max(n - 11, 0)} beyond it)")
        print(f"host speed {times.speed():.3f} of the reference; unscaled: "
              f"ops_per_s {(len(outcomes) - len(unexpected)) / sum(times.raw):.4f}, "
              f"op_s.p50 {statistics.median(times.raw):.5f}, "
              f"setup probes {[round(raw, 4) for raw, _ in setup_times]}")
        print(f"setup probes scaled {[round(scaled, 4) for _, scaled in setup_times]}")
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setup_times),
            # ops that completed: all but those that failed other than by a known defect
            "ops_per_s": (len(outcomes) - len(unexpected)) / sum(durations),
            "op_s.p50": statistics.median(durations),
            "op_s.tail": t_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        specs = end_to_end
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": float(values.get(spec["name"], 0.0)),
                                 "unit": spec["unit"]}
    print(json.dumps({"correct": not unexpected, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
