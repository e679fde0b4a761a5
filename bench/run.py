"""wsnlife benchmark runner.

    python3 bench/run.py --workload {network,lp_scaling,analytic} \\
        --seed N --seconds S --trace {0,1}

Runs one workload in this single process with one thread, for whole
rounds until S seconds have passed and every input of the workload's
pool has run once.  Round times are averaged per pool entry first, so
every entry weighs the same however many rounds a run fits.  Then it
checks every output against references computed apart from the
program, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics (setup_s, wall_s, cpu_s, peak_rss_mb); --trace 1
alternates untraced and traced runs of each round and reports the
per-layer metrics and the tracing overhead.  Details go to
bench/results/.  See bench/README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One thread: OpenBLAS would otherwise start a thread per core when
# numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_REPEATS = 5

# Operations that fail every time because of a known fault of the
# program: numerics.hyp2f1_terminating loses its digits to cancellation
# at R = 110 m and 120 m and returns a wrong value with only a warning.
KNOWN_FAULTS = {
    "analytic": {"ct.closed_form.R110", "ct.closed_form.R120"},
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["network", "lp_scaling", "analytic"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _import_program():
    if not (ROOT / "src" / "wsnlife" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'wsnlife'} not found; run from a checkout of the repository")
    # The LP check re-solves with scipy's HiGHS; it is loaded only after
    # the program's peak memory is read, but must exist before any work.
    if importlib.util.find_spec("scipy") is None:
        sys.exit("error: the output checks need scipy, which is not installed")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class _Outputs:
    """The first output of each pool entry, kept for the checks; a
    repeat is compared with it at once and dropped, so that memory does
    not grow with the number of rounds."""

    def __init__(self):
        self.first = {}
        self.runs = []  # pool index of every run, untraced and traced
        self.changed = set()

    def add(self, k, out):
        self.runs.append(k)
        if k not in self.first:
            self.first[k] = out
        elif out != self.first[k]:
            self.changed.add(k)


def _measure(wl, args, tracer):
    """Run whole rounds until args.seconds have passed and the pool has
    run once.  A traced run runs each round untraced, then traced.
    Returns (outputs, round walls, round cpus, traced walls, peak RSS
    after each round)."""
    outputs = _Outputs()
    wall, cpu, traced, rss = [], [], [], []
    start = time.perf_counter()
    i = 0
    while i < len(wl.pool) or time.perf_counter() - start < args.seconds:
        k = i % len(wl.pool)
        w0, c0 = time.perf_counter(), time.process_time()
        out = wl.run(k)
        wall.append(time.perf_counter() - w0)
        cpu.append(time.process_time() - c0)
        outputs.add(k, out)
        if tracer is not None:
            with tracer.installed():
                w0 = time.perf_counter()
                out = wl.run(k, span=tracer.span)
                traced.append(time.perf_counter() - w0)
            outputs.add(k, out)
        del out
        rss.append(_peak_rss_mb())
        i += 1
        if tracer is not None and time.perf_counter() - start >= args.seconds:
            break
    return outputs, wall, cpu, traced, rss


def _pool_mean(values, entries):
    """Mean over pool entries of each entry's mean round value."""
    by_entry = {}
    for k, v in zip(entries, values):
        by_entry.setdefault(k, []).append(v)
    return statistics.fmean(statistics.fmean(v) for v in by_entry.values())


def _check(wl, outputs):
    """Check the first output of each pool entry; every run of the entry
    shares its verdict.  Returns (failed count, failure messages by
    operation)."""
    verdicts = {k: wl.check(k, out) for k, out in outputs.first.items()}
    messages = {f"round{k}.{op}": m for k, v in verdicts.items() for op, m in v.items()}
    for k in sorted(outputs.changed):
        messages[f"round{k}.repeat"] = ["output differs from the first run of the same inputs"]
    return sum(len(verdicts[k]) for k in outputs.runs), messages


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_program()
    imports = time.perf_counter() - _T0
    # Set up SETUP_REPEATS times: the imports happen once, building the
    # inputs and the warm-up are repeated and the median build counts.
    builds = []
    for _ in range(SETUP_REPEATS):
        b0 = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed)
        builds.append(time.perf_counter() - b0)
    setup = [imports + b for b in builds]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    outputs, wall, cpu, traced, rss = _measure(wl, args, tracer)

    failed, messages = _check(wl, outputs)
    attempted = wl.ops_per_round * len(outputs.runs)
    known = KNOWN_FAULTS.get(args.workload, set())
    unexpected = sorted(op for op in messages if op.split(".", 1)[1] not in known)
    correct = not unexpected

    if tracer is None:
        entries = [i % len(wl.pool) for i in range(len(wall))]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (_pool_mean(wall, entries), "s"),
            "cpu_s": (_pool_mean(cpu, entries), "s"),
            "peak_rss_mb": (rss[-1], "MB"),
        }
    else:
        metrics = tracer.per_layer(len(traced))
        overhead = statistics.median(t - w for t, w in zip(traced, wall))
        metrics["trace.overhead_s"] = (overhead, "s")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "rounds": len(wall), "round_wall_s": wall, "round_cpu_s": cpu,
            "traced_round_wall_s": traced, "round_peak_rss_mb": rss, "setup_samples_s": setup,
            "failures": messages, "unexpected_failures": unexpected,
            "metrics": {k: v[0] for k, v in metrics.items()},
        }, fh, indent=1)
    if tracer is not None:
        tracer.dump(f"{stem}-spans.json")
    for op in unexpected:
        print(f"FAILED {op}: {'; '.join(messages[op])}", file=sys.stderr)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
