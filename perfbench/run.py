"""Benchmark of strconvex, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: modulus_planar, radius_mixed, cli_cold (see
perfbench/README.md).  Load is a closed loop with one client in one process:
each operation starts when the previous one returns, and a round runs every
case of the workload once.  Rounds repeat until S seconds have passed; the
last round is always completed, so every run measures the same mix of cases.

--trace 0 reports the end-to-end metrics.  set-up time is the median of five
fresh interpreters, each importing the library, generating the inputs and
running one warm-up operation.  --trace 1 alternates plain and traced rounds
and reports per-layer metrics from the traced ones, plus the tracing overhead.

Times are reported scaled to a fixed host speed, measured by a reference unit
timed between operations (see REF_NOMINAL_S); the raw times are printed too.
The benchmark and its children run on one vCPU with one BLAS thread.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""
import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
WORKLOADS = ("modulus_planar", "radius_mixed", "cli_cold")
SETUP_SAMPLES = 5
SETUP_REFS = 20
# The host is shared, and each vCPU's speed moves by up to half over seconds
# to minutes whatever runs on it: a fixed loop slows by the same factor as the
# program.  Every time the benchmark reports is therefore scaled to a host on
# which the reference unit (HostRef) takes REF_NOMINAL_S, about its time on a
# quiet 2-vCPU Xeon VM; the raw times are printed beside the scaled ones.  A
# program change cannot move the reference unit, so it still moves the
# scaled times by its full amount.
REF_NOMINAL_S = 0.005
REF_EVERY_S = 0.15
REF_WINDOW_S = 1.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 170
CLI_CASES = ("modulus", "radius_minimize", "radius_minimize_3d", "radius_predict", "hull",
             "verify_theorem")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up in this fresh interpreter and print it as JSON")
    return ap.parse_args(argv)


def _import_library():
    sys.path.insert(0, SRC)
    import strconvex

    if not os.path.abspath(strconvex.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported strconvex from {strconvex.__file__}, not from {SRC}")
    import workloads
    return workloads


def run_op(workloads, case):
    """Run one case; return (latency in seconds, the failures its gate found)."""
    t0 = time.perf_counter()
    out = workloads.attempt(case.run)
    latency = time.perf_counter() - t0
    return latency, case.check(out)


def setup(name, seed, tmp):
    """Import, generate the inputs and run the warm-up case, timed together.

    Returns the time scaled by the median of SETUP_REFS reference samples
    taken right after it (numpy is imported only during set-up), and raw."""
    t0 = time.perf_counter()
    workloads = _import_library()
    wl = workloads.WORKLOADS[name](seed, root=ROOT, tmp=tmp)
    _, failures = run_op(workloads, wl.warmup)
    raw = time.perf_counter() - t0
    host_ref = HostRef()
    scaled = raw * REF_NOMINAL_S / statistics.median(host_ref() for _ in range(SETUP_REFS))
    return workloads, wl, (scaled, raw), [(wl.warmup.name, f) for f in failures]


def setup_probe(name, seed):
    """set-up time of a fresh interpreter, measured in a child process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-500:]}")
    return tuple(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


class HostRef:
    """The reference unit: a fixed mix of a Python loop, numpy arithmetic on a
    128 KB array and one pass over an 8 MB one, which the host's load slows
    each in its own way.  Its arrays are allocated once, so the allocator's
    state does not move it, and it calls nothing of strconvex, so no change to
    the program does either; only the host's speed does.  Calling it returns
    the unit's time in seconds."""

    def __init__(self):
        import numpy as np

        self.arrays = [np.linspace(1.0, 2.0, n) for n in (1 << 14, 1 << 14, 1 << 20, 1 << 20)]

    def __call__(self):
        import numpy as np

        small, small_out, big, big_out = self.arrays
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        for _ in range(16):
            np.multiply(small, small, out=small_out)
            np.sqrt(small_out, out=small_out)
        np.multiply(big, big, out=big_out)
        np.sqrt(big_out, out=big_out)
        return time.perf_counter() - t0


def measure(workloads, wl, seconds, tracer):
    """Closed loop of whole rounds; with a tracer, odd rounds are traced.

    The reference unit is timed before the first operation, after the last,
    and after each operation once per REF_EVERY_S the operation took.  Each
    latency is scaled by REF_NOMINAL_S over the median of the reference
    samples taken within REF_WINDOW_S of the operation, so it follows the
    host's speed while the operation ran; the raw latency is kept beside it.
    """
    timed = []    # (case name, start, raw latency, failures, traced, round)
    rounds = []   # traced
    refs = []     # (time, reference seconds)
    host_ref = HostRef()

    def sample(n):
        for _ in range(n):
            refs.append((time.perf_counter(), host_ref()))

    sample(1)
    cpu0, w0 = os.times(), time.perf_counter()
    while (time.perf_counter() - w0 < seconds
           or (tracer is not None and len(set(rounds)) < 2)):
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        if wl.runner is not None:
            wl.runner.traced = traced
        try:
            for case in wl.cases:
                t0 = time.perf_counter()
                latency, failures = run_op(workloads, case)
                timed.append((case.name, t0, latency, failures, traced, len(rounds)))
                sample(int((time.perf_counter() - refs[-1][0]) / REF_EVERY_S))
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(traced)
    wall = time.perf_counter() - w0
    cpu1 = os.times()
    sample(1)
    ops = []      # (case name, scaled latency, failures, traced, raw latency)
    busy = [0.0] * len(rounds)
    for case, t0, raw, failures, traced, rnd in timed:
        near = [r for t, r in refs if t0 - REF_WINDOW_S <= t <= t0 + raw + REF_WINDOW_S]
        latency = raw * REF_NOMINAL_S / statistics.median(near)
        ops.append((case, latency, failures, traced, raw))
        busy[rnd] += latency
    if wl.runner is not None:
        cpu = (cpu1.children_user - cpu0.children_user) + (cpu1.children_system
                                                          - cpu0.children_system)
    else:
        cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    return ops, list(zip(rounds, busy)), cpu / wall, [r for _, r in refs]


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "allowed_cpus": len(ALLOWED_CPUS),
            "cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "STRCONVEX_THREADS": os.environ.get("STRCONVEX_THREADS", "unset")}


def failure_lines(name, failures, known_defect):
    """One line per distinct (case, gate, numbers), with its count."""
    counts = {}
    for case, f in failures:
        key = (case, json.dumps(f, sort_keys=True, default=float))
        counts[key] = counts.get(key, 0) + 1
    lines = []
    for (case, text), n in sorted(counts.items()):
        why = known_defect(name, case, json.loads(text))
        lines.append(f"  {n}x {case}: {text}" + (f"  [known defect: {why}]" if why else ""))
    return lines


def shared_metrics(ops, cpu_per_wall):
    """fail_fraction, the CLI subcommand times and proc.cpu_per_wall.

    --trace 0 prints them and --trace 1 reports them as per-layer metrics.
    A subcommand time is the median over the plain (untraced) rounds, and 0 on
    a workload that starts no CLI process.
    """
    metrics = {"fail_fraction": (sum(1 for op in ops if op[2]) / len(ops), "ratio")}
    for case in CLI_CASES:
        cold = [op[1] for op in ops if op[0] == case and not op[3]]
        metrics[f"cli.{case}_s"] = (statistics.median(cold) if cold else 0.0, "s")
    metrics["proc.cpu_per_wall"] = (cpu_per_wall, "ratio")
    return metrics


def end_to_end(name, ops, setups):
    """End-to-end metrics from the plain (untraced) operations.

    Every case runs once per round, so each case has one latency per round.
    Every metric uses each case's median over the rounds, which keeps a short
    stall of the machine out of it: p50 is the median over the cases, the tail
    is the slowest case and throughput is cases per second of a round made of
    those medians.  (The median of all latencies pooled would fall in the gap
    between two groups of cases and jump with their order.)
    """
    by_case = {}
    for case, latency, *_ in ops:
        by_case.setdefault(case, []).append(latency)
    medians = {case: statistics.median(v) for case, v in by_case.items()}
    slowest = max(medians, key=medians.get)
    if name == "cli_cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rounds = min(len(v) for v in by_case.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_per_s": (len(medians) / sum(medians.values()), "ops/s"),
        "latency_p50_s": (statistics.median(medians.values()), "s"),
        "latency_tail_s": (medians[slowest], "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {
        "setup_s": "median of " + " ".join(f"{s:.4f}" for s in setups),
        "throughput_ops_per_s": f"{len(medians)} cases x {rounds} rounds",
        "latency_p50_s": f"median of {len(medians)} case medians",
        "latency_tail_s": f"slowest case {slowest}, median of {len(by_case[slowest])} samples",
        "peak_rss_mb": "CLI child processes" if name == "cli_cold" else "this process",
    }
    return metrics, notes


def scaled(metrics, scale):
    """The metrics with every time multiplied by scale."""
    return {k: (v * scale if u in ("s", "s/op") else v, u) for k, (v, u) in metrics.items()}


def per_layer(wl, ops, rounds, tracer):
    import spans

    traced_ops = [op for op in ops if op[3]]
    if wl.runner is not None:
        agg, absent = {}, set()
        for child in wl.runner.aggregates:
            spans.merge(agg, child["aggregate"])
            absent.update(child["absent"])
    else:
        agg, absent = spans.aggregate(tracer.spans), set(tracer.absent)
    metrics = spans.layer_metrics(agg, len(traced_ops), absent)
    imports = agg.get("cli.import", {"self_s": 0.0, "calls": 0})
    metrics["cli.import_s"] = (imports["self_s"] / imports["calls"] if imports["calls"]
                               else 0.0, "s")
    traced = [b for t, b in rounds if t]
    plain = [b for t, b in rounds if not t]
    metrics["trace.overhead"] = (statistics.mean(traced) / statistics.mean(plain) - 1.0, "ratio")
    return metrics, sorted(absent)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "strconvex", "__init__.py")):
        print("perfbench: no src/strconvex here; run from the root of a strconvex checkout",
              file=sys.stderr)
        return 2
    # the default single-threaded scan path is the one measured
    os.environ.pop("STRCONVEX_THREADS", None)
    # One BLAS thread, here and in every child (numpy is not imported yet): the
    # host has two vCPUs shared with other tenants, and a BLAS team spread over
    # both runs at the pace of the slower one.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # This process and every child run on one vCPU: the host's vCPUs run at
    # speeds that differ and change over time, and the reference unit tracks
    # only the vCPU it runs on.
    try:
        os.sched_setaffinity(0, {ALLOWED_CPUS[0]})
    except OSError:
        pass  # the report's "cpus" then lists every allowed vCPU
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        if args.setup_probe:
            _, _, setup_s, _ = setup(args.workload, args.seed, tmp)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        probes = [] if args.trace else [setup_probe(args.workload, args.seed)
                                        for _ in range(SETUP_SAMPLES - 1)]
        workloads, wl, setup_s, warm_failures = setup(args.workload, args.seed, tmp)
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        ops, rounds, cpu_per_wall, refs = measure(workloads, wl, args.seconds, tracer)
        return report(args, workloads, wl, ops, rounds, cpu_per_wall, refs,
                      [setup_s] + probes, warm_failures, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass


def report(args, workloads, wl, ops, rounds, cpu_per_wall, refs, setups, warm_failures,
           tracer):
    name = args.workload
    failures = [(op[0], f) for op in ops for f in op[2]]
    unexpected = [(c, f) for c, f in failures + warm_failures
                  if workloads.known_defect(name, c, f) is None]
    plain = [op for op in ops if not op[3]]
    print(f"perfbench workload={name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + json.dumps(environment()))
    print(f"load: closed loop, one client; {len(rounds)} rounds of {len(wl.cases)} cases, "
          f"{len(ops)} ops ({len(ops) - len(plain)} traced)")
    q = statistics.quantiles(refs, n=4)
    scale = REF_NOMINAL_S / q[1]
    print(f"host: reference unit {q[1] * 1e3:.3f} ms (quartiles {q[0] * 1e3:.3f} "
          f"{q[2] * 1e3:.3f}, {len(refs)} samples); latencies and set-up "
          f"times are scaled to {REF_NOMINAL_S * 1e3:g} ms by the samples near each, "
          f"span times by {REF_NOMINAL_S * 1e3:g}/{q[1] * 1e3:.3f} = {scale:.4f}")
    shared = shared_metrics(ops, cpu_per_wall)
    if args.trace:
        metrics, absent = per_layer(wl, ops, rounds, tracer)
        metrics = scaled(metrics, scale)
        metrics.update(shared)
        for key, (value, unit) in sorted(metrics.items()):
            print(f"  {key:40s} {value:14.6g} {unit}")
        print("absent (not in this program): " + (", ".join(absent) or "none"))
    else:
        metrics, notes = end_to_end(name, plain, [s for s, _ in setups])
        raw, _ = end_to_end(name, [(c, r, f, t) for c, _, f, t, r in plain],
                            [r for _, r in setups])
        print(f"  {'metric':24s} {'scaled':>12s} {'raw':>12s}")
        for key, (value, unit) in metrics.items():
            print(f"  {key:24s} {value:12.6g} {raw[key][0]:12.6g} {unit:6s} {notes[key]}")
        print("also (per-layer metrics of --trace 1):")
        for key, (value, unit) in shared.items():
            print(f"  {key:24s} {value:12.6g} {unit}")
    print(f"failed ops: {sum(1 for op in ops if op[2])} of {len(ops)}")
    for line in failure_lines(name, failures + warm_failures, workloads.known_defect):
        print(line)
    result = {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op[2]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
