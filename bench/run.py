"""bandtile benchmark: one workload per run, one unit at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bandtile checkout; the package is imported from its
src/ directory. With --trace 0 the run sets up, runs a closed loop of
units for S seconds, checks every unit's output and prints the end-to-end
metrics, with every timing corrected for the machine's speed by a
reference kernel run between units (see "speed reference" below). With --trace 1 it runs each unit twice, untraced and traced in
alternating order, for S seconds in all, and prints the per-layer metrics.
The last line of standard output is the JSON result; the exit code is 0
when every check passed, 1 when a check failed and 2 when the package
cannot be found.
"""

import time

_T0 = time.perf_counter()  # set-up starts before the package is imported

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_SAMPLES = 3  # this process and two fresh children, median reported
TAIL_BEYOND = 10  # units beyond the tail percentile
CHILD_TIMEOUT_S = 170


def import_package():
    """Import bandtile from this checkout's src/, or exit with code 2."""
    init = SRC / "bandtile" / "__init__.py"
    if not init.is_file():
        print(f"error: {init.relative_to(ROOT)} not found; run the "
              f"benchmark from the root of a bandtile checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bandtile
    if Path(bandtile.__file__).resolve() != init.resolve():
        print(f"error: imported bandtile from {bandtile.__file__}, not "
              f"from this checkout", file=sys.stderr)
        sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once and print the set-up time (used for "
                        "the extra set-up samples)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


# ---------------------------------------------------------------------------
# machine line


def _blas_threads():
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return str(get())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_line():
    import numpy
    import scipy
    return (f"machine: nproc {len(os.sched_getaffinity(0))}, cpu "
            f"{_cpu_model()}, python {platform.python_version()}, numpy "
            f"{numpy.__version__}, scipy {scipy.__version__}, blas threads "
            f"{_blas_threads()}")


# ---------------------------------------------------------------------------
# speed reference
#
# A shared VM can change speed by 2x and more within seconds, and a fixed
# unit's wall time follows. Every unit is therefore
# bracketed by a reference kernel of fixed work that does not touch the
# package, and each timing is rescaled to the kernel's nominal speed:
# corrected = measured * REF_NOMINAL_S / reference time around it. Program
# changes move the corrected times as they move the wall times; machine
# drift moves the reference with them and cancels.

REF_NOMINAL_S = 0.010  # round figure; 6 to 12 ms on a 2-core Xeon VM
SETUP_REFS = 5  # reference runs after each set-up, median taken
_REF_ARRAY = None


def reference_seconds():
    """Wall time of one run of the reference kernel: interpreter work
    (float and dict operations, Fraction sums) and numpy work (a 1 MiB
    array pass and many small-array calls), in about equal parts."""
    global _REF_ARRAY
    import numpy as np
    if _REF_ARRAY is None:
        _REF_ARRAY = np.random.default_rng(0).random(1 << 17)
    small = _REF_ARRAY[:64]
    t0 = time.perf_counter()
    s, d, f = 0.0, {}, Fraction(0)
    for i in range(12000):
        s += (i * 0.5) % 7.0
        d[i & 255] = (s, i)
    for i in range(1, 200):
        f += Fraction(1, i % 31 + 1)
    np.cumsum(np.sin(_REF_ARRAY) * _REF_ARRAY)
    v = small
    for _ in range(150):
        v = np.abs(np.exp(1j * v)).real * small + v.mean()
    return time.perf_counter() - t0


def corrected(times, refs):
    """Unit times at the reference's nominal speed; refs[i] and refs[i+1]
    are the references run just before and just after unit i."""
    return [t * 2.0 * REF_NOMINAL_S / (a + b)
            for t, a, b in zip(times, refs, refs[1:])]


def setup_speed():
    """Median reference time right after a set-up, to correct it with."""
    return statistics.median(reference_seconds() for _ in range(SETUP_REFS))


# ---------------------------------------------------------------------------
# units and passes


def run_unit(wl, unit):
    """(seconds, output, problems) of one unit; a raising unit has output
    None and its traceback as the problem."""
    t0 = time.perf_counter()
    try:
        out = wl.run(unit)
    except Exception:
        return (time.perf_counter() - t0, None,
                ["raised: " + traceback.format_exc().strip()])
    elapsed = time.perf_counter() - t0
    try:
        problems = wl.check(unit, out)
    except Exception:
        problems = ["check raised: " + traceback.format_exc().strip()]
    return elapsed, out, problems


def set_up(name, seed, tracer=None):
    """Build the workload, compute its references and run the warm-up
    unit. With a tracer, the set-up is traced under unit id 'setup'."""
    import workloads
    wl = workloads.WORKLOADS[name](seed)
    if tracer is not None:
        tracer.unit = "setup"
        tracer.install()
    try:
        wl.setup()
        warm = wl.warmup()
        _, _, problems = run_unit(wl, warm)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wl, [(f"{name}#warmup {warm.label}", problems)] if problems else []


def timed_pass(wl, seconds):
    """Closed loop of units, each followed by a reference run. Returns
    (unit times, reference times, wall time, failures); refs[0] runs
    before the first unit."""
    times, refs, failures = [], [reference_seconds()], []
    start = time.perf_counter()
    i = 0
    while True:
        unit = wl.unit(i)
        elapsed, _, problems = run_unit(wl, unit)
        times.append(elapsed)
        refs.append(reference_seconds())
        if problems:
            failures.append((f"{wl.name}#{i} {unit.label}", problems))
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    return times, refs, time.perf_counter() - start, failures


def traced_pass(wl, seconds, tracer):
    """Each unit untraced and traced, alternating which goes first. Returns
    (units, untraced seconds, traced seconds, failures)."""
    walls = {False: 0.0, True: 0.0}
    failures = []
    start = time.perf_counter()
    i = 0
    while True:
        unit = wl.unit(i)
        outs, problems = {}, []
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.unit = i
                tracer.install()
            try:
                elapsed, outs[traced], found = run_unit(wl, unit)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced] += elapsed
            problems += [("traced: " if traced else "") + p for p in found]
        if outs[False] != outs[True]:
            problems.append("traced output differs from untraced output")
        if problems:
            failures.append((f"{wl.name}#{i} {unit.label}", problems))
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    return i, walls[False], walls[True], failures


def child_setup_seconds(name, seed):
    """Corrected set-up time of a fresh process, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# reporting


def tail(times):
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND units beyond it, or the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def report_failures(failures):
    for label, problems in failures:
        print(f"FAILED {label}")
        for p in problems:
            print("    " + p.replace("\n", "\n    "))


def emit(correct, attempted, failed, metrics):
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def untraced_run(args):
    wl, failures = set_up(args.workload, args.seed)
    elapsed = time.perf_counter() - _T0
    setup = [elapsed * REF_NOMINAL_S / setup_speed()]
    for _ in range(SETUP_SAMPLES - 1):
        setup.append(child_setup_seconds(args.workload, args.seed))
    raw_times, refs, wall, unit_failures = timed_pass(wl, args.seconds)
    times = corrected(raw_times, refs)
    failures += unit_failures
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_s, pct = tail(times)
    n = len(times)
    print(machine_line())
    print(f"workload {wl.name}: seed {args.seed}, {n} units in {wall:.3f} s "
          f"(closed loop, one unit at a time, each followed by the "
          f"reference kernel)")
    print(f"reference kernel: median {1e3 * statistics.median(refs):.3f} ms "
          f"over {len(refs)} runs, nominal {1e3 * REF_NOMINAL_S:.3f} ms")
    print(f"uncorrected: {n / sum(raw_times):.6g} units/s, median unit "
          f"{1e3 * statistics.median(raw_times):.6g} ms, set-up (this "
          f"process) {elapsed:.4f} s")
    print(f"corrected set-up samples (s): "
          f"{', '.join(f'{s:.4f}' for s in setup)}")
    print(f"unit_tail_ms is p{pct:.1f} of {n} units")
    failed = len(unit_failures)
    print(f"fail_ratio {failed}/{n} = {failed / n:.4g}")
    report_failures(failures)
    metrics = {
        "units_per_s": metric(n / sum(times), "units/s"),
        "unit_p50_ms": metric(1e3 * statistics.median(times), "ms"),
        "unit_tail_ms": metric(1e3 * tail_s, "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_mib, "MiB"),
    }
    return emit(not failures, n, failed, metrics)


def traced_run(args):
    import tracer as tracing
    tracer = tracing.Tracer()
    wl, failures = set_up(args.workload, args.seed, tracer)
    n, plain, traced, unit_failures = traced_pass(wl, args.seconds, tracer)
    failures += unit_failures
    tracer.finish_counts()
    calls, self_s = tracer.summary()
    for name in wl.traced:
        if calls[name] == 0:
            failures.append((f"{wl.name} trace", [f"{name} recorded no calls"]))
    TRACE_DIR.mkdir(exist_ok=True)
    spans_path = TRACE_DIR / f"{wl.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(machine_line())
    print(f"workload {wl.name}: seed {args.seed}, {n} units run untraced "
          f"({plain:.3f} s) and traced ({traced:.3f} s); "
          f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")
    _, unit_self = tracer.summary(skip_unit="setup")
    top = sorted(unit_self.items(), key=lambda kv: -kv[1])[:5]
    print("largest self-time shares of the traced units: " + ", ".join(
        f"{name} {100.0 * s / traced:.1f}%" for name, s in top))
    report_failures(failures)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = metric(calls[name], "count")
        metrics[f"{name}.self_s"] = metric(self_s[name], "s")
    for name in tracing.COUNTERS:
        metrics[name] = metric(tracer.counts[name], "count")
    metrics["trace.overhead"] = metric(traced / plain, "ratio")
    failed = len(unit_failures)
    return emit(not failures, n, failed, metrics)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        _, failures = set_up(args.workload, args.seed)
        if failures:
            report_failures(failures)
            return 1
        elapsed = time.perf_counter() - _T0
        print(json.dumps({"setup_s": elapsed * REF_NOMINAL_S
                          / setup_speed()}))
        return 0
    return traced_run(args) if args.trace else untraced_run(args)


if __name__ == "__main__":
    sys.exit(main())
