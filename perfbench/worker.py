"""One workload in a fresh interpreter: a set-up probe, a timed run or a traced run.

``run.py`` starts this with src/ on PYTHONPATH and single-threaded BLAS;
run it by hand the same way from the root of a checkout:

    PYTHONPATH=src python3 perfbench/worker.py --workload screen --seed 1 --seconds 30 --trace 0
    PYTHONPATH=src python3 perfbench/worker.py --workload screen --seed 1 --probe

The last line of standard output is a JSON object; the lines before it are
the human-readable report.
"""

import argparse
import json
import os
import sys
import time

# Imported before anything else so that a probe times a fresh interpreter
# up to a usable library, which is what a CLI user waits for.
import xifamily
import xifamily.cli

READY = time.monotonic()

import hashlib  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from workloads import FAILED, REFUSED, WORKLOADS, attempt  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="time import plus one warm-up op, then exit")
    return p.parse_args(argv)


# ------------------------------------------------------------------ running

def warm_up(ops, calls):
    """One op of each setting, so lazy set-up is done before timing."""
    seen = set()
    for op, call in zip(ops, calls):
        if op.setting not in seen:
            seen.add(op.setting)
            attempt(call, xifamily)


def timed_loop(calls, seconds):
    """Closed loop, one caller: the next op starts when the last returns."""
    outputs, latencies = [], []
    start = time.perf_counter()
    end = start
    while end < start + seconds:
        t0 = time.perf_counter()
        outputs.append(attempt(calls[len(outputs) % len(calls)], xifamily))
        end = time.perf_counter()
        latencies.append(end - t0)
    return outputs, latencies, end - start


def run_cycles(calls, cycles):
    outputs = []
    start = time.perf_counter()
    for _ in range(cycles):
        outputs.extend(attempt(call, xifamily) for call in calls)
    return outputs, time.perf_counter() - start


# ----------------------------------------------------------------- checking

def verify(workload, ops, outputs):
    """Status of every output against the reference, computed once per op."""
    expected = {}
    statuses = []
    for i, output in enumerate(outputs):
        k = i % len(ops)
        if k not in expected:
            expected[k] = workload.reference(ops[k])
        statuses.append(workload.check(ops[k], output, expected[k]))
    return statuses, expected


def negative_control(workload, ops, outputs, statuses, expected):
    """True when a result moved by reference.PERTURBATION is caught."""
    for i, (output, status) in enumerate(zip(outputs, statuses)):
        if status not in (FAILED, REFUSED):
            k = i % len(ops)
            return workload.check(ops[k], workload.perturb(output), expected[k]) == FAILED
    return False


# ---------------------------------------------------------------- reporting

def provenance(args):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = Path(xifamily.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(), "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref_file = Path(".git") / text[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + text[5:]):
                return line.split()[0]
    return None


def input_properties(ops, count, expected):
    """Measured shares of the ops actually run, and of their series."""
    executed = [ops[i % len(ops)] for i in range(count)]
    settings = Counter(op.setting for op in executed)
    sizes = Counter(op.n for op in executed)
    totals = Counter()
    for i in range(count):
        totals.update(expected[i % len(ops)]["props"])
    return {
        "ops": count,
        "n_share": {str(n): c / count for n, c in sorted(sizes.items())},
        "setting_share": {s: c / count for s, c in sorted(settings.items())},
        "series": totals["series"],
        "tied_y_share": totals["tied"] / totals["series"],
        "constant_series": totals["constant"],
    }


def metric(name, value, unit, note=""):
    print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    return {name: {"value": value, "unit": unit}}


def layer_metrics(tracer, ops, cycles, overhead):
    count = len(ops) * cycles
    ms = 1e6 * count  # ns total -> ms per op
    coefficient_self = sum(tracer.self_ns[n] for n, g in spans.GROUPS.items()
                           if g == "estimator.coefficient")
    values = tracer.counts[spans.KERNEL_EVAL + ".values"]
    needed = cycles * sum(op.pairs_needed for op in ops)
    rows = [
        ("kernels.eval.values", values / count, "count/op"),
        ("kernels.eval.calls", tracer.calls[spans.KERNEL_EVAL] / count, "count/op"),
        ("kernels.eval.redundancy", values / needed if needed else 0.0, "ratio"),
        ("kernels.eval.ms", tracer.total_ns[spans.KERNEL_EVAL] / ms, "ms/op"),
        ("estimator.coefficient.self_ms", coefficient_self / ms, "ms/op"),
        ("inference.sigma2_ustat.ms", tracer.total_ns["inference.sigma2_ustat"] / ms, "ms/op"),
        ("inference.sigma2_ustat.calls", tracer.calls["inference.sigma2_ustat"] / count, "count/op"),
        ("inference.independence_test.self_ms",
         tracer.self_ns["inference.independence_test"] / ms, "ms/op"),
        ("kernels.normalization_constant.ms",
         tracer.total_ns["kernels.normalization_constant"] / ms, "ms/op"),
        ("kernels.quadrature.calls",
         tracer.calls["kernels.integrate_unit_square"] / count, "count/op"),
        ("estimator.order_by_x.ms", tracer.total_ns["estimator.order_by_x"] / ms, "ms/op"),
        ("estimator.ranks.ms", tracer.total_ns["estimator.ranks"] / ms, "ms/op"),
        ("estimator.baseline.ms", tracer.group_ns["estimator.baseline"] / ms, "ms/op"),
        ("cdf.map.ms", tracer.total_ns[spans.MAP_EVAL] / ms, "ms/op"),
        ("cdf.map.values", tracer.counts[spans.MAP_EVAL + ".values"] / count, "count/op"),
        ("cli.load_csv.ms", tracer.total_ns["cli.load_csv"] / ms, "ms/op"),
        ("cli.load_csv.cells", tracer.counts["cli.load_csv.cells"] / count, "count/op"),
        ("simulate.generate.ms", tracer.total_ns["simulate.generate"] / ms, "ms/op"),
        ("simulate.replicate.self_ms", tracer.self_ns["simulate.replicate"] / ms, "ms/op"),
        ("trace.overhead_frac", overhead, "ratio"),
    ]
    out = {}
    for name, value, unit in rows:
        out.update(metric(name, value, unit))
    return out


def span_table(tracer, count):
    print(f"spans over {count} traced ops (per op): calls, inclusive ms, self ms")
    for name in sorted(tracer.calls):
        print(f"  {name:40s} {tracer.calls[name] / count:12.2f} "
              f"{tracer.total_ns[name] / 1e6 / count:10.4f} {tracer.self_ns[name] / 1e6 / count:10.4f}")


# --------------------------------------------------------------------- main

def measure(args, workload, ops, calls):
    outputs, latencies, wall = timed_loop(calls, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    statuses, expected = verify(workload, ops, outputs)
    count = len(outputs)
    ordered = sorted(latencies)
    p90_index = max(0, math.ceil(0.9 * count) - 1)
    failed = statuses.count(FAILED)
    print("inputs: " + json.dumps(input_properties(ops, count, expected)))
    metrics = {}
    metrics.update(metric("ops_per_s", count / wall, "1/s", f"{count} ops in {wall:.3f} s"))
    metrics.update(metric("op_p50_ms", 1e3 * statistics.median(latencies), "ms", f"{count} ops"))
    metrics.update(metric("op_p90_ms", 1e3 * ordered[p90_index], "ms",
                          f"{count} ops, {count - p90_index - 1} beyond"))
    metrics.update(metric("peak_rss_mb", rss_mb, "MB", "ru_maxrss after the timed loop"))
    metric("fail_frac", failed / count, "ratio", f"{failed} of {count}")
    metric("ops.refused", statuses.count(REFUSED) / count, "ratio")
    caught = negative_control(workload, ops, outputs, statuses, expected)
    print(f"negative control (result moved by 1e-9 is caught): {caught}")
    return {"correct": failed == 0 and caught, "attempted": count, "failed": failed,
            "metrics": metrics}


def traced(args, workload, ops, calls):
    tracer = spans.Tracer()
    missing = tracer.install(xifamily)
    try:
        traced_calls = [workload.bind(op, xifamily) for op in ops]
    finally:
        tracer.uninstall()
    tracer.reset()  # binding is set-up, not op work
    # Untraced and traced whole cycles alternate, so that a drift in machine
    # speed hits both alike; whole cycles keep every per-op count identical
    # from run to run.
    cycles, untraced_s, traced_s, plain, with_spans = 0, 0.0, 0.0, [], []
    while cycles == 0 or untraced_s + traced_s < args.seconds:
        outputs, elapsed = run_cycles(calls, 1)
        plain += outputs
        untraced_s += elapsed
        tracer.install(xifamily)
        try:
            outputs, elapsed = run_cycles(traced_calls, 1)
        finally:
            tracer.uninstall()
        with_spans += outputs
        traced_s += elapsed
        cycles += 1
    outputs = plain + with_spans
    statuses, expected = verify(workload, ops, outputs)
    mismatched = sum(repr(a) != repr(b) for a, b in zip(plain, with_spans))
    count = len(with_spans)
    print("inputs: " + json.dumps(input_properties(ops, count, expected)))
    print(f"traced {cycles} cycles of {len(ops)} ops; untraced {untraced_s:.3f} s, "
          f"traced {traced_s:.3f} s; outputs differing from untraced: {mismatched}")
    silent = sorted(f"{layer}.{f}" for layer, names in spans.SPANS.items() for f in names
                    if tracer.calls[f"{layer}.{f}"] == 0) + \
        [n for n in (spans.KERNEL_EVAL, spans.MAP_EVAL) if tracer.calls[n] == 0]
    print("missing (not found in the library): " + (", ".join(missing) or "none"))
    print("missing (span never fired; its metrics read 0 below): " + (", ".join(silent) or "none"))
    span_table(tracer, count)
    metrics = layer_metrics(tracer, ops, cycles, 1.0 - untraced_s / traced_s)
    metrics.update(metric("ops.refused", statuses[len(plain):].count(REFUSED) / count, "ratio"))
    failed = statuses.count(FAILED) + mismatched
    metric("fail_frac", failed / len(outputs), "ratio", f"{failed} of {len(outputs)}")
    return {"correct": failed == 0 and not missing, "attempted": len(outputs), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    src = (Path.cwd() / "src").resolve()
    if src not in Path(xifamily.__file__).resolve().parents:
        print(f"error: imported {xifamily.__file__}, not the package under {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = Path(".perfbench_work") / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = workload.build(args.seed, workdir)
        calls = [workload.bind(op, xifamily) for op in ops]
        if args.probe:
            first = min(range(len(ops)), key=lambda k: (ops[k].setting, ops[k].n))
            start = time.perf_counter()
            attempt(calls[first], xifamily)
            print(json.dumps({"ready": READY, "warmup_s": time.perf_counter() - start}))
            return 0
        print("provenance: " + json.dumps(provenance(args)))
        warm_up(ops, calls)
        result = (traced if args.trace else measure)(args, workload, ops, calls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
