"""xifamily benchmark, run from the root of a checkout.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Every workload runs in its own fresh interpreter
(``worker.py``) with single-threaded BLAS and the checkout's src/ first on
PYTHONPATH. The last line of standard output is the JSON result; see
README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Fresh processes timed for setup_s before and after the measured run;
#: the median of all of them is reported. Splitting them samples the
#: machine at both ends of the run rather than in one short burst.
SETUP_SAMPLES = (3, 2)
PROBE_TIMEOUT_S = 30
RUN_TIMEOUT_S = 120
WORKLOADS = ("screen", "table", "test")
#: Pinned to 1 so that numpy's BLAS keeps the workload single-threaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(cmd, env, timeout) -> list:
    """Run a worker to completion (killed and reaped on timeout); its stdout lines."""
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {timeout} s: {' '.join(cmd)}") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout.strip().splitlines()


def run_workload(name, args, root, env) -> int:
    """Probe set-up, run the workload, print its report and JSON result."""
    worker = [sys.executable, str(Path(__file__).resolve().with_name("worker.py")),
              "--workload", name, "--seed", str(args.seed)]

    def probes(count):
        samples = []
        for _ in range(0 if args.trace else count):
            start = time.monotonic()
            probe = json.loads(run_child(worker + ["--probe"], env, PROBE_TIMEOUT_S)[-1])
            samples.append(probe["ready"] - start + probe["warmup_s"])
        return samples

    try:
        setup = probes(SETUP_SAMPLES[0])
        lines = run_child(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                          env, RUN_TIMEOUT_S)
        setup += probes(SETUP_SAMPLES[1])
        result = json.loads(lines[-1])
    except (ChildFailed, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass
    for line in lines[:-1]:
        print(line)
    if setup:
        value = statistics.median(setup)
        print(f"setup_s = {value:.6g} s  (median of {len(setup)} fresh processes: "
              + ", ".join(f"{s:.3f}" for s in setup) + ")")
        result["metrics"] = {"setup_s": {"value": value, "unit": "s"}, **result["metrics"]}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="xifamily benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all three in turn, each with its own report")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "xifamily" / "__init__.py").is_file():
        print("error: no src/xifamily here; run from the root of a xifamily checkout",
              file=sys.stderr)
        return 2
    env = child_env(root)
    if args.workload != "all":
        return run_workload(args.workload, args, root, env)
    codes = []
    for name in WORKLOADS:
        print(f"== {name}")
        codes.append(run_workload(name, args, root, env))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
