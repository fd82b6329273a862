"""Performance benchmark of covsel: four CLI workloads, checked outputs.

Usage, from the repository root::

    python3 benchmarks/perf.py --workload select-obs --seed 1 --seconds 25 --trace 0
    python3 benchmarks/perf.py                  # every workload, seed 0

Each workload runs in its own process with one caller (a closed loop) and
BLAS/OpenMP pinned to one thread.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced operations and
reports the per-layer metrics of the traced ones plus the tracing overhead.
The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "covsel"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

# One BLAS thread: at these sizes two threads were no faster on a 2-core
# host, and they add scheduling noise from the machine's other tenants.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up times on a shared host drift between periods of tens of seconds,
# so half the samples are taken before the workload process and half after.
SETUP_SAMPLES = 10
# A workload may take --seconds plus this long for its set-up interpreters,
# the warm-up and the operation under way when --seconds run out.
DEADLINE_MARGIN_S = 145.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def environment_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                   capture_output=True, text=True, check=False)
            commit = probe.stdout.strip() or None
        except OSError:
            pass
    env = worker_env()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _setup_times(name: str, env: dict, count: int, deadline: float) -> list:
    times = []
    for _ in range(count):
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), "setup", name], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference,
                 declared: list) -> tuple[dict, dict]:
    """Set up and run one workload; return its ``(result, report)``."""
    deadline = time.monotonic() + seconds + DEADLINE_MARGIN_S
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = worker_env()
    samples = 0 if trace else SETUP_SAMPLES  # only untraced runs report setup_s
    try:
        setup_times = _setup_times(name, env, samples // 2, deadline)
        spec = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "argv": workload.prepare(seed, work),
            "out": str(work / "out"),
            "result": str(work / "result.json"),
            "trace_file": str(WORK / f"trace-{name}-seed{seed}.jsonl.gz"),
            "reference": reference,
        }
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        subprocess.run([sys.executable, str(HERE / "worker.py"), "run", str(work / "spec.json")],
                       env=env, check=True, timeout=max(deadline - time.monotonic(), 1.0))
        report = json.loads((work / "result.json").read_text(encoding="utf-8"))
        setup_times += _setup_times(name, env, samples - samples // 2, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["setup_times"] = setup_times
    return summarize(workload, report, trace, declared), report


def summarize(workload, report: dict, trace: bool, declared: list) -> dict:
    """Print the workload's metrics, in the order BENCHMARK.json declares them, and return its result."""
    ops = report["ops"]
    failed = sum(not op["ok"] for op in ops)
    measured = [op for op in ops if op["kind"] != "warmup"]
    print(f"{workload.name}: {len(measured)} measured operations "
          f"(warm-up {ops[0]['wall_s']:.3f} s, excluded), tracing {'on' if trace else 'off'}")
    if trace:
        untraced = [op["wall_s"] for op in measured if op["kind"] == "untraced"]
        traced = [op["wall_s"] for op in measured if op["kind"] == "traced"]
        values = dict(report["layer"])
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        notes = {"trace.overhead_s": f"median of {len(traced)} traced minus median of "
                                     f"{len(untraced)} untraced operations"}
        default_note = f"median of {len(traced)} traced operations"
    else:
        walls = sorted(op["wall_s"] for op in measured if op["ok"]) or sorted(op["wall_s"] for op in measured)
        low, high = _quartiles(walls)
        busy = sum(op["wall_s"] for op in measured)
        reps = workload.reps_per_op * sum(op["ok"] for op in measured)
        setups = report["setup_times"]
        values = {
            "wall_s": statistics.median(walls),
            "reps_per_s": reps / busy,
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        notes = {
            "wall_s": f"median of {len(walls)} operations, quartiles {low:.4g} and {high:.4g}",
            "reps_per_s": f"{reps} replications in {busy:.3f} s of operations",
            "peak_rss_mb": "the workload process",
            "setup_s": f"median of {len(setups)} fresh interpreters",
        }
        default_note = ""
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": {}}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        result["metrics"][name] = {"value": values[name], "unit": unit}
        print(f"  {name:<44} {values[name]:>14.6g} {unit:<6} {notes.get(name, default_note)}")
    print(f"  {'failed_frac':<44} {failed / len(ops):>14.6g} {'':<6} "
          f"{failed} of {len(ops)} operations, warm-up included")
    return result


def main(argv=None) -> int:
    declaration = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declaration["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs as the reference for --seed")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SOURCE / "__init__.py").is_file():
        print(f"covsel sources not found under {SOURCE.parent}; run from a covsel checkout",
              file=sys.stderr)
        return 2

    declared = declaration["per_layer" if args.trace else "end_to_end"]
    stored = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if args.record_reference and stored["seed"] != args.seed:
        stored.update(seed=args.seed, workloads={})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("environment:", json.dumps(environment_record(), sort_keys=True))
    results = {}
    for name in names:
        reference = None
        if not args.record_reference and stored["seed"] == args.seed and name in stored["workloads"]:
            reference = {"fingerprint": stored["workloads"][name], "rtol": stored["rtol"]}
        try:
            results[name], report = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                                 reference, declared)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"{name}: the workload did not complete: {exc}", file=sys.stderr)
            return 1
        if args.record_reference:
            if not results[name]["correct"]:
                print(f"{name}: not recording a reference from a failed run", file=sys.stderr)
                return 1
            stored["workloads"][name] = report["fingerprint"]
            REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items() for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
