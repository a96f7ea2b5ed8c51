#!/usr/bin/env python3
"""Outside-in benchmark of centerbias.

    python3 perfbench/run.py --workload train-zero --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from anywhere; the program is imported from `src/` next to this
directory.  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end metrics
for `--trace 0` and the per-layer metrics for `--trace 1`.  Lines before it
give the same numbers by name and unit, the environment, the output checks
and the fingerprints of the outputs.  `--workload all` runs train-zero,
experiment-serial and inspect, each in its own process.  `--out FILE` also
writes the full record as JSON.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# `--workload all` runs the first three; experiment-circular, the same
# experiment on the default process pool, is a plain-only workload of its own
WORKLOADS = ("train-zero", "experiment-serial", "inspect",
             "experiment-circular")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms",
              "op_ms_p95": "ms", "items_per_s": "1/s"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "CENTERBIAS_WORKERS")


def git_head() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def src_line_counts() -> dict[str, int]:
    """All lines of src/**/*.py, and the net count without blank and
    comment-only lines."""
    total = net = 0
    for dirpath, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as f:
                    for line in f:
                        total += 1
                        stripped = line.strip()
                        net += bool(stripped) and not stripped.startswith("#")
    return {"src_lines": total, "src_lines_net": net}


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_head": git_head(),
        **src_line_counts(),
    }


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The program's spawned process pool starts it, and it would otherwise
    outlive this process for a moment.  A no-op if it never started."""
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def _line(name, value, unit) -> str:
    return f"  {name:<40} {value:>14.6g} {unit}"


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "centerbias")):
        print(f"perfbench: no program to measure: {SRC}/centerbias is "
              "missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import workloads

    env = environment()
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        out = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), SRC, tmp)
    finally:
        stop_resource_tracker()
        shutil.rmtree(tmp, ignore_errors=True)
    e2e = {"peak_rss_mb": peak_rss_mb(), **out.end_to_end()}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))
    print(f"end-to-end ({len(out.op_seconds)} plain ops):")
    for name, unit in END_TO_END.items():
        print(_line(name, e2e[name], unit))
    for name, (value, unit) in out.named.items():
        print(_line(name, value, unit))
    print(_line("failed_ratio", out.failed / out.attempted,
                f"({out.failed} of {out.attempted} ops)"))
    print("checks: " + ("ok" if not out.errors else "; ".join(out.errors)))
    print("fingerprints: " + " ".join(f"{k}={v}"
                                     for k, v in out.fingerprints.items()))
    if args.trace:
        print("per-layer (traced run):")
        for name, value in out.per_layer.items():
            print(_line(name, value, layers.UNITS[name]))
        print("conv layers per op (GFLOP and im2col MB computed from "
              "shapes):")
        print(f"  {'layer':<8}{'fwd_ms':>10}{'bwd_ms':>10}{'gflop':>10}"
              f"{'im2col_mb':>11}")
        for layer, fwd, bwd, gflop, mb in out.conv_table:
            print(f"  {layer:<8}{fwd:>10.3f}{bwd:>10.3f}{gflop:>10.4f}"
                  f"{mb:>11.2f}")
        spans_dir = os.path.join(ROOT, ".perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        out.tracer.write_jsonl(os.path.join(spans_dir,
                                            f"{args.workload}.jsonl"))
        metrics = {k: {"value": v, "unit": layers.UNITS[k]}
                   for k, v in out.per_layer.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END.items()}
    result = {"correct": out.failed == 0, "attempted": out.attempted,
              "failed": out.failed, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "env": env, "result": result,
                       "end_to_end": e2e,
                       "op_seconds": out.op_seconds,
                       "named": {k: {"value": v, "unit": u}
                                 for k, (v, u) in out.named.items()},
                       "fingerprints": out.fingerprints,
                       "errors": out.errors,
                       "conv_table": out.conv_table}, f, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    records, combined = {}, {"correct": True, "attempted": 0, "failed": 0,
                             "metrics": {}}
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        for name in WORKLOADS[:3]:
            record_path = os.path.join(tmp, f"{name}.json")
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--out", record_path],
                stdout=subprocess.PIPE, text=True)
            print(done.stdout, end="", flush=True)
            if done.returncode != 0:
                return done.returncode
            with open(record_path) as f:
                records[name] = json.load(f)
            result = records[name]["result"]
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}/{k}": v for k, v in result["metrics"].items()})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(records, f, indent=1)
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here")
    args = parser.parse_args(argv)
    if args.trace and args.workload == "experiment-circular":
        parser.error("experiment-circular has no traced run; the traced run "
                     "of experiment-serial also times the default pool")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
