#!/usr/bin/env python3
"""riskmono benchmark: runs a workload end to end and prints its metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in its own process (workload.py) with OpenBLAS at one
thread and RISKMONO_THREADS=2, both set before numpy loads.  With --trace 0
the last line is a JSON object with the end-to-end metrics wall_s, cpu_s,
setup_s and peak_rss_mb; with --trace 1 it holds the per-layer metrics of a
traced run instead.  --workload all runs the four workloads in turn and
prints one line per workload before a combined JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOADS = ("zero_dense_mn2ls", "one_dense_mn2ls", "sparse_l1", "profiles_curve")
# set-up is measured in this many fresh processes besides the measured one,
# and reported as the median
SETUP_SAMPLES = 2
# a workload's processes must all end within this many seconds
TIME_LIMIT = 170.0

# threads: no more than the 2 CPUs the reference figures were taken on.
# The sweep pool's workers are the parallelism; BLAS inside each stays serial.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "RISKMONO_THREADS": "2"}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(workload: str, seed: int, extra: list[str], deadline: float) -> dict:
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--out-dir", str(OUT_DIR),
           "--spawned-at", repr(spawned_at), *extra]
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish within {TIME_LIMIT:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    setups = []
    if not trace:
        setups = [_spawn(workload, seed, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
    measured = _spawn(workload, seed, ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    measured["setup_samples"] = setups
    (OUT_DIR / f"process-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(measured, indent=1) + "\n", encoding="utf-8")
    if trace:
        metrics = {name: {"value": measured["per_layer"][name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": {"value": measured["wall_s"], "unit": "s"},
            "cpu_s": {"value": measured["cpu_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups + [measured["setup_s"]]), "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }
    print(f"# {workload} seed {seed} trace {trace}: {measured['rounds']} rounds, "
          f"wall per round {measured['wall_s']:.4f} s, cpu per round {measured['cpu_s']:.4f} s, "
          f"{measured['attempted']} operations, {measured['failed']} failed, "
          f"correct {str(measured['correct']).lower()}, checks took {measured['check_s']:.1f} s")
    return {"correct": measured["correct"], "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run stops its workload process too: subprocess.run kills
    # the child when the exception raised here unwinds through it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "riskmono").is_dir():
        print(f"riskmono sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.workload == "all":
        for name, res in results.items():
            shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
            print(f"{name}: {shown}; attempted {res['attempted']}, failed {res['failed']}, "
                  f"correct {str(res['correct']).lower()}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    else:
        result = results[args.workload]

    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
