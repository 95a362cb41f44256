#!/usr/bin/env python3
"""Time `riskmono simulate` sweeps under the library's default thread
settings and with BLAS pinned, for one or more source checkouts.

Two configs, both dense mn2ls at n = 400, n_te 40, rho2 = 4, 10 replications:
`zero`, a zero-step sweep over AC-05's 14 gammas with block 20, and `one`, a
one-step sweep over gamma in {1.2, 1.5, 2} with block 30.  Each runs in a
fresh process under two environments, set before numpy loads:

- `default`: OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and RISKMONO_THREADS
  unset, so the library picks its own worker and BLAS thread counts;
- `pinned`: OpenBLAS on one thread and RISKMONO_THREADS=2, as in perfbench.

Checkouts alternate within each pair of runs, and the side that goes first
alternates between pairs.  Every CSV of a config must be byte-identical
across checkouts and environments; the script fails otherwise.  For a change
that alters outputs on purpose, --outputs-change records each checkout's CSV
hash instead, and still fails when a checkout's CSVs differ across
environments.  With
--tier1 it also times the Tier-1 test suite once per checkout, with the
default environment, and records the setup time of each acceptance sweep
fixture.

    python3 scripts/bench_sweep.py --checkout parent=/path/to/parent \\
        --checkout change=. --pairs 3 --tier1 --out BENCH_sweep.json
    python3 scripts/bench_sweep.py --checkout parent=/path/to/parent \\
        --checkout change=. --pairs 5 --tier1 --outputs-change --out BENCH_nested.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent

# AC-05's grid: 16 log-spaced gammas in [0.1, 10] without the two near 1
_FULL = np.exp(np.linspace(math.log(0.1), math.log(10.0), 16))
AC05_GAMMAS = tuple(float(g) for g in _FULL if not 0.8 < g < 1.25)

COMMON = {"model": "dense", "rho2": 4, "base": "mn2", "n": 400, "n_te": 40, "reps": 10, "seed": 7}
CONFIGS = {
    "zero": dict(COMMON, proc="zero", block=20, gammas=",".join(map(repr, AC05_GAMMAS))),
    "one": dict(COMMON, proc="one", block=30, gammas="1.2,1.5,2"),
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RISKMONO_THREADS")
ENVS = {
    "default": {},
    "pinned": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "RISKMONO_THREADS": "2"},
}
FIXTURE_LINE = re.compile(r"^([\d.]+)s setup\s+(tests/test_acceptance\.py::\S+)")


def child_env(src: Path, extra: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(extra)
    env["PYTHONPATH"] = str(src)
    return env


def timed(cmd, cwd, env) -> tuple[float, float, subprocess.CompletedProcess]:
    """Wall and CPU seconds (user + system of the child) of one command."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, proc


def run_simulate(checkout: Path, config: Path, env_name: str, out: Path) -> tuple[float, float, str]:
    cmd = [sys.executable, "-m", "riskmono.cli", "simulate", "--config", str(config), "--out", str(out)]
    wall, cpu, proc = timed(cmd, checkout, child_env(checkout / "src", ENVS[env_name]))
    if proc.returncode != 0:
        raise SystemExit(f"simulate failed in {checkout}: {proc.stderr.strip()}")
    return wall, cpu, hashlib.sha256(out.read_bytes()).hexdigest()


def run_tier1(checkout: Path) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "--durations=0"]
    wall, cpu, proc = timed(cmd, checkout, child_env(checkout / "src", {}))
    lines = proc.stdout.strip().splitlines()
    fixtures = {}
    for line in lines:
        match = FIXTURE_LINE.match(line)
        if match and float(match.group(1)) >= 1.0:
            fixtures[match.group(2)] = float(match.group(1))
    return {"wall_s": round(wall, 2), "cpu_s": round(cpu, 2),
            "summary": lines[-1].strip("= ") if lines else "", "sweep_fixture_setup_s": fixtures}


def summarize(samples: list[float]) -> dict:
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": round(statistics.median(samples), 3), "q1": round(q[0], 3),
            "q3": round(q[2], 3), "samples": [round(s, 3) for s in samples]}


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--checkout", action="append", default=None, metavar="LABEL=DIR",
                    help="a source tree with src/riskmono (default: change=<this repo>)")
    ap.add_argument("--pairs", type=int, default=3, help="rounds over every checkout")
    ap.add_argument("--configs", default="zero,one")
    ap.add_argument("--envs", default="default,pinned")
    ap.add_argument("--tier1", action="store_true", help="also time the Tier-1 suite")
    ap.add_argument("--outputs-change", action="store_true",
                    help="record each checkout's CSV hashes instead of requiring them equal")
    ap.add_argument("--out", default=None, help="JSON file (default: stdout)")
    args = ap.parse_args()

    checkouts = {}
    for spec in args.checkout or [f"change={ROOT}"]:
        label, _, path = spec.partition("=")
        checkouts[label] = Path(path).resolve()
    labels = list(checkouts)
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in args.configs.split(","):
            config = tmp / f"{name}.cfg"
            config.write_text("".join(f"{k} = {v}\n" for k, v in CONFIGS[name].items()))
            digests = {label: set() for label in labels}
            for env_name in args.envs.split(","):
                times = {label: {"wall_s": [], "cpu_s": []} for label in labels}
                for pair in range(args.pairs):
                    order = labels if pair % 2 == 0 else labels[::-1]
                    for label in order:
                        wall, cpu, digest = run_simulate(checkouts[label], config, env_name,
                                                         tmp / f"{name}.csv")
                        times[label]["wall_s"].append(wall)
                        times[label]["cpu_s"].append(cpu)
                        digests[label].add(digest)
                        print(f"{name}/{env_name} {label}: {wall:.2f} s wall, {cpu:.2f} s cpu",
                              file=sys.stderr, flush=True)
                results[f"{name}/{env_name}"] = {
                    label: {metric: summarize(vals) for metric, vals in times[label].items()}
                    for label in labels
                }
            for label, seen in digests.items():
                if len(seen) != 1:
                    raise SystemExit(f"config {name}: the CSVs of {label} differ across environments")
            per_checkout = {label: seen.pop() for label, seen in digests.items()}
            if args.outputs_change:
                results[f"{name}/csv_sha256"] = per_checkout
            elif len(set(per_checkout.values())) != 1:
                raise SystemExit(f"config {name}: the CSVs differ across checkouts")
            else:
                results[f"{name}/csv_sha256"] = per_checkout[labels[0]]
    report = {
        "script": "scripts/bench_sweep.py",
        "host": host(),
        "configs": CONFIGS,
        "envs": ENVS,
        "checkouts": labels,
        "outputs_change": args.outputs_change,
        "sweeps": results,
    }
    if args.tier1:
        report["tier1"] = {}
        for label in labels:
            print(f"tier1 {label} ...", file=sys.stderr, flush=True)
            report["tier1"][label] = run_tier1(checkouts[label])
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
