#!/usr/bin/env python3
"""Time what a fresh riskmono process pays before and around its first
result, for one or more source checkouts.

Each sample is a new interpreter, with OpenBLAS on one thread and
RISKMONO_THREADS=2 set before numpy loads:

- `import`: the time of `import riskmono` inside the child;
- `profile_mn2ls`, `profile_mn1ls`: `riskmono profile --kind K --gamma
  0.1:10:20log`, wall time of the whole command and the child's peak RSS;
- `sweep`: `riskmono simulate` on a small dense mn2ls zero-step config with
  2 pool workers, wall time and peak RSS.

Checkouts alternate within each pair of samples, and the side that goes
first alternates between pairs.  The profile CSVs and the sweep CSV must be
byte-identical across checkouts and samples; the script fails otherwise.

    python3 scripts/bench_startup.py --checkout parent=/path/to/parent \\
        --checkout change=. --pairs 10 --out BENCH_startup.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent

IMPORT_SCRIPT = "import time; t = time.perf_counter(); import riskmono; print(time.perf_counter() - t)"
PROFILE_GRID = "0.1:10:20log"
SWEEP_CONFIG = {"model": "dense", "rho2": 4, "base": "mn2", "proc": "zero", "n": 200, "n_te": 20,
                "block": 20, "reps": 2, "seed": 7, "gammas": "0.5,2"}
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "RISKMONO_THREADS": "2"}
CASES = ("import", "profile_mn2ls", "profile_mn1ls", "sweep")


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ENV}
    env.update(ENV, PYTHONPATH=str(src))
    return env


def run_child(cmd: list[str], checkout: Path, tmp: Path) -> tuple[float, float]:
    """Wall seconds and peak RSS (MB) of one child process, whose standard
    output goes to tmp/stdout; exits on a failed command."""
    with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=checkout, env=child_env(checkout / "src"),
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} failed in {checkout}: {(tmp / 'stderr').read_text()}")
    return wall, usage.ru_maxrss / 1024.0


def run_case(case: str, checkout: Path, tmp: Path) -> tuple[dict, str]:
    """One sample of `case`: its metrics, and the digest of its output."""
    out = tmp / "stdout"
    if case == "import":
        run_child([sys.executable, "-c", IMPORT_SCRIPT], checkout, tmp)
        return {"import_s": float(out.read_text())}, ""
    if case == "sweep":
        config, csv = tmp / "sweep.cfg", tmp / "sweep.csv"
        config.write_text("".join(f"{k} = {v}\n" for k, v in SWEEP_CONFIG.items()))
        cmd = ["simulate", "--config", str(config), "--out", str(csv)]
    else:
        csv = out
        cmd = ["profile", "--kind", case.split("_")[1], "--gamma", PROFILE_GRID]
    wall, rss = run_child([sys.executable, "-m", "riskmono.cli", *cmd], checkout, tmp)
    return {"wall_s": wall, "peak_rss_mb": rss}, hashlib.sha256(csv.read_bytes()).hexdigest()


def summarize(samples: list[float]) -> dict:
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": round(statistics.median(samples), 4), "q1": round(q[0], 4),
            "q3": round(q[2], 4), "samples": [round(s, 4) for s in samples]}


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--checkout", action="append", default=None, metavar="LABEL=DIR",
                    help="a source tree with src/riskmono (default: change=<this repo>)")
    ap.add_argument("--pairs", type=int, default=10, help="rounds over every checkout")
    ap.add_argument("--cases", default=",".join(CASES))
    ap.add_argument("--out", default=None, help="JSON file (default: stdout)")
    args = ap.parse_args()

    checkouts = {}
    for spec in args.checkout or [f"change={ROOT}"]:
        label, _, path = spec.partition("=")
        checkouts[label] = Path(path).resolve()
    labels = list(checkouts)
    results, digests = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for case in args.cases.split(","):
            samples = {label: {} for label in labels}
            seen = set()
            for pair in range(args.pairs):
                for label in labels if pair % 2 == 0 else labels[::-1]:
                    metrics, digest = run_case(case, checkouts[label], tmp)
                    seen.add(digest)
                    for name, value in metrics.items():
                        samples[label].setdefault(name, []).append(value)
                    shown = ", ".join(f"{k} {v:.3f}" for k, v in metrics.items())
                    print(f"{case} {label}: {shown}", file=sys.stderr, flush=True)
            if len(seen) != 1:
                raise SystemExit(f"{case}: the output differs across checkouts or samples")
            results[case] = {label: {name: summarize(vals) for name, vals in by_name.items()}
                             for label, by_name in samples.items()}
            if case != "import":
                digests[case] = seen.pop()
    report = {
        "script": "scripts/bench_startup.py",
        "host": host(),
        "env": ENV,
        "profile_grid": PROFILE_GRID,
        "sweep_config": SWEEP_CONFIG,
        "checkouts": labels,
        "pairs": args.pairs,
        "results": results,
        "output_sha256": digests,
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
