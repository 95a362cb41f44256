#!/usr/bin/env python3
"""Time named cases in fresh processes for one or more source checkouts, and
check that their outputs are byte-identical.

A case (see CASES) is a command, run in a checkout with
PYTHONPATH=<checkout>/src; an environment; and the output whose SHA-256 must
match.  `default` leaves OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
RISKMONO_THREADS unset, so the library picks its own thread counts; `pinned`
puts OpenBLAS on one thread with RISKMONO_THREADS=2, as perfbench does.
os.wait4 gives every case its wall time, CPU time (waited-for children
included) and peak RSS.  Besides:

- `import` adds `import_s`, the time of `import riskmono` in the child;
- `tier1` adds `failed` (failing tests) and the set-up time of each
  acceptance sweep fixture;
- `perfbench_<workload>` reports, in place of the process's metrics, the
  four end-to-end metrics and `failed` of `perfbench/run.py`'s last JSON
  line, run for BENCHMARK.json's `run_seconds` with the pair's number as
  both sides' seed; a run that is not `correct` stops the script.

In each pair every checkout runs once, and the side that goes first
alternates between pairs.  A checkout's output must be the same across its
samples and across the environments of one command, and the same across
checkouts unless --outputs-change records each checkout's SHA-256 instead.
With two checkouts, `compare` gives per metric the number of pairs in which
the second reads lower (ties count for neither) and whether its median lies
within the first's quartiles.

    python3 scripts/bench_pairs.py --checkout parent=/path/to/parent \\
        --checkout change=. --cases import,profile_mn2ls --pairs 10 --out BENCH_x.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

ENVS = {
    "default": {},
    "pinned": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "RISKMONO_THREADS": "2"},
}

# AC-05's grid: 16 log-spaced gammas in [0.1, 10] without the two near 1
_FULL = np.exp(np.linspace(math.log(0.1), math.log(10.0), 16))
AC05_GAMMAS = tuple(float(g) for g in _FULL if not 0.8 < g < 1.25)
# `sweep` is a small zero-step run; `base`, `zero` and `one` run 10 replications at n = 400
COMMON = {"model": "dense", "rho2": 4, "base": "mn2", "n": 400, "n_te": 40, "reps": 10, "seed": 7}
CONFIGS = {
    "sweep": dict(COMMON, proc="zero", n=200, n_te=20, block=20, reps=2, gammas="0.5,2"),
    "base": dict(COMMON, proc="base", gammas=",".join(map(repr, AC05_GAMMAS))),
    "zero": dict(COMMON, proc="zero", block=20, gammas=",".join(map(repr, AC05_GAMMAS))),
    "one": dict(COMMON, proc="one", block=30, gammas="1.2,1.5,2"),
}
WORKLOADS = ("zero_dense_mn2ls", "one_dense_mn2ls", "sparse_l1", "profiles_curve")


# the set-up of AC-04, AC-05 and AC-06 is the sweep their fixture runs
FIXTURE_SETUP = re.compile(r"^([\d.]+)s setup\s+tests/test_acceptance\.py::(test_ac0[456]\w*)", re.M)


def read_tier1(stdout: str) -> dict:
    summary = stdout.strip().splitlines()[-1]
    metrics = {"failed": sum(int(k) for k in re.findall(r"(\d+) (?:failed|errors?)\b", summary))}
    metrics.update((f"setup_s.{test}", float(s)) for s, test in FIXTURE_SETUP.findall(stdout))
    return metrics


def read_perfbench(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise ValueError(f"the benchmark's checks failed: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()} | {"failed": result["failed"]}


class Case(NamedTuple):
    argv: tuple[str, ...]  # after the interpreter; {checkout}, {tmp}, {seed}, {seconds} filled in
    env: str
    output: str | None = None  # the file under {tmp} whose SHA-256 must match
    config: dict | None = None  # written to {tmp}/sim.cfg before each run
    read: Callable[[str], dict] = lambda stdout: {}  # more metrics, from standard output
    exits: tuple[int, ...] = (0,)


IMPORT = "import time; t = time.perf_counter(); import riskmono; print(time.perf_counter() - t)"
SIMULATE = ("-m", "riskmono.cli", "simulate", "--config", "{tmp}/sim.cfg", "--out", "{tmp}/sim.csv")
CASES = {
    "import": Case(("-c", IMPORT), "pinned", read=lambda out: {"import_s": float(out)}),
    **{f"profile_{kind}": Case(("-m", "riskmono.cli", "profile", "--kind", kind, "--gamma", "0.1:10:20log"),
                               "pinned", "stdout") for kind in ("mn2ls", "onestep", "mn1ls")},
    "sweep": Case(SIMULATE, "pinned", "sim.csv", CONFIGS["sweep"]),
    **{f"{name}_{env}": Case(SIMULATE, env, "sim.csv", CONFIGS[name])
       for name in ("base", "zero", "one") for env in ENVS},
    # pytest exits 1 when a test fails; `failed` counts those
    "tier1": Case(("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                   "--durations=0"), "default", read=read_tier1, exits=(0, 1)),
    **{f"perfbench_{w}": Case(("{checkout}/perfbench/run.py", "--workload", w, "--seed", "{seed}",
                               "--seconds", "{seconds}"), "default", read=read_perfbench)
       for w in WORKLOADS},
}


def run(case: Case, checkout: Path, tmp: Path, fill: dict) -> tuple[dict, str | None]:
    """One sample of a case: its metrics, and the SHA-256 of its output.  fill
    holds the `seed` and `seconds` of the argv."""
    argv = [sys.executable, *(a.format(checkout=checkout, tmp=tmp, **fill) for a in case.argv)]
    if case.config:
        (tmp / "sim.cfg").write_text("".join(f"{k} = {v}\n" for k, v in case.config.items()))
    env = {k: v for k, v in os.environ.items() if k not in ENVS["pinned"]}
    env.update(ENVS[case.env], PYTHONPATH=str(checkout / "src"))
    with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=checkout, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    failed = f"{' '.join(argv[1:])} in {checkout}"
    if proc.returncode not in case.exits:
        raise SystemExit(f"{failed} exited with {proc.returncode}: {(tmp / 'stderr').read_text()}")
    metrics = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024}
    try:
        metrics.update(case.read((tmp / "stdout").read_text()))
    except ValueError as exc:
        raise SystemExit(f"{failed}: {exc}") from exc
    return metrics, case.output and hashlib.sha256((tmp / case.output).read_bytes()).hexdigest()


def same_outputs(seen: dict[str, dict[str, set[str]]], outputs_change: bool) -> dict:
    """The output SHA-256 of each command, keyed by the names of the cases
    that run it, from each checkout's set of digests; per checkout with
    outputs_change.  Exits when a checkout's output differs across its
    samples or environments, or, without outputs_change, across checkouts."""
    digests, errors = {}, []
    for cases, by_label in seen.items():
        per_label = {label: min(d) for label, d in by_label.items()}
        varied = [label for label, d in by_label.items() if len(d) != 1]
        if varied:
            errors.append(f"{cases}: the output varies across samples or environments in {', '.join(varied)}")
        elif outputs_change:
            digests[cases] = per_label
        elif len(set(per_label.values())) != 1:
            errors.append(f"{cases}: the output differs across checkouts {', '.join(per_label)}")
        else:
            digests[cases] = per_label.popitem()[1]
    if errors:
        raise SystemExit("\n".join(errors))
    return digests


def summarize(samples: list[float]) -> dict:
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": round(statistics.median(samples), 4), "q1": round(q[0], 4), "q3": round(q[2], 4),
            "samples": [round(s, 4) for s in samples]}


def compare(first: dict[str, list], second: dict[str, list]) -> dict:
    """Per metric of two checkouts' paired samples: the pairs in which the second
    reads lower, and whether its median (rounded) is within the first's quartiles."""
    result = {}
    for metric in (m for m in first if m in second):
        a, b = first[metric], second[metric]
        spread, median = summarize(a), summarize(b)["median"]
        result[metric] = {"second_lower": sum(y < x for x, y in zip(a, b)), "pairs": len(a),
                          "median_within_first_quartiles": spread["q1"] <= median <= spread["q3"]}
    return result


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy"), "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--checkout", action="append", default=None, metavar="LABEL=DIR",
                    help="a source tree with src/riskmono (default: change=<this repo>)")
    ap.add_argument("--pairs", type=int, default=10, help="rounds over every checkout")
    ap.add_argument("--cases", required=True, help=f"comma-separated, of: {', '.join(CASES)}")
    ap.add_argument("--outputs-change", action="store_true",
                    help="record each checkout's output SHA-256 instead of requiring them equal")
    ap.add_argument("--out", required=True, help="the JSON report")
    args = ap.parse_args()
    names = args.cases.split(",")
    if unknown := [name for name in names if name not in CASES]:
        ap.error(f"unknown cases: {', '.join(unknown)}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    checkouts = {label: Path(path).resolve() for label, _, path in
                 (spec.partition("=") for spec in args.checkout or [f"change={ROOT}"])}
    labels = list(checkouts)
    fill = {"seconds": json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]}
    samples = {name: {label: {} for label in labels} for name in names}
    commands = {}  # (argv, config) -> the names of its cases, and each checkout's digests
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            case = CASES[name]
            cases, seen = commands.setdefault((case.argv, repr(case.config)), ([], {}))
            cases.append(name)
            for pair in range(args.pairs):
                for label in labels if pair % 2 == 0 else labels[::-1]:
                    metrics, digest = run(case, checkouts[label], Path(tmp), fill | {"seed": pair + 1})
                    if digest:
                        seen.setdefault(label, set()).add(digest)
                    for metric, value in metrics.items():
                        samples[name][label].setdefault(metric, []).append(value)
                    shown = ", ".join(f"{k} {v:.3f}" for k, v in metrics.items())
                    print(f"{name} {label}: {shown}", file=sys.stderr, flush=True)
    digests = same_outputs({",".join(cases): seen for cases, seen in commands.values() if seen},
                           args.outputs_change)
    report = {
        "script": "scripts/bench_pairs.py",
        "host": host(),
        "envs": ENVS,
        "run_seconds": fill["seconds"],
        "cases": {name: dict(zip(("argv", "env", "output", "config"), CASES[name])) for name in names},
        "checkouts": labels,
        "pairs": args.pairs,
        "outputs_change": args.outputs_change,
        "results": {name: {label: {metric: summarize(values) for metric, values in by_metric.items()}
                           for label, by_metric in by_label.items()} for name, by_label in samples.items()},
        "output_sha256": digests,
    }
    if len(labels) == 2:
        report["compare"] = {name: compare(*(samples[name][label] for label in labels)) for name in names}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
