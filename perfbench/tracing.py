"""Span and counter recording for the traced benchmark run.

The tracer wraps the calls into each riskmono module from outside: it swaps
the module attributes that the library looks up at call time for timed
wrappers, and puts the originals back when the run ends.  Spans are kept in
memory and written out at the end.  Each span carries the round it belongs
to and a context naming the sweep cell or benchmark operation it serves,
because sweep cells run on pool threads.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

# per-layer metric -> (unit, better); each is a per-round value, and the run
# reports its median over rounds
PER_LAYER = {
    "sweep.pool_busy_frac": ("ratio", "higher"),
    "sweep.analytic_s": ("s", "lower"),
    "datagen.generate_s": ("s", "lower"),
    "monotonize.candidate_fit_s": ("s", "lower"),
    "cv_select.self_s": ("s", "lower"),
    "cv_select.candidates_failed": ("count", "lower"),
    "risk_estimation.estimate_s": ("s", "lower"),
    "predictors.fit_s.mn2ls": ("s", "lower"),
    "predictors.fit_s.mn1ls": ("s", "lower"),
    "predictors.fit_s.lasso": ("s", "lower"),
    "predictors.fit_calls.mn2ls": ("count", "lower"),
    "predictors.svd_fallbacks": ("count", "lower"),
    "predictors.lp_iters": ("count", "lower"),
    "profiles.monotonize_s": ("s", "lower"),
    "profiles.evals": ("count", "lower"),
    "profiles.mn1ls_s": ("s", "lower"),
    "profiles.solve_v_calls": ("count", "lower"),
    "profiles.onestep_opt_s": ("s", "lower"),
}

# metric -> span whose summed duration it is
_SPAN_TOTALS = {
    "sweep.analytic_s": "sweep.analytic",
    "datagen.generate_s": "datagen.generate",
    "monotonize.candidate_fit_s": "monotonize.candidate_fit",
    "risk_estimation.estimate_s": "risk_estimation.estimate_risk",
    "predictors.fit_s.mn2ls": "predictors.fit_mn2ls",
    "predictors.fit_s.mn1ls": "predictors.fit_mn1ls",
    "predictors.fit_s.lasso": "predictors.fit_lasso",
    "profiles.monotonize_s": "profiles.monotonize_profile",
    "profiles.mn1ls_s": "profiles.mn1ls_profile",
    "profiles.onestep_opt_s": "profiles.optimize_onestep_iso",
}


class NoTrace:
    """Stand-in for the untraced run: spans cost one call and record nothing."""

    round = None

    def span(self, name, ctx=None):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.round = None
        self.spans = []  # (id, name, start, end, parent, round, ctx, thread)
        self._counts = defaultdict(float)  # (round, name) -> value
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self._sweep = (None, "")  # (span id, ctx) of the running sweep

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name, ctx=None, parent=None):
        st = self._stack()
        if parent is None and st:
            parent = st[-1][0]
        if ctx is None:
            ctx = st[-1][1] if st else ""
        sid = next(self._ids)
        st.append((sid, ctx))
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            st.pop()
            self.spans.append(
                (sid, name, start, end, parent, self.round, ctx, threading.get_ident())
            )

    def count(self, name, value=1):
        if self.round is None:
            return
        with self._lock:
            self._counts[(self.round, name)] += value

    # -- patching -----------------------------------------------------------

    def _patch(self, module, attr, make):
        if not hasattr(module, attr):
            # a renamed entry point reads as 0 in the per-layer metrics: say so
            print(f"tracing: {module.__name__}.{attr} not found, not traced", file=sys.stderr)
            return
        orig = getattr(module, attr)
        setattr(module, attr, make(orig))
        self._patches.append((module, attr, orig))

    def _timed(self, name, counter=None):
        def make(orig):
            def wrapped(*args, **kwargs):
                if counter:
                    self.count(counter)
                with self.span(name):
                    return orig(*args, **kwargs)
            return wrapped
        return make

    def _counted(self, name, value_of=lambda result: 1):
        def make(orig):
            def wrapped(*args, **kwargs):
                result = orig(*args, **kwargs)
                self.count(name, value_of(result))
                return result
            return wrapped
        return make

    def install(self):
        from riskmono import cli, cv_select, monotonize, predictors, profiles, sweep

        # sweep: the run, its cells on pool threads, and the serial analytic columns
        def run_sweep(orig):
            def wrapped(cfg, *args, **kwargs):
                ctx = f"round{self.round}/{cfg.procedure}"
                with self.span("sweep.run_sweep", ctx=ctx) as sid:
                    self._sweep = (sid, ctx)
                    return orig(cfg, *args, **kwargs)
            return wrapped

        def replication(orig):
            def wrapped(cfg, gi, p, rep):
                sid, ctx = self._sweep
                with self.span("sweep.cell", ctx=f"{ctx}/cell{gi}.{rep}", parent=sid):
                    return orig(cfg, gi, p, rep)
            return wrapped

        self._patch(sweep, "run_sweep", run_sweep)
        self._patch(sweep, "_replication", replication)
        self._patch(sweep, "_analytic_columns", self._timed("sweep.analytic"))
        self._patch(sweep, "generate", self._timed("datagen.generate"))

        # monotonize: the procedures and the candidate fitters they hand to CV
        for mod in (sweep, monotonize):
            self._patch(mod, "zero_step", self._timed("monotonize.zero_step"))
            self._patch(mod, "one_step", self._timed("monotonize.one_step"))

        def cross_validate(orig):
            def wrapped(family, *args, **kwargs):
                def fitter(xi):
                    fit = family.fitter(xi)

                    def timed_fit(train):
                        with self.span("monotonize.candidate_fit"):
                            return fit(train)
                    return timed_fit

                timed = cv_select.CandidateFamily(family.indices, fitter)
                with self.span("cv_select.cross_validate"):
                    table, pred = orig(timed, *args, **kwargs)
                self.count("cv_select.candidates_failed",
                           sum(row.error is not None for row in table.rows))
                return table, pred
            return wrapped

        self._patch(monotonize, "cross_validate", cross_validate)
        self._patch(cv_select, "estimate_risk", self._timed("risk_estimation.estimate_risk"))

        # predictors: the generic fit of each base kind, reached from
        # BaseProcedure.fit and (mn2ls) from the row-gram route in monotonize
        self._patch(predictors, "fit_mn2ls", self._timed("predictors.fit_mn2ls"))
        self._patch(monotonize, "fit_mn2ls",
                    self._timed("predictors.fit_mn2ls", counter="predictors.fit_calls.mn2ls"))
        self._patch(predictors, "fit_mn1ls", self._timed("predictors.fit_mn1ls"))
        self._patch(predictors, "fit_lasso", self._timed("predictors.fit_lasso"))
        self._patch(predictors, "_mn2ls_cholesky",
                    self._counted("predictors.svd_fallbacks", lambda beta: beta is None))
        self._patch(predictors, "linprog",
                    self._counted("predictors.lp_iters", lambda res: res.nit))

        # profiles: every module that looks the engine up
        for mod in (profiles, sweep, cli):
            self._patch(mod, "monotonize_profile", self._timed("profiles.monotonize_profile"))
            self._patch(mod, "optimize_onestep_iso", self._timed("profiles.optimize_onestep_iso"))
            self._patch(mod, "mn2ls_profile", self._counted("profiles.evals"))
            self._patch(mod, "mn1ls_profile",
                        self._timed("profiles.mn1ls_profile", counter="profiles.evals"))
        self._patch(profiles, "solve_v", self._counted("profiles.solve_v_calls"))

    def uninstall(self):
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    # -- reporting ----------------------------------------------------------

    def per_layer(self, rounds: int, workers: int) -> dict:
        """Median over rounds of each per-layer metric."""
        by_round = defaultdict(list)
        for s in self.spans:
            by_round[s[5]].append(s)
        per_round = defaultdict(list)
        for r in range(rounds):
            values = _round_metrics(by_round[r], workers)
            for name in PER_LAYER:
                if name not in values:
                    values[name] = self._counts.get((r, name), 0.0)
                per_round[name].append(values[name])
        return {name: statistics.median(per_round[name]) for name in PER_LAYER}

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "round", "ctx", "thread")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _round_metrics(spans, workers: int) -> dict:
    totals = defaultdict(float)
    children = defaultdict(float)
    for sid, name, start, end, parent, *_ in spans:
        totals[name] += end - start
        if parent is not None:
            children[parent] += end - start
    out = {metric: totals[name] for metric, name in _SPAN_TOTALS.items()}
    out["cv_select.self_s"] = sum(
        (end - start) - children[sid]
        for sid, name, start, end, *_ in spans
        if name == "cv_select.cross_validate"
    ) + 0.0
    # pool occupancy: summed cell time over workers x (first cell start to
    # last cell end), over the round's sweeps
    busy = capacity = 0.0
    for sid, name, *_ in spans:
        if name != "sweep.run_sweep":
            continue
        cells = [(s[2], s[3]) for s in spans if s[1] == "sweep.cell" and s[4] == sid]
        if cells:
            busy += sum(e - b for b, e in cells)
            capacity += workers * (max(e for _, e in cells) - min(b for b, _ in cells))
    out["sweep.pool_busy_frac"] = busy / capacity if capacity else 0.0
    return out
