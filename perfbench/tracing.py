"""Spans around bellrand's public functions, for the traced run.

Each span is opened here, in the benchmark, by replacing a function at the
name its caller looks up (``guessprob.solve``, ``seesaw.guessing_probability``
and so on) with a wrapper that records name, start, end, parent span and
point id. Counts come from the objects the wrapped functions return:
SdpProblem, SdpSolution, GuessReport and OptResult. Spans are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import json
import time

BOUNDS = (
    "guessprob.guessing_probability",
    "guessprob.bell_constrained_bound",
    "guessprob.tomographic_guessing",
)


def _solve_attrs(args, kwargs, sol):
    problem = args[0]
    return {
        "rows": problem.n_constraints,
        "kept": problem.n_constraints - len(sol.removed_rows),
        "orders": list(problem.block_orders),
        "iterations": sol.iterations,
        "status": sol.status,
    }


def _bound_attrs(args, kwargs, report):
    return {"status": report.status}


def _optimize_attrs(args, kwargs, res):
    # optimize(state, mx, my, level, xstar, ystar, epsilon, ...)
    epsilon = args[6] if len(args) > 6 else kwargs.get("epsilon", 1e-6)
    lengths = [len(t) for t in res.start_trajectories]
    local = sum(
        1 for t in res.start_trajectories if len(t) == 1 and 1.0 - t[0] <= epsilon
    )
    return {
        "starts": len(lengths),
        "starts_used": res.starts_used,
        "starts_local": local,
        "outer_iterations": sum(lengths),
    }


class Tracer:
    """Records spans while installed; ``point`` and ``round`` label them."""

    def __init__(self, bellrand):
        cli, guessprob, seesaw = bellrand.cli, bellrand.guessprob, bellrand.seesaw
        # (module, attribute looked up by the caller, span name, attributes)
        self._targets = [
            (cli, "main", "cli.main", None),
            (cli, "bell_constrained_bound", BOUNDS[1], _bound_attrs),
            (seesaw, "optimize", "seesaw.optimize", _optimize_attrs),
            (seesaw, "tomographic_optimize", "seesaw.tomographic_optimize", None),
            (seesaw, "update_measurements", "seesaw.update_measurements", None),
            (seesaw, "guessing_probability", BOUNDS[0], _bound_attrs),
            (seesaw, "tomographic_guessing", BOUNDS[2], _bound_attrs),
            (guessprob, "guessing_probability", BOUNDS[0], _bound_attrs),
            (guessprob, "build_primal", "guessprob.build_primal", None),
            (guessprob, "SdpProblem", "sdp.SdpProblem", None),
            (guessprob, "solve", "sdp.solve", _solve_attrs),
            (bellrand.npa, "moment_structure", "npa.moment_structure", None),
            (bellrand.qstate, "behavior", "qstate.behavior", None),
        ]
        self._saved = []
        self._stack = []
        self.spans = []
        self.point = None
        self.round = None

    def _wrap(self, fn, name, attrs):
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "round": self.round,
                "point": self.point,
                "start": time.perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, out))
            return out

        return traced

    def install(self):
        for module, attr, name, attrs in self._targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, attrs))

    def remove(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path):
        with open(path, "w") as fh:
            for k, span in enumerate(self.spans):
                fh.write(json.dumps(dict(span, id=k)) + "\n")


def layer_metrics(spans, rounds):
    """Per-layer metrics per traced round (npa.moment_structure per run,
    since bellrand caches its result for the life of the process)."""
    dur = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    for k, s in enumerate(spans):
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[k]
            children[s["parent"]].append(k)
    self_time = [d - c for d, c in zip(dur, child_time)]

    def of(*names):
        return [k for k, s in enumerate(spans) if s["name"] in names]

    def total(idx, values=dur):
        return sum(values[k] for k in idx)

    def ratio(a, b):
        return a / b if b else 0.0

    def not_optimal(idx):
        return sum(1 for k in idx if spans[k]["status"] != "optimal")

    solves = of("sdp.solve")
    iters = sum(spans[k]["iterations"] for k in solves)
    rows = [spans[k]["rows"] for k in solves]
    kept = sum(spans[k]["kept"] for k in solves)
    gflop = 0.0
    schur_mb = 0.0
    for k in solves:
        m = spans[k]["kept"]
        n2 = sum(n * n for n in spans[k]["orders"])
        gflop += spans[k]["iterations"] * (m * m * n2 + m ** 3 / 3.0) / 1e9
        schur_mb = max(schur_mb, 8.0 * (m * n2 + m * m) / 1e6)
    bounds = of(*BOUNDS)
    rescued = 0
    for k in bounds:
        first_solve = next(
            (c for c in children[k] if spans[c]["name"] == "sdp.solve"), None
        )
        if (spans[k]["status"] == "optimal" and first_solve is not None
                and spans[first_solve]["status"] != "optimal"):
            rescued += 1
    opt = of("seesaw.optimize")
    starts = sum(spans[k]["starts"] for k in opt)
    used = sum(spans[k]["starts_used"] for k in opt)
    local = sum(spans[k]["starts_local"] for k in opt)
    outer = sum(spans[k]["outer_iterations"] for k in opt)
    tomo = of("seesaw.tomographic_optimize")
    tomo_evals = sum(
        1 for k in tomo for c in children[k] if spans[c]["name"] == BOUNDS[2]
    )
    structure = of("npa.moment_structure")
    behaviors = of("qstate.behavior")
    updates = of("seesaw.update_measurements")
    problems = of("sdp.SdpProblem")
    r = float(rounds)
    return {
        "sdp.schur_gflop": (gflop / r, "GFLOP"),
        "sdp.schur_mb_max": (schur_mb, "MB"),
        "sdp.rows": (max(rows, default=0), "count"),
        "sdp.rows_kept_ratio": (ratio(kept, sum(rows)), "ratio"),
        "sdp.iterations": (iters / r, "count"),
        "sdp.not_optimal": (not_optimal(solves) / r, "count"),
        "sdp.solve.calls": (len(solves) / r, "count"),
        "sdp.solve.s": (total(solves) / r, "s"),
        "sdp.s_per_iteration": (ratio(total(solves), iters), "s"),
        "sdp.SdpProblem.calls": (len(problems) / r, "count"),
        "sdp.SdpProblem.s": (total(problems) / r, "s"),
        "guessprob.build_primal.s": (total(of("guessprob.build_primal")) / r, "s"),
        "guessprob.self_s": (total(bounds, self_time) / r, "s"),
        "guessprob.bounds": (len(bounds) / r, "count"),
        "guessprob.solves_per_bound": (ratio(len(solves), len(bounds)), "ratio"),
        "guessprob.not_optimal": (not_optimal(bounds) / r, "count"),
        "guessprob.rescued": (rescued / r, "count"),
        "seesaw.optimize.calls": (len(opt) / r, "count"),
        "seesaw.optimize.self_s": (total(opt, self_time) / r, "s"),
        "seesaw.update_measurements.calls": (len(updates) / r, "count"),
        "seesaw.update_measurements.s": (total(updates) / r, "s"),
        "seesaw.outer_iterations": (outer / r, "count"),
        "seesaw.starts_abandoned": ((starts - used) / r, "count"),
        "seesaw.starts_local": (local / r, "count"),
        "seesaw.useful_start_ratio": (ratio(used - local, starts), "ratio"),
        "seesaw.tomographic_optimize.self_s": (total(tomo, self_time) / r, "s"),
        "seesaw.tomographic_evals_per_point": (ratio(tomo_evals, len(tomo)), "count"),
        "npa.moment_structure.calls": (len(structure), "count"),
        "npa.moment_structure.s": (total(structure), "s"),
        "qstate.behavior.calls": (len(behaviors) / r, "count"),
        "qstate.behavior.s": (total(behaviors) / r, "s"),
        "cli.main.self_s": (total(of("cli.main"), self_time) / r, "s"),
    }

