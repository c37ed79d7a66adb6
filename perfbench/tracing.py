"""Spans recorded from outside the package, by wrapping its public functions.

`Tracer.install` replaces a function at every place the package looks it
up: the defining module and every `from .x import y` copy held by another
riskscen module (or, for a method, the class attribute). Each call then
records one span (name, start, end, parent, attributes) in memory.
`Tracer.uninstall` puts the originals back. Nothing under src/ changes.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

import numpy as np

# (span name, module, attribute path). Span names are the metric prefixes.
LAYERS = [
    ("cones.project", "riskscen.cones", "ConeProjector.project"),
    ("cones.project_polytope", "riskscen.cones", "project_polytope"),
    ("risk_region.classify_mask", "riskscen.risk_region", "classify_mask"),
    ("scenario_gen.aggregation_sampling", "riskscen.scenario_gen", "aggregation_sampling"),
    ("cvar_opt.solve_cardinality", "riskscen.cvar_opt", "solve_cardinality"),
    ("cvar_opt.solve_lp", "riskscen.cvar_opt", "solve_lp"),
    ("cvar_opt.solve_exact_elliptical", "riskscen.cvar_opt", "solve_exact_elliptical"),
    ("cvar_opt.discrete_cvar", "riskscen.cvar_opt", "discrete_cvar"),
    ("lp.solve", "riskscen.lp", "solve"),
    ("saa.run_saa", "riskscen.saa", "run_saa"),
    ("distributions.sample", "riskscen.distributions", "sample"),
    ("distributions.load_scenarios", "riskscen.distributions", "load_scenarios"),
    ("distributions.fit_from_returns", "riskscen.distributions", "fit_from_returns"),
    ("experiments.run_case_study", "riskscen.experiments", "run_case_study"),
    ("experiments.run_stability", "riskscen.experiments", "run_stability"),
]

# The layers whose results the output checks need. An untraced run wraps
# only these, so its timings carry no tracing cost beyond a few calls.
CHECKED = ("risk_region.classify_mask", "cvar_opt.solve_lp", "cvar_opt.solve_cardinality",
           "cvar_opt.solve_exact_elliptical")

SOLVERS = ("cvar_opt.solve_lp", "cvar_opt.solve_cardinality", "cvar_opt.solve_exact_elliptical")

# Points kept from each classify_mask call for the shortcut spot check.
_KEEP_PER_CALL = 16


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "riskscen" or name.startswith("riskscen."))]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def tableau_mb(bound_args) -> float:
    """Phase-1 dense tableau size implied by an lp.solve call, in MB.

    Computed from array shapes (rows x columns x 8 bytes), not measured:
    rows are the inequality rows, the finite upper bounds and the equality
    rows; columns are the variables (free ones split), one slack per
    inequality row, one artificial per row that needs one, and the rhs.
    """
    a = bound_args.arguments
    nvar = np.asarray(a["c"]).size
    bounds = a.get("bounds") or [(0.0, None)] * nvar
    lo = np.array([-np.inf if b[0] is None else float(b[0]) for b in bounds])
    hi = np.array([np.inf if b[1] is None else float(b[1]) for b in bounds])
    offset = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    n_free = int(np.sum(~np.isfinite(lo) & ~np.isfinite(hi)))
    n_box = int(np.sum(np.isfinite(lo) & np.isfinite(hi)))
    A_ub, b_ub, A_eq = a.get("A_ub"), a.get("b_ub"), a.get("A_eq")
    m_ub0 = 0 if A_ub is None else np.atleast_2d(A_ub).shape[0]
    m_eq = 0 if A_eq is None else np.atleast_2d(A_eq).shape[0]
    flipped = 0
    if m_ub0:
        rhs = np.atleast_1d(b_ub) - np.atleast_2d(A_ub) @ offset
        flipped = int(np.sum(rhs < 0))
    m_ub = m_ub0 + n_box
    rows = m_ub + m_eq
    cols = nvar + n_free + m_ub + flipped + m_eq + 1
    return rows * cols * 8 / 1e6


class Tracer:
    """In-memory span store plus the wrappers that feed it.

    spans: list of [name, start, end, parent index, attrs]. solutions keeps
    (layer, call arguments, returned Solution) for the solver layers, and
    classified keeps up to 16 evenly spaced (region, point, flag) triples per
    classify_mask call, both for the output checks.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.solutions: list[tuple] = []
        self.classified: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._lp_sig = None

    # -- installation -----------------------------------------------------

    def install(self, names=None) -> None:
        """Wrap the named layers (all of LAYERS by default) at every site."""
        wanted = None if names is None else set(names)
        for name, module, path in LAYERS:
            if wanted is not None and name not in wanted:
                continue
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        if name in SOLVERS:
            def after(args, kwargs, sol):
                self.solutions.append((name, args, sol))
        else:
            after = getattr(self, "_after_" + name.replace(".", "_"), None)
        if name == "lp.solve":
            self._lp_sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[2] = perf_counter()
                span[4] = {"error": 1}
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            if after is not None:
                span[4] = after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.bench_layer = name
        return wrapper

    # -- per-layer attributes (run after the span has ended) ----------------

    def _after_risk_region_classify_mask(self, args, kwargs, mask):
        region = args[0]
        points = np.atleast_2d(args[1] if len(args) > 1 else kwargs["points"])
        for i in np.unique(np.linspace(0, points.shape[0] - 1, _KEEP_PER_CALL).astype(int)):
            self.classified.append((region, points[i].copy(), bool(mask[i])))
        return {"points": int(points.shape[0]), "risk": int(np.count_nonzero(mask))}

    def _after_scenario_gen_aggregation_sampling(self, args, kwargs, report):
        return {"draws": int(report.effective_sample_size), "risk": int(report.n_risk)}

    def _after_lp_solve(self, args, kwargs, res):
        bound = self._lp_sig.bind(*args, **kwargs)
        return {"iterations": int(res.iterations), "nonoptimal": int(res.status != "optimal"),
                "tableau_mb": tableau_mb(bound)}

    def _after_saa_run_saa(self, args, kwargs, out):
        _, history = out
        return {"replications": sum(len(s.solutions) for s in history)}

    # -- bookkeeping ------------------------------------------------------

    def clear_records(self) -> None:
        self.solutions.clear()
        self.classified.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, attrs in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, attrs]) + "\n")


def _percentile_us(durations, q):
    return float(np.percentile(np.asarray(durations) * 1e6, q)) if durations else 0.0


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics from a span list; wall_s is the traced experiment time.

    busy_s sums a layer's outermost spans; self_s subtracts the time its
    direct child spans cover.
    """
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def outermost(name):
        out = []
        for i in idx(name):
            p = spans[i][3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def busy(name):
        return float(dur[outermost(name)].sum()) if idx(name) else 0.0

    def self_s(name):
        ii = idx(name)
        return float((dur[ii] - child[ii]).sum()) if ii else 0.0

    def attr_sum(name, key):
        return sum((spans[i][4] or {}).get(key, 0) for i in idx(name))

    def children_named(parent_name, name):
        parents = set(idx(parent_name))
        return sum(1 for i in idx(name) if spans[i][3] in parents)

    def durations(name):
        return list(dur[idx(name)])

    m = {}
    proj = durations("cones.project")
    m["cones.project.calls"] = (len(proj), "count")
    m["cones.project.us_p50"] = (_percentile_us(proj, 50), "us")
    m["cones.project.us_p99"] = (_percentile_us(proj, 99), "us")
    m["cones.project.busy_s"] = (busy("cones.project"), "s")
    m["cones.project.errors"] = (attr_sum("cones.project", "error"), "count")

    poly = durations("cones.project_polytope")
    m["cones.project_polytope.calls"] = (len(poly), "count")
    m["cones.project_polytope.us_p50"] = (_percentile_us(poly, 50), "us")
    m["cones.project_polytope.busy_s"] = (busy("cones.project_polytope"), "s")

    cm = "risk_region.classify_mask"
    points = attr_sum(cm, "points")
    cm_busy = busy(cm)
    m[cm + ".points"] = (points, "count")
    m[cm + ".points_per_s"] = (points / cm_busy if cm_busy > 0 else 0.0, "1/s")
    m[cm + ".busy_s"] = (cm_busy, "s")
    m[cm + ".self_s"] = (self_s(cm), "s")
    m["risk_region.projected_frac"] = (
        children_named(cm, "cones.project") / points if points else 0.0, "frac")
    m["risk_region.risk_frac"] = (attr_sum(cm, "risk") / points if points else 0.0, "frac")

    ag = "scenario_gen.aggregation_sampling"
    draws = attr_sum(ag, "draws")
    ag_busy = busy(ag)
    m[ag + ".calls"] = (len(idx(ag)), "count")
    m[ag + ".draws"] = (draws, "count")
    m[ag + ".draws_per_s"] = (draws / ag_busy if ag_busy > 0 else 0.0, "1/s")
    m[ag + ".busy_s"] = (ag_busy, "s")
    m[ag + ".self_s"] = (self_s(ag), "s")
    m[ag + ".risk_yield"] = (attr_sum(ag, "risk") / draws if draws else 0.0, "frac")

    sc = "cvar_opt.solve_cardinality"
    m[sc + ".calls"] = (len(idx(sc)), "count")
    m[sc + ".nodes"] = (children_named(sc, "lp.solve"), "count")
    m[sc + ".busy_s"] = (busy(sc), "s")
    m[sc + ".self_s"] = (self_s(sc), "s")

    sl = "cvar_opt.solve_lp"
    m[sl + ".calls"] = (len(idx(sl)), "count")
    m[sl + ".ms_p50"] = (_percentile_us(durations(sl), 50) / 1e3, "ms")
    m[sl + ".busy_s"] = (busy(sl), "s")

    iters = attr_sum("lp.solve", "iterations")
    lp_busy = busy("lp.solve")
    m["lp.solve.calls"] = (len(idx("lp.solve")), "count")
    m["lp.solve.iterations"] = (iters, "count")
    m["lp.solve.us_per_iteration"] = (lp_busy * 1e6 / iters if iters else 0.0, "us")
    m["lp.solve.busy_s"] = (lp_busy, "s")
    m["lp.solve.tableau_mb_max"] = (
        max(((spans[i][4] or {}).get("tableau_mb", 0.0) for i in idx("lp.solve")), default=0.0),
        "MB-computed")
    m["lp.solve.nonoptimal"] = (attr_sum("lp.solve", "nonoptimal"), "count")

    ex = "cvar_opt.solve_exact_elliptical"
    m[ex + ".busy_s"] = (busy(ex), "s")
    m[ex + ".self_s"] = (self_s(ex), "s")
    m[ex + ".projections"] = (children_named(ex, "cones.project_polytope"), "count")

    m["cvar_opt.discrete_cvar.calls"] = (len(idx("cvar_opt.discrete_cvar")), "count")
    m["cvar_opt.discrete_cvar.busy_s"] = (busy("cvar_opt.discrete_cvar"), "s")

    m["saa.run_saa.busy_s"] = (busy("saa.run_saa"), "s")
    m["saa.run_saa.self_s"] = (self_s("saa.run_saa"), "s")
    m["saa.run_saa.replications"] = (attr_sum("saa.run_saa", "replications"), "count")

    for fn in ("sample", "load_scenarios", "fit_from_returns"):
        m[f"distributions.{fn}.busy_s"] = (busy(f"distributions.{fn}"), "s")

    m["experiments.self_s"] = (sum(self_s(n) for n in by_name if n.startswith("experiments.")), "s")
    m["trace.wall_s"] = (wall_s, "s")
    return m
