"""In-memory spans around the program's layer functions, for the traced run.

Only the traced passes install the wrappers: the module-level names that
``solve_problem`` and ``estimate`` look up at call time are replaced by timing
wrappers and restored afterwards. The program itself is not modified. A name
that no longer exists is recorded as absent and its metrics are left out.
"""
from __future__ import annotations

import contextlib
import importlib
import os
import time
from dataclasses import dataclass

import numpy as np
from fluxbound.geometry import NEUMANN

# (module, attribute) -> span name; the span name prefix is the layer
WRAPPED = {
    ("fluxbound.fem", "assemble"): "fem.assemble",
    ("fluxbound.fem", "solve"): "fem.solve",
    ("fluxbound.estimator", "project_element_bulk"): "fem.project_element_bulk",
    ("fluxbound.estimator", "equilibrate"): "equilibration.equilibrate",
    ("fluxbound.equilibration", "residual_functionals"): "equilibration.residual_functionals",
    ("fluxbound.equilibration", "solve_vertex_patch"): "equilibration.solve_vertex_patch",
    ("fluxbound.reconstruction", "eta1_terms"): "reconstruction.eta1_terms",
    ("fluxbound.reconstruction", "eta2_terms"): "reconstruction.eta2_terms",
    ("fluxbound.reconstruction", "facet_trace_values"): "reconstruction.facet_trace_values",
    ("fluxbound.estimator", "oscillation_f"): "estimator.oscillation_f",
    ("fluxbound.estimator", "oscillation_gN"): "estimator.oscillation_gN",
}
# called once per mesh vertex: one aggregate span per parent instead of one per call
HOT = {"equilibration.solve_vertex_patch"}
# work counts read off the arguments of a layer call: span name -> metric
OBSERVED = {"reconstruction.eta2_terms": "reconstruction.eta2_elements",
            "estimator.oscillation_gN": "estimator.neumann_facets"}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    calls: int = 1          # number of calls an aggregated hot span stands for
    duration: float = 0.0   # end - start, or the summed calls of a hot span

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "calls": self.calls,
                "duration": self.duration}


class Tracer:
    """Collects spans (name, start, end, parent) and per-call observations."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._hot: dict[tuple[int | None, str], Span] = {}
        self.observed: dict[str, float] = {}
        self.absent: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans) + 1, parent, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.duration = s.end - s.start
            self._stack.pop()

    def _hot_call(self, name, fn, args, kwargs):
        parent = self._stack[-1].id if self._stack else None
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            agg = self._hot.get((parent, name))
            if agg is None:
                agg = Span(len(self.spans) + 1, parent, name, t0, calls=0)
                self.spans.append(agg)
                self._hot[(parent, name)] = agg
            agg.calls += 1
            agg.duration += t1 - t0
            agg.end = t1

    def wrap(self, name: str, fn):
        if name in HOT:
            def wrapper(*args, **kwargs):
                return self._hot_call(name, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                self._observe(name, args)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, args):
        if name == "reconstruction.eta2_terms":          # (mesh, R, r_vals, sel, ...)
            n = len(args[3])
        elif name == "estimator.oscillation_gN":         # (mesh, g_N, degree)
            n = int((args[0].facet_tag == NEUMANN).sum()) if args[1] is not None else 0
        else:
            return
        metric = OBSERVED[name]
        self.observed[metric] = self.observed.get(metric, 0) + n

    @contextlib.contextmanager
    def installed(self):
        """Replace the layer functions by wrappers for the duration of the block."""
        saved = []
        try:
            for (mod_name, attr), name in WRAPPED.items():
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def descendants(self, root: Span) -> list[Span]:
        ids, out = {root.id}, []
        for s in self.spans:
            if s.parent in ids:
                ids.add(s.id)
                out.append(s)
        return out

    def totals(self, root: Span) -> dict[str, float]:
        """Summed duration per span name below ``root`` (the root included)."""
        out = {root.name: root.duration}
        for s in self.descendants(root):
            out[s.name] = out.get(s.name, 0.0) + s.duration
        return out

    def self_time(self, root: Span, name: str) -> float:
        """Duration of the ``name`` spans below ``root`` minus their direct children."""
        below = self.descendants(root)
        named = {s.id: s for s in below if s.name == name}
        child = sum(s.duration for s in below if s.parent in named)
        return sum(s.duration for s in named.values()) - child


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def patch_shapes(case, path: str) -> dict:
    """Patch-shape counts from the per-vertex patch report that ``estimate`` writes.

    A patch is constrained when every element in it has kappa*rho <= 1, pure
    least squares when none has, and mixed otherwise.
    """
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_cons = rows[:, 1].astype(int)
    size = np.bincount(case.mesh.simplices.ravel(), minlength=case.mesh.n_points)
    k = size[rows[:, 0].astype(int)]
    return {"equilibration.patch_solves": len(rows),
            "equilibration.patches_constrained": int(np.sum((n_cons == k) & (k > 0))),
            "equilibration.patches_lsq": int(np.sum((n_cons == 0) & (k > 0))),
            "equilibration.patches_mixed": int(np.sum((n_cons > 0) & (n_cons < k))),
            "equilibration.constraint_residual_max": float(rows[:, 4].max(initial=0.0))}


def layer_metrics(tracer: Tracer, root: Span, results) -> dict:
    """Per-layer values of one traced pass (times in s, counts summed over inputs)."""
    totals = tracer.totals(root)
    names = {"estimator.estimate", *WRAPPED.values()} - set(tracer.absent)
    out = {f"{name}_s": totals.get(name, 0.0) for name in names}
    out["estimator.self_s"] = tracer.self_time(root, "estimator.estimate")
    out.update({metric: tracer.observed.get(metric, 0)
                for name, metric in OBSERVED.items() if name in names})
    shapes = [patch_shapes(case, path) for case, _, _, path in results if os.path.exists(path)]
    for key in shapes[0] if shapes else ():
        vals = [s[key] for s in shapes]
        out[key] = max(vals) if key.endswith("_max") else sum(vals)
    for key in ("data.f_calls", "data.f_points", "data.gN_calls", "data.gN_points",
                "fem.pcg_iterations"):
        out[key] = 0
    audits = {"equilibration.eps_max_rel": "equilibration_residual",
              "estimator.divergence_residual": "divergence_residual",
              "reconstruction.hdiv_mismatch": "hdiv_mismatch"}
    out.update({key: 0.0 for key in audits})
    n_el = n_v2 = 0
    for case, sol, report, _ in results:
        for which, counter in case.counters.items():
            out[f"data.{which}_calls"] += counter.calls
            out[f"data.{which}_points"] += counter.points
        out["fem.pcg_iterations"] += sol.iterations
        for key, audit in audits.items():
            out[key] = max(out[key], report.audits.get(audit, 0.0))
        n_el += case.mesh.n_elements
        n_v2 += int(np.sum(report.variant_taustar == 2))
    out["reconstruction.variant2_share_taustar"] = n_v2 / n_el
    return out
