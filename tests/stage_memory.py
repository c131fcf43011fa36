"""Per-stage peaks of traced memory (tracemalloc) over one call, and wall times.

``stage_peaks(run)`` runs ``run()`` under tracemalloc with the pipeline's
stage functions wrapped at their module attributes, the names the package
calls them through, and returns each stage's peak of traced bytes over the
start of the run, together with the run's own peak under ``"total"``. A stage
called several times reports its largest peak; a peak inside a nested stage
counts for the stages around it too. tracemalloc sees the numpy arrays the
program allocates, not the interpreter's fixed footprint, so the peaks are
the working set of the call and do not depend on the machine.
``stage_times(run)`` wraps the same stages with a clock instead and returns
each stage's wall time within one call of ``run()`` (summed over the stage's
calls), the median over a few calls, with no tracing; a nested stage's time
counts for the stages around it too. ``build_costs(config)`` gives the peak
and the time of the benchmark mesh build, cold and for a second kappa1 of a
cube that is alive; ``main`` prints them above the stages.

From the root of a source checkout, for a d=3 cube of the benchmark family,
with the peaks and times of ``estimate`` without and with the conformity
audit side by side (arguments M, kappa1, kappa2 and, optionally, the
dimension, 3 by default; the d=2 M=64 mesh is that of the kappa sweep):

    PYTHONPATH=src python tests/stage_memory.py 16 100 1e6
    PYTHONPATH=src python tests/stage_memory.py 64 100 1e6 2
"""
from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time
import tracemalloc

# (module, attribute) of the wrapped stages, outermost first
STAGES = (
    ("fluxbound.fem", "solve_problem"),
    ("fluxbound.fem", "assemble"),
    ("fluxbound.fem", "solve"),
    ("fluxbound.fem", "element_data"),
    ("fluxbound.fem", "neumann_data"),
    ("fluxbound.fem", "element_matrices"),
    ("fluxbound.estimator", "estimate"),
    ("fluxbound.estimator", "equilibrate"),
    ("fluxbound.equilibration", "residual_functionals"),
    ("fluxbound.equilibration", "_extension_volume_terms"),
    ("fluxbound.equilibration", "_solve_patches"),
    ("fluxbound.reconstruction", "facet_residuals"),
    ("fluxbound.reconstruction", "variant1_bulk"),
    ("fluxbound.reconstruction", "eta1_terms"),
    ("fluxbound.reconstruction", "eta2_terms"),
    ("fluxbound.reconstruction", "facet_trace_values"),
    ("fluxbound.reconstruction", "trace_defect"),
    ("fluxbound.reconstruction", "divergence_residual"),
)


@contextlib.contextmanager
def _wrapped(wrap):
    """Every stage replaced, at its module attribute, by ``wrap(name, fn)``."""
    saved = []
    try:
        for mod_name, attr in STAGES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, wrap(f"{mod_name.split('.')[-1]}.{attr}", fn))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def stage_peaks(run) -> dict:
    """Bytes of traced memory at each stage's peak over the start of ``run()``.

    The stages are called through their module attributes, as the package
    calls them, so ``run`` must reach them that way too (``fem.solve_problem``,
    ``estimator.estimate``).
    """
    peaks, base, total = {}, [0], [0]

    def fold(stack):
        peak = tracemalloc.get_traced_memory()[1]
        total[0] = max(total[0], peak)
        for frame in stack:
            frame[1] = max(frame[1], peak)

    stack = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            fold(stack)
            tracemalloc.reset_peak()
            stack.append([name, 0])
            try:
                return fn(*args, **kwargs)
            finally:
                fold(stack)
                _, seen = stack.pop()
                peaks[name] = max(peaks.get(name, 0), seen - base[0])
        return wrapper

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        with _wrapped(wrap):
            base[0] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            fold([])
    finally:
        if started:
            tracemalloc.stop()
    peaks["total"] = total[0] - base[0]
    return peaks


def stage_times(run) -> dict:
    """Seconds of each stage within one call of ``run()``, and of the call under
    ``"total"``: the median over five calls, untraced. The stages are reached
    as for ``stage_peaks``."""
    spent, seen = {}, {}

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] = spent.get(name, 0.0) + time.perf_counter() - start
        return wrapper

    with _wrapped(wrap):
        for _ in range(5):
            spent.clear()
            start = time.perf_counter()
            run()
            spent["total"] = time.perf_counter() - start
            for name, seconds in spent.items():
                seen.setdefault(name, []).append(seconds)
    return {name: statistics.median(values) for name, values in seen.items()}


def build_costs(cfg) -> dict:
    """Traced peak (bytes over the start) and seconds of ``benchmark_mesh``: cold,
    with no mesh of the cube alive (each call's mesh is dropped), and for a
    second kappa1 while a mesh of the cube is alive, which shares that mesh's
    arrays. The seconds are ``stage_times``' median of five calls."""
    from dataclasses import replace

    from fluxbound.benchmark import benchmark_mesh
    second = replace(cfg, kappa1=cfg.kappa1 / 10.0)
    costs = {"benchmark_mesh.cold": (stage_peaks(lambda: benchmark_mesh(cfg))["total"],
                                     stage_times(lambda: benchmark_mesh(cfg))["total"])}
    first = benchmark_mesh(cfg)     # alive while the second kappa1 is built
    costs["benchmark_mesh.second_kappa1"] = (
        stage_peaks(lambda: benchmark_mesh(second))["total"],
        stage_times(lambda: benchmark_mesh(second))["total"])
    return costs


def main(argv):
    from fluxbound import estimator, fem
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    m, kappa1, kappa2 = int(argv[0]), float(argv[1]), float(argv[2])
    dim = int(argv[3]) if len(argv) > 3 else 3
    cfg = RunConfig(dim=dim, m=m, kappa1=kappa1, kappa2=kappa2)
    print(f"{'mesh build':40s} {'peak':>11s} {'time':>11s}")
    for name, (peak, seconds) in build_costs(cfg).items():
        print(f"{name:40s} {peak / 2 ** 20:8.2f} MB {seconds * 1e3:8.2f} ms")
    mesh, data = benchmark_mesh(cfg), benchmark_data(cfg)
    peaks, times = {}, {}
    for audited in (False, True):
        def run():
            sol = fem.solve_problem(mesh, data)
            estimator.estimate(mesh, sol, data, "both", check_conformity=audited)

        run()       # fill the quadrature caches first
        peaks[audited] = stage_peaks(run)
        times[audited] = stage_times(run)
    print(f"{'stage':40s} {'unaudited':>11s} {'audited':>11s} {'unaudited':>11s} {'audited':>11s}")
    for name in sorted(peaks[True], key=lambda name: -peaks[True][name]):
        cols = [f"{peaks[a][name] / 2 ** 20:8.2f} MB" if name in peaks[a] else f"{'-':>11s}"
                for a in (False, True)]
        cols += [f"{times[a][name] * 1e3:8.2f} ms" if name in times[a] else f"{'-':>11s}"
                 for a in (False, True)]
        print(f"{name:40s} {' '.join(cols)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
