"""Per-stage peaks of traced memory (tracemalloc) over one call.

``stage_peaks(run)`` runs ``run()`` under tracemalloc with the pipeline's
stage functions wrapped at their module attributes, the names the package
calls them through, and returns each stage's peak of traced bytes over the
start of the run, together with the run's own peak under ``"total"``. A stage
called several times reports its largest peak; a peak inside a nested stage
counts for the stages around it too. tracemalloc sees the numpy arrays the
program allocates, not the interpreter's fixed footprint, so the peaks are
the working set of the call and do not depend on the machine.

From the root of a source checkout, for a d=3 cube of the benchmark family,
with the peaks of ``estimate`` without and with the conformity audit side by
side (arguments M, kappa1, kappa2 and, optionally, the dimension, 3 by
default; the d=2 M=64 mesh is that of the kappa sweep):

    PYTHONPATH=src python tests/stage_memory.py 16 100 1e6
    PYTHONPATH=src python tests/stage_memory.py 64 100 1e6 2
"""
from __future__ import annotations

import contextlib
import importlib
import sys
import tracemalloc

# (module, attribute) of the wrapped stages, outermost first
STAGES = (
    ("fluxbound.fem", "solve_problem"),
    ("fluxbound.fem", "assemble"),
    ("fluxbound.fem", "solve"),
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
)


@contextlib.contextmanager
def _wrapped(fold, peaks, base):
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

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        with _wrapped(fold, peaks, base):
            base[0] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            fold([])
    finally:
        if started:
            tracemalloc.stop()
    peaks["total"] = total[0] - base[0]
    return peaks


def main(argv):
    from fluxbound import estimator, fem
    from fluxbound.benchmark import RunConfig, benchmark_data, benchmark_mesh
    m, kappa1, kappa2 = int(argv[0]), float(argv[1]), float(argv[2])
    dim = int(argv[3]) if len(argv) > 3 else 3
    cfg = RunConfig(dim=dim, m=m, kappa1=kappa1, kappa2=kappa2)
    mesh, data = benchmark_mesh(cfg), benchmark_data(cfg)
    peaks = {}
    for audited in (False, True):
        def run():
            sol = fem.solve_problem(mesh, data)
            estimator.estimate(mesh, sol, data, "both", check_conformity=audited)

        run()       # fill the quadrature caches first
        peaks[audited] = stage_peaks(run)
    print(f"{'stage':40s} {'unaudited':>11s} {'audited':>11s}")
    for name in sorted(peaks[True], key=lambda name: -peaks[True][name]):
        cols = [f"{peaks[a][name] / 2 ** 20:8.2f} MB" if name in peaks[a] else f"{'-':>11s}"
                for a in (False, True)]
        print(f"{name:40s} {cols[0]} {cols[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
