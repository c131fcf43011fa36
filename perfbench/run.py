"""fluxbound benchmark: time until every guaranteed bound of a workload is available.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cube3d-layer --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30     # each in turn

One *pass* runs ``solve_problem`` and ``estimate(..., "both")`` on every input
of the workload. After a warm-up pass on the M=2 inputs, passes repeat until
``--seconds`` have elapsed; each pass is gated for correctness outside its
timed region (``workloads.check``), and a failed pass is counted in
``failed`` without stopping the run.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported:
``time_to_bound_s`` is the median wall time of the timed passes, ``setup_s``
the median over SETUP_PROBES fresh processes of the time from process start to
inputs ready. With ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics come from the traced ones (``tracing.py``); the spans are
written to ``perfbench/out/``. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import os

# one BLAS thread, set before numpy loads: the timings must not depend on how
# many idle cores the machine happens to have
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 7    # set-up is measured in this many fresh processes; the median is reported
# typical duration of SpeedReference() on the development machine (2-vCPU Xeon VM,
# Python 3.11, numpy 2.4 with OpenBLAS 0.3.31) when it is not slowed by other load
REFERENCE_NOMINAL_S = 0.095
REFERENCE_SHARE = 0.05   # reference time between passes, as a share of the pass before


class SpeedReference:
    """A fixed computation whose duration stands for the machine's current speed.

    On a shared machine the speed of this process drifts by up to 1.7x over
    tens of seconds, as other load comes and goes. Between timed passes the
    reference runs for about REFERENCE_SHARE of the preceding pass's time, and
    ``time_to_bound_s`` is the median pass wall time scaled by
    REFERENCE_NOMINAL_S / (mean reference duration of the run); the mean, like
    a pass time, weighs slow and fast spells by how long they last. It mixes
    what the program spends its time on: a Python loop of small SVD solves
    (like the vertex-patch solves) and vectorised element-array arithmetic
    (like the indicators). It is benchmark code, so no change to the program
    can move it.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.small = rng.standard_normal((1200, 12, 6))
        self.rhs = rng.standard_normal((1200, 12))
        self.big = rng.standard_normal((50000, 4, 3))
        self.w = rng.standard_normal(3)

    def sample(self, budget: float) -> list[float]:
        """Run the reference at least once and until ``budget`` seconds are used."""
        out = [self()]
        while sum(out) < budget:
            out.append(self())
        return out

    def __call__(self) -> float:
        """Run the reference computation once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        for m, b in zip(self.small, self.rhs):
            u, s, vt = np.linalg.svd(m, full_matrices=False)
            keep = s > 1e-12 * s[0]
            np.abs(m @ (vt[keep].T @ ((u[:, keep].T @ b) / s[keep])) - b).max()
        for _ in range(12):
            np.sqrt(np.einsum("eid,eid->ei", self.big, self.big)).sum()
            np.einsum("eid,d->e", self.big, self.w).max()
        return time.perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="'smoke' runs M=2 meshes, for the benchmark's own test")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Make fluxbound importable from this checkout's sources, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "fluxbound", "__init__.py")):
        sys.exit(f"benchmark: no fluxbound sources under {SRC}")
    sys.path.insert(0, SRC)
    import fluxbound
    if os.path.dirname(os.path.dirname(os.path.abspath(fluxbound.__file__))) != SRC:
        sys.exit(f"benchmark: imported fluxbound from {fluxbound.__file__}, not from {SRC}")


def probe_setup(args):
    """Child process: import, build the inputs, report when they are ready."""
    import_program()
    import workloads
    workloads.build(args.workload, args.seed, args.size)
    print(json.dumps({"ready": time.monotonic()}))


def measure_setup(args) -> list[float]:
    """Process start to inputs ready, in SETUP_PROBES fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()   # CLOCK_MONOTONIC is shared by all processes
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"benchmark: set-up probe failed with code {done.returncode}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["ready"] - t0)
    return times


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args, spec) -> int:
    """Run every workload in its own process; the last line maps workload -> result."""
    results = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            sys.exit(f"benchmark: workload {w['name']} exited with code {done.returncode}")
        results[w["name"]] = json.loads(lines[-1])
    for name, r in results.items():
        print(f"# {name}: {'PASS' if r['correct'] else 'FAIL'}, {r['failed']} of "
              f"{r['attempted']} passes failed")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0
    spec = load_contract()
    if args.workload == "all":
        return run_all(args, spec)
    setup = [] if args.trace else measure_setup(args)
    import_program()
    import tracing
    import workloads

    env = environment()
    print("# environment " + json.dumps(env), flush=True)
    tracer = tracing.Tracer() if args.trace else None
    with (tracer.span("setup") if tracer else contextlib.nullcontext()) as setup_span:
        cases = workloads.build(args.workload, args.seed, args.size,
                                timer=tracer.span if tracer else None)
    print(f"# {args.workload} seed {args.seed}: " + "; ".join(c.label for c in cases), flush=True)
    # the warm-up pass runs the same code paths on the M=2 inputs: it fills the
    # quadrature caches and finishes lazy imports without costing a full pass
    warm = workloads.build(args.workload, args.seed, "smoke")

    untraced, traced, layer = [], [], []
    reference, refs = SpeedReference(), []
    ieff = []       # effectivity indices of every checked input of every timed pass
    attempted = failed = 0
    start = None
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as patch_dir:
        while True:
            timed = start is not None
            # a traced run alternates untraced and traced passes
            trace_this = timed and bool(args.trace) and len(untraced) > len(traced)
            inputs = cases if timed else warm
            if trace_this:
                tracer.observed = {}
                with tracer.installed(), tracer.span("pass") as root:
                    seconds, results, error = workloads.run_pass(inputs, tracer, patch_dir)
            else:
                seconds, results, error = workloads.run_pass(inputs)
            t_check = time.perf_counter()
            problems, checked = workloads.gate(results, error)
            kind = "traced" if trace_this else ("timed" if timed else "warm-up, M=2")
            print(f"# pass {attempted} ({kind}): {seconds:.4f} s, check "
                  f"{time.perf_counter() - t_check:.2f} s, "
                  f"{'ok' if not problems else 'FAILED: ' + '; '.join(problems)}", flush=True)
            attempted += 1
            failed += bool(problems)
            if not timed:
                refs += reference.sample(0.0)
                start = time.perf_counter()
                continue
            ieff += [values for values in checked if values]
            (traced if trace_this else untraced).append(seconds)
            refs += reference.sample(REFERENCE_SHARE * seconds)
            if trace_this and not problems:
                layer.append(tracing.layer_metrics(tracer, root, results))
            enough = untraced and (traced or not args.trace)
            if enough and time.perf_counter() - start >= args.seconds:
                break
    correct = failed == 0
    print(f"# correctness {args.workload}: {'PASS' if correct else 'FAIL'} "
          f"({attempted - failed}/{attempted} passes, failed_share {failed / attempted:.4g})")

    scale = REFERENCE_NOMINAL_S / statistics.mean(refs)
    print(f"# speed reference: {len(refs)} runs, mean {statistics.mean(refs):.4f} s, "
          f"range {min(refs):.4f}-{max(refs):.4f} s, nominal {REFERENCE_NOMINAL_S} s, "
          f"scale {scale:.4f}")
    if not args.trace:
        values = {
            "time_to_bound_s": statistics.median(untraced) * scale,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ieff_tau_max": max((v["ieff_tau"] for v in ieff), default=math.nan),
            "ieff_taustar_max": max((v["ieff_taustar"] for v in ieff), default=math.nan),
        }
        print(f"# passes: wall median {statistics.median(untraced):.4f} s of "
              f"{[round(t, 4) for t in untraced]}; references {[round(t, 4) for t in refs]}")
        print(f"# set-up: median {statistics.median(setup):.4f} s of "
              f"{sorted(round(t, 4) for t in setup)}")
        units = spec["end_to_end"]
    else:
        # counts repeat exactly between passes; times take the median
        values = {k: (statistics.median_low if isinstance(layer[0][k], int)
                      else statistics.median)([m[k] for m in layer])
                  for k in layer[0]} if layer else {}
        values["geometry.build_cube_mesh_s"] = sum(
            s.duration for s in tracer.descendants(setup_span)
            if s.name == "geometry.build_cube_mesh")
        values["geometry.n_elements"] = sum(c.mesh.n_elements for c in cases)
        values["geometry.n_vertices"] = sum(c.mesh.n_points for c in cases)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        values["machine.reference_s"] = statistics.mean(refs)
        write_trace(args, tracer, env)
        units = spec["per_layer"]
        for name in tracer.absent:
            print(f"# absent layer function: {name}; its metrics are not reported")
    metrics = {}
    for m in units:
        # a metric whose layer function is gone, or that no pass produced, is left out
        if math.isfinite(values.get(m["name"], math.nan)):
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def write_trace(args, tracer, env):
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                   "absent": tracer.absent, "spans": [s.to_dict() for s in tracer.spans]}, fh)
    print(f"# spans written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
