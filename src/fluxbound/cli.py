"""Command-line driver for the cube benchmark and mesh-file runs.

Exit codes: 0 success, 2 estimator audit failure, 3 solver failure, 4 input
error (a usage error, an invalid value such as M < 1 or kappa1 > kappa2, a
malformed, degenerate or non-conforming mesh file, or a file that cannot be
opened).
"""
from __future__ import annotations

import argparse
import contextlib
import sys

from .benchmark import (DEFAULT_KAPPA1_SWEEP, DEFAULT_MESH_SWEEP, RunConfig, run_benchmark,
                        sweep_kappa, sweep_mesh, write_csv)
from .errors import (ConformityAuditFailed, DegenerateSimplex, DivergenceAuditFailed,
                     InfeasibleConstraints, MeshFormatError, NoConvergence, NonConformingMesh,
                     UnsolvableProblem)
from .estimator import STRATEGIES
from .geometry import build_cube_mesh, read_mesh

EXIT_OK, EXIT_AUDIT, EXIT_SOLVER, EXIT_INPUT = 0, 2, 3, 4


def _values(text: str) -> list[str]:
    return text.replace(",", " ").split()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxbound",
        description="Guaranteed a posteriori error bounds for reaction-diffusion P1 FEM.")
    sub = parser.add_subparsers(dest="command", required=True)
    est = sub.add_parser("estimate", help="run the cube benchmark or a mesh file")
    est.add_argument("--dim", type=int, choices=(2, 3), default=3)
    est.add_argument("--m", type=int, default=16, help="subcubes per edge")
    est.add_argument("--kappa1", type=float, default=100.0)
    est.add_argument("--kappa2", type=float, default=1.0e6)
    source = est.add_mutually_exclusive_group()
    source.add_argument("--sweep-kappa", nargs="?", const=DEFAULT_KAPPA1_SWEEP, type=_values,
                        metavar="LIST", help="comma-separated kappa1 values (default 1e-3..1e6)")
    source.add_argument("--sweep-mesh", nargs="?", const=DEFAULT_MESH_SWEEP, type=_values,
                        metavar="LIST", help="comma-separated M values (default 2,4,8,16,32)")
    source.add_argument("--mesh", metavar="FILE", help="run on a mesh file instead of the cube")
    est.add_argument("--strategy", choices=STRATEGIES, default="both")
    est.add_argument("--out", metavar="FILE.csv", help="write CSV here (default: stdout)")
    est.add_argument("--verbose", action="store_true")
    return parser


def _configurations(args) -> list[RunConfig]:
    """The validated runs the arguments ask for; raises ValueError on a bad value."""
    # during a kappa sweep the base kappa1 is replaced per row; keep it valid
    kappa1 = args.kappa1 if args.sweep_kappa is None else min(args.kappa1, args.kappa2)
    config = RunConfig(dim=args.dim, m=args.m, kappa1=kappa1, kappa2=args.kappa2,
                       strategy=args.strategy)
    if args.sweep_kappa is not None:
        return sweep_kappa(config, args.sweep_kappa)
    return [config] if args.sweep_mesh is None else sweep_mesh(config, args.sweep_mesh)


def _rows(configs, mesh, patches: str | None):
    """The CSV row of each run, as it finishes; with ``patches``, each run's
    patch table is written there first (``ErrorReport.write_patches``)."""
    for config in configs:
        report, row = run_benchmark(config, mesh)
        if patches:
            report.write_patches(patches)
        yield row


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error, which is EXIT_AUDIT here
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        configs = _configurations(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    single = args.sweep_kappa is None and args.sweep_mesh is None
    patches = f"{args.out}.patches.csv" if single and args.verbose and args.out else None
    try:
        mesh = read_mesh(args.mesh) if args.mesh else None
        # the rows of a kappa sweep differ only in kappa: while this mesh of their
        # cube is alive, each row's mesh is its with_kappa (build_cube_mesh)
        cube = build_cube_mesh(args.m, args.dim, 0.0) if args.sweep_kappa is not None else None
        with (open(args.out, "w", encoding="utf-8") if args.out
              else contextlib.nullcontext(sys.stdout)) as fh:
            write_csv(_rows(configs, mesh, patches), fh)
    except (DivergenceAuditFailed, ConformityAuditFailed, InfeasibleConstraints) as exc:
        print(f"estimator audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except (NoConvergence, UnsolvableProblem) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (MeshFormatError, DegenerateSimplex, NonConformingMesh, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.out and args.verbose:
        print(f"wrote {len(configs)} rows to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
