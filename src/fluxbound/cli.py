"""Command-line driver for the cube benchmark and mesh-file runs.

Exit codes: 0 success, 2 estimator audit failure, 3 solver failure, 4 input
error (a malformed, degenerate or non-conforming mesh file, or a file that
cannot be opened).
"""
from __future__ import annotations

import argparse
import sys

from .benchmark import RunConfig, run_single, sweep_kappa, sweep_mesh
from .errors import (DegenerateSimplex, DivergenceAuditFailed, InfeasibleConstraints,
                     MeshFormatError, NoConvergence, NonConformingMesh, UnsolvableProblem)

EXIT_OK, EXIT_AUDIT, EXIT_SOLVER, EXIT_INPUT = 0, 2, 3, 4


def _float_list(text: str):
    return [float(tok) for tok in text.replace(",", " ").split()]


def _int_list(text: str):
    return [int(tok) for tok in text.replace(",", " ").split()]


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
    est.add_argument("--sweep-kappa", nargs="?", const="default", metavar="LIST",
                     help="comma-separated kappa1 values (default sweep 1e-3..1e6)")
    est.add_argument("--sweep-mesh", nargs="?", const="default", metavar="LIST",
                     help="comma-separated M values (default 2,4,8,16,32)")
    est.add_argument("--strategy", choices=("tau", "taustar", "both"), default="both")
    est.add_argument("--mesh", metavar="FILE", help="run on a mesh file instead of the cube")
    est.add_argument("--out", metavar="FILE.csv", help="write CSV here (default: stdout)")
    est.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # during a kappa sweep the base kappa1 is replaced per row; keep it valid
    kappa1 = args.kappa1 if args.sweep_kappa is None else min(args.kappa1, args.kappa2)
    config = RunConfig(dim=args.dim, m=args.m, kappa1=kappa1, kappa2=args.kappa2,
                       strategy=args.strategy, out=args.out, verbose=args.verbose)
    try:
        if args.sweep_kappa is not None:
            values = None if args.sweep_kappa == "default" else _float_list(args.sweep_kappa)
            sink = sweep_kappa(config, values)
        elif args.sweep_mesh is not None:
            values = None if args.sweep_mesh == "default" else _int_list(args.sweep_mesh)
            sink = sweep_mesh(config, values)
        else:
            sink = run_single(config, mesh_path=args.mesh)
    except (DivergenceAuditFailed, InfeasibleConstraints) as exc:
        print(f"estimator audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except (NoConvergence, UnsolvableProblem) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (MeshFormatError, DegenerateSimplex, NonConformingMesh, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not args.out:
        sys.stdout.write(sink.text())
    elif args.verbose:
        print(f"wrote {len(sink.rows)} rows to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
