"""Guaranteed a posteriori error bounds for P1 reaction-diffusion finite elements.

The package solves -lap(u) + kappa^2 u = f with mixed Dirichlet/Neumann
boundary conditions on simplicial meshes in any dimension d >= 2, reconstructs
an H(div)-conforming equilibrated flux, and evaluates a fully computable upper
bound on the energy-norm error that is robust in both kappa and the mesh size.
"""
from . import errors
from .geometry import (Mesh, build_cube_mesh, build_facet_adjacency, build_mesh,
                       read_mesh, write_mesh)
from .quadrature import QuadratureRule, rule_for
from .fem import ProblemData, FemSolution, assemble, solve, solve_problem
from .equilibration import (BoundaryFluxSet, equilibrate, facet_average,
                            residual_functionals, solve_vertex_patch)
from .reconstruction import facet_residuals
from .estimator import (TraceConstants, trace_constants, oscillation_f, oscillation_gN,
                        estimate, true_error, ErrorReport)
from .benchmark import (ExactBenchmarkSolution, RunConfig, exact_solution,
                        run_benchmark, sweep_kappa, sweep_mesh)

__all__ = [
    "errors",
    "Mesh", "build_cube_mesh", "build_facet_adjacency", "build_mesh",
    "read_mesh", "write_mesh",
    "QuadratureRule", "rule_for",
    "ProblemData", "FemSolution", "assemble", "solve", "solve_problem",
    "BoundaryFluxSet", "equilibrate", "facet_average", "residual_functionals",
    "solve_vertex_patch",
    "facet_residuals",
    "TraceConstants", "trace_constants", "oscillation_f", "oscillation_gN",
    "estimate", "true_error", "ErrorReport",
    "ExactBenchmarkSolution", "RunConfig", "exact_solution", "run_benchmark",
    "sweep_kappa", "sweep_mesh",
]
