"""Guaranteed a posteriori error bounds for P1 reaction-diffusion finite elements.

The package solves -lap(u) + kappa^2 u = f with mixed Dirichlet/Neumann
boundary conditions on simplicial meshes in any dimension d >= 2, reconstructs
an H(div)-conforming equilibrated flux, and evaluates a fully computable upper
bound on the energy-norm error that is robust in both kappa and the mesh size.
"""
from . import errors
from .geometry import (Mesh, build_cube_mesh, build_facet_adjacency, build_mesh,
                       read_mesh, write_mesh, simplex_volume,
                       barycentric_gradients, geometric_quantities)
from .quadrature import QuadratureRule, rule_for, integrate, integrate_facet
from .fem import (ProblemData, FemSolution, assemble, solve, solve_problem,
                  project_element, project_facet, energy_norm, energy_norm_fe)
from .equilibration import (BoundaryFluxSet, equilibrate, facet_average,
                            dual_basis, extension, residual_functionals,
                            solve_vertex_patch)
from .reconstruction import facet_residuals, build_variant1, build_variant2
from .estimator import (TraceConstants, trace_constants, verify_trace_inequality,
                        oscillation_f, oscillation_gN, estimate, true_error,
                        ErrorReport)
from .benchmark import (ExactBenchmarkSolution, RunConfig, exact_solution,
                        run_benchmark, sweep_kappa, sweep_mesh)

__all__ = [
    "errors",
    "Mesh", "build_cube_mesh", "build_facet_adjacency", "build_mesh",
    "read_mesh", "write_mesh",
    "simplex_volume", "barycentric_gradients", "geometric_quantities",
    "QuadratureRule", "rule_for", "integrate", "integrate_facet",
    "ProblemData", "FemSolution", "assemble", "solve", "solve_problem",
    "project_element", "project_facet", "energy_norm", "energy_norm_fe",
    "BoundaryFluxSet", "equilibrate", "facet_average", "dual_basis",
    "extension", "residual_functionals", "solve_vertex_patch",
    "facet_residuals", "build_variant1", "build_variant2",
    "TraceConstants", "trace_constants", "verify_trace_inequality",
    "oscillation_f", "oscillation_gN", "estimate", "true_error", "ErrorReport",
    "ExactBenchmarkSolution", "RunConfig", "exact_solution", "run_benchmark",
    "sweep_kappa", "sweep_mesh",
]
