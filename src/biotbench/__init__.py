"""2D Biot poroelasticity with displacement-dependent permeability.

Finite element solver (P1 on structured triangulations of the unit
square) comparing a decoupling, linearizing semi-explicit Euler scheme
against implicit Euler with Picard iteration, plus the benchmark harness
around them.
"""

from .analysis import (ERROR_KEYS, ErrorReport, NormKind, convergence_order,
                       coupling_diagnostic, error_vs_manufactured,
                       error_vs_reference, p_error_time_integrated)
from .assembly import (Coefficients, assemble_coupling, assemble_elasticity,
                       assemble_laplace, assemble_load_q, assemble_load_v,
                       assemble_mass, assemble_permeability_stiffness,
                       assemble_pressure_mass, element_divergence)
from .forcing import (ProblemData, experiment_41_data, experiment_42_data,
                      experiment_43_data, manufactured_problem, problem_by_name,
                      with_coefficients)
from .linsolve import BlockSystem, SolverFailure, solve_block, solve_spd
from .mesh import Mesh, build_structured_mesh
from .permeability import (Constant, KozenyCarman, NetworkInspired,
                           PermeabilityModel, QuadraticClamped, model_from_config)
from .stepper import (DELAY_IMPLICIT, IMPLICIT_PICARD, SEMI_EXPLICIT, RunReport,
                      State, StepperConfig, StepReport, delay_implicit_run,
                      implicit_picard_step, initial_displacement, run,
                      semi_explicit_step, tau_bound_diagnostic)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
