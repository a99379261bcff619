"""Numerical toolkit for cosymplectic geometry and integrable Reeb dynamics.

Build a chart with a closed two-form and a closed one-form, derive the Reeb,
Hamiltonian, evaluation and gradient fields from one linear solve per point,
verify declared integral sets, flow the fields with a controlled-error
integrator, and compute period lattices, loop actions and frequencies on
invariant tori.  See README.md for a tour and the ``cosym`` command line.
"""

from .cosym import (
    CosymplecticStructure,
    DegenerateStructureError,
    ToleranceConfig,
    canonical_chart,
    make_canonical,
    make_poincare_cartan,
    twist,
)
from .exprlang import EvalDomainError, Expr, ParseError, parse
from .fields import (
    ChartSpec,
    OneFormField,
    Point,
    ScalarField,
    TwoFormField,
    lie_bracket,
    sample_box,
)
from .flow import Trajectory, drift_report, integrate
from .integrability import IntegralSystem
from .actionangle import (
    AngleMap,
    PeriodLattice,
    Torus,
    action_integrals,
    b_matrix,
    detect_period_lattice,
    empirical_frequencies,
    solve_frequencies,
    torus_lattice,
)
from .scenarios import Scenario, builtin, builtin_names

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ChartSpec",
    "Point",
    "ScalarField",
    "OneFormField",
    "TwoFormField",
    "Expr",
    "parse",
    "ParseError",
    "EvalDomainError",
    "lie_bracket",
    "sample_box",
    "CosymplecticStructure",
    "ToleranceConfig",
    "DegenerateStructureError",
    "canonical_chart",
    "make_canonical",
    "make_poincare_cartan",
    "twist",
    "IntegralSystem",
    "Trajectory",
    "integrate",
    "drift_report",
    "AngleMap",
    "PeriodLattice",
    "Torus",
    "torus_lattice",
    "detect_period_lattice",
    "action_integrals",
    "b_matrix",
    "solve_frequencies",
    "empirical_frequencies",
    "Scenario",
    "builtin",
    "builtin_names",
]
