"""Finite-population causal inference for 2^K factorial designs with
binary outcomes.

Provides randomization-based (Neymanian) estimation with conservative
variance, Bayesian posterior-predictive imputation under independent
potential outcomes, sensitivity analysis over outcome dependence, and a
coverage simulation harness.  Arms are labelled 1..J=2^K and effects
1..J-1 throughout, matching the model-matrix columns.
"""

from .assignment import (
    ObservedData,
    draw_assignment,
    enumerate_assignments,
    observe,
)
from .bayes import PriorSpec
from .design import IntervalReport, ModelMatrix, build_model_matrix
from .errors import CaseFileError, ResourceLimitError, UnsupportedRepresentationError
from .harness import (
    CoverageReport,
    SimulationCase,
    StudyConfig,
    StudyReport,
    coverage_experiment,
    generate_cases,
    load_fixture_cases,
    run_study,
)
from .neyman import confidence_interval, point_estimate, variance_estimate
from .population import (
    CellCounts,
    Estimands,
    PotentialTable,
    estimands,
    from_cell_counts,
    sampling_variance,
    to_cell_counts,
)
from .sensitivity import GammaStructure, SweepResult, conditional_probs, gamma_ar1, gamma_custom

__version__ = "0.1.0"

__all__ = [
    "CaseFileError",
    "CellCounts",
    "CoverageReport",
    "Estimands",
    "GammaStructure",
    "IntervalReport",
    "ModelMatrix",
    "ObservedData",
    "PotentialTable",
    "PriorSpec",
    "ResourceLimitError",
    "SimulationCase",
    "StudyConfig",
    "StudyReport",
    "SweepResult",
    "UnsupportedRepresentationError",
    "build_model_matrix",
    "conditional_probs",
    "confidence_interval",
    "coverage_experiment",
    "draw_assignment",
    "enumerate_assignments",
    "estimands",
    "from_cell_counts",
    "gamma_ar1",
    "gamma_custom",
    "generate_cases",
    "load_fixture_cases",
    "observe",
    "point_estimate",
    "run_study",
    "sampling_variance",
    "to_cell_counts",
    "variance_estimate",
]
