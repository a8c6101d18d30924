"""Numerics for fast action drift along resonance channels.

The package realizes, with measured quantities instead of symbolic bounds,
the constructive path from a near-integrable two-degree-of-freedom
Hamiltonian to drifting orbits: straighten a resonance line, average the
perturbation with one or two homological solves, check the genericity of the
resonant average, and run drift, connection and time-scaling experiments on
the full flow.
"""

from .averaging import (
    AveragingStep,
    GeneratorChi,
    GenericityReport,
    NormalFormResult,
    average_over_theta2,
    choose_cutoff,
    genericity_check,
    one_step_normal_form,
    resonant_average_along_k,
    solve_homological,
    two_step_normal_form,
)
from .catalog import CatalogEntry, catalog_names, get_entry, make_bundle, verify_catalog
from .errors import (
    DomainError,
    FlowEscapeError,
    IntegrationError,
    SmallDivisorError,
    UsageError,
)
from .experiments import (
    ExperimentRecord,
    OptimalityReport,
    SweepResult,
    exact_moser_orbit,
    optimality_check,
    run_connecting_experiment,
    run_drift_experiment,
    run_orbit,
    sweep_epsilon,
)
from .fourier import FourierPerturbation, canonical_mode
from .integrate import (
    IntegratorConfig,
    OrbitRecord,
    StopEvent,
    flow_points,
    lie_flow,
    symplecticity_defect,
)
from .norms import NormReport, estimate_cj_norm
from .poly import PolyField
from .reduction import (
    ReductionResult,
    UnimodularMap,
    map_orbit,
    primitive_vector,
    reduce_system,
    unimodular_completion,
)
from .systems import (
    ActionWindow,
    ChannelReport,
    IntegrableSystem,
    ResonanceData,
    SystemBundle,
    load_system,
    load_system_file,
    star_window,
    system_to_dict,
    verify_channel_assumptions,
)
from .torus import PhaseState, circle_delta, torus_distance, wrap

__version__ = "0.1.0"

__all__ = [
    "ActionWindow",
    "AveragingStep",
    "CatalogEntry",
    "ChannelReport",
    "DomainError",
    "ExperimentRecord",
    "FlowEscapeError",
    "FourierPerturbation",
    "GeneratorChi",
    "GenericityReport",
    "IntegrableSystem",
    "IntegrationError",
    "IntegratorConfig",
    "NormReport",
    "NormalFormResult",
    "OptimalityReport",
    "OrbitRecord",
    "PhaseState",
    "PolyField",
    "ReductionResult",
    "ResonanceData",
    "SmallDivisorError",
    "StopEvent",
    "SweepResult",
    "SystemBundle",
    "UnimodularMap",
    "UsageError",
    "average_over_theta2",
    "canonical_mode",
    "catalog_names",
    "choose_cutoff",
    "circle_delta",
    "estimate_cj_norm",
    "exact_moser_orbit",
    "flow_points",
    "genericity_check",
    "get_entry",
    "lie_flow",
    "load_system",
    "load_system_file",
    "make_bundle",
    "map_orbit",
    "one_step_normal_form",
    "optimality_check",
    "primitive_vector",
    "reduce_system",
    "resonant_average_along_k",
    "run_connecting_experiment",
    "run_drift_experiment",
    "run_orbit",
    "solve_homological",
    "star_window",
    "sweep_epsilon",
    "symplecticity_defect",
    "system_to_dict",
    "torus_distance",
    "two_step_normal_form",
    "unimodular_completion",
    "verify_catalog",
    "verify_channel_assumptions",
    "wrap",
]
