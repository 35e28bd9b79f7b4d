"""Stochastic energy-exchange kinetics: exact particle simulation, a
deterministic grid solver for the collision equation, and numerical
verification of the equilibrium structure."""

from .core import (
    InfeasibleReactionError,
    KernelSupportError,
    KineticsError,
    ParticleSystem,
    SimulationError,
    SolverBlowupError,
    TypeTable,
    UnknownTypeError,
    ValidationError,
    available_kinetic_energy,
    total_energy,
)
from .densities import (
    DensityFamily,
    Exponential,
    GammaDensity,
    Shifted,
    ShiftedGamma,
    Tabulated,
    UniformDensity,
    density_from_spec,
)
from .reactions import (
    BinaryChannel,
    CallableRate,
    CallableUnaryRate,
    CanonicalKernel,
    ConstantRate,
    ConstantUnaryRate,
    OutputPair,
    PowerGapRate,
    ReactionNetwork,
    ScatteringKernel,
    SumDecayRate,
    UnaryChannel,
    UniformKernel,
    canonical_split_pdf,
    sample_canonical_split,
)
from .simulate import (
    CollisionEvent,
    MixtureInitial,
    SimulatorConfig,
    Snapshot,
    Trajectory,
    TypeCountsInitial,
    UnaryEvent,
    empirical_histogram,
    execute_event,
    run,
    run_ensemble,
    sample_next_event,
)
from .solver import (
    CollisionPlan,
    DensityGrid,
    SolveResult,
    SolverConfig,
    integrate,
    mass,
    mean_energy,
    rhs_multitype,
    rhs_one_type,
)
from .equilibrium import (
    CollisionRateDensity,
    CycleCheckResult,
    DiscreteChainSpec,
    EntropyCheck,
    ResidualReport,
    TypedDensity,
    additive_conservation_residual,
    admissible_pair_check,
    convolution_density,
    convolution_equality_check,
    detailed_balance_residual,
    entropy_monotonicity_check,
    fixed_point_residual,
    kolmogorov_cycle_check,
    ks_distance,
    local_equilibrium_residual,
    measure_transform,
    product_form_measure,
    product_form_residual,
    relative_entropy,
    sample_conserving_quadruples,
)
from .scenario import Scenario, load_scenario, scenario_from_dict

__version__ = "0.1.0"
