"""Stochastic energy-exchange kinetics: exact particle simulation, a
deterministic grid solver for the collision equation, and numerical
verification of the equilibrium structure.

The package is lazy: ``import enerkin`` loads none of its modules, and each
public name (``enerkin.integrate``, ``from enerkin import SimulatorConfig``)
imports the module that defines it on first use, then is the same object as
that module's.  A submodule (``enerkin.solver``) loads the same way.  So a
command loads only what its scenario declares: ``scenario`` imports
``simulate`` for an ``initial`` or ``run`` section and ``solver`` for a
``solve`` section or a check that needs the collision plan, while the
document is loaded, and nothing else.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each module, and the public names the package takes from it
_EXPORTS = {
    "core": (
        "InfeasibleReactionError", "KernelSupportError", "KineticsError", "ParticleSystem",
        "SimulationError", "SolverBlowupError", "TypeTable", "UnknownTypeError", "ValidationError",
        "available_kinetic_energy", "total_energy",
    ),
    "densities": (
        "DensityFamily", "Exponential", "GammaDensity", "Shifted", "ShiftedGamma", "Tabulated",
        "UniformDensity", "density_from_spec",
    ),
    "reactions": (
        "BinaryChannel", "CallableRate", "CallableUnaryRate", "CanonicalKernel", "ConstantRate",
        "ConstantUnaryRate", "OutputPair", "PowerGapRate", "ReactionNetwork", "ScatteringKernel",
        "SumDecayRate", "UnaryChannel", "UniformKernel", "canonical_split_pdf",
        "sample_canonical_split",
    ),
    "simulate": (
        "CollisionEvent", "MixtureInitial", "SimulatorConfig", "Snapshot", "Trajectory",
        "TypeCountsInitial", "UnaryEvent", "empirical_histogram", "execute_event", "run",
        "run_ensemble", "sample_next_event",
    ),
    "solver": (
        "CollisionPlan", "DensityGrid", "SolveResult", "SolverConfig", "integrate", "mass",
        "mean_energy", "rhs_multitype", "rhs_one_type",
    ),
    "equilibrium": (
        "CollisionRateDensity", "CycleCheckResult", "DiscreteChainSpec", "EntropyCheck",
        "ResidualReport", "TypedDensity", "additive_conservation_residual", "admissible_pair_check",
        "convolution_density", "convolution_equality_check", "detailed_balance_residual",
        "entropy_monotonicity_check", "fixed_point_residual", "kolmogorov_cycle_check",
        "ks_distance", "local_equilibrium_residual", "measure_transform", "product_form_measure",
        "product_form_residual", "relative_entropy", "sample_conserving_quadruples",
    ),
    "scenario": ("Scenario", "load_scenario", "scenario_from_dict"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
