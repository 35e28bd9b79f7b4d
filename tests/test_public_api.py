"""The public surface of enerkin, pinned.

Each module's ``__all__`` is pinned in order, and so is every exported
callable's signature: parameter names, kinds and defaults, with annotations
left out.  The package namespace is pinned as the sorted set of its public
names.  A change here is a change of the public API and should be made on
purpose, with the pin below updated in the same change.
"""

import importlib
import inspect
import types

import pytest

import enerkin

PACKAGE_NAMES = [
    "BinaryChannel", "CallableRate", "CallableUnaryRate", "CanonicalKernel",
    "CollisionEvent", "CollisionPlan", "CollisionRateDensity", "ConstantRate",
    "ConstantUnaryRate", "CycleCheckResult", "DensityFamily", "DensityGrid",
    "DiscreteChainSpec", "EntropyCheck", "Exponential", "GammaDensity",
    "InfeasibleReactionError", "KernelSupportError", "KineticsError", "MixtureInitial",
    "OutputPair", "ParticleSystem", "PowerGapRate", "ReactionNetwork",
    "ResidualReport", "ScatteringKernel", "Scenario", "Shifted", "ShiftedGamma",
    "SimulationError", "SimulatorConfig", "Snapshot", "SolveResult", "SolverBlowupError",
    "SolverConfig", "SumDecayRate", "Tabulated", "Trajectory",
    "TypeCountsInitial", "TypeTable", "TypedDensity", "UnaryChannel", "UnaryEvent",
    "UniformDensity", "UniformKernel", "UnknownTypeError", "ValidationError",
    "additive_conservation_residual", "admissible_pair_check", "available_kinetic_energy",
    "canonical_split_pdf", "convolution_density", "convolution_equality_check",
    "density_from_spec", "detailed_balance_residual", "empirical_histogram",
    "entropy_monotonicity_check", "execute_event", "fixed_point_residual", "integrate",
    "kolmogorov_cycle_check", "ks_distance", "load_scenario", "local_equilibrium_residual",
    "mass", "mean_energy", "measure_transform",
    "product_form_measure", "product_form_residual", "relative_entropy",
    "rhs_multitype", "rhs_one_type", "run", "run_ensemble", "sample_canonical_split",
    "sample_conserving_quadruples", "sample_next_event", "scenario_from_dict",
    "total_energy",
]

# per module: its __all__ in order, each name with its signature (None when
# the name has none to read)
EXPORTS = {
    "core": {
        "KineticsError": None,
        "ValidationError": "(message, *, field=None)",
        "UnknownTypeError": None,
        "InfeasibleReactionError": None,
        "KernelSupportError": None,
        "SimulationError": "(message, *, time=None, indices=None)",
        "SolverBlowupError": "(message, *, step, time)",
        "TypeTable": "(internal_energies, labels=None)",
        "ParticleSystem": "(type_ids, kinetic_energies, time=0.0)",
        "total_energy": "(system, types)",
        "available_kinetic_energy": "(kinetic, inputs, outputs, types)",
    },
    "densities": {
        "DensityFamily": "()",
        "Exponential": "(beta)",
        "GammaDensity": "(nu, beta)",
        "ShiftedGamma": "(nu, beta, shift=0.0)",
        "UniformDensity": "(lo, hi)",
        "Shifted": "(base, offset)",
        "Tabulated": "(x_max, values)",
        "density_from_spec": "(spec)",
    },
    "reactions": {
        "ConstantRate": "(value)",
        "SumDecayRate": "(scale, decay)",
        "CallableRate": "(fn, name='custom', bound=None)",
        "ConstantUnaryRate": "(value)",
        "PowerGapRate": "(b, exponent, threshold)",
        "CallableUnaryRate": "(fn, name='custom')",
        "OutputPair": "(first, second, weight=1.0)",
        "ScatteringKernel": "(outputs)",
        "UniformKernel": "(outputs)",
        "CanonicalKernel": "(outputs, densities)",
        "sample_canonical_split": "(rho_a, rho_b, total, rng)",
        "canonical_split_pdf": "(rho_a, rho_b, total, x)",
        "BinaryChannel": "(pair, rate, kernel)",
        "UnaryChannel": "(source, target, rate)",
        "ReactionNetwork": "(types, binary=(), unary=())",
    },
    "simulate": {
        "CollisionEvent": "(i, j)",
        "UnaryEvent": "(i, target)",
        "TypeCountsInitial": "(counts, energies)",
        "MixtureInitial": "(total, probabilities, energies)",
        "SimulatorConfig": (
            "(network, initial_state, t_end, snapshot_times=(), seed=0, replicas=1, "
            "max_events=None, histogram_edges=None)"
        ),
        "Snapshot": "(time, event_count, type_counts, histograms, state)",
        "Trajectory": (
            "(snapshots, final_state, histogram_edges, events_applied, noop_events, "
            "rejected_proposals=0)"
        ),
        "sample_next_event": "(system, network, rng)",
        "execute_event": "(system, event, network, rng)",
        "empirical_histogram": "(system, type_id, bin_edges)",
        "run": "(config, _seed_seq=None)",
        "run_ensemble": "(config)",
    },
    "solver": {
        "DensityGrid": "(x_max, values)",
        "CollisionPlan": "(network, n_cells, x_max)",
        "SolverConfig": (
            "(network, t_end, dt=None, scheme='dopri5', rtol=None, snapshot_times=None)"
        ),
        "SolveResult": "()",
        "rhs_one_type": "(grid, alpha)",
        "rhs_multitype": "(grid, network, *, plan=None)",
        "integrate": "(grid0, config)",
        "mass": "(grid)",
        "mean_energy": "(grid, types)",
    },
    "equilibrium": {
        "TypedDensity": "(families, weights=None)",
        "CollisionRateDensity": "(network)",
        "ResidualReport": "(max_residual, n_evaluated, n_skipped, worst_point=None)",
        "EntropyCheck": "(min_delta, passed, entropies)",
        "CycleCheckResult": "(passed, worst_cycle, worst_ratio, cycles_checked)",
        "DiscreteChainSpec": "(rates)",
        "sample_conserving_quadruples": (
            "(network, n, seed=0, energy_scale=1.0, include_corners=True)"
        ),
        "detailed_balance_residual": "(w, f0, quadruples)",
        "local_equilibrium_residual": "(w, f, pairs)",
        "fixed_point_residual": "(w, f, gammas)",
        "relative_entropy": "(f, f0, grid)",
        "entropy_monotonicity_check": "(snapshots, f0, tol=1e-06)",
        "additive_conservation_residual": "(f, f0, quadruples, w=None)",
        "convolution_density": "(rho_v, rho_w, total)",
        "convolution_equality_check": "(rho_v, rho_w, rho_vp, rho_wp, grid)",
        "admissible_pair_check": "(rho1, rho2, delta_i, grid)",
        "product_form_measure": "(network, beta, n_check=64)",
        "product_form_residual": "(network, weights, beta, n_check=64)",
        "kolmogorov_cycle_check": "(chain)",
        "measure_transform": "(rho, beta, x)",
        "ks_distance": "(samples, cdf)",
    },
    "scenario": {
        "Scenario": "(types, network, initial, run, solve, reference, checks, source)",
        "load_scenario": "(path)",
        "scenario_from_dict": "(doc)",
    },
}



def signature_shape(obj) -> str | None:
    """The signature of ``obj`` without annotations, or None when it has none."""
    if not callable(obj):
        return None
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return None
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=inspect.Signature.empty))


def test_package_names():
    # the package is lazy: dir() lists the names it resolves, loaded or not
    names = sorted(
        n for n in dir(enerkin)
        if not n.startswith("_") and not isinstance(getattr(enerkin, n), types.ModuleType)
    )
    assert names == PACKAGE_NAMES


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_module_all(module):
    mod = importlib.import_module(f"enerkin.{module}")
    assert list(mod.__all__) == list(EXPORTS[module])


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_module_signatures(module):
    mod = importlib.import_module(f"enerkin.{module}")
    shapes = {name: signature_shape(getattr(mod, name)) for name in mod.__all__}
    assert shapes == EXPORTS[module]


def test_package_names_are_the_module_exports():
    # every public name of a module is re-exported by the package as the same object
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"enerkin.{module}")
        for name in names:
            assert getattr(enerkin, name) is getattr(mod, name), (module, name)
