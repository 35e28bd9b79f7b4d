"""Scenario files: a versioned JSON description of a full experiment.

A scenario names the type table, the reaction channels (rates and kernels
drawn from a closed catalog of named forms, no embedded code), an initial
condition, run/solve parameters, an optional analysis reference and a list
of residual checks.  Loading reads every section once, converts it into what
its consumer takes and validates it there, reporting the offending field:
the ranges of ``run`` and ``initial`` are checked at load, not when a
command first uses them.  A ``Scenario`` keeps the converted sections with a
copy of its source document, which ``to_dict`` returns; loading then
serializing is idempotent.

Every section (the top level, ``types``, ``network`` with its rates,
kernels and outputs, ``initial``, ``run``, ``solve`` and ``analysis``) and
every residual check declares its keys once, as parameter tables: a
converter and a default, or none when the key is required.  A section that
names its form (a rate's ``form``, a kernel's ``kind``, ``initial.mode``)
has one table per form.  ``CHECKS`` maps each check name to its runner and its
parameters; the loader converts every ``checks[k]`` entry against it, and
``enerkin check`` runs the converted entries.

A scenario loads the engine of each section it declares, at load, and nothing
else: ``initial`` and ``run`` import ``simulate`` (and with it ``numpy.random``),
``solve`` and a check on the collision plan import ``solver`` (and
``numpy.fft``), and a check that draws imports ``numpy.random``.  So no command
imports a module once its compute has begun.
"""

from __future__ import annotations

import copy
import json
from collections.abc import Callable
from contextlib import contextmanager

import numpy as np

from . import equilibrium as eq
from .core import (
    KernelSupportError,
    KineticsError,
    ParticleSystem,
    TypeTable,
    ValidationError,
    _FrozenRecord,
    _Record,
)
from .densities import Exponential, density_from_spec
from .reactions import (
    BinaryChannel,
    CanonicalKernel,
    ConstantRate,
    ConstantUnaryRate,
    OutputPair,
    PowerGapRate,
    ReactionNetwork,
    SumDecayRate,
    UnaryChannel,
    UniformKernel,
)
from .equilibrium import TypedDensity

__all__ = ["Scenario", "load_scenario", "scenario_from_dict"]

SCHEMA_VERSION = 1


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{field}: {message}", field=field)


@contextmanager
def _naming(field: str):
    """Report a failed conversion as a ValidationError that names ``field``."""
    try:
        yield
    except KernelSupportError:
        raise  # it keeps its class, and names the kernel at fault in its own ``field``
    except (KineticsError, TypeError, ValueError) as exc:
        sub = getattr(exc, "field", None)
        path = f"{field}.{sub}" if sub else field
        raise ValidationError(f"{path}: {exc}", field=path) from exc


# ---------------------------------------------------------------------------
# declared parameters
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _number(value) -> float:
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    if isinstance(value, (bool, str)) or int(value) != value:
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _positive(value) -> float:
    out = _number(value)
    if not (out > 0 and np.isfinite(out)):
        raise ValueError(f"expected a finite positive number, got {value!r}")
    return out


def _count(value, low: int = 1) -> int:
    out = _integer(value)
    if out < low:
        raise ValueError(f"expected an integer >= {low}, got {value!r}")
    return out


def _cells(value) -> int:
    return _count(value, 2)  # a DensityGrid needs two cells


def _weight(value) -> float:
    out = _number(value)
    if not (out >= 0 and np.isfinite(out)):
        raise ValueError(f"expected a finite number >= 0, got {value!r}")
    return out


def _times(value) -> tuple:
    return tuple(_number(t) for t in value)


def _instance(kind: type, what: str):
    def convert(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {what}, got {value!r}")
        return value

    return convert


_object = _instance(dict, "an object")
_list = _instance(list, "a list")


def _vector(value) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"expected a list of numbers, got {value!r}")
    return out


def _density_pair(value) -> list:
    out = [density_from_spec(d) for d in _list(value)]
    if len(out) != 2:
        raise ValueError(f"expected two densities, got {len(out)}")
    return out


class _Param(_FrozenRecord):
    """A declared key: the converter of its value, and its default, if any.

    A key that is absent or null takes the default; without one it is
    required.
    """

    _fields = ("convert", "default")

    def __init__(self, convert: Callable = _number, default: object = _REQUIRED):
        vars(self).update(convert=convert, default=default)

    def read(self, spec: dict, key: str, field: str, scenario) -> object:
        if spec.get(key) is None:
            _require(self.default is not _REQUIRED, field, "required key is missing")
            return self.default
        with _naming(field):
            return self.convert(spec[key])


class _Reference:
    """A per-type equilibrium spec; absent, the scenario's analysis.reference."""

    def read(self, spec: dict, key: str, field: str, scenario) -> TypedDensity:
        if spec.get(key) is None:
            _require(
                scenario.reference is not None,
                field,
                "needs this key or an 'analysis.reference' section",
            )
            return scenario.reference
        return _reference_from_spec(spec[key], scenario.types.count, field)


def _read_params(spec, declared: dict, field: str, scenario=None) -> dict:
    """Every declared key of ``spec``, converted or defaulted; unknown keys fail."""
    _require(isinstance(spec, dict), field, "must be an object")
    prefix = f"{field}." if field else ""
    for key in spec:
        _require(
            key in declared, prefix + key, f"unknown key; expected one of {', '.join(declared)}"
        )
    return {key: p.read(spec, key, prefix + key, scenario) for key, p in declared.items()}


def _read_form(spec, key: str, forms: dict, field: str, what: str) -> tuple:
    """(form, its declared keys read) of a spec whose ``key`` names one of ``forms``."""
    _require(isinstance(spec, dict), field, "must be an object")
    form = spec.get(key)
    _require(
        isinstance(form, str) and form in forms,
        f"{field}.{key}",
        f"unknown {what} {form!r}; expected one of {', '.join(forms)}",
    )
    p = _read_params(spec, {key: _Param(str), **forms[form]}, field)
    del p[key]
    return form, p


def _integers(value) -> tuple:
    return tuple(_integer(v) for v in _list(value))


def _type_pair(value) -> tuple:
    out = _integers(value)
    if len(out) != 2:
        raise ValueError(f"expected two type ids, got {len(out)}")
    return out


def _labels(value) -> tuple | None:
    return tuple(_instance(str, "a string")(s) for s in _list(value)) or None


def _particles(value) -> list:
    out = []
    for p in _list(value):
        v, t = _list(p)
        out.append((_integer(v), _number(t)))
    return out


_RUN = {
    "t_end": _Param(),
    "snapshot_times": _Param(_times, ()),
    "seed": _Param(_integer, 0),
    "replicas": _Param(_integer, 1),
    "max_events": _Param(_integer, None),
    "histogram": _Param(_object, None),
}
_HISTOGRAM = {"x_max": _Param(_positive), "bins": _Param(_count)}
_SOLVE = {
    "grid": _Param(_object),
    "initial": _Param(_list),
    "dt": _Param(_positive, None),
    "rtol": _Param(_number, None),
    "t_end": _Param(),
    "scheme": _Param(_instance(str, "a string"), "dopri5"),
    "snapshot_times": _Param(_times, None),
}
_GRID = {"x_max": _Param(_positive), "cells": _Param(_cells)}
_SOLVE_INITIAL = {"density": _Param(density_from_spec), "weight": _Param(_weight, None)}
_TOP = {
    "version": _Param(_integer),
    "types": _Param(_object),
    "network": _Param(_object, None),
    "initial": _Param(_object, None),
    "run": _Param(_object, None),
    "solve": _Param(_object, None),
    "analysis": _Param(_object, None),
    "checks": _Param(_list, None),
}
_TYPES = {"internal_energies": _Param(_vector), "labels": _Param(_labels, None)}
_NETWORK = {"binary": _Param(_list, ()), "unary": _Param(_list, ())}
_BINARY = {"reactants": _Param(_type_pair), "rate": _Param(_object), "kernel": _Param(_object)}
_UNARY = {"source": _Param(_integer), "target": _Param(_integer), "rate": _Param(_object)}
_BINARY_RATES = {
    "constant": {"value": _Param()},
    "sum_decay": {"scale": _Param(), "decay": _Param()},
}
_UNARY_RATES = {
    "constant": {"value": _Param()},
    "power_gap": {"b": _Param(), "exponent": _Param()},
}
_OUTPUTS = {"outputs": _Param(_list)}
_KERNELS = {"uniform": _OUTPUTS, "canonical": {**_OUTPUTS, "densities": _Param(_object)}}
_OUTPUT = {"pair": _Param(_type_pair), "weight": _Param(_number, 1.0)}
_ENERGIES = {"energies": _Param(_list)}
_INITIAL = {
    "particles": {"particles": _Param(_particles)},
    "counts": {"counts": _Param(_integers), **_ENERGIES},
    "mixture": {"total": _Param(_integer), "probabilities": _Param(_times), **_ENERGIES},
}
_ENERGY = {"value": _Param(_number, None), "density": _Param(density_from_spec, None)}
_ANALYSIS = {"reference": _Param(_object)}
_REFERENCE_KEYS = {"densities": _Param(_list), "weights": _Param(_times, None)}


def _rate_from_spec(spec, field: str):
    form, p = _read_form(spec, "form", _BINARY_RATES, field, "binary rate form")
    with _naming(field):
        return ConstantRate(**p) if form == "constant" else SumDecayRate(**p)


def _unary_rate_from_spec(spec, field: str, threshold: float):
    form, p = _read_form(spec, "form", _UNARY_RATES, field, "unary rate form")
    with _naming(field):
        return ConstantUnaryRate(**p) if form == "constant" else PowerGapRate(**p, threshold=threshold)


def _kernel_from_spec(spec, field: str):
    kind, p = _read_form(spec, "kind", _KERNELS, field, "kernel kind")
    _require(bool(p["outputs"]), f"{field}.outputs", "needs at least one output pair")
    outputs = []
    for k, o in enumerate(p["outputs"]):
        out = _read_params(o, _OUTPUT, f"{field}.outputs[{k}]")
        outputs.append(OutputPair(*out["pair"], out["weight"]))
    families = {}
    for tid, d in p.get("densities", {}).items():
        with _naming(f"{field}.densities.{tid}"):
            families[int(tid)] = density_from_spec(d)
    with _naming(field):
        return UniformKernel(outputs) if kind == "uniform" else CanonicalKernel(outputs, families)


def _reference_from_spec(spec, n_types: int, field: str) -> TypedDensity:
    p = _read_params(spec, _REFERENCE_KEYS, field)
    _require(len(p["densities"]) == n_types, f"{field}.densities", f"needs {n_types} densities")
    families = []
    for k, d in enumerate(p["densities"]):
        with _naming(f"{field}.densities[{k}]"):
            families.append(density_from_spec(d))
    with _naming(field):
        return TypedDensity(families=tuple(families), weights=p["weights"])


def _energy_entry_from_spec(spec, field: str):
    p = _read_params(spec, _ENERGY, field)
    _require(
        (p["value"] is None) != (p["density"] is None), field, "needs one of 'value' or 'density'"
    )
    if p["density"] is not None:
        return p["density"]
    _require(0 <= p["value"] < np.inf, f"{field}.value", "fixed energy must be finite and >= 0")
    return p["value"]


class Scenario(_Record):
    """A loaded scenario: its sections converted and validated once.

    ``run`` holds the simulator's config values (histogram edges built) and
    ``solve`` the grid's and the solver's; ``checks`` holds one (name,
    converted arguments) pair per ``checks[]`` entry; ``source`` is a copy of
    the document it was loaded from.
    """

    _fields = ("types", "network", "initial", "run", "solve", "reference", "checks", "source")

    def __init__(
        self,
        types: TypeTable,
        network: ReactionNetwork,
        initial: object | None,
        run: dict | None,
        solve: dict | None,
        reference: TypedDensity | None,
        checks: list,
        source: dict,
    ):
        self.types = types
        self.network = network
        self.initial = initial
        self.run = run
        self.solve = solve
        self.reference = reference
        self.checks = checks
        self.source = source

    # -- assembled configs ----------------------------------------------------

    def simulator_config(self, seed=None, replicas=None) -> SimulatorConfig:
        if self.run is None or self.initial is None:
            raise ValidationError("scenario has no 'run' section")
        from .simulate import SimulatorConfig

        p = dict(self.run)
        if seed is not None:
            p["seed"] = int(seed)
        if replicas is not None:
            p["replicas"] = int(replicas)
        return SimulatorConfig(self.network, self.initial, **p)

    def solver_setup(self) -> tuple[DensityGrid, SolverConfig]:
        if self.solve is None:
            raise ValidationError("scenario has no 'solve' section")
        from .solver import DensityGrid, SolverConfig

        grid = DensityGrid.from_families(**self.solve["grid"])
        return grid, SolverConfig(network=self.network, **self.solve["config"])

    def to_dict(self) -> dict:
        """A copy of the document the scenario was loaded from."""
        return copy.deepcopy(self.source)


def scenario_from_dict(doc: dict) -> Scenario:
    _require(isinstance(doc, dict), "scenario", "top level must be an object")
    top = _read_params(doc, _TOP, "")
    version = top["version"]
    _require(version == SCHEMA_VERSION, "version", f"expected {SCHEMA_VERSION}, got {version}")

    tspec = _read_params(top["types"], _TYPES, "types")
    with _naming("types"):
        types = TypeTable(tspec["internal_energies"], labels=tspec["labels"])
    n_types = types.count

    nspec = _read_params(top["network"] or {}, _NETWORK, "network")
    binary: list[BinaryChannel] = []
    raw_by_pair: dict[tuple, dict] = {}
    kernel_fields: dict[str, str] = {}  # the network's name of each kernel -> its field here
    for k, ch in enumerate(nspec["binary"]):
        field = f"network.binary[{k}]"
        p = _read_params(ch, _BINARY, field)
        a, b = p["reactants"]
        pair = (min(a, b), max(a, b))
        if pair in raw_by_pair:
            if raw_by_pair[pair]["rate"] != p["rate"]:
                raise ValidationError(
                    f"{field}: rate for reactants ({a},{b}) conflicts with the one "
                    f"given for ({pair[0]},{pair[1]}); the collision rate must be "
                    "symmetric in the reactant pair",
                    field=field,
                )
            _require(
                raw_by_pair[pair]["kernel"] == p["kernel"], f"{field}.kernel",
                f"kernel for reactants ({a},{b}) differs from the one given for "
                f"({pair[0]},{pair[1]}); a reactant pair takes one kernel",
            )
            continue
        raw_by_pair[pair] = p
        kernel_fields[f"binary[{len(binary)}].kernel"] = f"{field}.kernel"
        rate = _rate_from_spec(p["rate"], f"{field}.rate")
        kernel = _kernel_from_spec(p["kernel"], f"{field}.kernel")
        binary.append(BinaryChannel(pair=pair, rate=rate, kernel=kernel))
    unary: list[UnaryChannel] = []
    for k, ch in enumerate(nspec["unary"]):
        field = f"network.unary[{k}]"
        p = _read_params(ch, _UNARY, field)
        target = p["target"]
        _require(1 <= target <= n_types, f"{field}.target", f"type id outside 1..{n_types}")
        threshold = float(types.internal_energies[target - 1])
        rate = _unary_rate_from_spec(p["rate"], f"{field}.rate", threshold)
        unary.append(UnaryChannel(source=p["source"], target=target, rate=rate))
    with _naming("network"):
        try:
            network = ReactionNetwork(types, binary, unary)
        except KernelSupportError as exc:
            exc.field = kernel_fields[exc.field]
            raise

    initial = None if top["initial"] is None else _initial_from_spec(top["initial"], types)
    run = None if top["run"] is None else _run_from_spec(top["run"], network, initial)
    solve = None if top["solve"] is None else _solve_from_spec(top["solve"], network)

    reference = None
    if top["analysis"] is not None:
        analysis = _read_params(top["analysis"], _ANALYSIS, "analysis")
        reference = _reference_from_spec(analysis["reference"], n_types, "analysis.reference")

    scenario = Scenario(
        types, network, initial, run, solve, reference, checks=[], source=copy.deepcopy(doc)
    )
    for k, c in enumerate(top["checks"] or []):
        args = check_arguments(scenario, c, f"checks[{k}]")
        scenario.checks.append((c["name"], args))
    return scenario


def _run_from_spec(spec, network: ReactionNetwork, initial) -> dict:
    """The simulator's config values of a ``run`` section, validated."""
    from .simulate import SimulatorConfig

    p = _read_params(spec, _RUN, "run")
    hist = p.pop("histogram")
    if hist is not None:
        hist = _read_params(hist, _HISTOGRAM, "run.histogram")
        p["histogram_edges"] = np.linspace(0.0, hist["x_max"], hist["bins"] + 1)
    with _naming("run"):
        SimulatorConfig(network, initial, **p).validate()
    return p


def _solve_from_spec(spec, network: ReactionNetwork) -> dict:
    """The grid's and the solver's config values of a ``solve`` section, validated."""
    from .solver import SolverConfig

    p = _read_params(spec, _SOLVE, "solve")
    g = _read_params(p.pop("grid"), _GRID, "solve.grid")
    initial = p.pop("initial")
    p["snapshot_times"] = p["snapshot_times"] or None
    with _naming("solve"):
        SolverConfig(network=network, **p).validate()
    entries = [
        _read_params(e, _SOLVE_INITIAL, f"solve.initial[{k}]") for k, e in enumerate(initial)
    ]
    n_types = network.types.count
    _require(len(entries) == n_types, "solve.initial", f"needs one density per type ({n_types})")
    weights = [1.0 / len(initial) if e["weight"] is None else e["weight"] for e in entries]
    _require(abs(sum(weights) - 1.0) < 1e-8, "solve.initial", "weights must sum to 1")
    grid = {
        "families": [e["density"] for e in entries],
        "x_max": g["x_max"],
        "n_cells": g["cells"],
        "weights": weights,
    }
    return {"grid": grid, "config": p}


def _initial_from_spec(spec, types: TypeTable):
    from .simulate import MixtureInitial, TypeCountsInitial

    mode, p = _read_form(spec, "mode", _INITIAL, "initial", "initial mode")
    if mode == "particles":
        _require(bool(p["particles"]), "initial.particles", "needs a nonempty particle list")
        with _naming("initial.particles"):
            system = ParticleSystem.from_particles(p["particles"])
            types.check_ids(system.type_ids)
        return system
    n_types = types.count
    for key in ("counts", "probabilities", "energies"):
        if key in p:
            _require(len(p[key]) == n_types, f"initial.{key}", f"needs {n_types} per-type entries")
    energies = tuple(
        _energy_entry_from_spec(e, f"initial.energies[{k}]") for k, e in enumerate(p["energies"])
    )
    with _naming("initial"):
        if mode == "counts":
            return TypeCountsInitial(counts=p["counts"], energies=energies)
        return MixtureInitial(total=p["total"], probabilities=p["probabilities"], energies=energies)


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------


class _Check(_FrozenRecord):
    """A residual check: ``run(scenario, args)`` returns the observed residual
    and the number of samples it used; ``params`` declares every key of its
    ``checks[]`` entry but ``name``; ``prepare(scenario, args)``, if any, runs
    at load and returns the arguments ``run`` takes."""

    _fields = ("run", "params", "prepare")

    def __init__(self, run: Callable, params: dict, prepare: Callable | None = None):
        vars(self).update(run=run, params=params, prepare=prepare)


def _check(run, prepare=None, **params) -> _Check:
    return _Check(run, {"tolerance": _Param(_number, 1e-8), **params}, prepare)


def check_arguments(scenario: Scenario, params: dict, field: str = "check") -> dict:
    """The converted arguments of one ``checks[]`` entry; evaluates nothing."""
    _require(isinstance(params, dict) and "name" in params, field, "needs a 'name'")
    name = params["name"]
    _require(
        isinstance(name, str) and name in CHECKS,
        f"{field}.name",
        f"unknown check name {name!r}; known names: {', '.join(CHECKS)}",
    )
    check = CHECKS[name]
    rest = {k: v for k, v in params.items() if k != "name"}
    args = _read_params(rest, check.params, field, scenario)
    if check.prepare is not None:
        with _naming(field):
            args = check.prepare(scenario, args)
    return args


def _draws(scenario: Scenario, a: dict) -> dict:
    """The prepare step of a check that draws: numpy loads ``numpy.random`` on
    first use, and this loads it with the scenario, not in the check."""
    import numpy.random  # noqa: F401

    return a


def _quadruples(scenario: Scenario, a: dict):
    return eq.sample_conserving_quadruples(
        scenario.network, a["samples"], energy_scale=a["energy_scale"]
    )


def _detailed_balance(scenario: Scenario, a: dict):
    w = eq.CollisionRateDensity(scenario.network)
    rep = eq.detailed_balance_residual(w, a["equilibrium"], _quadruples(scenario, a))
    return rep.max_residual, rep.n_evaluated


def _local_equilibrium(scenario: Scenario, a: dict):
    w = eq.CollisionRateDensity(scenario.network)
    pairs = [(q[0], q[1]) for q in _quadruples(scenario, a)]
    rep = eq.local_equilibrium_residual(w, a["equilibrium"], pairs)
    return rep.max_residual, rep.n_evaluated


def _fixed_point(scenario: Scenario, a: dict):
    w = eq.CollisionRateDensity(scenario.network)
    gammas = [q[0] for q in _quadruples(scenario, a)]
    rep = eq.fixed_point_residual(w, a["equilibrium"], gammas)
    return rep.max_residual, rep.n_evaluated


def _additive_conservation(scenario: Scenario, a: dict):
    w = eq.CollisionRateDensity(scenario.network)
    rep = eq.additive_conservation_residual(a["f"], a["f0"], _quadruples(scenario, a), w=w)
    return rep.max_residual, rep.n_evaluated


def _with_plan_measure(scenario: Scenario, a: dict) -> dict:
    from .solver import check_plan_support

    check_plan_support(scenario.network)  # the collision equation has no unary channels
    return {**a, "measure": eq.product_form_measure(scenario.network, a["beta"])}


def _stationary_profile_residual(scenario: Scenario, a: dict):
    from .solver import DensityGrid, rhs_multitype

    x_max = a["x_max"] if a["x_max"] is not None else 40.0 / a["beta"]
    x = (np.arange(a["cells"]) + 0.5) * (x_max / a["cells"])  # the cell centres
    grid = DensityGrid(x_max, [a["measure"].pdf(v, x) for v in range(1, scenario.types.count + 1)])
    return float(np.max(np.abs(rhs_multitype(grid, scenario.network)))), a["cells"]


def _kernel_normalization(scenario: Scenario, a: dict):
    from numpy.random import default_rng

    per_channel = max(1, a["samples"] // max(1, len(scenario.network.binary)))
    errors = scenario.network.kernel_normalization_errors(
        per_channel, default_rng(a["seed"]), a["energy_scale"]
    )
    return float(np.max(list(errors.values()), initial=0.0)), per_channel * len(errors)


def _admissible_pair(scenario: Scenario, a: dict):
    xs = np.linspace(0.0, a["x_max"], a["points"])
    return eq.admissible_pair_check(a["rho1"], a["rho2"], a["gap"], xs), xs.size


def _product_form_balance(scenario: Scenario, a: dict):
    net = scenario.network  # the samples are its conversions and type-changing outputs
    n = sum(list(ch.pair) != sorted((o.first, o.second)) for ch in net.binary for o in ch.kernel.outputs)
    return eq.product_form_residual(net, a["measure"].weights, a["beta"]), len(net.unary) + n


def _kolmogorov(scenario: Scenario, a: dict):
    res = eq.kolmogorov_cycle_check(a["rates"])
    return (0.0 if res.passed else res.worst_ratio - 1.0), res.cycles_checked


def _measure_transform_ks(scenario: Scenario, a: dict):
    from numpy.random import default_rng

    draws = a["rho"].sample(default_rng(a["seed"]), size=a["samples"])
    mapped = eq.measure_transform(a["rho"], a["beta"], draws)
    return eq.ks_distance(mapped, Exponential(a["beta"]).cdf), a["samples"]


def _convolution_equality(scenario: Scenario, a: dict):
    xs = np.linspace(0.01, a["x_max"], a["points"])
    return eq.convolution_equality_check(*a["pair_a"], *a["pair_b"], xs), xs.size


def _with_solve(scenario: Scenario, a: dict) -> dict:
    if scenario.solve is None:
        raise ValidationError("entropy_monotonicity needs a 'solve' section", field="name")
    return a


def _entropy_monotonicity(scenario: Scenario, a: dict):
    from .solver import integrate

    snaps = integrate(*scenario.solver_setup())
    res = eq.entropy_monotonicity_check(snaps, a["equilibrium"], tol=a["tolerance"])
    return max(0.0, -res.min_delta), len(snaps)


_REFERENCE = _Reference()
_QUADRATURE = {"samples": _Param(_integer, 1000), "energy_scale": _Param(_number, 1.0)}
_DENSITY = _Param(density_from_spec)

# Every check name, its runner and its parameters; the README lists the same.
CHECKS = {
    "detailed_balance": _check(
        _detailed_balance, prepare=_draws, equilibrium=_REFERENCE, **_QUADRATURE
    ),
    "local_equilibrium": _check(
        _local_equilibrium, prepare=_draws, equilibrium=_REFERENCE, **_QUADRATURE
    ),
    "fixed_point": _check(_fixed_point, prepare=_draws, equilibrium=_REFERENCE, **_QUADRATURE),
    "additive_conservation": _check(
        _additive_conservation, prepare=_draws, f=_REFERENCE, f0=_REFERENCE, **_QUADRATURE
    ),
    "stationary_profile_residual": _check(
        _stationary_profile_residual,
        prepare=_with_plan_measure,
        beta=_Param(_positive, 1.0),
        cells=_Param(_cells, 4000),
        x_max=_Param(_positive, None),  # None: 40 / beta
    ),
    "kernel_normalization": _check(
        _kernel_normalization, prepare=_draws, seed=_Param(_integer, 0), **_QUADRATURE
    ),
    "admissible_pair": _check(
        _admissible_pair,
        rho1=_DENSITY,
        rho2=_DENSITY,
        gap=_Param(),
        x_max=_Param(_number, 10.0),
        points=_Param(_integer, 200),
    ),
    "product_form_balance": _check(
        _product_form_balance,
        prepare=lambda sc, a: {**a, "measure": eq.product_form_measure(sc.network, a["beta"])},
        beta=_Param(_positive, 1.0),
    ),
    "kolmogorov": _check(_kolmogorov, rates=_Param(eq.DiscreteChainSpec)),
    "measure_transform_ks": _check(
        _measure_transform_ks,
        prepare=_draws,
        rho=_DENSITY,
        beta=_Param(_number, 1.0),
        samples=_Param(_integer, 1000),
        seed=_Param(_integer, 0),
    ),
    "convolution_equality": _check(
        _convolution_equality,
        pair_a=_Param(_density_pair),
        pair_b=_Param(_density_pair),
        x_max=_Param(_number, 20.0),
        points=_Param(_integer, 100),
    ),
    "entropy_monotonicity": _check(
        _entropy_monotonicity, prepare=_with_solve, equilibrium=_REFERENCE
    ),
}


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(doc)
