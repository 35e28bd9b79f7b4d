"""Scenario files: a versioned JSON description of a full experiment.

A scenario names the type table, the reaction channels (rates and kernels
drawn from a closed catalog of named forms, no embedded code), an initial
condition, run/solve parameters, an optional analysis reference and a list
of residual checks.  Loading validates every module-level precondition and
reports the offending field; loading then serializing is semantically
idempotent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import TypeTable, ValidationError
from .densities import DensityFamily, density_from_spec, density_to_spec
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
from .simulate import MixtureInitial, SimulatorConfig, TypeCountsInitial
from .solver import DensityGrid, SolverConfig
from .equilibrium import TypedDensity

__all__ = ["Scenario", "load_scenario", "scenario_from_dict"]

SCHEMA_VERSION = 1


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{field}: {message}")


def _rate_from_spec(spec: dict, field: str):
    _require(isinstance(spec, dict) and "form" in spec, field, "rate needs a 'form'")
    form = spec["form"]
    if form == "constant":
        _require("value" in spec, field, "constant rate needs 'value'")
        return ConstantRate(float(spec["value"]))
    if form == "sum_decay":
        _require("scale" in spec and "decay" in spec, field, "sum_decay needs 'scale' and 'decay'")
        return SumDecayRate(float(spec["scale"]), float(spec["decay"]))
    raise ValidationError(f"{field}: unknown binary rate form {form!r}")


def _rate_to_spec(rate) -> dict:
    if isinstance(rate, ConstantRate):
        return {"form": "constant", "value": rate.value}
    if isinstance(rate, SumDecayRate):
        return {"form": "sum_decay", "scale": rate.scale, "decay": rate.decay}
    raise ValidationError(f"rate {rate!r} has no JSON form")


def _unary_rate_from_spec(spec: dict, field: str, threshold: float):
    _require(isinstance(spec, dict) and "form" in spec, field, "rate needs a 'form'")
    form = spec["form"]
    if form == "constant":
        _require("value" in spec, field, "constant rate needs 'value'")
        return ConstantUnaryRate(float(spec["value"]))
    if form == "power_gap":
        _require("b" in spec and "exponent" in spec, field, "power_gap needs 'b' and 'exponent'")
        return PowerGapRate(float(spec["b"]), float(spec["exponent"]), threshold)
    raise ValidationError(f"{field}: unknown unary rate form {form!r}")


def _unary_rate_to_spec(rate) -> dict:
    if isinstance(rate, ConstantUnaryRate):
        return {"form": "constant", "value": rate.value}
    if isinstance(rate, PowerGapRate):
        return {"form": "power_gap", "b": rate.b, "exponent": rate.exponent}
    raise ValidationError(f"rate {rate!r} has no JSON form")


def _kernel_from_spec(spec: dict, field: str):
    _require(isinstance(spec, dict) and "kind" in spec, field, "kernel needs a 'kind'")
    kind = spec["kind"]
    outs = spec.get("outputs")
    _require(bool(outs), field, "kernel needs a nonempty 'outputs' list")
    outputs = []
    for k, o in enumerate(outs):
        _require(
            isinstance(o, dict) and "pair" in o and len(o["pair"]) == 2,
            f"{field}.outputs[{k}]",
            "needs a 'pair' of two type ids",
        )
        outputs.append(
            OutputPair(int(o["pair"][0]), int(o["pair"][1]), float(o.get("weight", 1.0)))
        )
    if kind == "uniform":
        return UniformKernel(outputs)
    if kind == "canonical":
        dens = spec.get("densities")
        _require(isinstance(dens, dict) and dens, field, "canonical kernel needs 'densities'")
        families = {int(tid): density_from_spec(d) for tid, d in dens.items()}
        return CanonicalKernel(outputs, families)
    raise ValidationError(f"{field}: unknown kernel kind {kind!r}")


def _kernel_to_spec(kernel) -> dict:
    out = {
        "kind": kernel.kind,
        "outputs": [
            {"pair": [o.first, o.second], "weight": o.weight} for o in kernel.outputs
        ],
    }
    if isinstance(kernel, CanonicalKernel):
        out["densities"] = {
            str(tid): density_to_spec(fam) for tid, fam in sorted(kernel.densities.items())
        }
    return out


def _reference_from_spec(spec: dict, field: str, n_types: int) -> TypedDensity:
    _require(isinstance(spec, dict), field, "reference must be an object")
    dens = spec.get("densities")
    _require(isinstance(dens, list) and len(dens) == n_types, field, f"needs {n_types} densities")
    weights = spec.get("weights", [1.0 / n_types] * n_types)
    return TypedDensity(
        families=tuple(density_from_spec(d) for d in dens),
        weights=tuple(float(x) for x in weights),
    )


def _reference_to_spec(ref: TypedDensity) -> dict:
    return {
        "weights": list(ref.weights),
        "densities": [density_to_spec(f) for f in ref.families],
    }


def _energy_entry_from_spec(spec: dict, field: str):
    _require(isinstance(spec, dict), field, "energy entry must be an object")
    if "value" in spec:
        v = float(spec["value"])
        _require(v >= 0, field, "fixed energy must be >= 0")
        return v
    if "density" in spec:
        return density_from_spec(spec["density"])
    raise ValidationError(f"{field}: energy entry needs 'value' or 'density'")


def _energy_entry_to_spec(entry) -> dict:
    if isinstance(entry, DensityFamily):
        return {"density": density_to_spec(entry)}
    return {"value": float(entry)}


@dataclass
class Scenario:
    types: TypeTable
    network: ReactionNetwork
    initial: object | None
    run_params: dict | None
    solve_params: dict | None
    reference: TypedDensity | None
    checks: list

    # -- assembled configs ----------------------------------------------------

    def simulator_config(self, seed=None, replicas=None) -> SimulatorConfig:
        if self.run_params is None or self.initial is None:
            raise ValidationError("scenario has no 'run' section")
        p = self.run_params
        hist = p.get("histogram")
        edges = None
        if hist is not None:
            edges = np.linspace(0.0, float(hist["x_max"]), int(hist["bins"]) + 1)
        return SimulatorConfig(
            network=self.network,
            initial_state=self.initial,
            t_end=float(p["t_end"]),
            snapshot_times=tuple(p.get("snapshot_times", ())),
            seed=int(seed if seed is not None else p.get("seed", 0)),
            replicas=int(replicas if replicas is not None else p.get("replicas", 1)),
            max_events=p.get("max_events"),
            histogram_edges=edges,
        )

    def solver_setup(self) -> tuple[DensityGrid, SolverConfig]:
        if self.solve_params is None:
            raise ValidationError("scenario has no 'solve' section")
        p = self.solve_params
        grid_spec = p["grid"]
        families = [e["family_obj"] for e in p["initial"]]
        weights = [e["weight"] for e in p["initial"]]
        grid = DensityGrid.from_families(
            families, float(grid_spec["x_max"]), int(grid_spec["cells"]), weights
        )
        cfg = SolverConfig(
            dt=float(p["dt"]),
            t_end=float(p["t_end"]),
            scheme=p.get("scheme", "rk4"),
            network=self.network,
            snapshot_times=tuple(p["snapshot_times"]) if p.get("snapshot_times") else None,
            renormalize_mass=bool(p.get("renormalize_mass", False)),
        )
        return grid, cfg

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "version": SCHEMA_VERSION,
            "types": {"internal_energies": [float(x) for x in self.types.internal_energies]},
        }
        if self.types.labels:
            out["types"]["labels"] = list(self.types.labels)
        net = {"binary": [], "unary": []}
        for ch in self.network.binary:
            net["binary"].append(
                {
                    "reactants": [ch.pair[0], ch.pair[1]],
                    "rate": _rate_to_spec(ch.rate),
                    "kernel": _kernel_to_spec(ch.kernel),
                }
            )
        for ch in self.network.unary:
            net["unary"].append(
                {
                    "source": ch.source,
                    "target": ch.target,
                    "rate": _unary_rate_to_spec(ch.rate),
                }
            )
        out["network"] = net
        if self.initial is not None:
            if isinstance(self.initial, TypeCountsInitial):
                out["initial"] = {
                    "mode": "counts",
                    "counts": [int(c) for c in self.initial.counts],
                    "energies": [_energy_entry_to_spec(e) for e in self.initial.energies],
                }
            elif isinstance(self.initial, MixtureInitial):
                out["initial"] = {
                    "mode": "mixture",
                    "total": int(self.initial.total),
                    "probabilities": [float(x) for x in self.initial.probabilities],
                    "energies": [_energy_entry_to_spec(e) for e in self.initial.energies],
                }
            else:  # explicit particles
                out["initial"] = {
                    "mode": "particles",
                    "particles": [
                        [int(v), float(t)]
                        for v, t in zip(self.initial.type_ids, self.initial.kinetic_energies)
                    ],
                }
        if self.run_params is not None:
            out["run"] = {
                k: v for k, v in self.run_params.items() if v is not None
            }
        if self.solve_params is not None:
            p = dict(self.solve_params)
            p["initial"] = [
                {"density": density_to_spec(e["family_obj"]), "weight": e["weight"]}
                for e in p["initial"]
            ]
            out["solve"] = p
        if self.reference is not None:
            out["analysis"] = {"reference": _reference_to_spec(self.reference)}
        if self.checks:
            out["checks"] = [dict(c) for c in self.checks]
        return out


def scenario_from_dict(doc: dict, kernel_spot_samples: int = 1000) -> Scenario:
    _require(isinstance(doc, dict), "scenario", "top level must be an object")
    version = doc.get("version")
    _require(version == SCHEMA_VERSION, "version", f"expected {SCHEMA_VERSION}, got {version}")

    tspec = doc.get("types")
    _require(isinstance(tspec, dict) and "internal_energies" in tspec, "types", "needs 'internal_energies'")
    types = TypeTable(
        np.asarray(tspec["internal_energies"], dtype=float),
        labels=tuple(tspec["labels"]) if tspec.get("labels") else None,
    )
    n_types = types.count

    nspec = doc.get("network", {})
    binary: list[BinaryChannel] = []
    raw_by_pair: dict[tuple, dict] = {}
    for k, ch in enumerate(nspec.get("binary", [])):
        field = f"network.binary[{k}]"
        _require("reactants" in ch and len(ch["reactants"]) == 2, field, "needs 'reactants' [v, w]")
        a, b = int(ch["reactants"][0]), int(ch["reactants"][1])
        pair = (min(a, b), max(a, b))
        rate_spec = ch.get("rate")
        _require(rate_spec is not None, field, "needs a 'rate'")
        if pair in raw_by_pair:
            if raw_by_pair[pair] != rate_spec:
                raise ValidationError(
                    f"{field}: rate for reactants ({a},{b}) conflicts with the one "
                    f"given for ({pair[0]},{pair[1]}); the collision rate must be "
                    "symmetric in the reactant pair"
                )
            continue
        raw_by_pair[pair] = rate_spec
        rate = _rate_from_spec(rate_spec, f"{field}.rate")
        kernel = _kernel_from_spec(ch.get("kernel", {}), f"{field}.kernel")
        binary.append(BinaryChannel(pair=pair, rate=rate, kernel=kernel))
    unary: list[UnaryChannel] = []
    for k, ch in enumerate(nspec.get("unary", [])):
        field = f"network.unary[{k}]"
        _require("source" in ch and "target" in ch, field, "needs 'source' and 'target'")
        target = int(ch["target"])
        _require(1 <= target <= n_types, f"{field}.target", f"type id outside 1..{n_types}")
        threshold = float(types.internal_energies[target - 1])
        rate = _unary_rate_from_spec(ch.get("rate", {}), f"{field}.rate", threshold)
        unary.append(UnaryChannel(source=int(ch["source"]), target=target, rate=rate))
    network = ReactionNetwork(types, binary, unary)
    network.validate_rate_symmetry()
    _spot_check_kernels(network, kernel_spot_samples)

    initial = None
    if "initial" in doc:
        initial = _initial_from_spec(doc["initial"], n_types)

    run_params = None
    if "run" in doc:
        run_params = dict(doc["run"])
        _require("t_end" in run_params, "run", "needs 't_end'")

    solve_params = None
    if "solve" in doc:
        p = dict(doc["solve"])
        for key in ("grid", "initial", "dt", "t_end"):
            _require(key in p, "solve", f"needs '{key}'")
        entries = []
        for k, e in enumerate(p["initial"]):
            _require(
                isinstance(e, dict) and "density" in e,
                f"solve.initial[{k}]",
                "needs a 'density'",
            )
            entries.append(
                {
                    "family_obj": density_from_spec(e["density"]),
                    "weight": float(e.get("weight", 1.0 / len(p["initial"]))),
                }
            )
        _require(
            len(entries) == n_types, "solve.initial", f"needs one density per type ({n_types})"
        )
        total_w = sum(e["weight"] for e in entries)
        _require(abs(total_w - 1.0) < 1e-8, "solve.initial", "weights must sum to 1")
        p["initial"] = entries
        solve_params = p

    reference = None
    if "analysis" in doc:
        reference = _reference_from_spec(
            doc["analysis"].get("reference", {}), "analysis.reference", n_types
        )

    checks = list(doc.get("checks", []))
    for k, c in enumerate(checks):
        _require(isinstance(c, dict) and "name" in c, f"checks[{k}]", "needs a 'name'")

    return Scenario(
        types=types,
        network=network,
        initial=initial,
        run_params=run_params,
        solve_params=solve_params,
        reference=reference,
        checks=checks,
    )


def _initial_from_spec(spec: dict, n_types: int):
    from .core import ParticleSystem

    _require(isinstance(spec, dict) and "mode" in spec, "initial", "needs a 'mode'")
    mode = spec["mode"]
    if mode == "particles":
        pts = spec.get("particles")
        _require(bool(pts), "initial.particles", "needs a nonempty particle list")
        return ParticleSystem.from_particles([(int(v), float(t)) for v, t in pts])
    if mode == "counts":
        counts = spec.get("counts")
        energies = spec.get("energies")
        _require(
            isinstance(counts, list) and len(counts) == n_types,
            "initial.counts",
            f"needs {n_types} per-type counts",
        )
        _require(
            isinstance(energies, list) and len(energies) == n_types,
            "initial.energies",
            f"needs {n_types} per-type energy entries",
        )
        return TypeCountsInitial(
            counts=tuple(int(c) for c in counts),
            energies=tuple(
                _energy_entry_from_spec(e, f"initial.energies[{k}]")
                for k, e in enumerate(energies)
            ),
        )
    if mode == "mixture":
        _require("total" in spec, "initial", "mixture needs 'total'")
        probs = spec.get("probabilities")
        energies = spec.get("energies")
        _require(
            isinstance(probs, list) and len(probs) == n_types,
            "initial.probabilities",
            f"needs {n_types} entries",
        )
        _require(
            isinstance(energies, list) and len(energies) == n_types,
            "initial.energies",
            f"needs {n_types} per-type energy entries",
        )
        return MixtureInitial(
            total=int(spec["total"]),
            probabilities=tuple(float(x) for x in probs),
            energies=tuple(
                _energy_entry_from_spec(e, f"initial.energies[{k}]")
                for k, e in enumerate(energies)
            ),
        )
    raise ValidationError(f"initial.mode: unknown mode {mode!r}")


def _spot_check_kernels(network: ReactionNetwork, n_samples: int) -> None:
    """Quadrature spot-check that each kernel's outcome law is normalized."""
    if n_samples <= 0:
        return
    errors = network.kernel_normalization_errors(n_samples, np.random.default_rng(0))
    for pair, worst in errors.items():
        if worst > 5e-3:
            raise ValidationError(
                f"network.binary {pair}: kernel outcome law integrates to "
                f"1 +/- {worst:.2e}; it must be normalized over feasible outcomes"
            )


def load_scenario(path, kernel_spot_samples: int = 1000) -> Scenario:
    """Read and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(doc, kernel_spot_samples=kernel_spot_samples)
