"""The benchmark's workloads: scenario files made from the seed, and the
operations (one enerkin CLI command plus the checks of its output) that make
up one round.

* ``cli_bundled``: the bundled scenarios through every subcommand that applies
  to them; import, validation and CSV output weigh as much as compute.
* ``particle_chain``: large-M simulations with a fixed event budget, started
  from their stationary law; the simulator does almost all the work.
* ``grid_solver``: two-type solves where the O(n^2) operator terms dominate,
  plus the snapshot-labelling operation that fails at this commit.
"""

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

BUNDLED = ("exponential_equilibrium", "two_type_canonical", "unary_two_type")


@dataclass
class KnownFault:
    """A fault of enerkin that makes one operation fail on every run.

    ``signatures`` are the failure messages the fault produces: pairs of a
    regular expression that must match a whole message and a cap on the
    number it captures as ``size`` (None for no number).  Any other failure
    of the operation, a crash included, is not this fault.
    """

    why: str
    signatures: tuple

    def unexplained(self, errors):
        """The failure messages that this fault does not account for."""
        return [e for e in errors if not any(self._matches(e, rx, cap) for rx, cap in self.signatures)]

    @staticmethod
    def _matches(error, rx, cap):
        m = re.fullmatch(rx, error)
        return m is not None and (cap is None or float(m.group("size")) <= cap)


@dataclass
class Op:
    """One CLI command and the checks of what it wrote."""

    name: str
    command: str
    scenario: Path
    seed: int | None
    check: Callable  # (out_dir, out_dirs_of_this_round) -> list of failure messages
    same_as: str | None = None  # earlier op of the round whose CSVs must match byte for byte
    known_fault: KnownFault | None = None  # the fault that makes this op fail at this commit


@dataclass
class Workload:
    ops: list
    min_rounds: int


def _write(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _rng(seed):
    return np.random.default_rng(seed % 2**64)


def _seeds(seed, n):
    return [int(s) for s in _rng(seed).integers(1, 2**31 - 1, size=n)]


def _no_check(out, outs):
    """A repeat whose only check is byte-identity with the first run."""
    return []


def _boltzmann(internal):
    w = np.exp(-np.asarray(internal, dtype=float))
    return (w / w.sum()).tolist()


# ---------------------------------------------------------------------------
# cli_bundled
# ---------------------------------------------------------------------------

# Mass and energy of the bundled one-type solve drift by 5.8e-4 (relative) at
# t = 20; a drift more than ten times that is a further fault.
ONE_TYPE_DRIFT = KnownFault(
    why="the one-type right-hand side alpha * (gain - rho) has an unstable unit-mass fixed "
    "point, so the leak past x_max grows like e^t: mass and energy are off by 3.9e-6 at t=15 "
    "and 5.8e-4 at t=20",
    signatures=((r"t=\S+: (mass|energy) \S+ differs from \S+ by (?P<size>\S+) \(relative\)", 1e-2),),
)


def cli_bundled(seed, root, inputs):
    docs, paths = {}, {}
    for name, s in zip(BUNDLED, _seeds(seed, len(BUNDLED))):
        doc = json.loads((root / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))
        doc["run"]["seed"] = s
        docs[name], paths[name] = doc, _write(inputs / f"{name}.json", doc)

    exp, two, una = (docs[n] for n in BUNDLED)
    exp_ie = exp["types"]["internal_energies"]
    una_ie = una["types"]["internal_energies"]
    exp_total = exp["initial"]["counts"][0]

    def exp_simulate(out, _):
        return checks.particle_snapshots(
            out, exp_ie, len(exp["run"]["snapshot_times"]), total=exp_total,
            total_kinetic=exp_total * exp["initial"]["energies"][0]["value"],
        ) + checks.histogram_mass(out)

    def exp_solve(out, _):
        grids = checks.read_grids(out)
        return (
            checks.grid_labels(grids, exp["solve"]["snapshot_times"])
            + checks.grid_conservation(grids, exp_ie, mean_energy=1.0)
            + checks.relaxation(checks.product_equilibrium_kl(grids, [1.0]))
        )

    def exp_analyze(out, outs):
        grids = checks.read_grids(outs["exponential_equilibrium/solve"])
        kls = checks.product_equilibrium_kl(grids, [1.0])
        return checks.analyze_entropy(out, exp["solve"]["snapshot_times"], kls) + checks.ks_table(
            out, exp["run"]["snapshot_times"], 1, exp_total
        )

    def two_simulate(out, _):
        counts = two["initial"]["counts"]
        return checks.particle_snapshots(
            out, two["types"]["internal_energies"], 1, total=sum(counts), type_counts=counts
        ) + checks.histogram_mass(out)

    def two_analyze(out, _):
        return checks.ks_table(out, two["run"]["snapshot_times"], 2, sum(two["initial"]["counts"]))

    def una_simulate(out, _):
        return (
            checks.particle_snapshots(out, una_ie, len(una["run"]["snapshot_times"]), total=una["initial"]["total"])
            + checks.histogram_mass(out)
            + checks.stationary_law(out, _boltzmann(una_ie))
        )

    def una_analyze(out, _):
        return checks.ks_table(out, una["run"]["snapshot_times"], 2, una["initial"]["total"])

    def report(out, _):
        return checks.check_report(out)

    s_exp, s_two, s_una = (docs[n]["run"]["seed"] for n in BUNDLED)
    ops = [
        Op("exponential_equilibrium/simulate", "simulate", paths[BUNDLED[0]], s_exp, exp_simulate),
        Op("exponential_equilibrium/solve", "solve", paths[BUNDLED[0]], None, exp_solve,
           known_fault=ONE_TYPE_DRIFT),
        Op("exponential_equilibrium/analyze", "analyze", paths[BUNDLED[0]], s_exp, exp_analyze),
        Op("exponential_equilibrium/check", "check", paths[BUNDLED[0]], None, report),
        Op("two_type_canonical/simulate", "simulate", paths[BUNDLED[1]], s_two, two_simulate),
        Op("two_type_canonical/analyze", "analyze", paths[BUNDLED[1]], s_two, two_analyze),
        Op("two_type_canonical/check", "check", paths[BUNDLED[1]], None, report),
        Op("unary_two_type/simulate", "simulate", paths[BUNDLED[2]], s_una, una_simulate),
        Op("unary_two_type/analyze", "analyze", paths[BUNDLED[2]], s_una, una_analyze),
        Op("unary_two_type/check", "check", paths[BUNDLED[2]], None, report),
        # the same commands again: their CSVs must be byte-identical.  The
        # solve writes most of the workload's CSV output; a second sample of
        # it keeps output_s steady.
        Op("two_type_canonical/simulate_again", "simulate", paths[BUNDLED[1]], s_two, two_simulate,
           same_as="two_type_canonical/simulate"),
        Op("exponential_equilibrium/solve_again", "solve", paths[BUNDLED[0]], None, _no_check,
           same_as="exponential_equilibrium/solve"),
    ]
    return Workload(ops, min_rounds=1)


# ---------------------------------------------------------------------------
# particle_chain
# ---------------------------------------------------------------------------

CHAIN_GAP = 1.0
CHAIN_SNAPSHOTS = 12
CHAIN_RUNS = (
    # (name, particles, binary rate, event budget)
    ("chain_constant", 20000, {"form": "constant", "value": 1.0}, 6000),
    ("chain_sum_decay", 6000, {"form": "sum_decay", "scale": 1.0, "decay": 0.5}, 3000),
)


def _chain_scenario(m, rate, events, seed):
    internal = [0.0, CHAIN_GAP]
    p = _boltzmann(internal)

    def channel(a, b):
        return {"reactants": [a, b], "rate": rate,
                "kernel": {"kind": "uniform", "outputs": [{"pair": [a, b], "weight": 1.0}]}}

    # expected total event rate at the stationary law (Exp(1) energies):
    # binary (M-1)/2 * E[alpha], unary M * (p1 e^{-gap} + p2)
    mean_alpha = rate.get("value", 1.0) if rate["form"] == "constant" else (
        rate["scale"] / (1.0 + rate["decay"]) ** 2
    )
    lam = (m - 1) / 2.0 * mean_alpha + m * (p[0] * math.exp(-CHAIN_GAP) + p[1])
    horizon = events / lam
    counts = [round(m * p[0]), m - round(m * p[0])]
    return {
        "version": 1,
        "types": {"internal_energies": internal, "labels": ["low", "high"]},
        "network": {
            "binary": [channel(1, 1), channel(1, 2), channel(2, 2)],
            "unary": [
                {"source": 1, "target": 2, "rate": {"form": "constant", "value": 1.0}},
                {"source": 2, "target": 1, "rate": {"form": "constant", "value": 1.0}},
            ],
        },
        # type counts at their Boltzmann shares, so that every seed does the
        # same rate-refresh work; energies i.i.d. Exp(1)
        "initial": {"mode": "counts", "counts": counts,
                    "energies": [{"density": {"family": "exponential", "beta": 1.0}}] * 2},
        # snapshots at k/12 of the expected time to spend the budget, k < 12;
        # the last is reached long before the budget runs out
        "run": {"t_end": 1e6,
                "snapshot_times": [round(k * horizon / CHAIN_SNAPSHOTS, 6) for k in range(CHAIN_SNAPSHOTS)],
                "seed": seed, "replicas": 1, "max_events": events,
                "histogram": {"x_max": 10.0, "bins": 25}},
    }


def particle_chain(seed, root, inputs):
    ops = []
    for (name, m, rate, events), s in zip(CHAIN_RUNS, _seeds(seed, len(CHAIN_RUNS))):
        doc = _chain_scenario(m, rate, events, s)
        ie = doc["types"]["internal_energies"]

        def check(out, _, m=m, ie=ie):
            return (
                checks.particle_snapshots(out, ie, CHAIN_SNAPSHOTS, total=m)
                + checks.histogram_mass(out)
                + checks.stationary_law(out, _boltzmann(ie))
            )

        ops.append(Op(f"{name}/simulate", "simulate", _write(inputs / f"{name}.json", doc), s, check))
    # three rounds at least, so that each command's median drops one slow sample
    return Workload(ops, min_rounds=3)


# ---------------------------------------------------------------------------
# grid_solver
# ---------------------------------------------------------------------------

GRID_X_MAX = 20.0
GAP_INTERNAL = [0.0, 0.5]

# With dt = 0.3 the coarse solve labels the state at 0.6 as 0.5 and the one
# at 1.2 as 1.0; these lie 0.020 and 0.026 (max-norm) from the fine solve.
# Other labels, or a distance above 0.05, are a further fault.
STEPS_PAST_REQUESTED = KnownFault(
    why="integrate steps past requested times: with dt=0.3 the snapshot requested at 0.5 "
    "is taken at 0.6, and the state at t=1.2 is labelled 1.0",
    signatures=(
        (r"snapshot labels \[0\.6, 1\.0\], requested \[0\.5, 1\.0\]", None),
        (r"state labelled t=\S+ is (?P<size>\S+) \(max-norm\) from the dt=0\.01 solve at t=\S+", 0.05),
    ),
)


def _canonical_network():
    d1 = {"family": "gamma", "nu": 2.0, "beta": 1.0}
    d2 = {"family": "exponential", "beta": 1.0}

    def channel(a, b, dens):
        return {"reactants": [a, b], "rate": {"form": "constant", "value": 1.0},
                "kernel": {"kind": "canonical", "outputs": [{"pair": [a, b], "weight": 1.0}],
                           "densities": dens}}

    return [channel(1, 1, {"1": d1}), channel(1, 2, {"1": d1, "2": d2}), channel(2, 2, {"2": d2})]


def _gap_network():
    def channel(a, b, outs):
        return {"reactants": [a, b], "rate": {"form": "constant", "value": 1.0},
                "kernel": {"kind": "uniform", "outputs": [{"pair": o, "weight": 1.0} for o in outs]}}

    return [channel(1, 1, [[1, 1], [2, 2]]), channel(1, 2, [[1, 2]]), channel(2, 2, [[2, 2], [1, 1]])]


def _solve_scenario(internal, binary, cells, his, weight, dt, t_end, snaps):
    return {
        "version": 1,
        "types": {"internal_energies": internal},
        "network": {"binary": binary, "unary": []},
        "solve": {
            "grid": {"x_max": GRID_X_MAX, "cells": cells},
            "initial": [
                {"density": {"family": "uniform", "lo": 0.0, "hi": his[0]}, "weight": weight},
                {"density": {"family": "uniform", "lo": 0.0, "hi": his[1]}, "weight": 1.0 - weight},
            ],
            "dt": dt, "t_end": t_end, "scheme": "rk4", "snapshot_times": snaps,
        },
    }


def grid_solver(seed, root, inputs):
    rng = _rng(seed)

    def initial():
        his = [round(float(rng.uniform(3.0, 5.0)), 3), round(float(rng.uniform(1.5, 2.5)), 3)]
        return his, round(float(rng.uniform(0.4, 0.6)), 3)

    # a snapshot every step or two keeps enough CSV output to time steadily
    canon = _solve_scenario([0.0, 0.0], _canonical_network(), 500, *initial(), 0.1, 1.0,
                            [round(0.1 * k, 1) for k in range(11)])
    gap = _solve_scenario(GAP_INTERNAL, _gap_network(), 4000, *initial(), 0.1, 2.0,
                          [round(0.2 * k, 1) for k in range(11)])
    # fixed inputs: the labelling fault must show the same way on every seed
    fine = _solve_scenario(GAP_INTERNAL, _gap_network(), 400, [2.0, 1.5], 0.6, 0.01, 1.0, [0.5, 1.0])
    coarse = _solve_scenario(GAP_INTERNAL, _gap_network(), 400, [2.0, 1.5], 0.6, 0.3, 1.0, [0.5, 1.0])

    def solved(doc, kl_nus=None, fine_op=None):
        internal = doc["types"]["internal_energies"]

        def check(out, outs):
            grids = checks.read_grids(out)
            errs = checks.grid_labels(grids, doc["solve"]["snapshot_times"])
            errs += checks.grid_conservation(grids, internal)
            if kl_nus is not None:
                errs += checks.relaxation(checks.product_equilibrium_kl(grids, kl_nus))
            if fine_op is not None:
                errs += checks.fine_solve_match(grids, checks.read_grids(outs[fine_op]))
            return errs

        return check

    ops = [
        Op("canonical/solve", "solve", _write(inputs / "canonical.json", canon), None,
           solved(canon, kl_nus=[2.0, 1.0])),
        Op("uniform_gap/solve", "solve", _write(inputs / "uniform_gap.json", gap), None,
           solved(gap)),
        Op("uniform_gap_fine/solve", "solve", _write(inputs / "uniform_gap_fine.json", fine), None,
           solved(fine)),
        Op("uniform_gap_coarse/solve", "solve", _write(inputs / "uniform_gap_coarse.json", coarse), None,
           solved(coarse, fine_op="uniform_gap_fine/solve"), known_fault=STEPS_PAST_REQUESTED),
    ]
    return Workload(ops, min_rounds=2)


WORKLOADS = {"cli_bundled": cli_bundled, "particle_chain": particle_chain, "grid_solver": grid_solver}
