"""Command-line surface: simulate / solve / analyze / check.

All numeric CSV output uses the shortest round-trip decimal form of the
underlying 64-bit value, so identical scenarios and seeds produce
byte-identical files.  Faults are reported as one JSON object on stderr
with a nonzero exit code; ``check`` exits 0 only when every requested
check passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import equilibrium as eq
from .core import KineticsError, ValidationError
from .densities import density_from_spec
from .scenario import Scenario, load_scenario, _reference_from_spec
from .simulate import run_ensemble
from .solver import DensityGrid, integrate, rhs_one_type

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_FAULT = 2


def _write_csv(path: Path, header: list, rows) -> None:
    """Write floats as repr(float(x)), other cells as str(x): one ``%s`` per cell,
    after converting float subclasses (numpy.float64), whose str may differ."""
    rows = [tuple(r) for r in rows]
    cells = [c for r in rows for c in r]
    if any(k is not float and issubclass(k, float) for k in set(map(type, cells))):
        cells = [repr(float(c)) if isinstance(c, float) else c for c in cells]
    lines = {w: ",".join(["%s"] * w) + "\n" for w in {len(r) for r in rows}}
    fmt = "".join([lines[len(r)] for r in rows])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + fmt % tuple(cells))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(scenario: Scenario, out_dir: Path, seed, replicas) -> int:
    cfg = scenario.simulator_config(seed=seed, replicas=replicas)
    cfg.store_states = True
    trajectories = run_ensemble(cfg)
    for r, traj in enumerate(trajectories):
        base = out_dir if cfg.replicas == 1 else out_dir / f"replica_{r:02d}"
        base.mkdir(parents=True, exist_ok=True)
        # a run without snapshot times writes its final state as snapshot 0
        states = [snap.state for snap in traj.snapshots] or [traj.final_state]
        for k, state in enumerate(states):
            _write_csv(
                base / f"snapshot_{k:03d}.csv",
                ["type_id", "kinetic_energy"],
                zip(state.type_ids.tolist(), state.kinetic_energies.tolist()),
            )
        edges = traj.histogram_edges.tolist()
        hist_rows = [
            (k, float(snap.time), v, edges[b], edges[b + 1], float(hist[b]))
            for k, snap in enumerate(traj.snapshots)
            for v, hist in enumerate(snap.histograms, start=1)
            for b in range(hist.size)
        ]
        _write_csv(
            base / "histograms.csv",
            ["snapshot", "time", "type_id", "bin_left", "bin_right", "density"],
            hist_rows,
        )
    return EXIT_OK


def _cmd_solve(scenario: Scenario, out_dir: Path) -> int:
    grid0, cfg = scenario.solver_setup()
    snaps = integrate(grid0, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, (t, grid) in enumerate(snaps):
        rows = []
        x = grid.centers
        for v in range(1, grid.n_types + 1):
            for c in range(grid.n_cells):
                rows.append((v, float(x[c]), float(grid.values[v - 1, c])))
        _write_csv(out_dir / f"grid_{k:03d}.csv", ["type_id", "x_center", "density"], rows)
    times_rows = [(k, float(t)) for k, (t, _) in enumerate(snaps)]
    _write_csv(out_dir / "times.csv", ["snapshot", "time"], times_rows)
    return EXIT_OK


def _cmd_analyze(scenario: Scenario, out_dir: Path, seed) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    ref = scenario.reference
    if ref is None:
        raise ValidationError("analyze needs an 'analysis.reference' section")
    wrote_any = False
    if scenario.solve_params is not None:
        grid0, cfg = scenario.solver_setup()
        snaps = integrate(grid0, cfg)
        rows = [
            (float(t), float(eq.relative_entropy(g, ref, g))) for t, g in snaps
        ]
        _write_csv(out_dir / "entropy.csv", ["time", "entropy"], rows)
        wrote_any = True
    if scenario.run_params is not None:
        cfg = scenario.simulator_config(seed=seed)
        cfg.store_states = True
        trajectories = run_ensemble(cfg)
        rows = []
        for snap_idx in range(len(trajectories[0].snapshots)):
            time = trajectories[0].snapshots[snap_idx].time
            for v in range(1, scenario.types.count + 1):
                pooled = np.concatenate(
                    [
                        t.snapshots[snap_idx].state.kinetic_energies[
                            t.snapshots[snap_idx].state.type_ids == v
                        ]
                        for t in trajectories
                    ]
                )
                if pooled.size == 0:
                    continue
                d = eq.ks_distance(pooled, scenario.reference.families[v - 1].cdf)
                rows.append((float(time), v, pooled.size, float(d)))
        _write_csv(out_dir / "ks.csv", ["time", "type_id", "n_samples", "ks_distance"], rows)
        wrote_any = True
    if not wrote_any:
        raise ValidationError("analyze needs a 'run' or 'solve' section")
    return EXIT_OK


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------


def _check_reference(scenario: Scenario, params: dict, key: str) -> eq.TypedDensity:
    if key in params:
        return _reference_from_spec(params[key], f"checks.{key}", scenario.types.count)
    if scenario.reference is not None:
        return scenario.reference
    raise ValidationError(f"check needs an equilibrium reference ({key} or analysis.reference)")


def _run_check(scenario: Scenario, params: dict) -> dict:
    name = params["name"]
    tol = float(params.get("tolerance", 1e-8))
    samples = int(params.get("samples", 1000))
    scale = float(params.get("energy_scale", 1.0))
    w = eq.CollisionRateDensity(scenario.network)

    if name == "detailed_balance":
        f0 = _check_reference(scenario, params, "equilibrium")
        quads = eq.sample_conserving_quadruples(scenario.network, samples, energy_scale=scale)
        rep = eq.detailed_balance_residual(w, f0, quads)
        observed, used = rep.max_residual, rep.n_evaluated
    elif name == "local_equilibrium":
        f0 = _check_reference(scenario, params, "equilibrium")
        quads = eq.sample_conserving_quadruples(scenario.network, samples, energy_scale=scale)
        pairs = [(q[0], q[1]) for q in quads]
        rep = eq.local_equilibrium_residual(w, f0, pairs)
        observed, used = rep.max_residual, rep.n_evaluated
    elif name == "fixed_point":
        f0 = _check_reference(scenario, params, "equilibrium")
        quads = eq.sample_conserving_quadruples(scenario.network, samples, energy_scale=scale)
        gammas = [q[0] for q in quads]
        rep = eq.fixed_point_residual(w, f0, gammas)
        observed, used = rep.max_residual, rep.n_evaluated
    elif name == "additive_conservation":
        f = _check_reference(scenario, params, "f")
        f0 = _check_reference(scenario, params, "f0")
        quads = eq.sample_conserving_quadruples(scenario.network, samples, energy_scale=scale)
        rep = eq.additive_conservation_residual(f, f0, quads, w=w)
        observed, used = rep.max_residual, rep.n_evaluated
    elif name == "stationary_profile_residual":
        beta = float(params.get("beta", 1.0))
        cells = int(params.get("cells", 4000))
        x_max = float(params.get("x_max", 40.0 / beta))
        alpha = float(params.get("alpha", 1.0))
        grid = DensityGrid.from_families(
            [density_from_spec({"family": "exponential", "beta": beta})], x_max, cells
        )
        observed = float(np.max(np.abs(rhs_one_type(grid, alpha))))
        used = cells
    elif name == "kernel_normalization":
        per_channel = max(1, samples // max(1, len(scenario.network.binary)))
        errors = scenario.network.kernel_normalization_errors(
            per_channel, np.random.default_rng(int(params.get("seed", 0))), scale
        )
        observed = max(errors.values(), default=0.0)
        used = per_channel * len(errors)
    elif name == "admissible_pair":
        rho1 = density_from_spec(params["rho1"])
        rho2 = density_from_spec(params["rho2"])
        gap = float(params["gap"])
        xs = np.linspace(0.0, float(params.get("x_max", 10.0)), int(params.get("points", 200)))
        observed = eq.admissible_pair_check(rho1, rho2, gap, xs)
        used = xs.size
    elif name == "two_type_balance":
        rho1 = density_from_spec(params["rho1"])
        gap = float(params["gap"])
        a12, a21 = float(params["a12"]), float(params["a21"])
        pi1, pi2 = eq.two_type_unary_stationary(a12, a21, rho1, gap)
        y1 = 1.0 - float(rho1.cdf(gap))
        observed = abs(pi1 * y1 * a12 - pi2 * a21)
        used = 1
    elif name == "conversion_reversibility":
        pi = eq.unary_energy_dependent_stationary(
            params["p"], np.asarray(params["b"], dtype=float), params["nu"],
            params["internal"], float(params["beta"]),
        )
        observed = eq.shifted_gamma_reversibility_residual(
            pi, np.asarray(params["b"], dtype=float), np.asarray(params["nu"], dtype=float),
            np.asarray(params["internal"], dtype=float), float(params["beta"]),
        )
        used = len(params["p"])
    elif name == "pair_reaction_reversibility":
        channels = [eq.PairReactionSpec(**c) for c in params["channels"]]
        pi = eq.vector_particle_stationary(
            params["p"], params["nu"], params["internal"], float(params["beta"]), channels
        )
        observed = eq.pair_reversibility_residual(
            pi, np.asarray(params["nu"], dtype=float),
            np.asarray(params["internal"], dtype=float), float(params["beta"]), channels,
        )
        used = len(channels)
    elif name == "kolmogorov":
        chain = eq.DiscreteChainSpec(np.asarray(params["rates"], dtype=float))
        res = eq.kolmogorov_cycle_check(chain, int(params.get("max_cycle_len", 6)))
        observed = 0.0 if res.passed else res.worst_ratio - 1.0
        used = res.cycles_checked
    elif name == "measure_transform_ks":
        rho = density_from_spec(params["rho"])
        beta = float(params.get("beta", 1.0))
        rng = np.random.default_rng(int(params.get("seed", 0)))
        draws = rho.sample(rng, size=samples)
        mapped = eq.measure_transform(rho, beta, draws)
        from .densities import Exponential

        observed = eq.ks_distance(mapped, Exponential(beta).cdf)
        used = samples
    elif name == "convolution_equality":
        pa = [density_from_spec(d) for d in params["pair_a"]]
        pb = [density_from_spec(d) for d in params["pair_b"]]
        xs = np.linspace(0.01, float(params.get("x_max", 20.0)), int(params.get("points", 100)))
        observed = eq.convolution_equality_check(pa[0], pa[1], pb[0], pb[1], xs)
        used = xs.size
    elif name == "entropy_monotonicity":
        grid0, cfg = scenario.solver_setup()
        snaps = integrate(grid0, cfg)
        ref = _check_reference(scenario, params, "equilibrium")
        res = eq.entropy_monotonicity_check(snaps, ref, tol=tol)
        observed = max(0.0, -res.min_delta)
        used = len(snaps)
    else:
        raise ValidationError(f"unknown check name {name!r}")

    return {
        "name": name,
        "tolerance": tol,
        "observed": float(observed),
        "passed": bool(observed <= tol),
        "samples": int(used),
    }


def _cmd_check(scenario: Scenario, out_dir: Path) -> int:
    if not scenario.checks:
        raise ValidationError("scenario requests no checks")
    out_dir.mkdir(parents=True, exist_ok=True)
    results = [_run_check(scenario, dict(c)) for c in scenario.checks]
    passed = all(r["passed"] for r in results)
    report = {"passed": passed, "checks": results}
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in results:
        status = "pass" if r["passed"] else "FAIL"
        print(f"{status}  {r['name']}: observed {r['observed']:.3e} vs tolerance {r['tolerance']:.3e}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enerkin",
        description="Energy-exchange reaction kinetics: simulate, solve, analyze, check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "solve", "analyze", "check"):
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        if name == "simulate":
            p.add_argument(
                "--replicas", type=int, default=None, help="override the replica count"
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        out_dir = Path(args.out)
        if args.command == "simulate":
            return _cmd_simulate(scenario, out_dir, args.seed, args.replicas)
        if args.command == "solve":
            return _cmd_solve(scenario, out_dir)
        if args.command == "analyze":
            return _cmd_analyze(scenario, out_dir, args.seed)
        if args.command == "check":
            return _cmd_check(scenario, out_dir)
        raise ValidationError(f"unknown command {args.command!r}")
    except KineticsError as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
