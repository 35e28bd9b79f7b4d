"""Command-line surface: simulate / solve / analyze / check.

All numeric CSV output uses the shortest round-trip decimal form of the
underlying 64-bit value, so identical scenarios and seeds produce
byte-identical files.  Faults are reported as one JSON object on stderr
with a nonzero exit code: the exception's class and message, and its
``field``, ``step``, ``time`` and ``indices`` where it sets them.  ``check``
exits 0 only when every requested check passes.

A command loads the engine of each section its scenario declares, while the
scenario is loaded, and nothing else (see ``scenario``): ``run_ensemble`` and
``integrate`` here import theirs on call, which finds it loaded, so a
solve-only scenario never compiles the simulator nor a run-only one the solver.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import equilibrium as eq
from .core import KineticsError, ValidationError
from .scenario import CHECKS, Scenario, load_scenario

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_FAULT = 2

# the exception attributes a fault's JSON object carries when they are set
FAULT_FIELDS = ("field", "step", "time", "indices")


def _csv_text(rows) -> str:
    """CSV lines of ``rows``: floats as repr(float(x)), other cells as str(x), one
    ``%s`` per cell, after converting float subclasses (numpy.float64), whose str
    may differ."""
    rows = [tuple(r) for r in rows]
    cells = [c for r in rows for c in r]
    if any(k is not float and issubclass(k, float) for k in set(map(type, cells))):
        cells = [repr(float(c)) if isinstance(c, float) else c for c in cells]
    lines = {w: ",".join(["%s"] * w) + "\n" for w in {len(r) for r in rows}}
    fmt = "".join([lines[len(r)] for r in rows])
    return fmt % tuple(cells)


def _write_csv(path: Path, header: list, text: str) -> None:
    """Write the header line, then ``text``: lines formatted by the rule of ``_csv_text``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + text)


def _snapshot_texts(states):
    """The ``type_id,kinetic_energy`` lines of each state of one trajectory, joined.

    The first state formats every row.  A later one reformats only the rows
    whose type id or float64 bit pattern changed since the state before (bits,
    not values: 0.0 == -0.0), so an unchanged particle's line is formatted once
    per series.  Values come from ``tolist()``: ``repr`` of a numpy float is not
    the float's repr.
    """
    lines = prev_ids = prev_bits = None
    for state in states:
        ids, energies = state.type_ids, state.kinetic_energies
        bits = energies.view(np.uint64)
        if lines is None:
            lines = [f"{v},{t!r}\n" for v, t in zip(ids.tolist(), energies.tolist())]
        else:
            changed = np.flatnonzero((ids != prev_ids) | (bits != prev_bits))
            for i, v, t in zip(changed.tolist(), ids[changed].tolist(), energies[changed].tolist()):
                lines[i] = f"{v},{t!r}\n"
        prev_ids, prev_bits = ids, bits
        yield "".join(lines)


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


def run_ensemble(config):
    """``simulate.run_ensemble``: the scenario's ``run`` section loaded its module."""
    from . import simulate

    return simulate.run_ensemble(config)


def integrate(grid0, config):
    """``solver.integrate``: the scenario's ``solve`` section loaded its module."""
    from . import solver

    return solver.integrate(grid0, config)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(scenario: Scenario, out_dir: Path, seed, replicas) -> int:
    cfg = scenario.simulator_config(seed=seed, replicas=replicas)
    trajectories = run_ensemble(cfg)
    for r, traj in enumerate(trajectories):
        base = out_dir if cfg.replicas == 1 else out_dir / f"replica_{r:02d}"
        base.mkdir(parents=True, exist_ok=True)
        # a run without snapshot times writes its final state as snapshot 0
        states = [snap.state for snap in traj.snapshots] or [traj.final_state]
        for k, text in enumerate(_snapshot_texts(states)):
            _write_csv(base / f"snapshot_{k:03d}.csv", ["type_id", "kinetic_energy"], text)
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
            _csv_text(hist_rows),
        )
    return EXIT_OK


def _cmd_solve(scenario: Scenario, out_dir: Path) -> int:
    grid0, cfg = scenario.solver_setup()
    snaps = integrate(grid0, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    # every grid has grid0's cells: format each (type, cell) prefix once, densities per file
    x = grid0.centers.tolist()
    template = "".join(f"{v},{xc!r},%r\n" for v in range(1, grid0.n_types + 1) for xc in x)
    for k, (_, grid) in enumerate(snaps):
        text = template % tuple(grid.values.ravel().tolist())
        _write_csv(out_dir / f"grid_{k:03d}.csv", ["type_id", "x_center", "density"], text)
    times_rows = [(k, float(t)) for k, (t, _) in enumerate(snaps)]
    _write_csv(out_dir / "times.csv", ["snapshot", "time"], _csv_text(times_rows))
    return EXIT_OK


def _cmd_analyze(scenario: Scenario, out_dir: Path, seed) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    ref = scenario.reference
    if ref is None:
        raise ValidationError("analyze needs an 'analysis.reference' section")
    wrote_any = False
    if scenario.solve is not None:
        grid0, cfg = scenario.solver_setup()
        snaps = integrate(grid0, cfg)
        rows = [
            (float(t), float(eq.relative_entropy(g, ref, g))) for t, g in snaps
        ]
        _write_csv(out_dir / "entropy.csv", ["time", "entropy"], _csv_text(rows))
        wrote_any = True
    if scenario.run is not None:
        cfg = scenario.simulator_config(seed=seed)
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
        _write_csv(out_dir / "ks.csv", ["time", "type_id", "n_samples", "ks_distance"], _csv_text(rows))
        wrote_any = True
    if not wrote_any:
        raise ValidationError("analyze needs a 'run' or 'solve' section")
    return EXIT_OK


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------


def _run_check(scenario: Scenario, name: str, args: dict) -> dict:
    observed, used = CHECKS[name].run(scenario, args)
    return {
        "name": name,
        "tolerance": args["tolerance"],
        "observed": float(observed),
        "passed": bool(observed <= args["tolerance"]),
        "samples": int(used),
    }


def _cmd_check(scenario: Scenario, out_dir: Path) -> int:
    if not scenario.checks:
        raise ValidationError("scenario requests no checks")
    out_dir.mkdir(parents=True, exist_ok=True)
    results = [_run_check(scenario, name, args) for name, args in scenario.checks]
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


def _fault(exc: KineticsError) -> dict:
    """The JSON object of a fault: its class, its message and its set ``FAULT_FIELDS``."""
    record = {"error": type(exc).__name__, "message": str(exc)}
    for name in FAULT_FIELDS:
        if getattr(exc, name, None) is not None:
            record[name] = getattr(exc, name)
    return record


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
        if name in ("simulate", "analyze"):
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
        json.dump(_fault(exc), sys.stderr)
        sys.stderr.write("\n")
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
