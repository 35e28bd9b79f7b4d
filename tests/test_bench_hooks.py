"""The benchmark in perfbench/ wraps enerkin functions by name.

Its phase clock times ``cli.run_ensemble``, ``cli.integrate``,
``cli._run_check``, ``eq.relative_entropy`` and ``eq.ks_distance``; its tracer
wraps layer boundaries such as ``solver.rhs_one_type``, ``solver._gain_1d``,
``ScatteringKernel.check_normalization`` and ``sample_outcome``.  Renaming or
deleting any of them breaks only benchmark runs, so this installs both sets
of hooks the way a benchmark child process does, and runs a traced
simulation and a traced solve to check that the rate and right-hand-side
spans the per-layer metrics count are hit, a traced run on the bundled
one-type network to check one outcome span per event, and traced ``simulate`` and
``solve`` commands to check that every CSV file goes through the wrapped
``cli._write_csv``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path.insert(0, "perfbench")
import enerkin
import enerkin.cli as cli
import enerkin.equilibrium as eq
import child
import tracing

tracing.install(tracing.Recorder(0), enerkin)
child.install_phase_clock(cli, eq, child.PhaseClock())
print("hooks installed")
"""


TRACED_RUN = """
import json
import sys
sys.path.insert(0, "perfbench")
import numpy as np
import enerkin
import enerkin as ek
import enerkin.cli
import tracing

rec = tracing.Recorder(0)
tracing.install(rec, enerkin)
tt = ek.TypeTable(np.array([0.0, 0.5]))
rate = ek.SumDecayRate(1.0, 0.5)
net = ek.ReactionNetwork(
    tt,
    binary=[
        ek.BinaryChannel((1, 1), rate, ek.UniformKernel([(1, 1, 1.0)])),
        ek.BinaryChannel((1, 2), rate, ek.UniformKernel([(1, 2, 1.0), (2, 1, 1.0)])),
        ek.BinaryChannel((2, 2), rate, ek.UniformKernel([(2, 2, 1.0)])),
    ],
    unary=[
        ek.UnaryChannel(1, 2, ek.ConstantUnaryRate(1.0)),
        ek.UnaryChannel(2, 1, ek.ConstantUnaryRate(1.0)),
    ],
)
cfg = ek.SimulatorConfig(
    net,
    ek.TypeCountsInitial((30, 10), (ek.Exponential(1.0), ek.Exponential(1.0))),
    t_end=1e9,
    max_events=200,
    seed=3,
)
traj = enerkin.simulate.run(cfg)
sums = tracing.command_sums(rec.spans)
names = {row[tracing.NAME] for row in rec.spans}
print(json.dumps({
    "names": sorted(names),
    "event_count": traj.event_count,
    "run_count": [row[tracing.COUNT] for row in rec.spans if row[tracing.NAME] == "simulate.run"],
    "rate_evals_in_run": sums["rate_evals_in_run"],
}))
"""


TRACED_ONE_TYPE = """
import json
import sys
sys.path.insert(0, "perfbench")
import enerkin
import enerkin as ek
import enerkin.cli
import tracing

rec = tracing.Recorder(0)
tracing.install(rec, enerkin)
net = ek.load_scenario("scenarios/exponential_equilibrium.json").network
(ch,) = net.binary
cfg = ek.SimulatorConfig(
    net, ek.TypeCountsInitial((50,), (ek.Exponential(1.0),)), t_end=1e9, max_events=300, seed=4
)
traj = enerkin.simulate.run(cfg)
print(json.dumps({
    "common_path": isinstance(ch.rate, ek.ConstantRate) and isinstance(ch.kernel, ek.UniformKernel)
    and len(ch.kernel.outputs) == 1 and not net.unary,
    "event_count": traj.event_count,
    "sample_spans": sum(row[tracing.NAME] == tracing.SAMPLE_SPAN for row in rec.spans),
}))
"""


TRACED_SOLVE = """
import json
import sys
sys.path.insert(0, "perfbench")
import enerkin
import enerkin as ek
import enerkin.cli
import numpy as np
import tracing

rec = tracing.Recorder(0)
tracing.install(rec, enerkin)
net = ek.ReactionNetwork(
    ek.TypeTable(np.array([0.0])),
    [ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), ek.UniformKernel([(1, 1, 1.0)]))],
)
g = ek.DensityGrid.from_families([ek.UniformDensity(0.0, 2.0)], 10.0, 200)
out = ek.integrate(g, ek.SolverConfig(t_end=2.0, network=net, snapshot_times=(0.5, 2.0)))
sums = tracing.command_sums(rec.spans)
print(json.dumps({
    "scheme": ek.SolverConfig(t_end=1.0, network=net).scheme,
    "rhs_evals": out.rhs_evals,
    "rhs_spans": sum(row[tracing.NAME].startswith(tracing.RHS_PREFIX) for row in rec.spans),
    "rhs_calls": sums["rhs_calls"],
}))
"""


TRACED_CLI = """
import json
import sys
import tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
import enerkin
import enerkin.cli as cli
import tracing

rec = tracing.Recorder(0)
tracing.install(rec, enerkin)
rate = {"form": "constant", "value": 1.0}
uniform = {"kind": "uniform", "outputs": [{"pair": [1, 1], "weight": 1.0}]}
exp1 = {"family": "exponential", "beta": 1.0}
doc = {
    "version": 1,
    "types": {"internal_energies": [0.0]},
    "network": {"binary": [{"reactants": [1, 1], "rate": rate, "kernel": uniform}]},
    "initial": {"mode": "counts", "counts": [40], "energies": [{"density": exp1}]},
    "run": {"t_end": 1.0, "snapshot_times": [0.0, 0.5, 1.0], "seed": 5, "replicas": 2,
            "histogram": {"x_max": 6.0, "bins": 6}},
    "solve": {"grid": {"x_max": 10.0, "cells": 50}, "initial": [{"density": exp1, "weight": 1.0}],
              "scheme": "rk4", "dt": 0.1, "t_end": 0.5, "snapshot_times": [0.0, 0.25, 0.5]},
}
result = {}
with tempfile.TemporaryDirectory() as tmp:
    scenario = Path(tmp) / "scenario.json"
    scenario.write_text(json.dumps(doc))
    for command in ("simulate", "solve"):
        out = Path(tmp) / command
        first = len(rec.spans)
        assert cli.main([command, "--scenario", str(scenario), "--out", str(out)]) == 0
        result[command] = {
            "files": len(list(out.rglob("*.csv"))),
            "spans": sum(row[tracing.NAME] == "cli.write_csv" for row in rec.spans[first:]),
        }
print(json.dumps(result))
"""


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_benchmark_hooks_install_in_fresh_interpreter():
    proc = _run(INSTALL)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "hooks installed"


def test_traced_simulation_records_rate_spans():
    # the per-layer rate metrics count values returned by the wrapped
    # ReactionNetwork.pair_rate/unary_rate; an engine that bypassed them
    # would make reactions.rate_evals_per_event read 0 without failing
    proc = _run(TRACED_RUN)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {"reactions.pair_rate", "reactions.unary_rate"} <= set(out["names"])
    # reactions.sample_outcome_us times the wrapped ScatteringKernel.sample_outcome;
    # an outcome path outside it (say, a subclass override for one-output
    # kernels) would make that metric read 0
    assert "reactions.sample_outcome" in out["names"]
    assert out["event_count"] == 200
    assert out["run_count"] == [out["event_count"]]
    assert out["rate_evals_in_run"] > 0


def test_traced_one_type_run_records_one_outcome_span_per_event():
    # on the bundled one-type network (constant rate, one-output uniform kernel, no
    # conversions) every event is a collision with a feasible output; an engine
    # path that drew its outcome around the wrapped ScatteringKernel.sample_outcome
    # would make reactions.sample_outcome_us read low without failing
    proc = _run(TRACED_ONE_TYPE)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["common_path"]
    assert out["event_count"] == 300
    assert out["sample_spans"] == out["event_count"]


def test_traced_solve_records_one_span_per_right_hand_side():
    # solver.rhs_calls counts spans of the wrapped module-level rhs_multitype;
    # a stepper that called the plan directly would make it read 0
    proc = _run(TRACED_SOLVE)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["scheme"] == "dopri5"
    assert out["rhs_evals"] > 0
    assert out["rhs_spans"] == out["rhs_calls"] == out["rhs_evals"]


def test_traced_commands_record_one_write_span_per_csv_file():
    # cli.bytes_written and the output layer read the wrapped cli._write_csv;
    # a CSV written around it would drop out of both
    proc = _run(TRACED_CLI)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # simulate: 3 snapshots and histograms.csv per replica; solve: 3 grids and times.csv
    assert out == {"simulate": {"files": 8, "spans": 8}, "solve": {"files": 4, "spans": 4}}
