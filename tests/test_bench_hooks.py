"""The benchmark in perfbench/ wraps enerkin functions by name.

Its phase clock times ``cli.run_ensemble``, ``cli.integrate``,
``cli._run_check``, ``eq.relative_entropy`` and ``eq.ks_distance``; its tracer
wraps layer boundaries such as ``solver.rhs_one_type``, ``solver._gain_1d``,
``ScatteringKernel.check_normalization`` and ``sample_outcome``.  Renaming or
deleting any of them breaks only benchmark runs, so this installs both sets
of hooks the way a benchmark child process does, and runs a traced
simulation and a traced solve to check that the rate and right-hand-side
spans the per-layer metrics count are hit.
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


def test_traced_solve_records_one_span_per_right_hand_side():
    # solver.rhs_calls counts spans of the wrapped module-level rhs_multitype;
    # a stepper that called the plan directly would make it read 0
    proc = _run(TRACED_SOLVE)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["scheme"] == "dopri5"
    assert out["rhs_evals"] > 0
    assert out["rhs_spans"] == out["rhs_calls"] == out["rhs_evals"]
