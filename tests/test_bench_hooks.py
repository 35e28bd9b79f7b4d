"""The benchmark in perfbench/ wraps enerkin functions by name.

Its phase clock times ``cli.run_ensemble``, ``cli.integrate``,
``cli._run_check``, ``eq.relative_entropy`` and ``eq.ks_distance``; its tracer
wraps layer boundaries such as ``solver.rhs_one_type``, ``solver._gain_1d``,
``ScatteringKernel.check_normalization`` and ``sample_outcome``.  Renaming or
deleting any of them breaks only benchmark runs, so this installs both sets
of hooks the way a benchmark child process does.
"""

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


def test_benchmark_hooks_install_in_fresh_interpreter():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "hooks installed"
