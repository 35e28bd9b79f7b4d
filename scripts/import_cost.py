#!/usr/bin/env python3
"""Fixed cost of one ``enerkin`` command: the set-up before any compute.

For each bundled scenario (``scenarios/*.json``) it starts ``--repeat``
fresh interpreters with ``PYTHONDONTWRITEBYTECODE=1``, so that, as in the
benchmark, no bytecode cache exists and every command compiles enerkin.  Each
interpreter imports what a benchmark command imports, in its order, and then
loads the scenario.  It prints, in ms, the best and the median over the runs
of

* interpreter start: from just before the parent starts the interpreter to
  its first statement;
* numpy + scipy: ``import numpy, scipy``;
* enerkin: ``import enerkin, enerkin.cli, enerkin.equilibrium``, in all;
* per enerkin module, its self time under ``-X importtime`` (its own body,
  the modules it imports excluded), and the rest of the enerkin import: the
  modules outside enerkin that it imports (numpy.random, json, argparse, ...);
* per enerkin module, the ``compile()`` time of its source, over all runs;
* ``load_scenario`` of the scenario.

Every interpreter runs with ``-X importtime``, which adds a little to each
import it times.  The figures are wall-clock times on the host as it is;
on a shared host, read the median.  It also prints the Python, numpy and
scipy versions.

    python scripts/import_cost.py --repeat 9
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import time
t_start = time.monotonic()
import json, sys
import numpy, scipy
t_numpy = time.monotonic()
import enerkin, enerkin.cli, enerkin.equilibrium
t_enerkin = time.monotonic()
from enerkin.scenario import load_scenario
t0 = time.perf_counter()
load_scenario(sys.argv[1])
load = time.perf_counter() - t0
compile_s = {}
for name, mod in sorted(sys.modules.items()):
    if name == "enerkin" or name.startswith("enerkin."):
        with open(mod.__file__, encoding="utf-8") as fh:
            source = fh.read()
        t0 = time.perf_counter()
        compile(source, mod.__file__, "exec")
        compile_s[name] = time.perf_counter() - t0
print(json.dumps({
    "start": t_start, "numpy": t_numpy - t_start, "enerkin": t_enerkin - t_numpy,
    "load": load, "compile": compile_s,
    "versions": [sys.version.split()[0], numpy.__version__, scipy.__version__],
}))
"""


def child_env():
    env = dict(os.environ)
    env.update(PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def self_times(importtime_log):
    """{module: self µs} of the enerkin modules in a ``-X importtime`` log."""
    out = {}
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if name == "enerkin" or name.startswith("enerkin."):
            out[name] = int(self_us)
    return out


def one_run(scenario, env):
    """Seconds of each set-up phase of one fresh interpreter that loads ``scenario``."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", CHILD, str(scenario)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"the interpreter for {scenario.name} failed:\n{proc.stderr[-2000:]}")
    rep = json.loads(proc.stdout)
    rep["start"] -= t_spawn
    rep["self"] = {name: us * 1e-6 for name, us in self_times(proc.stderr).items()}
    return rep


def row(label, seconds, width=32):
    ms = [1e3 * s for s in seconds]
    return f"{label:<{width}} {min(ms):>8.2f} {statistics.median(ms):>9.2f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=9, help="fresh interpreters per scenario")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    env = child_env()
    scenarios = sorted((ROOT / "scenarios").glob("*.json"))
    runs = {sc.stem: [one_run(sc, env) for _ in range(args.repeat)] for sc in scenarios}
    python, numpy, scipy = next(iter(runs.values()))[0]["versions"]
    print(f"Python {python}, numpy {numpy}, scipy {scipy}")
    print(f"best and median of {args.repeat} fresh interpreters, no bytecode cache, in ms")
    for name, reps in runs.items():
        print(f"\n{name:<32} {'best':>8} {'median':>9}")
        print(row("interpreter start", [r["start"] for r in reps]))
        print(row("numpy + scipy", [r["numpy"] for r in reps]))
        print(row("enerkin", [r["enerkin"] for r in reps]))
        for mod in sorted(reps[0]["self"]):
            print(row(f"  {mod} (self)", [r["self"][mod] for r in reps]))
        print(row("  what enerkin imports", [r["enerkin"] - sum(r["self"].values()) for r in reps]))
        print(row("load_scenario", [r["load"] for r in reps]))
    every = [r for reps in runs.values() for r in reps]
    print(f"\n{'compile() of the source':<32} {'best':>8} {'median':>9}")
    for mod in sorted(every[0]["compile"]):
        print(row(f"  {mod}", [r["compile"][mod] for r in every]))
    print(row("  all modules", [sum(r["compile"].values()) for r in every]))


if __name__ == "__main__":
    main()
