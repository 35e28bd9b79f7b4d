#!/usr/bin/env python3
"""Fixed cost of each ``enerkin`` command: its set-up before the first compute call.

It times each (scenario, command) pair: every subcommand that applies to a
bundled scenario (``scenarios/*.json``), as the benchmark runs them, and a
solve-only and a run-only input made from the bundled one-type scenario.  For
each pair it starts ``--repeat`` fresh interpreters with
``PYTHONDONTWRITEBYTECODE=1``, so that, as in the benchmark, no bytecode cache
exists and every command compiles what it loads.  Each interpreter imports what
a benchmark command imports, in its order, wraps the command's compute calls
(``cli.run_ensemble``, ``cli.integrate``, ``cli._run_check``,
``equilibrium.relative_entropy`` and ``equilibrium.ks_distance``) and runs the
command up to the first of them, where it stops.  It prints, in ms, the
best and the median over the runs of

* interpreter start: from just before the parent starts the interpreter to
  its first statement;
* numpy + scipy: ``import numpy, scipy``;
* enerkin: ``import enerkin, enerkin.cli, enerkin.equilibrium``;
* load + config: from there to the first compute call, that is the scenario
  load with the engines it imports, and the config assembly;
* set-up: interpreter start to the first compute call, all of the above;

then the enerkin modules each command had loaded at its first compute call,
and per enerkin module the ``compile()`` time of its source over the runs
that loaded it.  The figures are wall-clock times on the host as it is; on a
shared host, read the median.  ``--json PATH`` writes every run's figures, in
seconds.

    python scripts/import_cost.py --repeat 9 --json import_cost.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# the subcommands that apply to each bundled scenario
BUNDLED = {
    "exponential_equilibrium": ("simulate", "solve", "analyze", "check"),
    "two_type_canonical": ("simulate", "analyze", "check"),
    "unary_two_type": ("simulate", "analyze", "check"),
}
# inputs made from the bundled one-type scenario: the sections each keeps
# besides the type table and network, and the command it runs
SINGLE_SECTION = {"solve_only": (("solve",), "solve"), "run_only": (("initial", "run"), "simulate")}

CHILD = """
import time
t_start = time.monotonic()
import json, sys
import numpy, scipy
t_numpy = time.monotonic()
import enerkin
import enerkin.cli as cli
import enerkin.equilibrium as eq
t_enerkin = time.monotonic()


class FirstCompute(BaseException):
    pass


def stop(fn):
    def wrapper(*args, **kwargs):
        raise FirstCompute(time.monotonic())

    return wrapper


for name in ("run_ensemble", "integrate", "_run_check"):
    setattr(cli, name, stop(getattr(cli, name)))
for name in ("relative_entropy", "ks_distance"):
    setattr(eq, name, stop(getattr(eq, name)))
try:
    cli.main(sys.argv[1:])
    raise SystemExit("the command made no compute call")
except FirstCompute as first:
    t_first = first.args[0]
modules = sorted(n for n in sys.modules if n == "enerkin" or n.startswith("enerkin."))
compile_s = {}
for name in modules:
    path = sys.modules[name].__file__
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    t0 = time.perf_counter()
    compile(source, path, "exec")
    compile_s[name] = time.perf_counter() - t0
print(json.dumps({
    "start": t_start, "numpy": t_numpy - t_start, "enerkin": t_enerkin - t_numpy,
    "load": t_first - t_enerkin, "first": t_first, "modules": modules, "compile": compile_s,
    "versions": [sys.version.split()[0], numpy.__version__, scipy.__version__],
}))
"""

PHASES = (
    ("start", "interpreter start"),
    ("numpy", "numpy + scipy"),
    ("enerkin", "enerkin"),
    ("load", "load + config"),
    ("setup", "set-up"),
)


def child_env():
    env = dict(os.environ)
    env.update(PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def inputs(tmp):
    """{"scenario/command": scenario path} of every pair timed."""
    pairs = {
        f"{name}/{command}": SCENARIOS / f"{name}.json"
        for name, commands in BUNDLED.items()
        for command in commands
    }
    doc = json.loads((SCENARIOS / "exponential_equilibrium.json").read_text(encoding="utf-8"))
    for name, (sections, command) in SINGLE_SECTION.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps({k: doc[k] for k in ("version", "types", "network", *sections)}))
        pairs[f"{name}/{command}"] = path
    return pairs


def one_run(pair, scenario, out, env):
    """Seconds of each set-up phase of one fresh interpreter running ``pair``."""
    command = pair.split("/")[1]
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, command, "--scenario", str(scenario), "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"the interpreter for {pair} failed:\n{proc.stderr[-2000:]}")
    rep = json.loads(proc.stdout)
    rep["setup"] = rep.pop("first") - t_spawn
    rep["start"] -= t_spawn
    return rep


def ms(seconds):
    """'best / median' of ``seconds``, in ms."""
    return f"{1e3 * min(seconds):.1f} / {1e3 * statistics.median(seconds):.1f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=9, help="fresh interpreters per command")
    ap.add_argument("--json", type=Path, default=None, help="write every run's figures here")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    env = child_env()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = {
            pair: [one_run(pair, path, tmp / "out", env) for _ in range(args.repeat)]
            for pair, path in inputs(tmp).items()
        }
    python, numpy, scipy = next(iter(runs.values()))[0]["versions"]
    compile_s = {}
    for reps in runs.values():
        for r in reps:
            for mod, s in r["compile"].items():
                compile_s.setdefault(mod, []).append(s)

    print(f"Python {python}, numpy {numpy}, scipy {scipy}")
    print(f"best / median of {args.repeat} fresh interpreters, no bytecode cache, in ms")
    width = max(map(len, runs)) + 2
    print(f"\n{'command':<{width}}" + "".join(f"{label:>19}" for _, label in PHASES))
    for pair, reps in runs.items():
        print(f"{pair:<{width}}" + "".join(f"{ms([r[key] for r in reps]):>19}" for key, _ in PHASES))
    print("\nenerkin modules loaded at the first compute call")
    for pair, reps in runs.items():
        names = [m.split(".", 1)[1] for m in reps[0]["modules"] if "." in m]
        print(f"{pair:<{width}}{' '.join(names)}")
    print(f"\n{'compile() of the source':<{width}}{'best / median':>19}")
    for mod in sorted(compile_s):
        print(f"{mod:<{width}}{ms(compile_s[mod]):>19}")

    if args.json is not None:
        figures = {
            pair: {key: [r[key] for r in reps] for key, _ in PHASES} | {"modules": reps[0]["modules"]}
            for pair, reps in runs.items()
        }
        doc = {"versions": {"python": python, "numpy": numpy, "scipy": scipy},
               "repeat": args.repeat, "commands": figures, "compile": compile_s}
        args.json.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
