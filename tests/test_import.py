"""What each ``enerkin`` command loads, and when, checked in fresh interpreters.

``import enerkin`` loads none of the package's modules: the package resolves
its public names on first use.  A command loads the engine of each section
its scenario declares while the scenario is loaded (``simulate``, and with it
``numpy.random``, for ``initial`` or ``run``; ``solver``, and with it
``numpy.fft``, for ``solve`` or a check on the collision plan; ``numpy.random``
for a check that draws), and nothing else; so no compute call imports a
module, and a solve-only scenario never compiles the simulator.  The compute
calls are those a benchmark command times: ``cli.run_ensemble``,
``cli.integrate``, ``cli._run_check``, ``equilibrium.relative_entropy`` and
``equilibrium.ks_distance``.

scipy.special takes about a quarter second to import; enerkin needs it only
for the gamma CDF, which imports it on first use.  No record class is a
dataclass, so ``dataclasses`` is never imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

# the modules that no compute call may import first
WATCHED = ("enerkin", "numpy.random", "numpy.fft")

# Runs ``enerkin`` with its arguments after the imports of a benchmark command,
# with each compute call wrapped; prints the exit code, the watched modules
# first imported inside an outermost compute call and every watched module
# loaded at the end.
COMMAND = """
import contextlib, io, json, sys
import numpy, scipy
import enerkin
import enerkin.cli as cli
import enerkin.equilibrium as eq

WATCHED = %r
inside = set()
depth = 0


def watched(name):
    return any(name == w or name.startswith(w + ".") for w in WATCHED)


def watch(fn):
    def wrapper(*args, **kwargs):
        global depth
        if depth:
            return fn(*args, **kwargs)
        before = set(sys.modules)
        depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            depth -= 1
            inside.update(m for m in set(sys.modules) - before if watched(m))

    return wrapper


for name in ("run_ensemble", "integrate", "_run_check"):
    setattr(cli, name, watch(getattr(cli, name)))
for name in ("relative_entropy", "ks_distance"):
    setattr(eq, name, watch(getattr(eq, name)))
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps({
    "rc": rc,
    "inside": sorted(inside),
    "loaded": sorted(m for m in sys.modules if watched(m)),
}))
""" % (WATCHED,)

BUNDLED_COMMANDS = [
    ("exponential_equilibrium", "simulate"),
    ("exponential_equilibrium", "solve"),
    ("exponential_equilibrium", "analyze"),
    ("exponential_equilibrium", "check"),
    ("two_type_canonical", "simulate"),
    ("two_type_canonical", "analyze"),
    ("two_type_canonical", "check"),
    ("unary_two_type", "simulate"),
    ("unary_two_type", "analyze"),
    ("unary_two_type", "check"),
]

DRAWING_CHECKS = [
    {"name": "kernel_normalization", "samples": 200},
    {"name": "measure_transform_ks", "rho": {"family": "uniform", "lo": 0.0, "hi": 1.0},
     "tolerance": 0.2, "samples": 200},
]
# per input made from the bundled one-type scenario: the sections it keeps
# besides the type table and network, the checks it lists, the command it
# runs, the modules that command loads and those it never loads
SINGLE_SECTION = {
    "solve_only": (("solve",), None, "solve", {"enerkin.solver"}, {"enerkin.simulate", "numpy.random"}),
    "run_only": (("initial", "run"), None, "simulate", {"enerkin.simulate"}, {"enerkin.solver"}),
    "check_only": ((), DRAWING_CHECKS, "check", {"numpy.random"}, {"enerkin.simulate", "enerkin.solver"}),
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def _run(script, *args):
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _command(scenario, command, out):
    return _run(COMMAND, command, "--scenario", str(scenario), "--out", str(out))


def test_import_loads_no_engine_and_not_scipy_special():
    loaded = _run(
        "import json, sys\n"
        "import enerkin, enerkin.cli, enerkin.equilibrium\n"
        "print(json.dumps(sorted(m for m in ('enerkin.simulate', 'enerkin.solver', 'scipy.special',\n"
        "                                    'numpy.random', 'numpy.fft') if m in sys.modules)))\n"
    )
    assert loaded == []


@pytest.mark.parametrize(
    "name,command", BUNDLED_COMMANDS, ids=[f"{n}/{c}" for n, c in BUNDLED_COMMANDS]
)
def test_bundled_command_imports_nothing_inside_compute(name, command, tmp_path):
    out = _command(SCENARIO_DIR / f"{name}.json", command, tmp_path / "out")
    assert out["rc"] == 0
    assert out["inside"] == []


@pytest.mark.parametrize("kind", sorted(SINGLE_SECTION))
def test_single_section_command_loads_only_its_engine(kind, tmp_path):
    sections, checks, command, loads, skips = SINGLE_SECTION[kind]
    doc = json.loads((SCENARIO_DIR / "exponential_equilibrium.json").read_text())
    doc = {k: doc[k] for k in ("version", "types", "network", *sections)}
    if checks is not None:
        doc["checks"] = checks
    scenario = tmp_path / f"{kind}.json"
    scenario.write_text(json.dumps(doc))
    out = _command(scenario, command, tmp_path / "out")
    assert out["rc"] == 0
    assert out["inside"] == []
    assert loads <= set(out["loaded"])
    assert not skips & set(out["loaded"])


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_product_form_check_loads_no_solver(command, tmp_path):
    # unary_two_type runs and lists product_form_balance, whose support rule
    # for collision channels lives in reactions: no solver, so no numpy.fft
    out = _command(SCENARIO_DIR / "unary_two_type.json", command, tmp_path / "out")
    assert out["rc"] == 0
    assert not {"enerkin.solver", "numpy.fft"} & set(out["loaded"])


def test_gamma_cdf_imports_gammainc_and_matches_it_bitwise():
    out = _run(
        "import json, sys\n"
        "import numpy as np\n"
        "import enerkin as ek\n"
        "before = 'scipy.special' in sys.modules\n"
        "x = np.concatenate([[-1.0, 0.0], np.geomspace(1e-6, 60.0, 200)])\n"
        "cdfs = {nu: ek.GammaDensity(nu, 1.3).cdf(x) for nu in (0.05, 0.5, 1.0, 3.0, 17.5, 150.0)}\n"
        "from scipy.special import gammainc\n"
        "same = all(np.array_equal(c, np.where(x > 0, gammainc(nu, 1.3 * x), 0.0)) for nu, c in cdfs.items())\n"
        "print(json.dumps({'before': before, 'same': same}))\n"
    )
    assert out == {"before": False, "same": True}


def test_bundled_one_type_check_leaves_scipy_special_unimported(tmp_path):
    # every check of the one-type scenario evaluates pdfs and uniform or exponential
    # CDFs, none of which needs the gamma CDF
    loaded = _run(
        "import contextlib, io, json, sys\n"
        "from enerkin import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.main(['check', '--scenario', {str(SCENARIO_DIR / 'exponential_equilibrium.json')!r},\n"
        f"                   '--out', {str(tmp_path / 'out')!r}])\n"
        "print(json.dumps({'rc': rc, 'scipy.special': 'scipy.special' in sys.modules}))\n"
    )
    assert loaded == {"rc": 0, "scipy.special": False}


def test_import_leaves_dataclasses_unimported():
    # every record class is a plain class with a written-out __init__: no
    # dataclass code is generated and compiled at import
    loaded = _run(
        "import json, sys\n"
        "import enerkin, enerkin.cli, enerkin.equilibrium\n"
        "print(json.dumps('dataclasses' in sys.modules))\n"
    )
    assert loaded is False
