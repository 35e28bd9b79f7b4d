"""What ``import enerkin`` loads, checked in fresh interpreters.

scipy.special takes about a quarter second to import; enerkin needs it only
for the gamma CDF, which imports it on first use.  numpy.random and numpy.fft,
which numpy loads lazily, are imported with enerkin so that their cost falls
on start-up, not on the first draw or transform.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_numpy_submodules_and_not_scipy_special():
    loaded = _run(
        "import json, sys\n"
        "import enerkin, enerkin.cli\n"
        "print(json.dumps({m: m in sys.modules for m in ('scipy.special', 'numpy.random', 'numpy.fft')}))\n"
    )
    assert loaded == {"scipy.special": False, "numpy.random": True, "numpy.fft": True}


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
        f"    rc = cli.main(['check', '--scenario', {str(ROOT / 'scenarios' / 'exponential_equilibrium.json')!r},\n"
        f"                   '--out', {str(tmp_path / 'out')!r}])\n"
        "print(json.dumps({'rc': rc, 'scipy.special': 'scipy.special' in sys.modules}))\n"
    )
    assert loaded == {"rc": 0, "scipy.special": False}
