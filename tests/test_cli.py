import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import enerkin as ek
from enerkin import cli

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def small_doc():
    return {
        "version": 1,
        "types": {"internal_energies": [0.0]},
        "network": {
            "binary": [
                {
                    "reactants": [1, 1],
                    "rate": {"form": "constant", "value": 1.0},
                    "kernel": {"kind": "uniform", "outputs": [{"pair": [1, 1], "weight": 1.0}]},
                }
            ]
        },
        "initial": {"mode": "particles", "particles": [[1, 0.5], [1, 1.5], [1, 2.5]]},
        "run": {
            "t_end": 0.0,
            "snapshot_times": [0.0],
            "seed": 4,
            "histogram": {"x_max": 4.0, "bins": 4},
        },
    }


REFERENCE = {"weights": [1.0], "densities": [{"family": "exponential", "beta": 1.0}]}
UNIFORM_TO_EXP = {
    "name": "measure_transform_ks",
    "tolerance": 0.05,
    "rho": {"family": "uniform", "lo": 0.0, "hi": 1.0},
    "samples": 100,
}


def small_doc_checking(*checks, **sections):
    doc = small_doc()
    doc.update(sections, checks=list(checks))
    return doc


def unary_doc_with_check(index, **changes):
    doc = json.loads((SCENARIO_DIR / "unary_two_type.json").read_text())
    check = doc["checks"][index]  # 0: product_form_balance, 1: admissible_pair
    check.update(changes)
    for key in [k for k, v in changes.items() if v is None]:
        del check[key]
    return doc


def unary_doc_with(**sections):
    doc = json.loads((SCENARIO_DIR / "unary_two_type.json").read_text())
    doc.update(sections)
    return doc


EXP_ENERGIES = [{"density": {"family": "exponential", "beta": 1.0}}] * 2


def mixed_beta_canonical_doc():
    """The bundled two-type canonical scenario with type 1 at Gamma(2, beta=2), 500 events."""
    doc = json.loads((SCENARIO_DIR / "two_type_canonical.json").read_text())
    for ch in doc["network"]["binary"][:2]:
        ch["kernel"]["densities"]["1"]["beta"] = 2.0
    doc["initial"]["energies"][0]["density"]["beta"] = 2.0
    doc["run"]["max_events"] = 500
    del doc["analysis"], doc["checks"]
    return doc


# scenario documents, and the field that the load-time fault must name
MALFORMED_CHECKS = {
    "unknown_name": (lambda: small_doc_checking({"name": "no_such_check"}), "checks[0].name"),
    "unknown_name_after_ks": (
        lambda: small_doc_checking(UNIFORM_TO_EXP, {"name": "no_such_check"}),
        "checks[1].name",
    ),
    "missing_required": (lambda: unary_doc_with_check(1, gap=None), "checks[1].gap"),
    "misspelled_key": (lambda: unary_doc_with_check(0, tolerence=1e-30), "checks[0].tolerence"),
    "no_product_form": (  # a one-way conversion
        lambda: unary_doc_with(
            network={"unary": [{"source": 1, "target": 2, "rate": {"form": "constant", "value": 1.0}}]}
        ),
        "checks[0]",
    ),
    "unconvertible_value": (
        lambda: small_doc_checking(dict(UNIFORM_TO_EXP, samples="four")), "checks[0].samples"
    ),
    "stationary_profile_negative_x_max": (
        lambda: small_doc_checking({"name": "stationary_profile_residual", "x_max": -5.0}),
        "checks[0].x_max",
    ),
    "stationary_profile_without_plan": (  # the collision equation has no unary channels
        lambda: unary_doc_with(
            checks=[{"name": "product_form_balance"}, {"name": "stationary_profile_residual"}]
        ),
        "checks[1]",
    ),
    "unparsable_density": (
        lambda: small_doc_checking(dict(UNIFORM_TO_EXP, rho={"family": "lognormal"})),
        "checks[0].rho",
    ),
    "no_reference": (lambda: small_doc_checking({"name": "detailed_balance"}), "checks[0].equilibrium"),
    "entropy_without_solve": (
        lambda: small_doc_checking({"name": "entropy_monotonicity"}, analysis={"reference": REFERENCE}),
        "checks[0].name",
    ),
}


class TestSimulateCommand:
    def test_t_end_zero_snapshot_equals_initial(self, tmp_path):
        sc = write_scenario(tmp_path, small_doc())
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--scenario", str(sc), "--out", str(out)])
        assert rc == 0
        lines = (out / "snapshot_000.csv").read_text().splitlines()
        assert lines[0] == "type_id,kinetic_energy"
        assert lines[1:] == ["1,0.5", "1,1.5", "1,2.5"]

    def test_reruns_are_byte_identical(self, tmp_path):
        doc = small_doc()
        doc["run"]["t_end"] = 3.0
        doc["run"]["snapshot_times"] = [1.5, 3.0]
        doc["initial"] = {
            "mode": "counts",
            "counts": [50],
            "energies": [{"density": {"family": "exponential", "beta": 1.0}}],
        }
        sc = write_scenario(tmp_path, doc)
        rc1 = cli.main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "a")])
        rc2 = cli.main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        for name in ("snapshot_000.csv", "snapshot_001.csv", "histograms.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        doc = small_doc()
        doc["run"]["t_end"] = 3.0
        doc["run"]["snapshot_times"] = []
        doc["initial"] = {
            "mode": "counts",
            "counts": [50],
            "energies": [{"density": {"family": "exponential", "beta": 1.0}}],
        }
        sc = write_scenario(tmp_path, doc)
        cli.main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "a")])
        cli.main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "b"), "--seed", "99"])
        a = (tmp_path / "a" / "snapshot_000.csv").read_bytes()
        b = (tmp_path / "b" / "snapshot_000.csv").read_bytes()
        assert a != b

    def test_negative_seed_override_faults(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, small_doc())
        rc = cli.main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert rc == cli.EXIT_FAULT
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"

    def test_replicas_create_subdirectories(self, tmp_path):
        doc = small_doc()
        doc["run"]["replicas"] = 2
        sc = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(sc), "--out", str(out)]) == 0
        assert (out / "replica_00" / "snapshot_000.csv").exists()
        assert (out / "replica_01" / "snapshot_000.csv").exists()

    def test_simulation_fault_carries_time_and_indices(self, tmp_path, capsys, monkeypatch):
        def fail(cfg):
            raise ek.SimulationError("rate above bound", time=0.25, indices=(3, 7))

        monkeypatch.setattr(cli, "run_ensemble", fail)
        sc = write_scenario(tmp_path, small_doc())
        rc = cli.main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_FAULT
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "SimulationError",
            "message": "rate above bound (t=0.25, particles=(3, 7))",
            "time": 0.25,
            "indices": [3, 7],
        }


    def test_infinite_rate_from_json_exits_2(self, tmp_path):
        # JSON reads 1e999 as inf; a power_gap rate of prefactor inf once ran until killed.
        # A subprocess with a timeout, so that a regression fails instead of hanging
        doc = json.loads((SCENARIO_DIR / "unary_two_type.json").read_text())
        doc["network"]["unary"][0]["rate"] = {"form": "power_gap", "b": 123.0, "exponent": 0.0}
        del doc["checks"]  # the product_form_balance check, which reads the rate too
        sc = tmp_path / "scenario.json"
        sc.write_text(json.dumps(doc).replace('"b": 123.0', '"b": 1e999'))
        src = str(Path(ek.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "enerkin.cli", "simulate", "--scenario", str(sc), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == cli.EXIT_FAULT
        err = json.loads(proc.stderr)
        assert (err["error"], err["field"]) == ("ValidationError", "network.unary[0].rate")
        assert not (tmp_path / "out").exists()


# SHA-256 of every CSV ``enerkin simulate`` writes for the bundled scenarios
BUNDLED_SIMULATE_SHA256 = {
    "exponential_equilibrium": {
        "histograms.csv": "0488c018d347ffb0e9f3857ca9db8b0b2845125ed85dca94fc2b353602b4d334",
        "snapshot_000.csv": "536460368f8cf0ed6ec6ef8d1bb3214c690de3b10976bb800949a66356377096",
        "snapshot_001.csv": "900383457d3107f0a346d861d6db3124ea903bb8ecc4ebc713393f30ea1b7a73",
        "snapshot_002.csv": "1ed387ff3b476a5092ff7593a59c66a934621b4605e44c2c4ec5517f05b16980",
    },
    "two_type_canonical": {
        "histograms.csv": "4fc8081955a9e026f510b4b322b8c0eded43924202beebe691ffeb1415f0e66b",
        "snapshot_000.csv": "fadde645225ed5d098ffb70f2f5b1fadae2389d34683dff4ec14a447b4fe4786",
    },
    "unary_two_type": {
        "histograms.csv": "10618192b4bb851b13b031dc9e663d09d6eaf803708d4ea0d208f550e52bceea",
        "snapshot_000.csv": "0cc60246c540495472af4f89b63244e85cd28fe340d0dd7cb884f402237dc5dc",
        "snapshot_001.csv": "1abc3e3482b82a29c9d797e006225a329925001351026428e86ca5759f8033cb",
    },
}


@pytest.mark.parametrize("name", sorted(BUNDLED_SIMULATE_SHA256))
def test_bundled_simulate_outputs_are_pinned(name, tmp_path):
    """Every CSV of ``enerkin simulate`` on a bundled scenario keeps its pinned SHA-256.

    A fixed scenario and seed give byte-identical output, so new digests mean
    the simulator samples differently: a change to them needs a CHANGES.md
    entry that says why.
    """
    out = tmp_path / name
    assert cli.main(["simulate", "--scenario", str(SCENARIO_DIR / f"{name}.json"), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == BUNDLED_SIMULATE_SHA256[name]


# SHA-256 of every CSV ``enerkin solve`` writes for the bundled scenario with a solve section
BUNDLED_SOLVE_SHA256 = {
    "grid_000.csv": "0edd7a2f4dbd2400a3a74fbf2fa01e6ae1c32737b702660ce02b43fe65f3918b",
    "grid_001.csv": "7b0c965309cfa85f9855770bb55dba6ee76cd619dce5e9b452a02614198edb1f",
    "grid_002.csv": "09a8a1cbfaec2a4aadc0377f58dfa17c1bbcca66a883cad55781ec8b6d3f785d",
    "grid_003.csv": "ea226c5c31f476512951e7639646e18f06bc897ba05f5006faa29811cc0c0437",
    "grid_004.csv": "335b99521c0c51364129a14bb121f5d93e5ac000fd3a3b747b96732b7a0fe5a7",
    "grid_005.csv": "b2da05f3d55ed6876a4e090123c25d19c54aeabc37939e4d99079c9305e8223b",
    "grid_006.csv": "116161c57b38be0687cf64f4aa47511c77e4278d3aa0526e2487226fb27d0981",
    "grid_007.csv": "dee0b73c56d27275e15fd5b0c5d114beb2bd523bc17b7e9245ce2d5db14c5de6",
    "times.csv": "32c4abf3dac35baf5d87132a784230de2191ae6bd8e49cdf9b79c19f55180e81",
}


def test_bundled_solve_outputs_are_pinned(tmp_path):
    """Every CSV of ``enerkin solve`` on the bundled scenario keeps its pinned SHA-256;
    new digests need a CHANGES.md entry that says why."""
    out = tmp_path / "out"
    scenario = SCENARIO_DIR / "exponential_equilibrium.json"
    assert cli.main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == BUNDLED_SOLVE_SHA256


def gap_doc():
    """Two types across an internal-energy gap of 0.5 with two-output uniform kernels:
    (1,1) -> (2,2) needs kinetic energy 1, (2,2) -> (1,1) releases it."""

    def channel(a, b, outs):
        return {
            "reactants": [a, b],
            "rate": {"form": "constant", "value": 1.0},
            "kernel": {"kind": "uniform", "outputs": [{"pair": p, "weight": w} for p, w in outs]},
        }

    return {
        "version": 1,
        "types": {"internal_energies": [0.0, 0.5]},
        "network": {
            "binary": [
                channel(1, 1, [([1, 1], 1.0), ([2, 2], 0.7)]),
                channel(1, 2, [([1, 2], 1.0)]),
                channel(2, 2, [([2, 2], 1.0), ([1, 1], 0.3)]),
            ],
            "unary": [],
        },
        "initial": {"mode": "counts", "counts": [200, 100], "energies": EXP_ENERGIES},
        "run": {
            "t_end": 10.0,
            "snapshot_times": [5.0, 10.0],
            "seed": 3,
            "replicas": 1,
            "histogram": {"x_max": 8.0, "bins": 16},
        },
        "solve": {
            "grid": {"x_max": 20.0, "cells": 300},
            "initial": [
                {"density": {"family": "uniform", "lo": 0.0, "hi": 4.0}, "weight": 0.6},
                {"density": {"family": "uniform", "lo": 0.0, "hi": 2.0}, "weight": 0.4},
            ],
            "dt": 0.1,
            "t_end": 1.0,
            "scheme": "rk4",
            "snapshot_times": [0.0, 0.5, 1.0],
        },
    }


# SHA-256 of every CSV ``enerkin simulate`` and ``enerkin solve`` write for ``gap_doc``
GAP_SHA256 = {
    "simulate": {
        "histograms.csv": "32e6f057680c0b2faafa48bfc12d0145555ed5539187d15e8609ac858e67eea7",
        "snapshot_000.csv": "3853f1376abb887168d533577ec8c81a4bd9d001b339650f151b6acbe36e9eba",
        "snapshot_001.csv": "3592f763ccda716147c0b30d52134d6b73dbb6aace6283e1ffdc9c839a838a48",
    },
    "solve": {
        "grid_000.csv": "cc0c6ab052bec4d37642f3c7d9f53dedeffd98a454799a5841c89a1042101af1",
        "grid_001.csv": "2684de47fce4eaedb9053882ef2aca0f0a2c93c67bbfb396e547fe0197663e53",
        "grid_002.csv": "a07ef07a70a8a0d15dad5a9115e6b394eedf70bcb5557bbaba72e098a5ec4296",
        "times.csv": "f48ddbd88cb778f785718df9b3e42647a7765f02d94798fd4f84aae743a3910f",
    },
}


@pytest.mark.parametrize("command", sorted(GAP_SHA256))
def test_gap_scenario_outputs_are_pinned(command, tmp_path):
    """Both commands keep their pinned digests on kernels with several outputs, where
    the feasible outputs and their renormalized weights change with the kinetic energy."""
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", str(write_scenario(tmp_path, gap_doc())), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == GAP_SHA256[command]


def dense_doc():
    """2 000 particles, 21 snapshots over about 300 events and two replicas, so that
    most rows repeat from one snapshot to the next.  Types 1 and 2 have the same
    internal energy, so a conversion changes a type at unchanged energy bits."""

    def channel(a, b):
        return {
            "reactants": [a, b],
            "rate": {"form": "constant", "value": 1.0},
            "kernel": {"kind": "uniform", "outputs": [{"pair": [a, b], "weight": 1.0}]},
        }

    return {
        "version": 1,
        "types": {"internal_energies": [0.0, 0.0]},
        "network": {
            "binary": [channel(1, 1), channel(1, 2), channel(2, 2)],
            "unary": [
                {"source": 1, "target": 2, "rate": {"form": "constant", "value": 0.1}},
                {"source": 2, "target": 1, "rate": {"form": "constant", "value": 0.1}},
            ],
        },
        "initial": {
            "mode": "counts",
            "counts": [1200, 800],
            "energies": [
                {"density": {"family": "exponential", "beta": 1.0}},
                {"density": {"family": "exponential", "beta": 2.0}},
            ],
        },
        "run": {
            "t_end": 0.3,
            "snapshot_times": [0.015 * k for k in range(21)],
            "seed": 17,
            "replicas": 2,
            "histogram": {"x_max": 6.0, "bins": 12},
        },
    }


# SHA-256 over each replica directory of ``enerkin simulate`` on ``dense_doc``: every
# file's name, a NUL byte and its bytes, in name order
DENSE_SHA256 = {
    "replica_00": "e86c86b35a1841a29516d50911a06a2a162fd6a74ca23f48bcbee1d195b061bc",
    "replica_01": "f958c5195d7367f1130450abccd3f78f00cce0de102a0a2f0a2fe884e7e34ebe",
}


def test_dense_snapshot_series_is_pinned(tmp_path):
    """Snapshot files that reuse the lines of unchanged particles keep the digests of
    files that format every row."""
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", str(write_scenario(tmp_path, dense_doc())), "--out", str(out)]) == 0
    digests = {}
    for rep in sorted(out.iterdir()):
        h = hashlib.sha256()
        for p in sorted(rep.iterdir()):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        digests[rep.name] = h.hexdigest()
    assert digests == DENSE_SHA256
    # the series does exercise both kinds of row change
    rows = [(out / "replica_00" / f"snapshot_{k:03d}.csv").read_text().splitlines() for k in range(21)]
    changes = [(a, b) for prev, cur in zip(rows, rows[1:]) for a, b in zip(prev, cur) if a != b]
    assert 0 < len(changes) < 0.05 * 20 * 2000
    assert any(a.split(",")[1] == b.split(",")[1] for a, b in changes)


def test_snapshot_files_match_one_repr_per_cell(tmp_path, monkeypatch):
    """Crafted states: a first snapshot, then a flip of the sign of zero (equal values,
    different bits), a type-only change and ordinary energy changes."""
    states = [
        ([1, 2, 1, 1, 2], [0.0, 1.5, 0.1, 2.0, 3.0]),
        ([1, 1, 1, 1, 2], [-0.0, 1.5, 0.1 + 0.2, 2.0, 3.0]),
        ([1, 1, 2, 1, 2], [0.0, 1.5, 0.1 + 0.2, 2.0, 5e-324]),
        ([2, 1, 2, 1, 2], [0.0, 1e300, 0.1 + 0.2, 2.0, 5e-324]),
    ]
    systems = [ek.ParticleSystem(np.array(v), np.array(t)) for v, t in states]
    edges = np.array([0.0, 1.0, 4.0])
    snaps = [ek.Snapshot(k, k, np.zeros(2), [np.zeros(2), np.zeros(2)], s) for k, s in enumerate(systems)]
    monkeypatch.setattr(cli, "run_ensemble", lambda cfg: [ek.Trajectory(snaps, systems[-1], edges, 0, 0)])
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", str(write_scenario(tmp_path, small_doc())), "--out", str(out)]) == 0
    for k, s in enumerate(systems):
        want = "type_id,kinetic_energy\n" + "".join(
            f"{v},{repr(float(t))}\n" for v, t in zip(s.type_ids, s.kinetic_energies)
        )
        assert (out / f"snapshot_{k:03d}.csv").read_bytes() == want.encode()
    assert "1,-0.0\n" in (out / "snapshot_001.csv").read_text()


@pytest.mark.parametrize("command", ["solve", "check"])
def test_seed_is_refused_by_solve_and_check(command, tmp_path):
    scenario = SCENARIO_DIR / "exponential_equilibrium.json"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--scenario", str(scenario), "--out", str(tmp_path), "--seed", "1"])
    assert exc.value.code == 2


class TestSolveCommand:
    def test_grid_csv_schema(self, tmp_path):
        doc = small_doc()
        del doc["run"]
        del doc["initial"]
        doc["solve"] = {
            "grid": {"x_max": 10.0, "cells": 50},
            "initial": [{"density": {"family": "uniform", "lo": 0.0, "hi": 2.0}, "weight": 1.0}],
            "dt": 0.05,
            "t_end": 1.0,
            "scheme": "rk4",
            "snapshot_times": [0.0, 1.0],
        }
        sc = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["solve", "--scenario", str(sc), "--out", str(out)]) == 0
        lines = (out / "grid_000.csv").read_text().splitlines()
        assert lines[0] == "type_id,x_center,density"
        assert len(lines) == 51
        assert (out / "grid_001.csv").exists()

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"grid": {"x_max": 10.0}}, "solve.grid.cells"),
            ({"grid": {"cells": 50}}, "solve.grid.x_max"),
            ({"scheme": "rk5"}, "solve.scheme"),
            ({"renormalize_mass": "false"}, "solve.renormalize_mass"),
            ({"snapshot_time": [1.0]}, "solve.snapshot_time"),
            ({"scheme": "euler"}, "solve.scheme"),
            ({"scheme": "rk4", "dt": None}, "solve.dt"),
            ({"scheme": "rk4", "dt": 0.05, "rtol": 1e-6}, "solve.rtol"),
            ({"scheme": "rk4", "dt": 0.0}, "solve.dt"),
            ({"dt": 0.05}, "solve.dt"),
            ({"rtol": -1e-8}, "solve.rtol"),
            ({"rtol": 1.5}, "solve.rtol"),
            ({"grid": {"x_max": 10.0, "cells": 0}}, "solve.grid.cells"),
            ({"grid": {"x_max": -1.0, "cells": 50}}, "solve.grid.x_max"),
            ({"snapshot_times": [99.0]}, "solve.snapshot_times"),
            ({"snapshot_times": [0.5, -0.5]}, "solve.snapshot_times"),
        ],
        ids=[
            "no_cells", "no_x_max", "scheme", "flag", "unknown", "euler", "rk4_without_dt",
            "rk4_with_rtol", "zero_dt", "dopri5_with_dt", "negative_rtol", "rtol_ge_1",
            "zero_cells", "negative_x_max", "snapshot_past_t_end", "negative_snapshot",
        ],
    )
    def test_malformed_solve_section_faults_at_load(self, change, field, tmp_path, capsys):
        doc = small_doc()
        doc["solve"] = {
            "grid": {"x_max": 10.0, "cells": 50},
            "initial": [{"density": {"family": "uniform", "lo": 0.0, "hi": 2.0}}],
            "t_end": 1.0,
        }
        doc["solve"].update(change)
        sc = write_scenario(tmp_path, doc)
        rc = cli.main(["solve", "--scenario", str(sc), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_FAULT
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(field + ": ")
        assert err["field"] == field
        assert not (tmp_path / "out").exists()

    def test_unrepresentable_network_faults_at_load(self, tmp_path, capsys):
        # Gamma(2, beta=2) next to Exp(1): the (1, 2) channel's canonical split
        # has two betas, which the collision plan refuses
        doc = mixed_beta_canonical_doc()
        doc["solve"] = {
            "grid": {"x_max": 10.0, "cells": 50},
            "initial": [
                {"density": {"family": "gamma", "nu": 2.0, "beta": 2.0}},
                {"density": {"family": "exponential", "beta": 1.0}},
            ],
            "t_end": 1.0,
        }
        sc = write_scenario(tmp_path, doc)
        rc = cli.main(["solve", "--scenario", str(sc), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_FAULT
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert err["field"] == "solve"
        assert err["message"].startswith("solve: reactant pair (1, 2): canonical densities need one common beta")
        assert not (tmp_path / "out").exists()
        # the same network without a solve section loads and simulates
        del doc["solve"]
        sc = write_scenario(tmp_path, doc)
        assert cli.main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "sim")]) == 0
        assert len((tmp_path / "sim" / "snapshot_000.csv").read_text().splitlines()) == 601

    def test_shifted_gamma_canonical_density_faults_at_load(self, tmp_path, capsys):
        doc = mixed_beta_canonical_doc()
        shifted = {"family": "shifted_gamma", "nu": 2.0, "beta": 1.0, "shift": 1.0}
        doc["network"]["binary"][1]["kernel"]["densities"]["1"] = shifted
        sc = write_scenario(tmp_path, doc)
        rc = cli.main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_FAULT
        assert json.loads(capsys.readouterr().err)["error"] == "KernelSupportError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "density",
        [{"family": "uniform", "lo": 2.0, "hi": 3.0}, {"family": "uniform", "lo": 0.0, "hi": 10.0}],
        ids=["no_support", "bounded_support"],  # no mass below 4; no mass above 20
    )
    def test_load_time_kernel_fault_names_the_kernel(self, density, tmp_path, capsys):
        doc = small_doc()
        doc["network"]["binary"][0]["kernel"] = {
            "kind": "canonical",
            "outputs": [{"pair": [1, 1], "weight": 1.0}],
            "densities": {"1": density},
        }
        sc = write_scenario(tmp_path, doc)
        rc = cli.main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_FAULT
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "KernelSupportError"
        assert err["field"] == "network.binary[0].kernel"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "pair, densities",
        [
            ((1, 1), {"1": {"family": "gamma", "nu": 0.05, "beta": 1.0}}),
            (
                (1, 2),
                {"1": {"family": "uniform", "lo": 0.0, "hi": 3.0}, "2": {"family": "exponential", "beta": 1.0}},
            ),
        ],
        ids=["small_gamma_shape", "uniform_exponential"],
    )
    def test_normalized_canonical_kernel_simulates(self, pair, densities, tmp_path):
        # exactly normalized splits load and simulate; a run from energies above the
        # uniform's hi conserves the total energy
        doc = small_doc()
        doc["types"]["internal_energies"] = [0.0, 0.0]
        doc["network"]["binary"][0] = {
            "reactants": list(pair),
            "rate": {"form": "constant", "value": 1.0},
            "kernel": {"kind": "canonical", "outputs": [{"pair": list(pair)}], "densities": densities},
        }
        doc["initial"]["particles"] = [[1, 0.5], [2, 11.0], [1, 4.0], [2, 2.5], [1, 7.0]]
        doc["run"].update(t_end=5.0, snapshot_times=[5.0])
        sc = write_scenario(tmp_path, doc)
        assert cli.main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "snapshot_000.csv").read_text().splitlines()[1:]
        final = [float(r.split(",")[1]) for r in rows]
        assert len(final) == 5
        assert abs(sum(final) - 25.0) <= 1e-12 * 25.0

    def test_blowup_maps_to_fault_exit(self, tmp_path, capsys):
        doc = small_doc()
        del doc["run"]
        del doc["initial"]
        doc["solve"] = {
            "grid": {"x_max": 10.0, "cells": 50},
            "initial": [{"density": {"family": "uniform", "lo": 0.0, "hi": 2.0}, "weight": 1.0}],
            "dt": 50.0,
            "t_end": 200.0,
            "scheme": "rk4",
        }
        sc = write_scenario(tmp_path, doc)
        rc = cli.main(["solve", "--scenario", str(sc), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_FAULT
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SolverBlowupError"
        assert "negative Runge-Kutta stage at step 1, t=50" in err["message"]
        assert (err["step"], err["time"]) == (1, 50.0)
        assert "field" not in err


def _set(path, value):
    """A small_doc edit: ``value`` at the key path ``path``, or the key deleted for None."""

    def make():
        doc = json.loads(json.dumps(small_doc_checking(UNIFORM_TO_EXP, analysis={"reference": REFERENCE})))
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        if value is None:
            del node[last]
        else:
            node[last] = value
        return doc

    return make


MALFORMED_SECTIONS = {
    "counts_entry": (
        _set(("initial",), {"mode": "counts", "counts": ["x"], "energies": [{"value": 1.0}]}),
        "initial.counts",
    ),
    "rate_value": (_set(("network", "binary", 0, "rate", "value"), "x"), "network.binary[0].rate.value"),
    "analysis_list": (_set(("analysis",), []), "analysis"),
    "checks_object": (_set(("checks",), {"name": "kolmogorov"}), "checks"),
    "rate_unknown_key": (
        _set(("network", "binary", 0, "rate"), {"form": "constant", "vlaue": 1.0}),
        "network.binary[0].rate.vlaue",
    ),
    "initial_unknown_key": (
        _set(("initial",), {"mode": "counts", "count": [3], "counts": [3], "energies": [{"value": 1.0}]}),
        "initial.count",
    ),
    "top_level_unknown_key": (_set(("anlysis",), {"reference": REFERENCE}), "anlysis"),
    "types_energies": (_set(("types", "internal_energies"), "zero"), "types.internal_energies"),
    "kernel_output_pair": (
        _set(("network", "binary", 0, "kernel", "outputs", 0, "pair"), [1]),
        "network.binary[0].kernel.outputs[0].pair",
    ),
    "unary_source": (
        _set(("network", "unary"), [{"source": "one", "target": 1, "rate": {"form": "constant", "value": 1.0}}]),
        "network.unary[0].source",
    ),
    "kernel_density": (
        _set(
            ("network", "binary", 0, "kernel"),
            {"kind": "canonical", "outputs": [{"pair": [1, 1]}], "densities": {"1": {"family": "gamma", "nu": "x", "beta": 1.0}}},
        ),
        "network.binary[0].kernel.densities.1",
    ),
    "particles_entry": (_set(("initial", "particles", 0), [1]), "initial.particles"),
    "particles_type": (_set(("initial", "particles", 0), [2, 0.5]), "initial.particles"),
    "counts_negative": (
        lambda: unary_doc_with(initial={"mode": "counts", "counts": [-5, 10], "energies": EXP_ENERGIES}),
        "initial.counts",
    ),
    "counts_empty": (
        _set(("initial",), {"mode": "counts", "counts": [0], "energies": [{"value": 1.0}]}),
        "initial.counts",
    ),
    "mixture_probabilities": (
        lambda: unary_doc_with(
            initial={"mode": "mixture", "total": 10, "probabilities": [0.5, 0.2], "energies": EXP_ENERGIES}
        ),
        "initial.probabilities",
    ),
    "mixture_total": (
        _set(("initial",), {"mode": "mixture", "total": 0, "probabilities": [1.0], "energies": [{"value": 1.0}]}),
        "initial.total",
    ),
    "run_snapshot_beyond_t_end": (_set(("run", "snapshot_times"), [1.0]), "run.snapshot_times"),
    "run_replicas_zero": (_set(("run", "replicas"), 0), "run.replicas"),
    "run_seed_negative": (_set(("run", "seed"), -1), "run.seed"),
    "histogram_bins": (_set(("run", "histogram", "bins"), -5), "run.histogram.bins"),
    "reference_weights": (_set(("analysis", "reference", "weights"), ["a"]), "analysis.reference.weights"),
    "reference_weights_nan": (_set(("analysis", "reference", "weights"), [float("nan")]), "analysis.reference"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SECTIONS))
def test_malformed_section_faults_at_load(case, tmp_path, capsys, monkeypatch):
    make_doc, field = MALFORMED_SECTIONS[case]
    sc = write_scenario(tmp_path, make_doc())
    monkeypatch.setattr(cli, "_run_check", lambda *a: pytest.fail("a check ran"))
    out = tmp_path / "out"
    rc = cli.main(["check", "--scenario", str(sc), "--out", str(out)])
    assert rc == cli.EXIT_FAULT
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert err["message"].startswith(field + ": ")
    assert err["field"] == field
    assert not out.exists()


# SHA-256 of the report.json ``enerkin check`` writes for each bundled scenario;
# new digests need a CHANGES.md entry that lists every changed field, before and after
BUNDLED_CHECK_SHA256 = {
    "exponential_equilibrium": "583d28798f5acf732e1ec51b71d5fa675233f6d25620d740b16227e6ed874e88",
    "two_type_canonical": "fb282abe35e75aeb24aad8f3c1b80ded2a3e625946fd8da441d01f629335a6cf",
    "unary_two_type": "2495c34954d60fa7064350a82f0e81bb552776b26e81896e9df07095df095c6a",
}


def run_bundled_check(name, out):
    """``enerkin check`` on a bundled scenario, whose report keeps its pinned SHA-256;
    returns the exit code."""
    rc = cli.main(["check", "--scenario", str(SCENARIO_DIR / f"{name}.json"), "--out", str(out)])
    digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    assert digest == BUNDLED_CHECK_SHA256[name]
    return rc


class TestCheckCommand:
    def test_bundled_exponential_scenario_passes(self, tmp_path):
        out = tmp_path / "out"
        rc = run_bundled_check("exponential_equilibrium", out)
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"]
        assert all(c["passed"] for c in report["checks"])
        names = {c["name"] for c in report["checks"]}
        assert {"detailed_balance", "local_equilibrium", "fixed_point"} <= names

    def test_bundled_unary_scenario_passes(self, tmp_path):
        assert run_bundled_check("unary_two_type", tmp_path / "out") == 0

    def test_bundled_two_type_scenario_passes(self, tmp_path):
        assert run_bundled_check("two_type_canonical", tmp_path / "out") == 0

    def test_failing_check_exits_nonzero(self, tmp_path):
        doc = small_doc()
        doc["checks"] = [
            {
                "name": "kolmogorov",
                "tolerance": 1e-10,
                "rates": [[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
            }
        ]
        sc = write_scenario(tmp_path, doc)
        rc = cli.main(["check", "--scenario", str(sc), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CHECK_FAILED
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert not report["passed"]
        assert report["checks"][0]["observed"] == pytest.approx(1.0)  # ratio 2 - 1

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKS))
    def test_unknown_check_name_faults(self, case, tmp_path, capsys, monkeypatch):
        # and every other malformed checks[] entry: refused at load, before any check runs
        make_doc, field = MALFORMED_CHECKS[case]
        sc = write_scenario(tmp_path, make_doc())
        monkeypatch.setattr(cli, "_run_check", lambda *a: pytest.fail("a check ran"))
        out = tmp_path / "out"
        rc = cli.main(["check", "--scenario", str(sc), "--out", str(out)])
        assert rc == cli.EXIT_FAULT
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(field + ": ")
        assert err["field"] == field
        assert not (out / "report.json").exists()


class TestAnalyzeCommand:
    def test_entropy_and_ks_outputs(self, tmp_path):
        doc = small_doc()
        doc["run"] = {
            "t_end": 5.0,
            "snapshot_times": [2.5, 5.0],
            "seed": 7,
            "histogram": {"x_max": 8.0, "bins": 16},
        }
        doc["initial"] = {
            "mode": "counts",
            "counts": [200],
            "energies": [{"density": {"family": "exponential", "beta": 1.0}}],
        }
        doc["solve"] = {
            "grid": {"x_max": 15.0, "cells": 300},
            "initial": [{"density": {"family": "uniform", "lo": 0.0, "hi": 2.0}, "weight": 1.0}],
            "dt": 0.02,
            "t_end": 5.0,
            "scheme": "rk4",
            "snapshot_times": [0.0, 2.5, 5.0],
        }
        doc["analysis"] = {
            "reference": {"weights": [1.0], "densities": [{"family": "exponential", "beta": 1.0}]}
        }
        sc = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["analyze", "--scenario", str(sc), "--out", str(out)]) == 0
        entropy_lines = (out / "entropy.csv").read_text().splitlines()
        assert entropy_lines[0] == "time,entropy"
        assert len(entropy_lines) == 4
        hs = [float(l.split(",")[1]) for l in entropy_lines[1:]]
        assert hs == sorted(hs)  # nondecreasing along the run
        ks_lines = (out / "ks.csv").read_text().splitlines()
        assert ks_lines[0] == "time,type_id,n_samples,ks_distance"
        assert len(ks_lines) == 3

    def test_analyze_without_reference_faults(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, small_doc())
        rc = cli.main(["analyze", "--scenario", str(sc), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_FAULT
        assert "reference" in capsys.readouterr().err


def test_missing_scenario_file_faults(tmp_path, capsys):
    rc = cli.main(["check", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_FAULT


def test_csv_writer_matches_per_cell_rule(tmp_path):
    # the rule the writer must reproduce byte for byte: floats (numpy.float64
    # included) as repr(float(x)), every other cell as str(x)
    def per_cell(header, rows):
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(repr(float(c)) if isinstance(c, float) else str(c) for c in row))
        return "".join(line + "\n" for line in lines)

    class Tagged(float):  # a float subclass whose str is not its float repr
        def __str__(self):
            return "tagged"

    values = [1, np.int64(-7), 0.1, np.float64(1.0), np.float64(1e-300), 2.5e16, np.float32(0.1),
              np.float64(np.nan), -0.0, np.float64(np.inf), True, "label", Tagged(0.3)]
    rng = np.random.default_rng(0)
    uniform = [tuple(values[k] for k in rng.integers(0, len(values), 3)) for _ in range(200)]
    ragged = uniform[:50] + [(1,), (np.float64(0.5), 2, 3.0, np.int64(4))] + [[np.float64(2.0), 3]]
    for name, rows in (("uniform", uniform), ("ragged", ragged), ("python", [(1, 0.1), (2, 2.0)]), ("empty", [])):
        path = tmp_path / f"{name}.csv"
        cli._write_csv(path, ["a", "b", "c"], cli._csv_text(iter(rows)))
        assert path.read_bytes() == per_cell(["a", "b", "c"], rows).encode()
