from pathlib import Path

import numpy as np
import pytest

import enerkin as ek
from enerkin.scenario import scenario_from_dict

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def minimal_doc():
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
        "initial": {"mode": "counts", "counts": [100], "energies": [{"value": 1.0}]},
        "run": {"t_end": 1.0, "seed": 1},
    }


class TestLoad:
    def test_minimal_one_type(self):
        sc = scenario_from_dict(minimal_doc(), kernel_spot_samples=16)
        assert sc.types.count == 1
        cfg = sc.simulator_config()
        assert cfg.t_end == 1.0
        traj = ek.run(cfg)
        assert traj.final_state.size == 100

    def test_wrong_version_rejected(self):
        doc = minimal_doc()
        doc["version"] = 99
        with pytest.raises(ek.ValidationError, match="version"):
            scenario_from_dict(doc)

    def test_asymmetric_rate_rejected_naming_pair(self):
        doc = minimal_doc()
        doc["types"]["internal_energies"] = [0.0, 0.0]
        doc["network"]["binary"] = [
            {
                "reactants": [1, 2],
                "rate": {"form": "constant", "value": 1.0},
                "kernel": {"kind": "uniform", "outputs": [{"pair": [1, 2], "weight": 1.0}]},
            },
            {
                "reactants": [2, 1],
                "rate": {"form": "constant", "value": 2.0},
                "kernel": {"kind": "uniform", "outputs": [{"pair": [1, 2], "weight": 1.0}]},
            },
        ]
        doc["initial"] = {"mode": "counts", "counts": [50, 50], "energies": [{"value": 1.0}, {"value": 1.0}]}
        with pytest.raises(ek.ValidationError, match=r"\(1,2\)"):
            scenario_from_dict(doc, kernel_spot_samples=0)

    def test_matching_reversed_reactants_merge(self):
        doc = minimal_doc()
        doc["types"]["internal_energies"] = [0.0, 0.0]
        doc["network"]["binary"] = [
            {
                "reactants": [1, 2],
                "rate": {"form": "constant", "value": 1.0},
                "kernel": {"kind": "uniform", "outputs": [{"pair": [1, 2], "weight": 1.0}]},
            },
            {
                "reactants": [2, 1],
                "rate": {"form": "constant", "value": 1.0},
                "kernel": {"kind": "uniform", "outputs": [{"pair": [1, 2], "weight": 1.0}]},
            },
        ]
        doc["initial"] = {"mode": "counts", "counts": [5, 5], "energies": [{"value": 1.0}, {"value": 1.0}]}
        sc = scenario_from_dict(doc, kernel_spot_samples=0)
        assert len(sc.network.binary) == 1

    def test_zero_shape_gamma_rejected(self):
        doc = minimal_doc()
        doc["initial"]["energies"] = [{"density": {"family": "gamma", "nu": 0.0, "beta": 1.0}}]
        with pytest.raises(ek.ValidationError, match="shape"):
            scenario_from_dict(doc, kernel_spot_samples=0)

    def test_unknown_kernel_kind_rejected(self):
        doc = minimal_doc()
        doc["network"]["binary"][0]["kernel"]["kind"] = "magic"
        with pytest.raises(ek.ValidationError, match="kernel kind"):
            scenario_from_dict(doc, kernel_spot_samples=0)

    @staticmethod
    def canonical_doc(density):
        doc = minimal_doc()
        doc["network"]["binary"][0]["kernel"] = {
            "kind": "canonical",
            "outputs": [{"pair": [1, 1], "weight": 1.0}],
            "densities": {"1": density},
        }
        return doc

    def test_singular_gamma_canonical_kernel_loads(self):
        # Gamma(1/2) densities split as Beta(1/2, 1/2), exactly normalized; its
        # endpoint singularities must not fail the load-time normalization check
        doc = self.canonical_doc({"family": "gamma", "nu": 0.5, "beta": 1.0})
        sc = scenario_from_dict(doc)
        errors = sc.network.kernel_normalization_errors(200, np.random.default_rng(1))
        assert errors[(1, 1)] < 1e-6

    def test_canonical_kernel_without_support_rejected(self):
        # two Uniform[1, 2] draws never sum below 2: the split law does not exist there
        doc = self.canonical_doc({"family": "uniform", "lo": 1.0, "hi": 2.0})
        with pytest.raises(ek.KernelSupportError):
            scenario_from_dict(doc)

    def test_parse_error_names_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ek.ValidationError, match="JSON"):
            ek.load_scenario(bad)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        ["exponential_equilibrium.json", "two_type_canonical.json", "unary_two_type.json"],
    )
    def test_bundled_scenarios_round_trip(self, name):
        sc = ek.load_scenario(SCENARIO_DIR / name, kernel_spot_samples=8)
        doc = sc.to_dict()
        sc2 = scenario_from_dict(doc, kernel_spot_samples=0)
        assert sc2.to_dict() == doc

    def test_round_trip_preserves_semantics(self):
        sc = scenario_from_dict(minimal_doc(), kernel_spot_samples=0)
        sc2 = scenario_from_dict(sc.to_dict(), kernel_spot_samples=0)
        t1 = ek.run(sc.simulator_config())
        t2 = ek.run(sc2.simulator_config())
        assert np.array_equal(
            t1.final_state.kinetic_energies, t2.final_state.kinetic_energies
        )


class TestSolverSetup:
    def test_one_type_uses_network(self):
        # every solve, the one-type one included, runs the scenario's network
        sc = ek.load_scenario(SCENARIO_DIR / "exponential_equilibrium.json", kernel_spot_samples=8)
        grid, cfg = sc.solver_setup()
        assert cfg.alpha is None and cfg.network is sc.network
        assert grid.n_cells == 2000
        assert ek.mass(grid) == pytest.approx(1.0, abs=1e-12)

    def test_two_type_uses_network(self):
        sc = ek.load_scenario(SCENARIO_DIR / "two_type_canonical.json", kernel_spot_samples=8)
        with pytest.raises(ek.ValidationError):
            sc.solver_setup()  # no solve section in that scenario
