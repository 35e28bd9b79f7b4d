import json
import re
from pathlib import Path

import numpy as np
import pytest

import enerkin as ek
from conftest import SplitKernel
from enerkin import cli, scenario
from enerkin.scenario import CHECKS, scenario_from_dict

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
BUNDLED = ["exponential_equilibrium.json", "two_type_canonical.json", "unary_two_type.json"]


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
        sc = scenario_from_dict(minimal_doc())
        assert sc.types.count == 1
        cfg = sc.simulator_config()
        assert cfg.t_end == 1.0
        traj = ek.run(cfg)
        assert traj.final_state.size == 100

    def test_rate_symmetry_spot_checked_once_per_load_and_per_run(self, monkeypatch):
        calls = []
        check = ek.ReactionNetwork.validate_rate_symmetry

        def spy(net, *args, **kwargs):
            calls.append(net)
            return check(net, *args, **kwargs)

        monkeypatch.setattr(ek.ReactionNetwork, "validate_rate_symmetry", spy)
        sc = scenario_from_dict(minimal_doc())
        assert len(calls) == 1
        cfg = sc.simulator_config(replicas=3)
        for runner in (ek.run_ensemble, ek.run):
            calls.clear()
            runner(cfg)
            assert calls == [sc.network]

    def test_run_refuses_asymmetric_rate(self, one_type_table):
        rate = ek.CallableRate(lambda t, tp: 1.0 + np.asarray(t) - np.asarray(tp))
        net = ek.ReactionNetwork(
            one_type_table, [ek.BinaryChannel((1, 1), rate, ek.UniformKernel([(1, 1, 1.0)]))]
        )
        cfg = ek.SimulatorConfig(net, ek.TypeCountsInitial((10,), (ek.Exponential(1.0),)), t_end=1.0)
        for runner in (ek.run_ensemble, ek.run):
            with pytest.raises(ek.ValidationError, match=r"rate for pair \(1, 1\) is not symmetric"):
                runner(cfg)

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
            scenario_from_dict(doc)

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
        sc = scenario_from_dict(doc)
        assert len(sc.network.binary) == 1

    def test_reversed_reactants_with_another_kernel_refused(self):
        # a second entry for the pair (1, 2), same rate but a uniform kernel
        doc = json.loads((SCENARIO_DIR / "two_type_canonical.json").read_text())
        doc["network"]["binary"].append(
            {
                "reactants": [2, 1],
                "rate": {"form": "constant", "value": 1.0},
                "kernel": {"kind": "uniform", "outputs": [{"pair": [1, 2], "weight": 1.0}]},
            }
        )
        with pytest.raises(ek.ValidationError, match=r"\(2,1\).*one kernel") as err:
            scenario_from_dict(doc)
        assert err.value.field == "network.binary[3].kernel"

    def test_zero_shape_gamma_rejected(self):
        doc = minimal_doc()
        doc["initial"]["energies"] = [{"density": {"family": "gamma", "nu": 0.0, "beta": 1.0}}]
        with pytest.raises(ek.ValidationError, match="shape"):
            scenario_from_dict(doc)

    def test_unknown_kernel_kind_rejected(self):
        doc = minimal_doc()
        doc["network"]["binary"][0]["kernel"]["kind"] = "magic"
        with pytest.raises(ek.ValidationError, match="kernel kind"):
            scenario_from_dict(doc)

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
        with pytest.raises(ek.KernelSupportError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == self.first_support_fault([ek.UniformDensity(1.0, 2.0)])

    def test_support_fault_names_the_first_pair_in_draw_order(self):
        # the first output's pair has no mass above 6, the second's none below 2:
        # the second fails at an earlier draw
        doc = self.canonical_doc({"family": "uniform", "lo": 0.0, "hi": 3.0})
        doc["types"]["internal_energies"] = [0.0, 0.0]
        doc["initial"]["counts"] = [50, 50]
        doc["initial"]["energies"] = [{"value": 1.0}, {"value": 1.0}]
        kernel = doc["network"]["binary"][0]["kernel"]
        kernel["outputs"].append({"pair": [2, 2], "weight": 1.0})
        kernel["densities"]["2"] = {"family": "uniform", "lo": 1.0, "hi": 2.0}
        with pytest.raises(ek.KernelSupportError) as err:
            scenario_from_dict(doc)
        densities = [ek.UniformDensity(0.0, 3.0), ek.UniformDensity(1.0, 2.0)]
        assert str(err.value) == self.first_support_fault(densities)
        assert str(err.value) != self.first_support_fault(densities[:1])

    def test_load_time_kernel_faults_name_the_kernel(self):
        # the second channel's split has no mass below 2: Uniform[2, 3] x Exp(1)
        doc = minimal_doc()
        doc["types"]["internal_energies"] = [0.0, 0.0]
        doc["initial"] = {"mode": "counts", "counts": [5, 5], "energies": [{"value": 1.0}] * 2}
        uniform = {"family": "uniform", "lo": 2.0, "hi": 3.0}
        exponential = {"family": "exponential", "beta": 1.0}
        doc["network"]["binary"].append(
            {
                "reactants": [1, 2],
                "rate": {"form": "constant", "value": 1.0},
                "kernel": {
                    "kind": "canonical",
                    "outputs": [{"pair": [1, 2], "weight": 1.0}],
                    "densities": {"1": uniform, "2": exponential},
                },
            }
        )
        with pytest.raises(ek.KernelSupportError) as err:
            scenario_from_dict(doc)
        assert err.value.field == "network.binary[1].kernel"
        # Gamma(0.05) splits as Beta(0.05, 0.05), more singular than the quadrature resolves
        doc = self.canonical_doc({"family": "gamma", "nu": 0.05, "beta": 1.0})
        with pytest.raises(ek.ValidationError, match="integrates to 1 [+]/- ") as err:
            scenario_from_dict(doc)
        assert err.value.field == "network.binary[0].kernel"

    def test_load_check_gives_each_channel_the_whole_network_draws(self, monkeypatch):
        sc = scenario.load_scenario(SCENARIO_DIR / "two_type_canonical.json")
        whole = sc.network.kernel_normalization_errors(1000, np.random.default_rng(0))
        seen = {}
        check = ek.ReactionNetwork.kernel_normalization_errors

        def spy(network, *args):
            errors = check(network, *args)
            seen.update(errors)
            return errors

        monkeypatch.setattr(ek.ReactionNetwork, "kernel_normalization_errors", spy)
        scenario._spot_check_kernels(sc.network)
        assert list(seen) == list(whole) == [(1, 1), (1, 2), (2, 2)]
        assert seen == whole

    @staticmethod
    def first_support_fault(densities) -> str:
        """The fault of the load check's draws taken one pair at a time, each
        same-type output split by its density in output order."""
        rng = np.random.default_rng(0)
        with pytest.raises(ek.KernelSupportError) as first:
            for _ in range(1000):
                total = sum(float(x) for x in rng.exponential(1.0, size=2))
                for dens in densities:
                    ek.canonical_split_pdf(dens, dens, total, 0.5 * total)
        return str(first.value)

    def test_load_checks_each_channel_as_one_array(self, monkeypatch):
        calls = []
        check = ek.ScatteringKernel.check_normalization

        def spy(kernel, *args):
            calls.append(kernel)
            return check(kernel, *args)

        monkeypatch.setattr(ek.ScatteringKernel, "check_normalization", spy)
        sc = scenario.load_scenario(SCENARIO_DIR / "two_type_canonical.json")
        assert len(sc.network.binary) == 3
        assert calls == []

    def test_nan_split_density_fails_the_normalization_checks(self):
        # a split law the quadrature reads as NaN is not known to be normalized
        kernel = SplitKernel(
            [(1, 1, 1.0)],
            split_pdf_fn=lambda a, b, e, u: np.full(np.shape(u), np.nan),
            split_sample_fn=lambda a, b, e, rng: rng.uniform(0, e),
        )
        net = ek.ReactionNetwork(
            ek.TypeTable(np.array([0.0])), [ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), kernel)]
        )
        assert np.isnan(net.kernel_normalization_errors(100, np.random.default_rng(0))[(1, 1)])
        with pytest.raises(ek.ValidationError, match=re.escape("network.binary (1, 1)")):
            scenario._spot_check_kernels(net)
        base = scenario_from_dict(minimal_doc())
        sc = ek.Scenario(
            base.types, net, base.initial, base.run, base.solve, base.reference, base.checks,
            base.source,
        )
        args = scenario.check_arguments(sc, {"name": "kernel_normalization", "samples": 100})
        result = cli._run_check(sc, "kernel_normalization", args)
        assert np.isnan(result["observed"]) and result["passed"] is False

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"snapshot_time": [0.5]}, "run.snapshot_time: unknown key"),
            ({"t_end": None}, "run.t_end: required"),
            ({"seed": 1.5}, "run.seed: expected an integer"),
            ({"histogram": {"x_max": 4.0}}, "run.histogram.bins: required"),
            ({"histogram": {"x_max": 4.0, "bins": 4, "log": True}}, "run.histogram.log: unknown"),
        ],
        ids=["unknown", "required", "integer", "histogram_required", "histogram_unknown"],
    )
    def test_malformed_run_section_rejected_naming_field(self, change, message):
        doc = minimal_doc()
        doc["run"].update(change)
        with pytest.raises(ek.ValidationError, match=re.escape(message)):
            scenario_from_dict(doc)

    def test_parse_error_names_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ek.ValidationError, match="JSON"):
            ek.load_scenario(bad)


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_scenarios_round_trip(self, name):
        sc = ek.load_scenario(SCENARIO_DIR / name)
        doc = sc.to_dict()
        sc2 = scenario_from_dict(doc)
        assert sc2.to_dict() == doc

    def test_round_trip_preserves_semantics(self):
        sc = scenario_from_dict(minimal_doc())
        sc2 = scenario_from_dict(sc.to_dict())
        t1 = ek.run(sc.simulator_config())
        t2 = ek.run(sc2.simulator_config())
        assert np.array_equal(
            t1.final_state.kinetic_energies, t2.final_state.kinetic_energies
        )


class TestSolverSetup:
    def test_one_type_uses_network(self):
        # every solve, the one-type one included, runs the scenario's network
        sc = ek.load_scenario(SCENARIO_DIR / "exponential_equilibrium.json")
        grid, cfg = sc.solver_setup()
        assert cfg.network is sc.network
        assert grid.n_cells == 2000
        assert ek.mass(grid) == pytest.approx(1.0, abs=1e-12)

    def test_two_type_uses_network(self):
        sc = ek.load_scenario(SCENARIO_DIR / "two_type_canonical.json")
        with pytest.raises(ek.ValidationError):
            sc.solver_setup()  # no solve section in that scenario


def readme_checks():
    """{check name: {parameter: text in parentheses after it}} from the README."""
    text = (ROOT / "README.md").read_text()
    section = text.split("* `checks[]`:", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for item in section.split("\n  - ")[1:]:
        name, body = re.match(r"`(\w+)`: (.*)", item, re.S).groups()
        listed[name] = dict(re.findall(r"`(\w+)`(?:\s+\(([^)]*)\))?", body))
    return listed


def readme_section_keys(section):
    """The backticked names outside parentheses in the README's ``section`` bullet."""
    text = (ROOT / "README.md").read_text()
    bullet = text.split(f"* `{section}`:", 1)[1].split("\n* ", 1)[0]
    bare = None
    while bare != bullet:  # innermost parentheses first
        bare, bullet = bullet, re.sub(r"\([^()]*\)", "", bullet)
    return set(re.findall(r"`(\w+)`", bullet))


class TestCheckTable:
    @pytest.mark.parametrize("section", ["run", "solve"])
    def test_readme_lists_every_section_key(self, section):
        declared = {"run": scenario._RUN, "solve": scenario._SOLVE}[section]
        assert readme_section_keys(section) == set(declared)

    def test_readme_lists_every_check_with_its_parameters(self):
        listed = readme_checks()
        assert set(listed) == set(CHECKS)
        for name, check in CHECKS.items():
            declared = {k: p for k, p in check.params.items() if k != "tolerance"}
            assert set(listed[name]) == set(declared), name
            for key, param in declared.items():
                default = getattr(param, "default", None)
                if isinstance(default, (int, float)):
                    assert listed[name][key] == repr(default), (name, key)

    def test_every_check_appears_in_a_bundled_scenario(self):
        # so that running the bundled scenarios' checks exercises every runner
        used = set()
        for name in BUNDLED:
            doc = json.loads((SCENARIO_DIR / name).read_text())
            used |= {c["name"] for c in doc.get("checks", [])}
        assert used == set(CHECKS)

    def test_loading_evaluates_no_check(self, monkeypatch):
        def evaluated(*args, **kwargs):
            raise AssertionError("loading evaluated a check")

        for name, check in CHECKS.items():
            stub = scenario._Check(evaluated, check.params, check.prepare)
            monkeypatch.setitem(CHECKS, name, stub)
        monkeypatch.setattr(scenario, "integrate", evaluated)
        monkeypatch.setattr(ek.equilibrium, "sample_conserving_quadruples", evaluated)
        for name in BUNDLED:
            sc = ek.load_scenario(SCENARIO_DIR / name)
            assert sc.checks

    def test_arguments_are_converted_and_defaulted(self):
        sc = ek.load_scenario(SCENARIO_DIR / "exponential_equilibrium.json")
        args = scenario.check_arguments(sc, {"name": "detailed_balance"})
        assert args == {
            "tolerance": 1e-8,
            "equilibrium": sc.reference,
            "samples": 1000,
            "energy_scale": 1.0,
        }
        args = scenario.check_arguments(sc, {"name": "kolmogorov", "rates": [[0, 2], [1, 0]]})
        assert set(args) == {"tolerance", "rates"}
        assert isinstance(args["rates"], ek.DiscreteChainSpec)


class TestStationaryProfileResidual:
    def test_canonical_network_profile_is_stationary(self):
        # the product-form measure of the two-type canonical network, Gamma(2, 1) and
        # Exp(1) at weights 1/2, sampled at the cell centres of [0, 20]; the bound leaves
        # the operator's discretization error at h = 0.005 and lies far below the
        # round-off wall that the same profile meets at x_max = 40
        sc = ek.load_scenario(SCENARIO_DIR / "two_type_canonical.json")
        params = {"name": "stationary_profile_residual", "x_max": 20.0}
        args = scenario.check_arguments(sc, params)
        assert args["measure"].weights == (0.5, 0.5)
        observed, samples = CHECKS["stationary_profile_residual"].run(sc, args)
        assert samples == 4000
        assert observed <= 1e-6
