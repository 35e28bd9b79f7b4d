import json
import math
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
EXPONENTIAL = {"family": "exponential", "beta": 1.0}


def uniform_spec(lo, hi):
    return {"family": "uniform", "lo": lo, "hi": hi}


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


# a number that a bundled scenario takes from JSON: (scenario, key path, its value from
# the number, the field the refusal names)
NON_FINITE = {
    "power_gap_b": (
        "unary_two_type", ("network", "unary", 0, "rate"),
        lambda x: {"form": "power_gap", "b": x, "exponent": 0.0}, "network.unary[0].rate",
    ),
    "power_gap_exponent": (
        "unary_two_type", ("network", "unary", 0, "rate"),
        lambda x: {"form": "power_gap", "b": 1.0, "exponent": x}, "network.unary[0].rate",
    ),
    "sum_decay_scale": (
        "exponential_equilibrium", ("network", "binary", 0, "rate"),
        lambda x: {"form": "sum_decay", "scale": x, "decay": 0.0}, "network.binary[0].rate",
    ),
    "sum_decay_decay": (
        "exponential_equilibrium", ("network", "binary", 0, "rate"),
        lambda x: {"form": "sum_decay", "scale": 1.0, "decay": x}, "network.binary[0].rate",
    ),
    "run_t_end": ("exponential_equilibrium", ("run", "t_end"), lambda x: x, "run.t_end"),
    "solve_t_end": ("exponential_equilibrium", ("solve", "t_end"), lambda x: x, "solve.t_end"),
    "histogram_x_max": (
        "exponential_equilibrium", ("run", "histogram", "x_max"), lambda x: x, "run.histogram.x_max",
    ),
}


class TestLoad:
    def test_minimal_one_type(self):
        sc = scenario_from_dict(minimal_doc())
        assert sc.types.count == 1
        cfg = sc.simulator_config()
        assert cfg.t_end == 1.0
        traj = ek.run(cfg)
        assert traj.final_state.size == 100

    def test_rate_symmetry_checked_per_run_not_per_load(self, monkeypatch):
        # the catalog's rate forms are symmetric by construction: a load checks nothing
        calls = []
        check = ek.ReactionNetwork.validate_rate_symmetry

        def spy(net, *args, **kwargs):
            calls.append(net)
            return check(net, *args, **kwargs)

        monkeypatch.setattr(ek.ReactionNetwork, "validate_rate_symmetry", spy)
        sc = scenario_from_dict(minimal_doc())
        assert calls == []
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
        # Gamma(1/2) densities split as Beta(1/2, 1/2), exactly normalized; the
        # normalization check resolves its endpoint singularities
        doc = self.canonical_doc({"family": "gamma", "nu": 0.5, "beta": 1.0})
        sc = scenario_from_dict(doc)
        errors = sc.network.kernel_normalization_errors(200, np.random.default_rng(1))
        assert errors[(1, 1)] < 1e-6

    def test_canonical_kernel_without_support_rejected(self):
        # two Uniform[1, 2] draws never sum below 2 nor above 4: the split law does not
        # exist there
        doc = self.canonical_doc({"family": "uniform", "lo": 1.0, "hi": 2.0})
        with pytest.raises(ek.KernelSupportError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == (
            "reactant pair (1, 1), output (1, 1): the canonical split of "
            "UniformDensity(lo=1.0, hi=2.0) and UniformDensity(lo=1.0, hi=2.0) has no mass "
            "at the available energies above 0.0 outside (2.0, 4.0)"
        )
        assert err.value.field == "network.binary[0].kernel"

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
        # Gamma(0.05) splits as Beta(0.05, 0.05), exactly normalized: it loads, although
        # the tanh-sinh rule of kernel_normalization does not resolve it
        scenario_from_dict(self.canonical_doc({"family": "gamma", "nu": 0.05, "beta": 1.0}))

    @staticmethod
    def cross_canonical_doc(density_1, density_2):
        """A (1, 2) channel whose canonical kernel splits as (density_1, density_2)."""
        doc = minimal_doc()
        doc["types"]["internal_energies"] = [0.0, 0.0]
        doc["initial"] = {"mode": "counts", "counts": [5, 5], "energies": [{"value": 1.0}] * 2}
        doc["network"]["binary"][0] = {
            "reactants": [1, 2],
            "rate": {"form": "constant", "value": 1.0},
            "kernel": {
                "kind": "canonical",
                "outputs": [{"pair": [1, 2]}],
                "densities": {"1": density_1, "2": density_2},
            },
        }
        return doc

    @pytest.mark.parametrize(
        "density_1, density_2",
        [
            ({"family": "shifted_gamma", "nu": 2.0, "beta": 1.0, "shift": 1.0}, EXPONENTIAL),
            (uniform_spec(0.0, 8.0), None),
            # a run from energies of 11 used to fail at its first collision, which splits 22
            (uniform_spec(0.0, 10.0), None),
        ],
        ids=["shifted_gamma_exponential", "uniform_0_8", "uniform_0_10"],
    )
    def test_split_without_mass_is_refused_naming_the_kernel(self, density_1, density_2):
        # Uniform[1, 2] squared and Uniform[2, 3] x Exp(1) are refused in the tests above
        if density_2 is None:
            doc = self.canonical_doc(density_1)
        else:
            doc = self.cross_canonical_doc(density_1, density_2)
        with pytest.raises(ek.KernelSupportError, match="has no mass at the available energies") as err:
            scenario_from_dict(doc)
        assert err.value.field == "network.binary[0].kernel"

    @pytest.mark.parametrize(
        "doc",
        [
            lambda: TestLoad.canonical_doc({"family": "gamma", "nu": 0.14, "beta": 1.0}),
            lambda: TestLoad.cross_canonical_doc(uniform_spec(0.0, 3.0), EXPONENTIAL),
        ],
        ids=["gamma_0_14", "uniform_0_3_exponential"],
    )
    def test_normalized_split_loads(self, doc):
        # exactly normalized splits; Gamma(0.05) loads in test_load_time_kernel_faults_name_the_kernel
        assert len(scenario_from_dict(doc()).network.binary) == 1

    @pytest.mark.parametrize("name", BUNDLED)
    def test_load_draws_no_random_number_and_runs_no_check(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scenario load drew from a random generator")

        # the load imports simulate, which binds numpy's default_rng: import it unpatched
        import enerkin.simulate  # noqa: F401

        calls = []
        for method in ("kernel_normalization_errors", "validate_rate_symmetry"):
            monkeypatch.setattr(
                ek.ReactionNetwork, method, lambda *a, method=method, **k: calls.append(method)
            )
        monkeypatch.setattr(np.random, "default_rng", refuse)
        scenario.load_scenario(SCENARIO_DIR / name)
        assert calls == []

    def test_load_calls_no_check_normalization(self, monkeypatch):
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

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_number_refused_naming_field(self, case, value):
        # JSON reads 1e999 as inf: each of these ran the chain or the solver until killed,
        # or misreported it as a blow-up
        name, path, make, field = NON_FINITE[case]
        doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = make(value)
        with pytest.raises(ek.ValidationError, match=re.escape(field + ": ")) as err:
            scenario_from_dict(doc)
        assert err.value.field == field

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_rk4_step_refused_naming_field(self, value):
        # an infinite step left every snapshot at time 0 with the initial grid
        doc = json.loads((SCENARIO_DIR / "exponential_equilibrium.json").read_text())
        doc["solve"].update(scheme="rk4", dt=value)
        with pytest.raises(ek.ValidationError, match=re.escape("solve.dt: ")) as err:
            scenario_from_dict(doc)
        assert err.value.field == "solve.dt"

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
        monkeypatch.setattr(ek.solver, "integrate", evaluated)
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
