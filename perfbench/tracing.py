"""Span recording around enerkin's public functions, and the per-layer metrics.

The wrappers live here, outside ``src/enerkin``: ``install`` replaces each
listed function or method with one that records a span (name, start, end,
parent span, command id) and, for some layers, a count taken from the call
(values returned, events attempted).  Spans stay in memory and the child
process writes them out when its command ends.  ``command_sums`` reduces one
command's spans to sums, ``layer_metrics`` turns the sums of a workload's
commands into the per-layer metrics, and ``self_times`` gives each layer's
self time.
"""

import sys
import time
from collections import defaultdict

import numpy as np

# span row layout
NAME, START, END, PARENT, CMD, COUNT, AUX = range(7)

RATE_SPANS = ("reactions.pair_rate", "reactions.unary_rate")
SAMPLE_SPAN = "reactions.sample_outcome"
RHS_PREFIX = "solver.rhs_multitype."
ONE_TYPE_RHS = "solver._gain_1d"

PER_LAYER = (
    ("enerkin.import_s", "s"),
    ("scenario.load_s", "s"),
    ("simulate.run_s", "s"),
    ("simulate.events", "count"),
    ("simulate.us_per_event", "us"),
    ("simulate.engine_us_per_event", "us"),
    ("simulate.noop_events", "count"),
    ("reactions.rate_evals_per_event", "count"),
    ("reactions.rate_s", "s"),
    ("reactions.sample_outcome_us", "us"),
    ("solver.integrate_s", "s"),
    ("solver.rhs_calls", "count"),
    ("solver.rhs_ms.canonical", "ms"),
    ("solver.rhs_ms.uniform", "ms"),
    ("solver.step_overhead_ms", "ms"),
    ("solver.grids_built_per_step", "count"),
    ("densities.pdf_evals_per_rhs", "count"),
    ("equilibrium.check_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.wall_s", "s"),
)


class Recorder:
    """In-memory span list of one command."""

    def __init__(self, command_id):
        self.command_id = command_id
        self.spans = []
        self._stack = []

    def record(self, name, start, end):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.command_id, 0, 0])

    def wrap(self, fn, name, count=None):
        spans, stack, cmd, clock = self.spans, self._stack, self.command_id, time.monotonic

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            row = [label, 0.0, 0.0, stack[-1] if stack else -1, cmd, 0, 0]
            stack.append(len(spans))
            spans.append(row)
            row[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[END] = clock()
                stack.pop()
            if count is not None:
                row[COUNT], row[AUX] = count(out, args)
            return out

        wrapper.__wrapped__ = fn
        return wrapper


def _n_values(out, args):
    return int(np.size(out)), 0


def _events(traj, args):
    return int(traj.event_count), int(traj.noop_events)


def _stages(out, args):
    return 0, 4 if args[1].scheme == "rk4" else 1


def _rhs_name(args):
    kinds = {ch.kernel.kind for ch in args[1].binary}
    kind = "canonical" if "canonical" in kinds else "uniform" if kinds == {"uniform"} else "other"
    return RHS_PREFIX + kind


def install(rec, enerkin):
    """Wrap the layer boundaries of an imported enerkin package."""
    from enerkin import densities, equilibrium, reactions, scenario, simulate, solver

    bound = [m for n, m in sys.modules.items() if n == "enerkin" or n.startswith("enerkin.")]

    def function(module, attr, name=None, count=None):
        orig = getattr(module, attr)
        wrapped = rec.wrap(orig, name or f"{module.__name__.split('.')[-1]}.{attr}", count)
        # ``from .x import f`` made copies of the binding; replace every one
        for m in bound:
            if getattr(m, attr, None) is orig:
                setattr(m, attr, wrapped)

    def method(cls, attr, name, count=None):
        setattr(cls, attr, rec.wrap(cls.__dict__[attr], name, count))

    function(scenario, "load_scenario")
    method(scenario.Scenario, "simulator_config", "scenario.simulator_config")
    method(scenario.Scenario, "solver_setup", "scenario.solver_setup")

    function(simulate, "run", count=_events)
    function(simulate, "run_ensemble")
    function(simulate, "empirical_histogram")

    net = reactions.ReactionNetwork
    method(net, "pair_rate", "reactions.pair_rate", _n_values)
    method(net, "unary_rate", "reactions.unary_rate", _n_values)
    method(net, "validate_rate_symmetry", "reactions.validate_rate_symmetry")
    method(reactions.ScatteringKernel, "sample_outcome", SAMPLE_SPAN)
    method(reactions.ScatteringKernel, "check_normalization", "reactions.check_normalization")

    for cls in (
        densities.Exponential,
        densities.GammaDensity,
        densities.ShiftedGamma,
        densities.UniformDensity,
        densities.Shifted,
        densities.Tabulated,
    ):
        for attr, count in (("pdf", _n_values), ("cdf", None), ("sample", None)):
            if attr in cls.__dict__:
                method(cls, attr, f"densities.{attr}", count)

    function(solver, "integrate", count=_stages)
    function(solver, "rhs_multitype", name=_rhs_name)
    function(solver, "rhs_one_type")
    # the one-type right-hand side inside integrate has no public entry point
    function(solver, "_gain_1d")
    method(solver.DensityGrid, "__post_init__", "solver.DensityGrid")

    for attr in equilibrium.__all__:
        obj = getattr(equilibrium, attr)
        if callable(obj) and not isinstance(obj, type):
            function(equilibrium, attr)

    function(enerkin.cli, "_write_csv", name="cli.write_csv")


# ---------------------------------------------------------------------------
# derivation (parent side)
# ---------------------------------------------------------------------------


def _ancestors(spans, i):
    p = spans[i][PARENT]
    while p >= 0:
        yield spans[p]
        p = spans[p][PARENT]


def _dur(row):
    return row[END] - row[START]


def _outermost(spans, i, names):
    """True when no ancestor of span i has a name in ``names``."""
    return not _inside(spans, i, names.__contains__)


def _inside(spans, i, pred):
    return any(pred(a[NAME]) for a in _ancestors(spans, i))


def command_sums(spans):
    """Raw sums over one command's spans."""
    acc = defaultdict(float)
    kernel_or_rate = set(RATE_SPANS) | {SAMPLE_SPAN}
    in_run = lambda n: n == "simulate.run"  # noqa: E731
    is_rhs = lambda n: n.startswith(RHS_PREFIX) or n == ONE_TYPE_RHS  # noqa: E731
    is_eq = lambda n: n.startswith("equilibrium.")  # noqa: E731
    for i, row in enumerate(spans):
        name, d = row[NAME], _dur(row)
        if name == "enerkin.import":
            acc["import_s"] += d
        elif name == "scenario.load_scenario":
            acc["load_s"] += d
        elif name == "simulate.run":
            acc["run_s"] += d
            acc["events"] += row[COUNT]
            acc["noops"] += row[AUX]
        elif name in RATE_SPANS:
            outer = _outermost(spans, i, kernel_or_rate)
            if outer:
                acc["rate_s"] += d
            if _inside(spans, i, in_run):
                acc["rate_evals_in_run"] += row[COUNT]
                if outer:
                    acc["run_kernel_rate_s"] += d
        elif name == SAMPLE_SPAN:
            acc["sample_calls"] += 1
            acc["sample_s"] += d
            if _outermost(spans, i, kernel_or_rate) and _inside(spans, i, in_run):
                acc["run_kernel_rate_s"] += d
        elif name == "solver.integrate":
            acc["integrate_s"] += d
        elif name == "solver.DensityGrid" and _inside(spans, i, lambda n: n == "solver.integrate"):
            acc["grids_in_integrate"] += 1
        elif name == "densities.pdf" and _inside(spans, i, lambda n: n.startswith(RHS_PREFIX)):
            acc["pdf_evals_in_rhs"] += row[COUNT]
        if is_rhs(name) and not _inside(spans, i, is_rhs):
            integ = next((a for a in _ancestors(spans, i) if a[NAME] == "solver.integrate"), None)
            if integ is not None:
                acc["rhs_calls"] += 1
                acc["rhs_in_integrate_s"] += d
                acc["steps"] += 1.0 / integ[AUX]
        if name.startswith(RHS_PREFIX):
            kind = name[len(RHS_PREFIX):]
            acc[f"rhs_{kind}_calls"] += 1
            acc[f"rhs_{kind}_s"] += d
            acc["rhs_multitype_calls"] += 1
        if is_eq(name) and not _inside(spans, i, is_eq):
            acc["check_s"] += d
    return acc


def _ratio(a, b, scale=1.0):
    return a / b * scale if b else 0.0


def layer_metrics(sums, bytes_written, wall_s):
    """Per-layer metrics from the ``command_sums`` added up over a workload's commands."""
    s = defaultdict(float, sums)
    steps = s["steps"]
    return {
        "enerkin.import_s": s["import_s"],
        "scenario.load_s": s["load_s"],
        "simulate.run_s": s["run_s"],
        "simulate.events": s["events"],
        "simulate.us_per_event": _ratio(s["run_s"], s["events"], 1e6),
        "simulate.engine_us_per_event": _ratio(s["run_s"] - s["run_kernel_rate_s"], s["events"], 1e6),
        "simulate.noop_events": s["noops"],
        "reactions.rate_evals_per_event": _ratio(s["rate_evals_in_run"], s["events"]),
        "reactions.rate_s": s["rate_s"],
        "reactions.sample_outcome_us": _ratio(s["sample_s"], s["sample_calls"], 1e6),
        "solver.integrate_s": s["integrate_s"],
        "solver.rhs_calls": s["rhs_calls"],
        "solver.rhs_ms.canonical": _ratio(s["rhs_canonical_s"], s["rhs_canonical_calls"], 1e3),
        "solver.rhs_ms.uniform": _ratio(s["rhs_uniform_s"], s["rhs_uniform_calls"], 1e3),
        "solver.step_overhead_ms": _ratio(s["integrate_s"] - s["rhs_in_integrate_s"], steps, 1e3),
        "solver.grids_built_per_step": _ratio(s["grids_in_integrate"], steps),
        "densities.pdf_evals_per_rhs": _ratio(s["pdf_evals_in_rhs"], s["rhs_multitype_calls"]),
        "equilibrium.check_s": s["check_s"],
        "cli.bytes_written": float(bytes_written),
        "trace.wall_s": wall_s,
    }


def self_times(spans):
    """Self time per layer (module prefix of the span name) of one command."""
    child = [0.0] * len(spans)
    for row in spans:
        if row[PARENT] >= 0:
            child[row[PARENT]] += _dur(row)
    out = defaultdict(float)
    for i, row in enumerate(spans):
        out[row[NAME].split(".")[0]] += _dur(row) - child[i]
    return dict(out)
