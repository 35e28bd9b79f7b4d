#!/usr/bin/env python3
"""Cost of one simulator event on the ``particle_chain`` benchmark networks, on
a two-type canonical network and on a three-type network with several
conversion channels per type.

The networks have two types at I = (0, 1), one-output ``UniformKernel``
collisions within and between the types at a constant rate 1 or at
``sum_decay`` (1, 0.5), and constant conversions 1 -> 2 and 2 -> 1 at rate
1 across the gap.  Particles start at the Boltzmann type shares with Exp(1)
energies, the stationary law.  For M in {1 000, 20 000, 100 000} it prints,
each the best of ``--repeat`` runs:

* ``run`` in µs per event, set-up included (``--events`` events, no
  snapshots);
* the engine's construction in ms;
* the event loop split by event kind: the share of conversions and the µs
  per collision and per conversion, each event timed from the draw of its
  first proposal to the end of its application, so thinned collision
  proposals count towards the event that follows them.

The same figures follow for the two-type canonical network of the bundled
``two_type_canonical`` scenario: Gamma(2, 1) and Exp(1) energy laws, a
one-output ``CanonicalKernel`` on each of the channels (1, 1), (1, 2) and
(2, 2) at a constant rate 1, and no conversions, started from those laws
with half the particles of each type.  Every split is a Beta draw, so its
µs per collision is the cost of the canonical path.

Last comes a three-type network whose conversions pick among channels:
types at I = (0, 0.5, 1), ``UniformKernel`` collisions on the channels
(1, 1), (1, 2), (2, 3) and (3, 3) at constant rates, and ``power_gap``
conversions 1 -> 2, 1 -> 3, 2 -> 1, 3 -> 1 and 3 -> 2, so types 1 and 3
each have two conversion channels whose rates depend on the energy.  It
starts from Exp(1) energies with the types in shares 4 : 3 : 2.  Its µs
per conversion is the cost of picking a channel.

The last two rows are the small-M runs of two bundled scenarios, each with
the network and initial state of its ``run``: ``one_type``, the one-type
network of ``exponential_equilibrium`` (a constant rate 1 and a one-output
``UniformKernel``, no conversions) at M = 1 000 from energy 1, and
``unary_only``, the conversion-only network of ``unary_two_type``
(constant conversions 1 <-> 2 at rate 1 across a gap of 1, no collisions)
at M = 2 000.

It also prints the Python and numpy versions.

    PYTHONPATH=src python scripts/event_cost.py --repeat 5 --events 20000
"""

import argparse
import math
import platform
import time
from pathlib import Path

import numpy as np

import enerkin as ek
from enerkin.simulate import _COLLISION, _Engine, _ReadAhead

GAP = 1.0
SIZES = (1000, 20000, 100000)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = (("one_type", "exponential_equilibrium"), ("unary_only", "unary_two_type"))
RATES = (("constant", ek.ConstantRate(1.0)), ("sum_decay", ek.SumDecayRate(1.0, 0.5)))


def chain_network(rate):
    def ch(a, b):
        return ek.BinaryChannel((a, b), rate, ek.UniformKernel([(a, b, 1.0)]))

    return ek.ReactionNetwork(
        ek.TypeTable(np.array([0.0, GAP])),
        [ch(1, 1), ch(1, 2), ch(2, 2)],
        [ek.UnaryChannel(1, 2, ek.ConstantUnaryRate(1.0)),
         ek.UnaryChannel(2, 1, ek.ConstantUnaryRate(1.0))],
    )


def initial_state(m):
    low = round(m / (1.0 + math.exp(-GAP)))  # Boltzmann share of the low type
    return ek.TypeCountsInitial((low, m - low), (ek.Exponential(1.0), ek.Exponential(1.0)))


LAWS = (ek.GammaDensity(2.0, 1.0), ek.Exponential(1.0))


def canonical_network():
    def ch(a, b):
        kernel = ek.CanonicalKernel([(a, b, 1.0)], dict(enumerate(LAWS, 1)))
        return ek.BinaryChannel((a, b), ek.ConstantRate(1.0), kernel)

    return ek.ReactionNetwork(ek.TypeTable(np.array([0.0, 0.0])), [ch(1, 1), ch(1, 2), ch(2, 2)])


def canonical_initial(m):
    return ek.TypeCountsInitial((m // 2, m - m // 2), LAWS)


def power_gap_network():
    tt = ek.TypeTable(np.array([0.0, 0.5, 1.0]))
    outputs = {
        (1, 1): [(1, 1, 1.0), (2, 2, 1.0)],
        (1, 2): [(1, 2, 1.0), (2, 1, 1.0), (3, 1, 0.5), (1, 3, 0.5)],
        (2, 3): [(2, 3, 1.0)],
        (3, 3): [(3, 3, 1.0), (1, 1, 1.0)],
    }
    scale = {(1, 1): 2.0, (1, 2): 0.5, (2, 3): 0.5, (3, 3): 3.0}
    binary = [
        ek.BinaryChannel(p, ek.ConstantRate(c), ek.UniformKernel(outputs[p])) for p, c in scale.items()
    ]
    ie = tt.internal_energies
    unary = [
        ek.UnaryChannel(v, w, ek.PowerGapRate(0.1 + 0.1 * k, 0.5 + 0.25 * k, float(ie[w - 1])))
        for k, (v, w) in enumerate([(1, 2), (1, 3), (2, 1), (3, 1), (3, 2)])
    ]
    return ek.ReactionNetwork(tt, binary, unary)


def power_gap_initial(m):
    counts = (4 * m // 9, 3 * m // 9, m - 4 * m // 9 - 3 * m // 9)
    return ek.TypeCountsInitial(counts, (ek.Exponential(1.0),) * 3)


def rows():
    """(label, network, initial state) of every row measured."""
    for name, rate in RATES:
        for m in SIZES:
            yield name, chain_network(rate), initial_state(m)
    for m in SIZES:
        yield "canonical", canonical_network(), canonical_initial(m)
    for m in SIZES:
        yield "power_gap", power_gap_network(), power_gap_initial(m)
    for label, name in BUNDLED:
        cfg = ek.load_scenario(SCENARIOS / f"{name}.json").simulator_config()
        yield label, cfg.network, cfg.initial_state


def run_us(net, initial, events, seed):
    cfg = ek.SimulatorConfig(net, initial, t_end=1e9, seed=seed, max_events=events)
    t0 = time.perf_counter()
    traj = ek.run(cfg)
    elapsed = time.perf_counter() - t0
    return 1e6 * elapsed / traj.event_count


def construction_ms(net, system):
    t0 = time.perf_counter()
    _Engine(system, net)
    return 1e3 * (time.perf_counter() - t0)


def split_us(net, system, events, seed):
    """(share of conversions, µs per collision, µs per conversion) of one event loop."""
    engine = _Engine(system, net)
    draws = _ReadAhead(np.random.default_rng(seed))
    spent, count = [0.0, 0.0], [0, 0]
    clock = time.perf_counter
    for _ in range(events):
        t0 = clock()
        _, event = engine.next_event(draws)
        engine.apply(event, draws)
        kind = event[0] != _COLLISION
        spent[kind] += clock() - t0
        count[kind] += 1
    per = [1e6 * s / c if c else math.nan for s, c in zip(spent, count)]
    return count[1] / events, per[0], per[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5, help="runs per figure; the best is shown")
    ap.add_argument("--events", type=int, default=20000, help="events per run")
    args = ap.parse_args()
    if args.repeat < 1 or args.events < 1:
        ap.error("--repeat and --events must be at least 1")

    print(f"Python {platform.python_version()}, numpy {np.__version__}")
    print(f"best of {args.repeat}; {args.events} events per run")
    print(f"{'network':<15} {'M':>7} {'run µs/event':>13} {'build ms':>9} "
          f"{'conversions':>12} {'µs/collision':>13} {'µs/conversion':>14}")
    for name, net, initial in rows():
        system = ek.run(ek.SimulatorConfig(net, initial, t_end=0.0, seed=0)).final_state
        run = min(run_us(net, initial, args.events, seed) for seed in range(args.repeat))
        build = min(construction_ms(net, system) for _ in range(args.repeat))
        splits = [split_us(net, system, args.events, seed) for seed in range(args.repeat)]
        share = np.median([s[0] for s in splits])
        coll, conv = (min(s[k] for s in splits) for k in (1, 2))
        print(f"{name:<15} {system.size:>7} {run:>13.2f} {build:>9.2f} "
              f"{share:>12.3f} {coll:>13.2f} {conv:>14.2f}")


if __name__ == "__main__":
    main()
