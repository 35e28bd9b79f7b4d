"""Acceptance suite: every top-level correctness claim at its stated tolerance.

Each test prints one `criterion NN ... : PASS/FAIL` line (run with -s to see
them inline).  Statistical criteria run at fixed seeds; the simulator's
determinism contract makes them reproducible.
"""

import time

import numpy as np
import pytest

import enerkin as ek
from conftest import pair_reaction_network, uniform_net


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def one_type_net():
    return uniform_net()


@pytest.fixture(scope="module")
def relaxation_run():
    """Criterion-2 configuration: one-type solver from a flat start."""
    grid0 = ek.DensityGrid.from_families([ek.UniformDensity(0.0, 2.0)], 20.0, 2000)
    cfg = ek.SolverConfig(
        dt=0.01,
        t_end=20.0,
        scheme="rk4",
        network=uniform_net(),
        snapshot_times=tuple(np.round(np.arange(0.0, 20.0 + 1e-9, 0.5), 10)),
    )
    start = time.perf_counter()
    snaps = ek.integrate(grid0, cfg)
    elapsed = time.perf_counter() - start
    return snaps, elapsed


def test_criterion_01_one_type_chain_reaches_exponential_equilibrium(one_type_net):
    # M = 1000, unit rate, uniform split, all energies 1 (mean 1 => unit-rate
    # exponential target); pool kinetic energies at t in {30, 40, 50}
    cfg = ek.SimulatorConfig(
        network=one_type_net,
        initial_state=ek.TypeCountsInitial(counts=(1000,), energies=(1.0,)),
        t_end=50.0,
        snapshot_times=(30.0, 40.0, 50.0),
        seed=20260808,
        histogram_edges=np.linspace(0.0, 8.0, 21),
    )
    start = time.perf_counter()
    traj = ek.run(cfg)
    elapsed = time.perf_counter() - start
    pooled = np.concatenate([s.state.kinetic_energies for s in traj.snapshots])
    d = ek.ks_distance(pooled, ek.Exponential(1.0).cdf)
    ok = d < 0.06 and elapsed < 30.0
    report("01 equilibrium of the particle chain", ok, f"KS={d:.4f} (<0.06), {elapsed:.1f}s (<30s)")
    assert d < 0.06
    assert elapsed < 30.0


def test_criterion_02_solver_converges_to_exponential(relaxation_run):
    snaps, elapsed = relaxation_run
    t_end, grid = snaps[-1]
    assert t_end == pytest.approx(20.0)
    err = float(np.max(np.abs(grid.values[0] - np.exp(-grid.centers))))
    ok = err < 1e-2 and elapsed < 60.0
    report("02 solver convergence", ok, f"max-norm={err:.2e} (<1e-2), {elapsed:.1f}s (<60s)")
    assert err < 1e-2
    assert elapsed < 60.0


def test_criterion_03_entropy_monotone_along_relaxation(relaxation_run):
    snaps, _ = relaxation_run
    f0 = ek.TypedDensity((ek.Exponential(1.0),), (1.0,))
    res = ek.entropy_monotonicity_check(snaps, f0, tol=1e-6)
    terminal = abs(res.entropies[-1])
    ok = res.passed and terminal < 1e-3
    report(
        "03 entropy monotonicity",
        ok,
        f"min step {res.min_delta:.2e} (>=-1e-6), terminal |H|={terminal:.2e} (<1e-3)",
    )
    assert res.passed
    assert terminal < 1e-3


def test_criterion_04_stationary_profile_residual_and_refinement():
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        x_max = min(40.0, 80.0 / beta)
        grid = ek.DensityGrid(x_max, np.zeros((1, 4000)))
        grid.values[0] = ek.Exponential(beta).pdf(grid.centers)
        res = float(np.max(np.abs(ek.rhs_one_type(grid, 1.0))))
        worst = max(worst, res)
    # refinement: halving h must at least halve the residual
    res_by_n = {}
    for n in (2000, 4000):
        grid = ek.DensityGrid(40.0, np.zeros((1, n)))
        grid.values[0] = ek.Exponential(1.0).pdf(grid.centers)
        res_by_n[n] = float(np.max(np.abs(ek.rhs_one_type(grid, 1.0))))
    ratio = res_by_n[4000] / res_by_n[2000]
    ok = worst < 1e-3 and ratio <= 0.6
    report(
        "04 stationary profile residual",
        ok,
        f"worst={worst:.2e} (<1e-3), refinement ratio={ratio:.3f} (<=0.6)",
    )
    assert worst < 1e-3
    assert ratio <= 0.6


def test_criterion_05_two_particle_first_jump_is_uniform(one_type_net):
    # at total energy 1 the first jump already samples the stationary split
    rng = np.random.default_rng(505)
    sys0 = ek.ParticleSystem(np.array([1, 1]), np.array([0.3, 0.7]))
    outs = np.empty(10_000)
    for k in range(10_000):
        _, ev = ek.sample_next_event(sys0, one_type_net, rng)
        new, applied = ek.execute_event(sys0, ev, one_type_net, rng)
        assert applied
        outs[k] = new.kinetic_energies[ev.i]
    d = ek.ks_distance(outs, lambda x: np.clip(x, 0.0, 1.0))
    crit = 1.36 / np.sqrt(10_000)
    ok = d < crit
    report("05 first-jump stationarity", ok, f"KS={d:.4f} (<{crit:.4f})")
    assert d < crit


def test_criterion_06_product_measure_invariance(one_type_net):
    # 50 unit-rate-exponential particles stay exponential after 1e4 events
    cfg = ek.SimulatorConfig(
        network=one_type_net,
        initial_state=ek.TypeCountsInitial(counts=(50,), energies=(ek.Exponential(1.0),)),
        t_end=1e9,
        max_events=10_000,
        seed=17,
        replicas=20,
    )
    trajs = ek.run_ensemble(cfg)
    pooled = np.concatenate([t.final_state.kinetic_energies for t in trajs])
    d = ek.ks_distance(pooled, ek.Exponential(1.0).cdf)
    ok = d < 0.05
    report("06 product-measure invariance", ok, f"KS={d:.4f} (<0.05, n={pooled.size})")
    assert d < 0.05


def test_criterion_07_detailed_balance_chain(one_type_net):
    w = ek.CollisionRateDensity(one_type_net)
    worst_db = 0.0
    for beta in (0.5, 1.0, 2.0):
        f0 = ek.TypedDensity((ek.Exponential(beta),), (1.0,))
        quads = ek.sample_conserving_quadruples(
            one_type_net, 1000, seed=7, energy_scale=1.0 / beta
        )
        rep = ek.detailed_balance_residual(w, f0, quads)
        assert rep.n_evaluated >= 1000
        worst_db = max(worst_db, rep.max_residual)
    f0 = ek.TypedDensity((ek.Exponential(1.0),), (1.0,))
    quads = ek.sample_conserving_quadruples(one_type_net, 200, seed=7)
    le = ek.local_equilibrium_residual(w, f0, [(q[0], q[1]) for q in quads]).max_residual
    fp = ek.fixed_point_residual(w, f0, [q[0] for q in quads[:24]]).max_residual
    ok = worst_db < 1e-12 and le < 1e-8 and fp < 1e-8
    report(
        "07 balance-condition chain",
        ok,
        f"DB={worst_db:.1e} (<1e-12), LE={le:.1e} (<1e-8), FP={fp:.1e} (<1e-8)",
    )
    assert worst_db < 1e-12
    assert le < 1e-8
    assert fp < 1e-8


def test_criterion_08_canonical_kernel_invariance():
    tt = ek.TypeTable(np.array([0.0, 0.0]))
    dens = {1: ek.GammaDensity(2.0, 1.0), 2: ek.Exponential(1.0)}

    def ch(pair, outs):
        return ek.BinaryChannel(pair, ek.ConstantRate(1.0), ek.CanonicalKernel(outs, dens))

    net = ek.ReactionNetwork(
        tt, [ch((1, 1), [(1, 1, 1.0)]), ch((1, 2), [(1, 2, 1.0)]), ch((2, 2), [(2, 2, 1.0)])]
    )
    cfg = ek.SimulatorConfig(
        network=net,
        initial_state=ek.TypeCountsInitial(
            counts=(300, 300), energies=(ek.GammaDensity(2.0, 1.0), ek.Exponential(1.0))
        ),
        t_end=1e9,
        max_events=10_000,
        seed=2,
    )
    traj = ek.run(cfg)
    st = traj.final_state
    assert st.type_counts(2).tolist() == [300, 300]
    d1 = ek.ks_distance(st.kinetic_energies[st.type_ids == 1], ek.GammaDensity(2.0, 1.0).cdf)
    d2 = ek.ks_distance(st.kinetic_energies[st.type_ids == 2], ek.Exponential(1.0).cdf)
    ok = d1 < 0.07 and d2 < 0.07
    report("08 canonical-kernel invariance", ok, f"KS=({d1:.4f}, {d2:.4f}) (<0.07)")
    assert d1 < 0.07
    assert d2 < 0.07


def test_criterion_09_unary_stationary_laws():
    # (a) the network's product-form weights matched by simulated occupancy
    tt = ek.TypeTable(np.array([0.0, 1.0]))
    net = ek.ReactionNetwork(
        tt,
        unary=[
            ek.UnaryChannel(1, 2, ek.ConstantUnaryRate(1.0)),
            ek.UnaryChannel(2, 1, ek.ConstantUnaryRate(1.0)),
        ],
    )
    measure = ek.product_form_measure(net, 1.0, n_check=1000)
    pi1, pi2 = measure.weights
    m = 2000
    cfg = ek.SimulatorConfig(
        network=net,
        initial_state=ek.MixtureInitial(m, (pi1, pi2), (ek.Exponential(1.0), ek.Exponential(1.0))),
        t_end=20.0,
        seed=909,
    )
    traj = ek.run(cfg)
    frac1 = traj.final_state.type_counts(2)[0] / m
    sigma = np.sqrt(pi1 * pi2 / m)
    z = abs(frac1 - pi1) / sigma
    # (b) the network's product-form measure balances pointwise (1000 energies)
    res_b = ek.product_form_residual(net, measure.weights, 1.0, n_check=1000)
    # (c) the product-form measure of a pair reaction, (1, 1) <-> (2, 2) across a unit
    # gap with Gamma(1/2) laws, balances pointwise (1000 energies)
    pair_net = pair_reaction_network("A")
    pair_measure = ek.product_form_measure(pair_net, 1.0, n_check=1000)
    res_c = ek.product_form_residual(pair_net, pair_measure.weights, 1.0, n_check=1000)
    ok = z <= 3.0 and res_b < 1e-10 and res_c < 1e-10
    report(
        "09 stationary type laws",
        ok,
        f"occupancy |z|={z:.2f} (<=3), balance residuals {res_b:.1e}, {res_c:.1e} (<1e-10)",
    )
    assert z <= 3.0
    assert res_b < 1e-10
    assert res_c < 1e-10


def test_criterion_10_cycle_reversibility_detection():
    rng = np.random.default_rng(1)
    p = rng.uniform(0.5, 2.0, 4)
    c = rng.uniform(0.5, 2.0, (4, 4))
    c = (c + c.T) / 2
    balanced = c / p[:, None]
    np.fill_diagonal(balanced, 0.0)
    res_ok = ek.kolmogorov_cycle_check(ek.DiscreteChainSpec(balanced))
    planted = np.array([[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    res_bad = ek.kolmogorov_cycle_check(ek.DiscreteChainSpec(planted))
    ratio_ok = res_bad.worst_ratio == pytest.approx(2.0)
    ok = res_ok.passed and not res_bad.passed and ratio_ok
    report(
        "10 cycle reversibility",
        ok,
        f"balanced chain passed={res_ok.passed}, planted ratio={res_bad.worst_ratio:.3f} (=2.0)",
    )
    assert res_ok.passed
    assert not res_bad.passed
    assert ratio_ok


def test_criterion_11_simulator_matches_solver(one_type_net):
    m, replicas = 4000, 8
    edges = np.linspace(0.0, 8.0, 21)
    start = time.perf_counter()
    cfg = ek.SimulatorConfig(
        network=one_type_net,
        initial_state=ek.TypeCountsInitial(counts=(m,), energies=(ek.UniformDensity(0.0, 2.0),)),
        t_end=5.0,
        snapshot_times=(1.0, 5.0),
        seed=7,
        replicas=replicas,
        histogram_edges=edges,
    )
    trajs = ek.run_ensemble(cfg)
    grid0 = ek.DensityGrid.from_families([ek.UniformDensity(0.0, 2.0)], 20.0, 2000)
    scfg = ek.SolverConfig(
        dt=0.01, t_end=5.0, scheme="rk4", network=one_type_net, snapshot_times=(1.0, 5.0)
    )
    snaps = ek.integrate(grid0, scfg)
    elapsed = time.perf_counter() - start
    worst_z = 0.0
    for si, (t, grid) in enumerate(snaps):
        cells_per_bin = int(round((edges[1] - edges[0]) / grid.h))
        dens = grid.values[0]
        p_bin = np.array(
            [
                dens[b * cells_per_bin : (b + 1) * cells_per_bin].sum() * grid.h
                for b in range(edges.size - 1)
            ]
        )
        counts = np.zeros(edges.size - 1)
        for traj in trajs:
            st = traj.snapshots[si].state
            hist, _ = np.histogram(st.kinetic_energies, bins=edges)
            counts += hist
        n_total = m * replicas
        p_hat = counts / n_total
        sigma = np.sqrt(p_bin * (1.0 - p_bin) / n_total)
        z = np.max(np.abs(p_hat - p_bin) / np.maximum(sigma, 1e-12))
        worst_z = max(worst_z, float(z))
    ok = worst_z <= 3.0 and elapsed < 300.0
    report(
        "11 simulator/solver agreement",
        ok,
        f"worst bin |z|={worst_z:.2f} (<=3), {elapsed:.0f}s (<300s)",
    )
    assert worst_z <= 3.0
    assert elapsed < 300.0
