"""Correctness checks on the CSV and JSON files that enerkin writes.

Every check compares against a computation made here with numpy/scipy or
against a property the method must have; none compares against a stored copy
of earlier output.  Each function returns a list of failure messages (empty
when the output is correct).
"""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
from scipy import stats

# Relative tolerance on particle count and total (internal + kinetic) energy:
# every event conserves both, so only float rounding is allowed.
PARTICLE_CONSERVATION_RTOL = 1e-9
# Grid mass may leak only through the convolution tail past x_max, which is
# below 1e-7 for every grid here (densities ~ exp(-x), x_max = 20).
GRID_MASS_RTOL = 1e-6
# Without internal-energy gaps the operator conserves energy exactly.  Across a
# gap the available energy of a uniform split is off the grid, and its deposit
# is mass-exact but energy-exact only to the midpoint rule in the boundary
# cell: the drift measured here is 2.7e-5 per unit time at h = 0.05.
GRID_ENERGY_RTOL = 1e-9
GRID_ENERGY_RTOL_GAP = 1e-4
# Standard deviations allowed between type counts and their Boltzmann weights.
TYPE_FRACTION_SDS = 5.0
# p-value below which a KS test against Exp(1) rejects the stationary law.
KS_MIN_PVALUE = 1e-6
# A relative entropy may rise by this much between snapshots (float rounding).
ENTROPY_SLACK = 1e-9
# Max-norm distance allowed between a solve and the dt = 0.01 reference; the
# RK4 error at dt = 0.25 on the same grid is 3e-6.
FINE_SOLVE_ATOL = 1e-4


def read_csv(path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a header-only file is an empty table
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def csv_digest(out_dir):
    """SHA-256 over every CSV file of a command's output, in name order."""
    h = hashlib.sha256()
    for p in sorted(Path(out_dir).rglob("*.csv")):
        h.update(p.relative_to(out_dir).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# particle snapshots
# ---------------------------------------------------------------------------


def particle_snapshots(out_dir, internal, n_snapshots, total=None, type_counts=None,
                       total_kinetic=None):
    """Count and energy conservation across ``snapshot_KKK.csv`` of one run."""
    errs = []
    paths = sorted(Path(out_dir).glob("snapshot_*.csv"))
    if len(paths) != n_snapshots:
        return [f"{out_dir}: {len(paths)} snapshots, expected {n_snapshots}"]
    ie = np.asarray(internal, dtype=float)
    ref = None
    for p in paths:
        a = read_csv(p)
        tid, kin = a[:, 0].astype(int), a[:, 1]
        if np.any(tid < 1) or np.any(tid > ie.size):
            errs.append(f"{p.name}: type id outside 1..{ie.size}")
            continue
        if not np.all(np.isfinite(kin)) or np.any(kin < 0):
            errs.append(f"{p.name}: kinetic energies must be finite and >= 0")
        energy = math.fsum(kin) + math.fsum(ie[tid - 1])
        if total is not None and tid.size != total:
            errs.append(f"{p.name}: {tid.size} particles, expected {total}")
        if type_counts is not None and list(np.bincount(tid, minlength=ie.size + 1)[1:]) != list(type_counts):
            errs.append(f"{p.name}: type counts differ from the conserved {type_counts}")
        if total_kinetic is not None and not _close(math.fsum(kin), total_kinetic, PARTICLE_CONSERVATION_RTOL):
            errs.append(f"{p.name}: total kinetic energy {math.fsum(kin)!r}, expected {total_kinetic}")
        if ref is None:
            ref = (tid.size, energy)
        elif tid.size != ref[0] or not _close(energy, ref[1], PARTICLE_CONSERVATION_RTOL):
            errs.append(
                f"{p.name}: (count, energy) = ({tid.size}, {energy!r}) differs from "
                f"the first snapshot's {ref}"
            )
    return errs


def histogram_mass(out_dir):
    """Per-snapshot histogram densities integrate to at most 1 (all types together)."""
    a = read_csv(Path(out_dir) / "histograms.csv")
    errs = []
    if a.size == 0:
        return errs
    for k in np.unique(a[:, 0]):
        rows = a[a[:, 0] == k]
        total = float(np.sum(rows[:, 5] * (rows[:, 4] - rows[:, 3])))
        if not (0.0 <= total <= 1.0 + 1e-9):
            errs.append(f"histograms.csv snapshot {int(k)}: mass {total}")
    return errs


def stationary_law(out_dir, probabilities):
    """Type fractions near the Boltzmann weights and Exp(1) energies (scipy KS)."""
    errs = []
    p = np.asarray(probabilities, dtype=float)
    for path in sorted(Path(out_dir).glob("snapshot_*.csv")):
        a = read_csv(path)
        tid, kin = a[:, 0].astype(int), a[:, 1]
        m = tid.size
        counts = np.bincount(tid, minlength=p.size + 1)[1:]
        sd = np.sqrt(m * p * (1.0 - p))
        z = np.abs(counts - m * p) / sd
        if np.any(z > TYPE_FRACTION_SDS):
            errs.append(f"{path.name}: type counts {counts.tolist()} are {z.max():.1f} sd from Boltzmann")
        for v in range(1, p.size + 1):
            res = stats.kstest(kin[tid == v], "expon")
            if res.pvalue < KS_MIN_PVALUE:
                errs.append(f"{path.name}: type {v} energies reject Exp(1), KS p = {res.pvalue:.2e}")
    return errs


def ks_table(out_dir, times, n_types, total):
    """``analyze`` KS rows: one per (time, type), samples adding up to the count."""
    a = read_csv(Path(out_dir) / "ks.csv")
    errs = []
    if a.size == 0:
        return [] if not times else [f"ks.csv: no rows for times {times}"]
    if sorted(set(a[:, 0].tolist())) != sorted(times):
        errs.append(f"ks.csv: times {sorted(set(a[:, 0].tolist()))}, expected {times}")
    for t in times:
        rows = a[a[:, 0] == t]
        if int(rows[:, 2].sum()) != total or rows.shape[0] > n_types:
            errs.append(f"ks.csv t={t}: {int(rows[:, 2].sum())} samples, expected {total}")
        # one-sample KS critical value at level 1e-6: sqrt(-ln(5e-7) / 2) / sqrt(n)
        crit = math.sqrt(-math.log(5e-7) / 2.0) / np.sqrt(rows[:, 2])
        if np.any(rows[:, 3] > crit):
            errs.append(f"ks.csv t={t}: distance {rows[:, 3].max():.4f} above {crit.min():.4f}")
    return errs


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def read_grids(out_dir):
    """[(time, x_centers, values (V, n))] for every ``grid_KKK.csv`` of a solve."""
    times = read_csv(Path(out_dir) / "times.csv")
    out = []
    for k, t in times:
        a = read_csv(Path(out_dir) / f"grid_{int(k):03d}.csv")
        tid = a[:, 0].astype(int)
        n_types = int(tid.max())
        x = a[tid == 1, 1]
        vals = np.stack([a[tid == v, 2] for v in range(1, n_types + 1)])
        out.append((float(t), x, vals))
    return out


def grid_moments(x, vals, internal):
    h = x[1] - x[0]
    mass = vals.sum() * h
    energy = sum(float(np.sum((internal[v] + x) * vals[v])) for v in range(vals.shape[0])) * h
    return float(mass), float(energy)


def grid_labels(grids, requested):
    """Snapshot labels equal the requested times, to the solver's 1e-9 time tolerance."""
    got = [t for t, _, _ in grids]
    if len(got) != len(requested) or not np.allclose(got, requested, rtol=0.0, atol=1e-9):
        return [f"snapshot labels {got}, requested {list(requested)}"]
    return []


def grid_conservation(grids, internal, mean_energy=None):
    """Mass and total energy of every snapshot equal the first snapshot's."""
    errs = []
    energy_rtol = GRID_ENERGY_RTOL_GAP if any(internal) else GRID_ENERGY_RTOL
    m0, e0 = grid_moments(grids[0][1], grids[0][2], internal)
    if mean_energy is not None and not _close(e0 / m0, mean_energy, 1e-9):
        errs.append(f"initial mean energy {e0 / m0!r}, expected {mean_energy}")
    for t, x, vals in grids[1:]:
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            errs.append(f"t={t}: densities must be finite and >= 0")
        m, e = grid_moments(x, vals, internal)
        if not _close(m, m0, GRID_MASS_RTOL):
            errs.append(f"t={t}: mass {m!r} differs from {m0!r} by {abs(m - m0) / m0:.2e} (relative)")
        if not _close(e, e0, energy_rtol):
            errs.append(f"t={t}: energy {e!r} differs from {e0!r} by {abs(e - e0) / e0:.2e} (relative)")
    return errs


def product_equilibrium_kl(grids, nus):
    """KL divergence of each snapshot from the product Gamma(nu_v, beta) law.

    Types are conserved (kinetic-only exchange), so the equilibrium keeps each
    type's initial mass m_v, and beta follows from the conserved kinetic
    energy: E = sum_v m_v nu_v / beta.
    """
    _, x, vals0 = grids[0]
    h = x[1] - x[0]
    masses = vals0.sum(axis=1) * h
    energy = float(np.sum(x * vals0) * h)
    beta = float(np.dot(masses, nus)) / energy
    ref = np.stack([m * stats.gamma.pdf(x, nu, scale=1.0 / beta) for m, nu in zip(masses, nus)])
    out = []
    for _, _, vals in grids:
        pos = vals > 0
        out.append(float(np.sum(vals[pos] * np.log(vals[pos] / ref[pos])) * h))
    return out


def relaxation(kls):
    """Relative entropy never rises and ends below where it started."""
    errs = []
    rises = np.diff(kls)
    if np.any(rises > ENTROPY_SLACK):
        errs.append(f"relative entropy rises by {rises.max():.2e} between snapshots: {kls}")
    if not kls[-1] < kls[0]:
        errs.append(f"final relative entropy {kls[-1]!r} not below initial {kls[0]!r}")
    return errs


def analyze_entropy(out_dir, times, kls):
    """``analyze``'s entropy.csv is -KL against the reference, at the solve times."""
    a = read_csv(Path(out_dir) / "entropy.csv")
    errs = []
    if a.shape[0] != len(times) or not np.allclose(a[:, 0], times, rtol=0.0, atol=1e-9):
        errs.append(f"entropy.csv times {a[:, 0].tolist()}, expected {list(times)}")
    elif not np.allclose(-a[:, 1], kls, rtol=1e-6, atol=1e-9):
        errs.append("entropy.csv differs from the relative entropy computed from the solve")
    return errs


def fine_solve_match(grids, fine_grids):
    errs = []
    for (t, _, vals), (tf, _, fine) in zip(grids, fine_grids):
        d = float(np.max(np.abs(vals - fine)))
        if d > FINE_SOLVE_ATOL:
            errs.append(f"state labelled t={t} is {d:.3e} (max-norm) from the dt=0.01 solve at t={tf}")
    return errs


def check_report(out_dir):
    path = Path(out_dir) / "report.json"
    if not path.exists():
        return ["report.json missing"]
    report = json.loads(path.read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    return [f"checks failed: {failed}"] if failed or not report["passed"] else []
