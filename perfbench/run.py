"""enerkin benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload cli_bundled --seed 1 --seconds 30 --trace 0

Run from the root of an enerkin checkout.  Each operation is one ``enerkin``
CLI command in a fresh interpreter (``perfbench/child.py``), one at a time,
with ``ENERKIN_THREADS`` unset, followed by the checks of what it wrote.  A
run repeats whole rounds of its workload's operations with the same seed
while another round fits in ``--seconds`` (at least the workload's minimum).
Each command's figures are its median over rounds and over the repeats of
it within a round; a workload's metric adds these up over its commands.
Timings are in seconds of an uncontended core: each phase of a command is
scaled by the core's speed during that phase, which the command's speed
probe measured (``child.SpeedProbe``, ``reference_seconds``).  The info line
and ``result.json`` keep the figures as measured.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
records the seed, the machine and the library versions.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import csv_digest  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("compute_s", "s"),
    ("output_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
# a command that runs longer than this is killed and counted as failed
COMMAND_TIMEOUT_S = 150.0
# Duration of one speed-probe sample on an uncontended core of the machine
# of the README's reference figures: a phase that measured t seconds with
# probe samples of mean duration d is reported as t * PROBE_REF_S / d.
PROBE_REF_S = 300e-6
TIME_UNITS = ("s", "ms", "us")


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env(root):
    """The environment of every command: the checkout's ``src`` first,
    ``ENERKIN_THREADS`` unset, and one BLAS/OpenMP thread.

    numpy and scipy each load an OpenBLAS that starts a worker thread per
    core at import; on 2 vCPUs those threads spin beside the command's own
    and made ``import enerkin`` take 1.3-2.4 s by how the scheduler placed
    them.  enerkin's own work is single-threaded at its default.
    """
    env = dict(os.environ)
    env.pop("ENERKIN_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def warm_up(root):
    """Import enerkin once, untimed, so that no timed command pays for writing
    its bytecode cache or for reading a cold page cache."""
    subprocess.run([sys.executable, "-c", "import enerkin.cli"], cwd=root, env=child_env(root),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=COMMAND_TIMEOUT_S,
                   check=False)


def reference_seconds(measured, probe):
    """Scale one command's phase times to an uncontended core.

    ``probe`` holds, per phase, the number of speed-probe samples, their
    total duration and their clipped total (``child.PROBE_CLIP_S``).  The
    samples' own time is taken out of the phase; the rest is divided by the
    phase's mean slowness (mean clipped sample duration over PROBE_REF_S).
    A phase too short to hold a sample takes the command's mean slowness, and
    so does ``wall_s``.  Returns the scaled times and the command's speed
    (PROBE_REF_S over its mean clipped sample).
    """
    n_all = sum(n for n, _, _ in probe.values())
    t_all = sum(t for _, t, _ in probe.values())
    mean_all = sum(c for _, _, c in probe.values()) / n_all if n_all else PROBE_REF_S
    out = {}
    for phase in ("setup", "compute", "output"):
        n, t, c = probe[phase]
        out[f"{phase}_s"] = (measured[f"{phase}_s"] - t) * PROBE_REF_S / (c / n if n else mean_all)
    out["wall_s"] = (measured["wall_s"] - t_all) * PROBE_REF_S / mean_all
    return out, PROBE_REF_S / mean_all


def run_command(root, op, out_dir, report, trace, cmd_id):
    """Run one CLI command; returns (measurement dict, failure message or None)."""
    argv = [sys.executable, str(HERE / "child.py"), str(report), "1" if trace else "0", cmd_id,
            "--", op.command, "--scenario", str(op.scenario), "--out", str(out_dir)]
    if op.seed is not None:
        argv += ["--seed", str(op.seed)]
    env = child_env(root)
    with open(report.with_suffix(".stderr"), "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t_done = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not report.exists():
        tail = report.with_suffix(".stderr").read_text(errors="replace")[-400:]
        return None, f"child exited {proc.returncode}: {tail}"
    rep = json.loads(report.read_text())
    start = rep["first_compute"] if rep["first_compute"] is not None else rep["main_end"]
    measured = {
        "setup_s": start - t_spawn,
        "compute_s": rep["compute_s"],
        "output_s": rep["main_end"] - start - rep["compute_s"],
        "wall_s": t_done - t_spawn,
    }
    e2e, speed = reference_seconds(measured, rep["probe"])
    e2e["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    m = {
        "e2e": e2e,
        "measured": measured,
        "speed": speed,
        "bytes": sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()),
        "versions": rep["versions"],
    }
    if trace:
        m["sums"] = tracing.command_sums(rep["spans"])
        m["self"] = tracing.self_times(rep["spans"])
    if rep["rc"] != 0:
        return m, f"enerkin exited {rep['rc']}: " + report.with_suffix(".stderr").read_text()[-400:]
    return m, None


def run_round(root, wl, round_dir, trace, index, digests):
    """One pass over the workload's operations; returns per-command records."""
    records, outs = [], {}
    for k, op in enumerate(wl.ops):
        slug = op.name.replace("/", "__")
        out_dir = round_dir / slug
        cmd_id = f"r{index}c{k}"
        # write back what earlier commands wrote, so that the kernel's
        # writeback does not run during this command's output phase
        os.sync()
        m, err = run_command(root, op, out_dir, round_dir / f"{cmd_id}.json", trace, cmd_id)
        outs[op.name] = out_dir
        errors = [err] if err else []
        if not errors:
            try:
                errors = op.check(out_dir, outs)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors = [f"output unreadable: {exc!r}"]
        if out_dir.exists():
            digest = csv_digest(out_dir)
            key = op.same_as or op.name
            if digests.setdefault(key, digest) != digest:
                errors.append(f"CSVs differ from an earlier command with the same inputs ({key})")
        records.append({"op": op, "m": m, "errors": errors})
    return records


def by_command(rounds):
    """Measurements per command; the repeats of a command (``same_as``) share one entry."""
    groups = defaultdict(list)
    for records in rounds:
        for r in records:
            if r["m"] is not None:
                groups[r["op"].same_as or r["op"].name].append(r["m"])
    return groups


def median_of(ms, field):
    """Median over one command's measurements of every key of ``m[field]``."""
    keys = dict.fromkeys(k for m in ms for k in m[field])
    return {k: statistics.median(m[field].get(k, 0.0) for m in ms) for k in keys}


def summed(groups, field):
    total = defaultdict(float)
    for ms in groups.values():
        for k, v in median_of(ms, field).items():
            total[k] += v
    return dict(total)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "enerkin" / "cli.py").is_file() or not (root / "scenarios").is_dir():
        print(f"error: {root} is not the root of an enerkin checkout (src/enerkin, scenarios)",
              file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, root, work / "inputs")

    warm_up(root)
    digests, rounds, round_times = {}, [], []
    t0 = time.monotonic()
    while True:
        # each round writes to a directory of its own: deleting files while
        # the next command runs would time the file system, not enerkin
        round_dir = work / f"round{len(rounds)}"
        round_dir.mkdir(parents=True)
        t_round = time.monotonic()
        rounds.append(run_round(root, wl, round_dir, bool(args.trace), len(rounds), digests))
        round_times.append(time.monotonic() - t_round)
        elapsed = time.monotonic() - t0
        if len(rounds) >= wl.min_rounds and elapsed + max(round_times) > args.seconds:
            break

    # an operation's failure is its known fault only if the fault accounts
    # for every failure message; anything else makes the run incorrect
    attempted = failed = 0
    unexpected, known, failures = [], {}, []
    for records in rounds:
        for r in records:
            attempted += 1
            if r["errors"]:
                failed += 1
                op = r["op"]
                failures.append(f"{op.name}: " + "; ".join(r["errors"]))
                if op.known_fault is None or op.known_fault.unexplained(r["errors"]):
                    unexpected.append(op.name)
                else:
                    known[op.name] = op.known_fault.why
    for line in dict.fromkeys(failures):
        print(f"failed: {line}", file=sys.stderr)

    groups = by_command(rounds)
    e2e = summed(groups, "e2e")
    e2e["peak_rss_mb"] = max((median_of(ms, "e2e")["peak_rss_mb"] for ms in groups.values()), default=0.0)
    # the mean speed of the run, in uncontended seconds per measured second
    speed = statistics.median(m["speed"] for ms in groups.values() for m in ms)
    if args.trace:
        bytes_written = sum(statistics.median(m["bytes"] for m in ms) for ms in groups.values())
        values = tracing.layer_metrics(summed(groups, "sums"), bytes_written, e2e["wall_s"])
        units = dict(tracing.PER_LAYER)
        # the spans were timed as measured; trace.wall_s is scaled already
        values = {k: v * speed if units[k] in TIME_UNITS and k != "trace.wall_s" else v
                  for k, v in values.items()}
        selftime = {k: v * speed for k, v in summed(groups, "self").items()}
    else:
        values = e2e
        units = dict(END_TO_END)
        selftime = None

    versions = next((r["m"]["versions"] for rs in rounds for r in rs if r["m"] is not None), {})
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "round_s": round_times,
        "speed": speed,
        "measured": summed(groups, "measured"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **versions,
        "known_faults": known,
        "unexpected_failures": sorted(set(unexpected)),
    }
    if selftime is not None:
        info["self_time_s"] = selftime
    per_op = {name: {"median": median_of(ms, "e2e"), "samples": [m["e2e"] for m in ms],
                     "measured": [m["measured"] for m in ms], "speed": [m["speed"] for m in ms]}
              for name, ms in groups.items()}
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (work / "result.json").write_text(
        json.dumps({"info": info, "per_op": per_op, "failures": failures, **result}, indent=1) + "\n"
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
