"""Repeat the benchmark on each workload and judge its run-to-run spread.

    python3 perfbench/stability.py --runs 10 --trace-runs 2

Run from the root of an enerkin checkout.  For every workload of
BENCHMARK.json this runs the benchmark command ``--runs`` times untraced,
each with another seed, and prints each end-to-end metric's median, first
and third quartile (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound, and the spread of the same
timing as measured, before its scaling to an uncontended core.  A spread
above a third of the bound is marked UNSTEADY, ``setup_s`` included.  With
``--sets 2`` the whole series is run twice and each metric's second median
is compared with the first against the bound, as is the share of failed
operations.
``--trace-runs K`` adds K traced runs per workload, each right after an
untraced run with the same seed, and reports the per-layer medians, each
layer's self time and the tracing overhead (the median over pairs of traced
minus untraced ``wall_s``).  Everything is also written as JSON to
``.perfbench_work/stability.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def summarize(values):
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def run_set(bench, seeds, trace, log):
    out = {}
    for wl in bench["workloads"]:
        name = wl["name"]
        results = []
        for seed in seeds:
            info, res = run_once(bench, name, seed, trace)
            results.append((info, res))
            log(f"  {name} seed={seed} rounds={info['rounds']} correct={res['correct']} "
                f"failed={res['failed']}/{res['attempted']}")
        metrics = results[0][1]["metrics"].keys()
        out[name] = {
            "metrics": {m: summarize([r["metrics"][m]["value"] for _, r in results]) for m in metrics},
            "measured": {m: summarize([i["measured"][m] for i, _ in results]) for m in results[0][0]["measured"]},
            "failed_share": sorted({r["failed"] / r["attempted"] for _, r in results}),
            "correct": all(r["correct"] for _, r in results),
            "self_time_s": (
                {k: statistics.median(i["self_time_s"].get(k, 0.0) for i, _ in results)
                 for k in results[0][0].get("self_time_s", {})}
            ),
            "machine": {k: results[0][0][k] for k in ("nproc", "cpu_model", "python", "numpy", "scipy")},
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1000)
    args = ap.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    report = {"sets": [], "traced": None}
    ok = True
    for k in range(args.sets if args.runs else 0):
        seeds = list(range(args.first_seed + k * args.runs, args.first_seed + (k + 1) * args.runs))
        log(f"set {k + 1}: seeds {seeds[0]}..{seeds[-1]}")
        report["sets"].append(run_set(bench, seeds, 0, log))

    if report["sets"]:
        print(f"{'set':3} {'workload':16} {'metric':12} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6} {'as meas.':>8}  verdict")
    for k, st in enumerate(report["sets"]):
        for wl, res in st.items():
            for m, s in res["metrics"].items():
                bound = bounds[m]
                verdict = "ok" if s["spread"] <= bound / 3 else "UNSTEADY"
                if k:
                    first = report["sets"][0][wl]["metrics"][m]["median"]
                    drift = (s["median"] - first) / first
                    verdict += f", median {drift:+.3f} from set 1" + (" WORSE" if drift > bound else "")
                ok &= "UNSTEADY" not in verdict and "WORSE" not in verdict
                meas = res["measured"].get(m)
                meas = f"{meas['spread']:8.4f}" if meas else f"{'':8}"
                print(f"{k + 1:<3} {wl:16} {m:12} {s['median']:11.4f} {s['q1']:11.4f} {s['q3']:11.4f} "
                      f"{s['spread']:7.4f} {bound:6.3f} {meas}  {verdict}")
    for wl in report["sets"][0] if report["sets"] else {}:
        shares = sorted({x for st in report["sets"] for x in st[wl]["failed_share"]})
        correct = all(st[wl]["correct"] for st in report["sets"])
        print(f"{wl:16} failed share {shares}, correct {correct}")
        ok &= len(shares) == 1 and correct

    if args.trace_runs:
        seeds = list(range(args.first_seed, args.first_seed + args.trace_runs))
        log(f"traced: seeds {seeds[0]}..{seeds[-1]}, each right after an untraced run")
        report["traced"] = {}
        for wl in bench["workloads"]:
            one = dict(bench, workloads=[wl])
            pairs = [(run_set(one, [seed], 0, log), run_set(one, [seed], 1, log)) for seed in seeds]
            name = wl["name"]
            overhead = [t[name]["metrics"]["trace.wall_s"]["median"] - u[name]["metrics"]["wall_s"]["median"]
                        for u, t in pairs]
            untraced = statistics.median(u[name]["metrics"]["wall_s"]["median"] for u, _ in pairs)
            traced = [t[name] for _, t in pairs]
            res = {
                "metrics": {m: statistics.median(t["metrics"][m]["median"] for t in traced)
                            for m in traced[0]["metrics"]},
                "self_time_s": {k: statistics.median(t["self_time_s"].get(k, 0.0) for t in traced)
                                for k in traced[0]["self_time_s"]},
                "tracing_overhead_s": statistics.median(overhead),
                "untraced_wall_s": untraced,
            }
            report["traced"][name] = res
            print(f"\n{name}: tracing overhead {res['tracing_overhead_s']:.3f} s "
                  f"({res['tracing_overhead_s'] / untraced:+.1%} of the paired untraced wall_s {untraced:.3f} s)")
            for m, v in res["metrics"].items():
                print(f"  {m:32} {v:14.4f}")
            print("  self time (s): " + ", ".join(f"{k} {v:.3f}" for k, v in sorted(res["self_time_s"].items())))

    out = Path(".perfbench_work/stability.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
