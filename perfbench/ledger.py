#!/usr/bin/env python3
"""Run every workload over several seeds and summarize the spread.

    python3 perfbench/ledger.py --runs 10 --first-seed 1 --out perfbench/ledger/seed.json

The runs go seed by seed, every workload in turn. For each workload and
end-to-end metric it reports the median, the first and third quartile
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median next
to the metric's bound from BENCHMARK.json. A metric whose spread exceeds a
third of its bound is flagged. --baseline ROW also flags every median that
is worse than ROW's by more than the bound. --trace adds one traced run per
workload and lists its per-layer metrics.

The JSON written by --out is a ledger row: the settings, per-run values
and the summary, so a later change can be compared with it. --render ROW
prints a recorded row as the Markdown tables LEDGER.md uses.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    wall = time.monotonic() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit status {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, wall


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def render(row):
    """Markdown: median [q1, q3] per end-to-end metric, then traced values."""
    workloads = row["workloads"]
    names = list(next(iter(workloads.values()))["summary"])
    print("| workload | " + " | ".join(f"`{n}`" for n in names) + " |")
    print("|---" * (len(names) + 1) + "|")
    for w, entry in workloads.items():
        cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                 for s in entry["summary"].values()]
        print(f"| `{w}` | " + " | ".join(cells) + " |")
    traced = {w: e["traced"] for w, e in workloads.items() if "traced" in e}
    if traced:
        print("\n| per-layer (traced run, first seed) | " +
              " | ".join(f"`{w}`" for w in traced) + " |")
        print("|---" * (len(traced) + 1) + "|")
        for name in next(iter(traced.values())):
            print(f"| `{name}` | " + " | ".join(f"{t[name]:.4g}" for t in traced.values()) + " |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--baseline", type=Path,
                        help="a recorded row whose medians each metric is compared with")
    parser.add_argument("--render", type=Path, help="print a recorded row as Markdown")
    args = parser.parse_args()
    if args.render:
        render(json.loads(args.render.read_text()))
        return

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    row = {"run_seconds": seconds, "seeds": list(range(args.first_seed,
                                                         args.first_seed + args.runs)),
           "workloads": {}}
    # Seed by seed, every workload in turn: a slow spell of the machine that
    # lasts minutes then lands on every workload's runs alike.
    all_runs = {workload: [] for workload in workloads}
    for seed in row["seeds"]:
        for workload in workloads:
            result, wall = run_once(workload, seed, seconds, 0)
            all_runs[workload].append({
                "seed": seed, "wall_s": wall, "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: {wall:.1f} s wall", file=sys.stderr, flush=True)

    baseline = json.loads(args.baseline.read_text())["workloads"] if args.baseline else {}
    flagged, regressed = [], []
    for workload, runs in all_runs.items():
        summary = {}
        print(f"\n{workload} ({len(runs)} runs of {seconds} s)")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}"
              f" {'worse':>8}")
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name] for r in runs])
            summary[name] = s
            bound = bounds.get(name)
            mark = ""
            if bound is not None and s["spread"] > bound / 3:
                mark = "  <-- above bound/3"
                flagged.append((workload, name))
            # How much worse than the baseline's median, as a share of it.
            worse = ""
            base = baseline.get(workload, {}).get("summary", {}).get(name)
            if base and base["median"]:
                shift = (s["median"] - base["median"]) / base["median"]
                shift = shift if better[name] == "lower" else -shift
                worse = f"{shift:+.4f}"
                if bound is not None and shift > bound:
                    mark += "  <-- worse than the baseline by more than the bound"
                    regressed.append((workload, name))
            print(f"  {name:<20} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
                  f"{s['spread']:>8.4f} {bound if bound is not None else '':>6} {worse:>8}{mark}")
        entry = {"runs": runs, "summary": summary}
        if args.trace:
            result, wall = run_once(workload, row["seeds"][0], seconds, 1)
            entry["traced"] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"  traced run (seed {row['seeds'][0]}, {wall:.1f} s wall):")
            for k, v in entry["traced"].items():
                print(f"    {k:<24} {v:.6g}")
        row["workloads"][workload] = entry

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(row, indent=1) + "\n")
    if flagged:
        print("\nspread above a third of the bound: " +
              ", ".join(f"{w}/{m}" for w, m in flagged))
    if regressed:
        print("\nmedian worse than the baseline's by more than the bound: " +
              ", ".join(f"{w}/{m}" for w, m in regressed))


if __name__ == "__main__":
    main()
