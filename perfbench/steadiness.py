"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --runs 10 [--sets 2] [--first-seed 1]
                                    [--workloads history,paper-sim] [--trace 0]
                                    [--out summary.json]

Run from the repository root. It runs BENCHMARK.json's command once per
seed, workload and set, interleaved in time (seed 1 of every set and
workload, then seed 2, ...), so that every set sees the same host
conditions; every set uses the same seeds. Each run must pass its
correctness gate with no failed operation. Per set and metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound; a spread under a third of its
bound is marked steady. With more than one set it then prints, per metric,
how far each later set's median lies from the first set's, as a share of the
first; a shift beyond the bound is marked. A run that fails or fails its gate
is reported and left out; the script then exits non-zero.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=0, help="0 = run_seconds of BENCHMARK.json")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    # values[w][set][metric] -> list; steals[w][set] -> list
    values = {w: [{} for _ in range(args.sets)] for w in names}
    steals = {w: [[] for _ in range(args.sets)] for w in names}
    bad = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for k in range(args.sets):
            for w in names:
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", str(args.trace)]
                p = subprocess.run(cmd, capture_output=True, text=True)
                lines = p.stdout.strip().splitlines()
                try:
                    res = json.loads(lines[-1])
                except (IndexError, ValueError):
                    res = None
                if p.returncode != 0 or res is None or not res["correct"] or res["failed"]:
                    bad.append(f"{w} set {k + 1} seed {seed}: exit {p.returncode}: {p.stderr.strip()[-500:]}")
                    print(bad[-1], file=sys.stderr)
                    continue
                for m, v in res["metrics"].items():
                    values[w][k].setdefault(m, []).append(v["value"])
                steal = json.loads(lines[-2])["env"].get("steal_share", 0) if len(lines) > 1 else 0
                steals[w][k].append(steal)
                vals = " ".join(f"{m}={v['value']:.4g}" for m, v in sorted(res["metrics"].items()))
                print(f"{time.strftime('%H:%M:%S')} {w} set {k + 1} seed {seed}: attempted {res['attempted']} "
                      f"steal {steal:.3f} {vals}", file=sys.stderr, flush=True)

    summary = {}
    for w in names:
        summary[w] = []
        for k in range(args.sets):
            rows = {m: summarize(vs) for m, vs in sorted(values[w][k].items()) if len(vs) >= 2}
            for m, r in rows.items():
                b = bounds.get(m)
                mark = "" if b is None else (" steady" if r["spread"] < b / 3 else " NOT steady")
                print(f"{w:10s} set {k + 1} {m:26s} n {len(r['values']):2d} median {r['median']:12.5g}  "
                      f"q1 {r['q1']:12.5g}  q3 {r['q3']:12.5g}  spread {r['spread']:6.3f}  bound {b}{mark}")
            if steals[w][k]:
                print(f"{w:10s} set {k + 1} steal_share median {statistics.median(steals[w][k]):.3f} "
                      f"max {max(steals[w][k]):.3f}")
                rows["steal_share"] = {"values": steals[w][k]}
            summary[w].append(rows)
        for k in range(1, args.sets):
            for m, r in summary[w][k].items():
                first = summary[w][0].get(m)
                if "median" not in r or not first or not first["median"]:
                    continue
                shift = (r["median"] - first["median"]) / first["median"]
                r["shift_from_set_1"] = shift
                b = bounds.get(m)
                mark = "" if b is None else (" within bound" if abs(shift) <= b else " BEYOND bound")
                print(f"{w:10s} set {k + 1} vs 1 {m:26s} median shift {shift:+7.3f}  bound {b}{mark}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    if bad:
        sys.exit("failed runs:\n" + "\n".join(bad))


if __name__ == "__main__":
    main()
