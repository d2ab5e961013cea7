#!/usr/bin/env bash
# Paired end-to-end benchmark of two commits:
#
#   bash scripts/benchpair.sh --base REV [--change REV] --out BENCH_N.json
#
# Paths are relative to the repository root. It extracts the committed files
# of both revisions (git archive, so uncommitted edits never leak in and no
# worktree is registered) under .bench_build/pair/, then runs
# `bash perfbench/run.sh --workload W --seed K --seconds 20 --trace 0` in
# each, for both workloads of BENCHMARK.json at its run length, ten pairs
# with pair K on seed K for both sides, alternating the side that runs first
# from pair to pair so a drift of the host falls on both sides alike. The output
# keeps every run's record and result lines verbatim, each workload's range
# of steal_share (the share of CPU the hypervisor gave other guests) and, per
# metric, each side's median and quartiles, the per-pair ratios change/base,
# their median and in how many pairs the change read lower. For the
# end-to-end metrics of BENCHMARK.json it adds a verdict:
#   worse         the change's median is worse than the base's by more than
#                 the metric's bound;
#   better        the change is better in at least nine tenths of the pairs
#                 and the medians differ by more than the base's
#                 interquartile range;
#   unresolved    that range over the base's median is wider than the bound,
#                 and not every change run beats every base run;
#   within bound  otherwise.
# A run that exits non-zero or fails its correctness gate is listed under
# "failed_runs", and the script exits 1 after writing the file.
set -euo pipefail

base="" change="HEAD" out=""
while [[ $# -gt 0 ]]; do
	case $1 in
	--base) base=$2; shift 2 ;;
	--change) change=$2; shift 2 ;;
	--out) out=$2; shift 2 ;;
	*) echo "benchpair: unknown argument $1" >&2; exit 2 ;;
	esac
done
if [[ -z $base || -z $out ]]; then
	echo "benchpair: --base and --out are required" >&2
	exit 2
fi

cd "$(dirname "$0")/.."
dir="$(pwd)/.bench_build/pair"
rm -rf "$dir"
mkdir -p "$dir/runs"
for side in base change; do
	rev=${!side}
	mkdir -p "$dir/$side"
	git archive "$rev" | tar -x -C "$dir/$side"
	git rev-parse "$rev" >"$dir/$side.rev"
done

# run SIDE WORKLOAD PAIR writes the run's stdout to runs/, its stderr to a
# log beside it, and its exit status to a .exit file.
run() {
	local tag="$dir/runs/$2.$3.$1" status=0
	(cd "$dir/$1" && bash perfbench/run.sh --workload "$2" --seed "$3" \
		--seconds 20 --trace 0) >"$tag.out" 2>"$tag.log" || status=$?
	echo "$status" >"$tag.exit"
	echo "$(date +%T) $2 pair $3 $1: exit $status $(tail -n 1 "$tag.out" | head -c 300)" >&2
}

for ((k = 1; k <= 10; k++)); do
	for w in paper-sim history; do
		if ((k % 2)); then
			run base "$w" "$k"
			run change "$w" "$k"
		else
			run change "$w" "$k"
			run base "$w" "$k"
		fi
	done
done

python3 - "$dir" "$out" <<'EOF'
import json, os, statistics, sys

d, out = sys.argv[1], sys.argv[2]
workloads, pairs = ["paper-sim", "history"], 10
with open("BENCHMARK.json") as f:
    end_to_end = {m["name"]: m for m in json.load(f)["end_to_end"]}

def side_summary(vs):
    if len(vs) < 2:
        return {"median": vs[0] if vs else None, "values": vs}
    q1, med, q3 = statistics.quantiles(vs, n=4)
    return {"median": med, "q1": q1, "q3": q3, "values": vs}

def verdict(spec, b, c, better_in):
    sign = 1 if spec["better"] == "lower" else -1
    worse = sign * (c["median"] - b["median"]) / b["median"]
    if worse > spec["bound"]:
        return "worse"
    iqr = b["q3"] - b["q1"]
    if better_in * 10 >= 9 * len(b["values"]) and -sign * (c["median"] - b["median"]) > iqr:
        return "better"
    if spec["better"] == "lower":
        all_better = max(c["values"]) < min(b["values"])
    else:
        all_better = min(c["values"]) > max(b["values"])
    if iqr / b["median"] > spec["bound"] and not all_better:
        return "unresolved"
    return "within bound"

doc = {
    "benchmark": "bash perfbench/run.sh --workload W --seed K --seconds 20 --trace 0",
    "base": open(os.path.join(d, "base.rev")).read().strip(),
    "change": open(os.path.join(d, "change.rev")).read().strip(),
    "pairs": pairs,
    "order": "pair K runs on seed K; odd pairs run base first, even pairs change first",
    "workloads": {},
    "failed_runs": [],
}
for w in workloads:
    results = {"base": [], "change": []}
    runs, steal = [], []
    for k in range(1, pairs + 1):
        pair = {}
        for side in ("base", "change"):
            tag = os.path.join(d, "runs", "%s.%d.%s" % (w, k, side))
            status = int(open(tag + ".exit").read())
            lines = open(tag + ".out").read().strip().splitlines()
            res = json.loads(lines[-1]) if status == 0 and len(lines) == 2 else None
            if res is None or not res.get("correct") or res.get("failed"):
                doc["failed_runs"].append("%s pair %d %s: exit %d" % (w, k, side, status))
                continue
            pair[side] = {"record_line": lines[0], "result_line": lines[1]}
            results[side].append(res)
            steal.append(json.loads(lines[0])["env"]["steal_share"])
        runs.append({"pair": k, "seed": k, **pair})
        if len(pair) == 1:
            for side in pair:
                results[side].pop()
    metrics = {}
    for m in sorted(results["base"][0]["metrics"] if results["base"] else []):
        b = [r["metrics"][m]["value"] for r in results["base"]]
        c = [r["metrics"][m]["value"] for r in results["change"]]
        lower = sum(y < x for x, y in zip(b, c))
        ratios = [y / x if x else None for x, y in zip(b, c)]
        valid = [r for r in ratios if r is not None]
        s = metrics[m] = {
            "unit": results["base"][0]["metrics"][m]["unit"],
            "base": side_summary(b),
            "change": side_summary(c),
            "ratios": ratios,
            "median_ratio": statistics.median(valid) if valid else None,
            "lower_in": "%d of %d" % (lower, len(b)),
        }
        spec = end_to_end.get(m)
        if spec and len(b) >= 2 and s["base"]["median"]:
            better_in = lower if spec["better"] == "lower" else sum(y > x for x, y in zip(b, c))
            s["bound"] = spec["bound"]
            s["verdict"] = verdict(spec, s["base"], s["change"], better_in)
    doc["workloads"][w] = {
        "steal_share": {"min": min(steal), "max": max(steal)} if steal else None,
        "metrics": metrics,
        "runs": runs,
    }
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
for w, body in doc["workloads"].items():
    for m, s in body["metrics"].items():
        print("%-10s %-16s base %10.4g  change %10.4g  ratio %6.3f  lower in %-8s %s" % (
            w, m, s["base"]["median"], s["change"]["median"], s["median_ratio"] or 0, s["lower_in"], s.get("verdict", "")))
if doc["failed_runs"]:
    sys.exit("failed runs:\n" + "\n".join(doc["failed_runs"]))
EOF
