#!/bin/sh
# Benchmark runner seeding the repo's perf trajectory. Runs the allocation-
# sensitive core/geo benchmarks under fixed -benchtime/-count settings and
# writes the results as JSON (name, ns/op, B/op, allocs/op) to BENCH_4.json
# (override with BENCH_OUT); pairs the DASC_Game worklist engine against the
# naive best-response sweep on the fig10-max workload and writes the speedup
# to BENCH_9.json (override with GAME_OUT); then drives a real dasc-server
# process with dasc-loadgen to measure ingest throughput — synchronous
# per-request commits vs the group-commit pipeline, both under -fsync=always
# — and writes that comparison to BENCH_7.json (override with INGEST_OUT).
#
#   sh scripts/bench.sh           # full run: BENCH_4 + BENCH_9 + BENCH_7
#   sh scripts/bench.sh -quick    # smoke mode: tiny sizes, for verify.sh
#
# Machine-dependent absolute numbers: compare runs from the same box only.
set -eu
cd "$(dirname "$0")/.."

out=${BENCH_OUT:-BENCH_4.json}
benchtime=5x
count=3
trials=5
n_pipe=50000
n_base=8000
if [ "${1:-}" = "-quick" ]; then
	benchtime=1x
	count=1
	trials=1
	n_pipe=4000
	n_base=1000
fi

tmp=$(mktemp)
work=$(mktemp -d)
srv_pid=
trap '{ [ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null
	git worktree remove --force "$work/seed" >/dev/null 2>&1
	rm -f "$tmp"; rm -rf "$work"; } || true' EXIT

echo "== go test -bench (engine: internal/bench, benchtime=$benchtime count=$count)"
go test ./internal/bench -run '^$' \
	-bench 'BenchmarkIncrementalEngine|BenchmarkBatchCandidatesIndexed' \
	-benchtime "$benchtime" -count "$count" -benchmem | tee "$tmp"

echo "== go test -bench (spatial index: internal/geo)"
go test ./internal/geo -run '^$' \
	-bench 'BenchmarkGridWithin' \
	-benchtime 2000x -count "$count" -benchmem | tee -a "$tmp"

# One benchmark line looks like:
#   BenchmarkFoo-8   3   12345 ns/op   678 B/op   9 allocs/op   [extra metrics]
# Repeated -count runs are averaged per benchmark name.
awk '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 3; i <= NF; i++) {
		if ($i == "ns/op")     ns[name]     += $(i-1)
		if ($i == "B/op")      bytes[name]  += $(i-1)
		if ($i == "allocs/op") allocs[name] += $(i-1)
	}
	runs[name]++
	if (!(name in order)) { order[name] = ++n; names[n] = name }
}
END {
	printf "[\n"
	for (i = 1; i <= n; i++) {
		name = names[i]
		printf "  {\"name\": \"%s\", \"ns_per_op\": %.1f, \"b_per_op\": %.1f, \"allocs_per_op\": %.1f}%s\n", \
			name, ns[name]/runs[name], bytes[name]/runs[name], allocs[name]/runs[name], \
			(i < n) ? "," : ""
	}
	printf "]\n"
}
' "$tmp" >"$out"

echo "bench: wrote $out"

# ---------------------------------------------------------------------------
# DASC_Game best-response engine: the incremental worklist sweep against the
# naive full sweep on the fig10-max workload (5K workers x 8K tasks). Each
# trial is one go test invocation running both benchmarks back to back —
# same process, same generated instance, shared machine conditions — so the
# per-trial ratio is a paired measurement, and every invocation first proves
# the worklist engine bit-exact against the naive sweep on the exact bench
# batch (VerifyWorklist inside benchmarkGameAssign fails the run on any
# divergence). Medians over trials, BENCH_7-style. GOGC=400 for both engines
# (the ingest section's identical-tuning rule): the instance + wiring are a
# large static heap, and default GOGC turns that into a constant per-op GC
# tax that mostly measures the collector, not the sweep.
game_out=${GAME_OUT:-BENCH_9.json}
gbench=2s
gscale=
if [ "${1:-}" = "-quick" ]; then
	gbench=1x
	gscale=0.05
fi
echo "== game engine benchmark (fig10-max, $trials trial(s), benchtime=$gbench)"
t=1
while [ $t -le "$trials" ]; do
	GOGC=400 DASC_GAME_BENCH_SCALE=$gscale go test ./internal/bench -run '^$' \
		-bench 'BenchmarkGameAssign(Worklist|Naive)$' \
		-benchtime "$gbench" -count 1 -benchmem >"$work/game$t.txt"
	wns=$(awk '$1 ~ /^BenchmarkGameAssignWorklist/ { print $3; exit }' "$work/game$t.txt")
	nns=$(awk '$1 ~ /^BenchmarkGameAssignNaive/ { print $3; exit }' "$work/game$t.txt")
	echo "$wns" >>"$work/game_w.txt"
	echo "$nns" >>"$work/game_n.txt"
	awk -v w="$wns" -v n="$nns" 'BEGIN { printf "%.2f\n", n / w }' >>"$work/game_r.txt"
	echo "  trial $t: worklist $wns ns/op, naive $nns ns/op"
	t=$((t + 1))
done

# gmedian <file>: median of one number per line.
gmedian() {
	sort -g "$1" | awk -v n="$trials" 'NR == int((n + 1) / 2)'
}
# gjoin <file>: comma-joined values.
gjoin() {
	paste -sd, "$1" | sed 's/,/, /g'
}

{
	printf '{\n'
	printf '  "benchmark": "game_worklist_engine",\n'
	printf '  "workload": "fig10-max synthetic sweep point (5000 workers, 8000 tasks)",\n'
	printf '  "scale": "%s",\n' "${gscale:-1}"
	printf '  "trials": %s,\n' "$trials"
	printf '  "cpus": %s,\n' "$(getconf _NPROCESSORS_ONLN)"
	printf '  "note": "each trial is one paired go test run of both engines; VerifyWorklist asserts bit-exact assignments inside every run before timing",\n'
	printf '  "worklist_ns_per_op": [%s],\n' "$(gjoin "$work/game_w.txt")"
	printf '  "naive_ns_per_op": [%s],\n' "$(gjoin "$work/game_n.txt")"
	printf '  "worklist_median_ns_per_op": %s,\n' "$(gmedian "$work/game_w.txt")"
	printf '  "naive_median_ns_per_op": %s,\n' "$(gmedian "$work/game_n.txt")"
	printf '  "speedup_per_trial": [%s],\n' "$(gjoin "$work/game_r.txt")"
	printf '  "speedup_paired_median": %s\n' "$(gmedian "$work/game_r.txt")"
	printf '}\n'
} >"$game_out"
echo "bench: wrote $game_out ($(gmedian "$work/game_r.txt")x worklist vs naive)"

# ---------------------------------------------------------------------------
# Ingest throughput at -fsync=always with 64 closed-loop clients, three
# configurations:
#   pipeline — group commit (-ingest-wait 400us): one fsync per drain
#   baseline — this binary with -ingest-queue 0: one fsync per registration
#   seed     — the actual pre-pipeline dasc-server, built from the pinned
#              commit via git worktree (TCP loopback: the seed has no
#              Unix-socket support) — the reference the speedup is against
# The loadgen verifies after every run that replaying the journal reproduces
# the served state byte-for-byte (it exits non-zero on mismatch, failing
# this script). Identical tuning everywhere: GOGC=400 for server and
# loadgen, HTTP read/write timeouts off. Throughput on a shared box is noisy
# (the loadgen competes with the server for CPU, and fsync latency drifts),
# so the full run interleaves $trials trials per mode and reports medians
# plus paired per-trial ratios.
echo "== ingest benchmark (64 clients, fsync=always, $trials trial(s))"
ingest_out=${INGEST_OUT:-BENCH_7.json}
clients=64
sock="$work/ingest.sock"
seed_sha=7f59d6b3f9a03fdcd56156c7fd372eeff146797a
go build -o "$work/dasc-server" ./cmd/dasc-server
go build -o "$work/dasc-loadgen" ./cmd/dasc-loadgen

have_seed=0
if [ "$trials" -gt 1 ] && git cat-file -e "$seed_sha^{commit}" 2>/dev/null; then
	if git worktree add --detach --force "$work/seed" "$seed_sha" >/dev/null 2>&1 &&
		(cd "$work/seed" && go build -o "$work/dasc-server-seed" ./cmd/dasc-server); then
		have_seed=1
	else
		echo "  (seed build failed; skipping seed comparison)" >&2
	fi
fi

# run_ingest <server binary> <uds|tcp> <extra server flags> <n> <report out>
run_ingest() {
	rm -f "$work/ingest.jsonl" "$sock" "$work/server.log"
	case $2 in
	uds) saddr="unix:$sock" ;;
	tcp) saddr="127.0.0.1:0" ;;
	esac
	# shellcheck disable=SC2086 — $3 is intentionally word-split flags
	GOGC=400 "$1" -addr "$saddr" -manual -fsync always \
		-journal "$work/ingest.jsonl" -read-timeout 0 -write-timeout 0 $3 \
		>"$work/server.log" 2>&1 &
	srv_pid=$!
	i=0
	while [ $i -lt 200 ]; do
		grep -q "listening on" "$work/server.log" 2>/dev/null && break
		i=$((i + 1))
		sleep 0.05
	done
	sleep 0.3
	case $2 in
	uds) url="unix:$sock" ;;
	tcp) url="http://$(sed -n 's/.*listening on \([0-9.:]*\)$/\1/p' "$work/server.log" | head -1)" ;;
	esac
	GOGC=400 "$work/dasc-loadgen" -url "$url" -clients $clients \
		-n "$4" -dep-frac 0 -verify-journal "$work/ingest.jsonl" -out "$5" >/dev/null
	kill -TERM "$srv_pid" 2>/dev/null || true
	wait "$srv_pid" 2>/dev/null || true
	srv_pid=
}

# jget <file> <key>: first value of a scalar key in a one-key-per-line JSON.
jget() {
	sed -n 's/^.*"'"$2"'": *\([^,}]*\).*$/\1/p' "$1" | head -1
}

t=1
while [ $t -le "$trials" ]; do
	run_ingest "$work/dasc-server" uds "-ingest-wait 400us" "$n_pipe" "$work/pipe$t.json"
	run_ingest "$work/dasc-server" uds "-ingest-queue 0" "$n_base" "$work/base$t.json"
	line="  trial $t: pipeline $(jget "$work/pipe$t.json" throughput_rps) rps,"
	line="$line baseline $(jget "$work/base$t.json" throughput_rps) rps"
	if [ $have_seed = 1 ]; then
		run_ingest "$work/dasc-server-seed" tcp "" "$n_base" "$work/seed$t.json"
		line="$line, seed $(jget "$work/seed$t.json" throughput_rps) rps"
	fi
	echo "$line"
	t=$((t + 1))
done

# median <mode prefix>: echoes "rps file" for the median-throughput trial.
median() {
	t=1
	while [ $t -le "$trials" ]; do
		echo "$(jget "$work/$1$t.json" throughput_rps) $work/$1$t.json"
		t=$((t + 1))
	done | sort -g | awk -v n="$trials" 'NR == int((n + 1) / 2)'
}

pipe_med=$(median pipe)
base_med=$(median base)
pipe_rps=${pipe_med% *}
base_rps=${base_med% *}
pipe_rep=${pipe_med#* }
base_rep=${base_med#* }

# ratios <mode prefix>: one pipeline/<mode> throughput ratio per trial.
ratios() {
	t=1
	while [ $t -le "$trials" ]; do
		awk -v p="$(jget "$work/pipe$t.json" throughput_rps)" \
			-v b="$(jget "$work/$1$t.json" throughput_rps)" \
			'BEGIN { printf "%.2f\n", p / b }'
		t=$((t + 1))
	done
}

# ratios_json/ratios_median: the same as a JSON array / its median.
ratios_json() { ratios "$1" | paste -sd, - | sed 's/,/, /g'; }
ratios_median() { ratios "$1" | sort -g | awk -v n="$trials" 'NR == int((n + 1) / 2)'; }

# trials_json <mode prefix>: comma-joined per-trial throughputs.
trials_json() {
	t=1
	sep=
	while [ $t -le "$trials" ]; do
		printf '%s%s' "$sep" "$(jget "$work/$1$t.json" throughput_rps)"
		sep=", "
		t=$((t + 1))
	done
}

mode_json() { # <mode prefix> <report file> <median rps> <n>
	printf '    "trials_rps": [%s],\n' "$(trials_json "$1")"
	printf '    "median_rps": %s,\n' "$3"
	printf '    "requests": %s,\n' "$4"
	printf '    "p50_ms": %s,\n' "$(jget "$2" p50_ms)"
	printf '    "p99_ms": %s,\n' "$(jget "$2" p99_ms)"
	printf '    "succeeded": %s,\n' "$(jget "$2" succeeded)"
	printf '    "journal_replay_match": %s\n' "$(jget "$2" match)"
}

{
	printf '{\n'
	printf '  "benchmark": "ingest_group_commit",\n'
	printf '  "clients": %s,\n' "$clients"
	printf '  "fsync": "always",\n'
	printf '  "transport": "unix-domain socket",\n'
	printf '  "cpus": %s,\n' "$(getconf _NPROCESSORS_ONLN)"
	printf '  "trials": %s,\n' "$trials"
	printf '  "note": "loadgen shares the CPU(s) with the server; both modes run GOGC=400, -read-timeout 0, -write-timeout 0; medians over interleaved trials",\n'
	printf '  "baseline": {\n'
	printf '    "config": "-ingest-queue 0 (synchronous: one journal fsync per registration)",\n'
	mode_json base "$base_rep" "$base_rps" "$n_base"
	printf '  },\n'
	printf '  "pipeline": {\n'
	printf '    "config": "-ingest-wait 400us (group commit: one journal fsync per drain)",\n'
	mode_json pipe "$pipe_rep" "$pipe_rps" "$n_pipe"
	printf '  },\n'
	if [ $have_seed = 1 ]; then
		seed_med=$(median seed)
		printf '  "seed": {\n'
		printf '    "config": "pre-pipeline dasc-server @%s (synchronous, TCP loopback — no unix-socket support)",\n' "$seed_sha"
		mode_json seed "${seed_med#* }" "${seed_med% *}" "$n_base"
		printf '  },\n'
	fi
	# Speedup views: the median of per-trial pipeline/<mode> ratios, plus
	# the raw ratios. The trials interleave the modes precisely so each
	# trial shares disk/scheduler conditions — the paired median is the
	# drift-robust estimate, the per-trial ratios show the spread.
	if [ $have_seed = 1 ]; then
		printf '  "speedup_vs_seed_per_trial": [%s],\n' "$(ratios_json seed)"
		printf '  "speedup_vs_seed_paired_median": %s,\n' "$(ratios_median seed)"
	fi
	printf '  "speedup_vs_baseline_per_trial": [%s],\n' "$(ratios_json base)"
	printf '  "speedup_vs_baseline_paired_median": %s,\n' "$(ratios_median base)"
	printf '  "speedup_of_medians_vs_baseline": %s\n' "$(awk -v p="$pipe_rps" -v b="$base_rps" 'BEGIN { printf "%.2f", p / b }')"
	printf '}\n'
} >"$ingest_out"

if [ $have_seed = 1 ]; then
	echo "bench: wrote $ingest_out ($(jget "$ingest_out" speedup_vs_seed_paired_median)x vs seed, $(jget "$ingest_out" speedup_vs_baseline_paired_median)x vs baseline)"
else
	echo "bench: wrote $ingest_out ($(jget "$ingest_out" speedup_vs_baseline_paired_median)x vs baseline)"
fi
