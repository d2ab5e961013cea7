#!/bin/sh
# Repo verification: formatting gate, build, vet, the perfbench module's
# build, vet and tests, the dasc-lint invariant
# multichecker (plus pinned staticcheck/govulncheck when their module cache
# or network is available), full test suite, the paper-trend checks, then
# a race-detector pass over the packages with real concurrency (the parallel
# BatchIndex build in core, the obs atomics it feeds, the simulator that
# drives it, the HTTP server, and the bench harness that sweeps them). vet
# runs repo-wide and fails the script on any finding (set -e).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

# perfbench is a nested module, so the root `go build ./...` and `go vet
# ./...` skip it; build, vet and test it on its own so a deleted or renamed
# symbol it imports fails here rather than in the benchmark.
echo "== perfbench module (build, vet, test)"
(cd perfbench && go build -o /dev/null . && go vet . && go test .)

# The invariant multichecker gates BEFORE the test phase: a determinism,
# epsilon, ownership, metric-inventory or lock-discipline violation fails
# fast, with per-analyzer timing on stderr. Suppressions require a reasoned
# //lint: annotation (see DESIGN.md §3.12); dasc-lint exits 1 on findings.
echo "== dasc-lint (invariant multichecker)"
go run ./cmd/dasc-lint ./...

# Pinned external linters, skippable offline: staticcheck and govulncheck
# run via `go run <module>@<version>` with the versions pinned in
# scripts/tools.env so every machine runs the same bits. `go run` needs the
# module cache or network; set DASC_SKIP_NETTOOLS=1 (or be offline — the
# probe below auto-detects a cold cache) to skip without failing verify.
. scripts/tools.env
if [ "${DASC_SKIP_NETTOOLS:-0}" = "1" ]; then
	echo "== staticcheck/govulncheck: skipped (DASC_SKIP_NETTOOLS=1)"
elif ! GOFLAGS=-mod=mod go run "honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION}" -version >/dev/null 2>&1; then
	echo "== staticcheck/govulncheck: skipped (tool modules not in cache and no network)"
else
	echo "== staticcheck ${STATICCHECK_VERSION}"
	go run "honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION}" ./...
	echo "== govulncheck ${GOVULNCHECK_VERSION}"
	go run "golang.org/x/vuln/cmd/govulncheck@${GOVULNCHECK_VERSION}" ./...
fi

echo "== go test"
go test ./...

# The paper's trends (Figures 3-15, EXPERIMENTS.md): every check must hold
# at half scale; dasc-bench exits 1 on a failed check.
echo "== paper trend checks (dasc-bench -verify, scale 0.5)"
go run ./cmd/dasc-bench -verify -q -scale 0.5

echo "== go test -race (core, obs, sim, server, bench)"
go test -race ./internal/core/... ./internal/obs/... ./internal/sim/... ./internal/server/... ./internal/bench/...

# race_guard PKG PATTERN... re-runs the tests matching any PATTERN under
# the race detector at two scheduler widths: GOMAXPROCS=2 forces heavy
# interleaving, 8 gives real parallelism. `go test -run` passes when a
# pattern matches no test, so every PATTERN must first list at least one
# test: a moved or renamed guard fails the step instead of passing empty.
race_guard() {
	pkg=$1
	shift
	for pat in "$@"; do
		if [ -z "$(go test -list "$pat" "$pkg" | grep '^Test')" ]; then
			echo "verify: no test in $pkg matches '$pat'" >&2
			exit 1
		fi
	done
	run=$(printf '%s|' "$@")
	for gmp in 2 8; do
		GOMAXPROCS=$gmp go test -race "$pkg" -run "${run%|}" -count 1
	done
}

# The candidate engine's and the kernel's guards. The determinism sweep
# would surface any output of the parallel engine build that depends on
# scheduling; the scan differential any strategy set, memoized cost or
# candidate list that differs from the brute-force scan; the kernel
# differential any step, dispatch, book or counter that the per-batch
# engine check changes. The population test checks the kernel's live
# population against a full registry scan. The retirement tests check the
# kernel's doomed-task rule against a brute-force oracle, on a hand-built
# instance and, for the allocators whose outcome must not move, against a
# kernel that keeps offering doomed tasks; the server's recovery test
# checks that a restored platform rebuilds it.
echo "== go test -race candidate-engine and kernel guards (GOMAXPROCS=2, 8)"
race_guard ./internal/core/ TestBatchIndexParallelDeterministic \
	TestBatchIndexMatchesScan TestKernelCacheMatchesScratch \
	TestKernelPopulationMatchesFullScan TestKernelRetirementKeepsOutcome \
	TestKernelRetiresHandBuiltDoom
race_guard ./internal/server/ TestRecoverRetiresDependantsOfBotchedTasks

# The game worklist engine's bit-exactness matrix (worklist vs naive sweep
# across thresholds, inits and sweep orders) plus its GOMAXPROCS determinism
# sweep: the engine itself is single-threaded, but it shares pooled state
# (gameState, gameWorklist, batch wiring) across concurrently-allocating
# goroutines in the sim and server.
echo "== go test -race game worklist guards (GOMAXPROCS=2, 8)"
race_guard ./internal/core/ TestGameWorklist

# The dense dependency wiring's differentials (map-based oracles for the
# wiring, the associative sets, the index-domain fixpoint and Greedy's
# column scratch), Greedy's staffable-set prune against its unpruned loop,
# and the wiring's concurrent pooled-scratch test: batches allocated
# concurrently borrow their build scratch from one shared sync.Pool.
echo "== go test -race dependency wiring (GOMAXPROCS=2, 8)"
race_guard ./internal/core/ TestDepWiring TestGreedyStaffMatchesMapOracle \
	TestGreedyPruneIsExact

# The group-commit ingest pipeline's concurrency tests (hammer included:
# registrations, ticks, snapshot rotations and reads all concurrent, then a
# replay-equivalence check).
echo "== go test -race ingest pipeline (GOMAXPROCS=2, 8)"
race_guard ./internal/server/ TestIngest

echo "== bench smoke"
BENCH_OUT=$(mktemp) GAME_OUT=$(mktemp) INGEST_OUT=$(mktemp) sh scripts/bench.sh -quick >/dev/null
echo "bench smoke: OK"

# A tick's cost must not grow with history: one iteration of each history
# size (0, 50K, 200K expired or assigned registrations) proves the
# benchmark runs; run it with a real -benchtime to compare the sizes.
echo "== tick history micro-benchmark smoke"
go test -run '^$' -bench BenchmarkTickHistory -benchtime=1x ./internal/server >/dev/null
echo "tick history smoke: OK"

# One fig10-max batch's dependency resolution, dense build and map-based
# oracle; run it with a real -benchtime to compare them.
echo "== batch wiring micro-benchmark smoke"
go test -run '^$' -bench BenchmarkBatchWiring -benchtime=1x ./internal/core >/dev/null
echo "batch wiring smoke: OK"

# Black-box durability check: a real dasc-server process with a journal is
# loaded over HTTP, SIGTERMed, restarted, and its /v1/stats +
# /v1/assignments diffed against the pre-kill values; a second round does
# the same through a snapshot + journal-tail recovery. The in-process
# equivalents (including truncation at every byte offset) run in the
# race-enabled server tests above.
echo "== lifecycle smoke (kill-and-restart differential)"
sh scripts/lifecycle_smoke.sh >/dev/null
echo "lifecycle smoke: OK"

# Loadgen smoke: dasc-loadgen drives a real server twice (fsync=never, then
# fsync=always), requiring every request acknowledged and the journal replay
# to match served state byte-for-byte after each pass. Every request carries
# an X-Request-ID (echo verified by the loadgen), and a mid-run /v1/metrics
# scrape must show live dasc_http_*, dasc_ingest_* and dasc_runtime_* series.
echo "== loadgen smoke (incl. fsync=always, journal replay, telemetry scrape)"
sh scripts/loadgen_smoke.sh >/dev/null
echo "loadgen smoke: OK"

echo "verify: OK"
