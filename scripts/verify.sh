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

# require_listed KIND PKG PATTERN... fails unless every PATTERN lists at
# least one KIND (Test, Benchmark or Fuzz) in PKG under `go test -list`.
# `go test -run`, `-bench` and `-fuzz` pass when a pattern matches nothing,
# so without it a moved or renamed target would pass empty instead of
# failing the step.
require_listed() {
	kind=$1
	pkg=$2
	shift 2
	for pat in "$@"; do
		if [ -z "$(go test -list "$pat" "$pkg" | grep "^$kind")" ]; then
			echo "verify: no $kind in $pkg matches '$pat'" >&2
			exit 1
		fi
	done
}

# race_guard PKG PATTERN... re-runs the tests matching any PATTERN under
# the race detector at two scheduler widths: GOMAXPROCS=2 forces heavy
# interleaving, 8 gives real parallelism.
race_guard() {
	pkg=$1
	shift
	require_listed Test "$pkg" "$@"
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
# checks that a restored platform rebuilds it. The arena tests poison the
# kernel's step arena after every step over the allocator matrix and step
# two kernels concurrently: a result or a later step that reads arena memory
# an earlier step left behind diverges. The build differential pins one
# kernel to the worker-major scan and one to the skill-first build: every
# batch's engine, step and book must match bit for bit.
echo "== go test -race candidate-engine and kernel guards (GOMAXPROCS=2, 8)"
race_guard ./internal/core/ TestBatchIndexParallelDeterministic \
	TestBatchIndexMatchesScan TestKernelCacheMatchesScratch \
	TestKernelPopulationMatchesFullScan TestKernelRetirementKeepsOutcome \
	TestKernelRetiresHandBuiltDoom TestKernelArenaPoison \
	TestKernelsStepConcurrently TestKernelCandidateBuildsAgree
race_guard ./internal/server/ TestRecoverRetiresDependantsOfBotchedTasks

# The game worklist engine's bit-exactness matrix (worklist vs naive sweep
# across thresholds and inits, on clean and corrupted batches), its
# evaluator differential against gameState.utility, and its GOMAXPROCS
# determinism sweep: the engine itself is single-threaded, and its state (gameState,
# gameWorklist, batch wiring) lives in each batch's step arena, while the
# sim and server allocate concurrently.
# The online regime runs every decision point as a kernel step, so every
# one runs the parallel index build: its tests (the per-arrival rule, the
# wake-up fixpoint, the one-task-per-worker-per-pass rule and the online
# goldens) run under the race detector too.
echo "== go test -race online regime on the kernel (GOMAXPROCS=2, 8)"
race_guard ./internal/sim/ TestOnline

echo "== go test -race game worklist guards (GOMAXPROCS=2, 8)"
race_guard ./internal/core/ TestGameWorklist

# The dense dependency wiring's differentials (map-based oracles for the
# wiring, the associative sets, G-G's seed filtered through the arena's
# dependency fixpoint, and Greedy's stamped column table), Greedy's
# staffable-set prune against its unpruned loop, and the wiring's
# concurrent test: batches wired concurrently, each in a step arena of its
# own, share no scratch.
echo "== go test -race dependency wiring (GOMAXPROCS=2, 8)"
race_guard ./internal/core/ TestDepWiring TestGreedyStaffMatchesMapOracle \
	TestGreedyPruneIsExact TestGreedyAssignIndicesMatchesAssign

# The group commit's concurrency tests (leader hand-over, bursts behind a
# stalled platform mutex, backpressure, Close, and the hammer: registrations,
# ticks, snapshot rotations and reads all concurrent, then a
# replay-equivalence check), plus its journal-failure atomicity for a lone
# leader and over HTTP.
echo "== go test -race group commit (GOMAXPROCS=2, 8)"
race_guard ./internal/server/ TestIngest TestAddWorkerJournalFailureAtomic \
	TestRegisterHTTPJournalFailure503

# bench_smoke PKG PATTERN... runs each benchmark matching any PATTERN once
# (-benchtime=1x): the smoke proves a benchmark still builds and runs; give
# it a real -benchtime to compare.
bench_smoke() {
	pkg=$1
	shift
	require_listed Benchmark "$pkg" "$@"
	run=$(printf '%s|' "$@")
	go test -run '^$' -bench "${run%|}" -benchtime=1x "$pkg" >/dev/null
}

# The candidate engine against its scan.
echo "== candidate engine micro-benchmark smoke"
bench_smoke ./internal/bench '^BenchmarkBatchCandidatesIndexed$'
echo "candidate engine smoke: OK"

# The DASC_Game worklist engine and the naive best-response sweep on the
# fig10-max workload; each run first checks the two bit-exact on the bench
# batch (VerifyWorklist).
echo "== game engine micro-benchmark smoke"
bench_smoke ./internal/bench '^BenchmarkGameAssignWorklist$' '^BenchmarkGameAssignNaive$'
echo "game engine smoke: OK"

# One instance at 500 tasks and one at fig10-max (8K tasks), allocations
# reported: the dependency construction shuffles every earlier task for each
# task. The pattern names the parent benchmark because require_listed's
# `go test -list` sees only top-level names.
echo "== generator micro-benchmark smoke"
bench_smoke . '^BenchmarkGenerateSynthetic$'
echo "generator smoke: OK"

# A tick's cost must not grow with history: one iteration of each history
# size (0, 50K, 200K expired or assigned registrations).
echo "== tick history micro-benchmark smoke"
bench_smoke ./internal/server '^BenchmarkTickHistory$'
echo "tick history smoke: OK"

# Restoring and writing a 200K-registration snapshot, once each.
echo "== snapshot codec micro-benchmark smoke"
bench_smoke ./internal/server '^BenchmarkReadSnapshot$' '^BenchmarkWriteSnapshot$'
echo "snapshot codec smoke: OK"

# Bounded fuzzing from the seed corpora under each package's testdata/fuzz:
# the one-pass decoders (instance, registration bodies, snapshot) against
# the strict encoding/json decoder they fall back to, the /v1/tick?t=
# parser against strconv.ParseFloat, and journal replay (no panic, and an
# accepted journal replays to the same registries twice). A short -fuzzminimizetime keeps the
# budget on new inputs rather than on shrinking the ones that widened
# coverage.
echo "== fuzz: one-pass decoders, the tick parser and journal replay (5s each)"
fuzz() {
	require_listed Fuzz "$1" "^$2\$"
	if ! out=$(go test -run '^$' -fuzz "^$2\$" -fuzztime 5s -fuzzminimizetime 1s "$1" 2>&1); then
		echo "$out" >&2
		exit 1
	fi
}
fuzz ./internal/dataset FuzzRead
fuzz ./internal/server FuzzParseDTO
fuzz ./internal/server FuzzReadSnapshot
fuzz ./internal/server FuzzTickParam
fuzz ./internal/server FuzzReplayJournal
echo "fuzz: OK"

# One fig10-max batch's dependency resolution, dense build and map-based
# oracle.
echo "== batch wiring micro-benchmark smoke"
bench_smoke ./internal/core '^BenchmarkBatchWiring$'
echo "batch wiring smoke: OK"

# A whole fig10-max run of G-G kernel steps at batch interval 1,
# allocations reported.
echo "== kernel step micro-benchmark smoke"
bench_smoke ./internal/core '^BenchmarkKernelStepFig10Max$'
echo "kernel step smoke: OK"

# Black-box durability check: a real dasc-server process with a journal is
# loaded over HTTP, SIGTERMed, restarted, and its /v1/stats +
# /v1/assignments diffed against the pre-kill values; a second round does
# the same through a snapshot + journal-tail recovery. The in-process
# equivalents (including truncation at every byte offset) run in the
# race-enabled server tests above, and the served-load check (the real
# binary under 16 concurrent clients at -fsync never and always, X-Request-ID
# echo, telemetry scrape, journal recovery byte-compared against
# GET /v1/instance) is cmd/dasc-server's TestServedLoadReplaysJournal in the
# go test phase.
echo "== lifecycle smoke (kill-and-restart differential)"
sh scripts/lifecycle_smoke.sh >/dev/null
echo "lifecycle smoke: OK"

echo "verify: OK"
