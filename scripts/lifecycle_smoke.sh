#!/bin/sh
# Black-box lifecycle smoke: kill-and-restart differential for dasc-server.
#
# Phase 1 — journal recovery: start a journaled server, load workers and
# tasks over HTTP, run two manual ticks, SIGTERM it (graceful drain), restart
# from the same journal and require /v1/stats and /v1/assignments to match
# the pre-kill values byte for byte.
#
# Phase 2 — snapshot recovery: POST /v1/snapshot (rotates the journal), add
# more work, tick again, SIGTERM, restart, and require (a) the same state and
# (b) the recovery log to show the snapshot loaded with only the
# post-snapshot tick replayed — proving recovery is snapshot + short tail,
# not full-history re-simulation.
#
# The in-process equivalents run under `go test -race ./internal/server/`;
# this script exercises the real binary, real signals and a real journal
# file.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "building dasc-server..."
go build -o "$tmp/dasc-server" ./cmd/dasc-server

journal="$tmp/platform.jsonl"
base=""

start_server() {
	: >"$tmp/server.log"
	"$tmp/dasc-server" -addr 127.0.0.1:0 -manual -fsync always \
		-journal "$journal" >"$tmp/server.log" 2>&1 &
	pid=$!
	base=""
	i=0
	while [ $i -lt 200 ]; do
		base=$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$tmp/server.log" | head -1)
		[ -n "$base" ] && break
		i=$((i + 1))
		sleep 0.05
	done
	if [ -z "$base" ]; then
		echo "lifecycle smoke: server did not start" >&2
		cat "$tmp/server.log" >&2
		exit 1
	fi
	base="http://$base"
	i=0
	while [ $i -lt 200 ]; do
		if curl -fsS "$base/v1/readyz" >/dev/null 2>&1; then
			return 0
		fi
		i=$((i + 1))
		sleep 0.05
	done
	echo "lifecycle smoke: server never became ready" >&2
	cat "$tmp/server.log" >&2
	exit 1
}

stop_server() {
	kill -TERM "$pid"
	if ! wait "$pid"; then
		echo "lifecycle smoke: server exited non-zero on SIGTERM" >&2
		cat "$tmp/server.log" >&2
		exit 1
	fi
	pid=""
}

post() {
	curl -fsS -X POST "$base$1" -H 'Content-Type: application/json' ${2:+-d "$2"} >/dev/null
}

# Memo counters are rebuilt observability, not logical state; a
# snapshot-based restart rightly restarts them from the replayed tail only.
capture_state() {
	curl -fsS "$base/v1/stats" |
		sed -E 's/"(memo_hits|memo_misses)":[0-9]+/"\1":_/g' >"$1.stats"
	curl -fsS "$base/v1/assignments" >"$1.assign"
}

echo "phase 1: journaled run..."
start_server
post /v1/workers '{"x":0,"y":0,"start":0,"wait":100,"velocity":2,"max_dist":100,"skills":[0,1]}'
post /v1/workers '{"x":5,"y":5,"start":0,"wait":100,"velocity":2,"max_dist":100,"skills":[1,2]}'
post /v1/tasks '{"x":1,"y":1,"start":0,"wait":50,"requires":0,"deps":[],"weight":2}'
post /v1/tasks '{"x":4,"y":4,"start":0,"wait":50,"requires":2,"deps":[],"weight":1}'
post /v1/tasks '{"x":2,"y":2,"start":0,"wait":80,"requires":1,"deps":[0],"weight":3}'
post '/v1/tick?t=0'
post '/v1/tick?t=5'
capture_state "$tmp/before"
stop_server

echo "phase 1: restart + diff..."
start_server
capture_state "$tmp/after"
diff -u "$tmp/before.stats" "$tmp/after.stats"
diff -u "$tmp/before.assign" "$tmp/after.assign"
grep -q 'msg="recovery complete"' "$tmp/server.log"

echo "phase 2: snapshot + tail..."
post /v1/snapshot
if [ -s "$journal" ]; then
	echo "lifecycle smoke: journal not rotated by snapshot" >&2
	exit 1
fi
post /v1/tasks '{"x":3,"y":3,"start":0,"wait":80,"requires":1,"deps":[],"weight":1}'
post '/v1/tick?t=10'
capture_state "$tmp/before2"
stop_server

echo "phase 2: restart + diff..."
start_server
capture_state "$tmp/after2"
diff -u "$tmp/before2.stats" "$tmp/after2.stats"
diff -u "$tmp/before2.assign" "$tmp/after2.assign"
# Snapshot-based recovery must replay only the post-snapshot tail: 2 journal
# entries (the task and the tick), 1 of them a tick — not all 3 batches.
grep -q 'snapshot_loaded=true' "$tmp/server.log"
grep -q 'entries_replayed=2 ticks_replayed=1' "$tmp/server.log"
stop_server

echo "lifecycle smoke: OK"
