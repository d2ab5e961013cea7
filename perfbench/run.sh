#!/usr/bin/env bash
# Builds dasc-server and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload history --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product, Go cache and scratch
# file stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

if [[ ! -f go.mod || ! -d cmd/dasc-server ]]; then
	echo "perfbench: run from the root of a dasc checkout (no go.mod or cmd/dasc-server here)" >&2
	exit 2
fi

# With telemetry on (the default in a fresh config directory) every go
# command may start a detached upload process that outlives this script.
go telemetry off >&2

go build -o "$out/dasc-server" ./cmd/dasc-server >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

# A relative work directory keeps the Unix socket path short (sun_path
# holds 108 bytes) wherever the checkout lives.
exec "$out/perfbench" -server "$out/dasc-server" -work .bench_build/work "$@"
