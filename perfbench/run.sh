#!/usr/bin/env bash
# Builds mssd, mss and the benchmark from this checkout into .bench_build,
# then runs one workload:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file it writes (Go build cache,
# binaries, daemon data dirs, spans, reports) lands under .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mssd" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/mssd here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
unset GOMAXPROCS

go build -o "$out/bin/mssd" ./cmd/mssd >&2
go build -o "$out/bin/mss" ./cmd/mss >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
