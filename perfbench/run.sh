#!/bin/sh
# Builds blobnode and the benchmark from the checkout in the current
# directory (the repository root), then runs the benchmark with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload cutout --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh compare runs-parent runs-change
# Every build output, cache and scratch file stays under .bench_build.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/blobnode" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/blobnode not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/blobnode" ./cmd/blobnode
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
if [ "${1:-}" = compare ]; then
	exec "$out/perfbench" "$@"
fi
exec "$out/perfbench" -blobnode "$out/blobnode" -workdir "$out" -commit "$commit" "$@"
