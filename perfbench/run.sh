#!/usr/bin/env bash
# Builds the benchmark and the resvc daemon from the tree it sits in, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload render --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binaries, resvc data dirs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/resvc" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/resvc here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/resvc" ./cmd/resvc >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -work "$out" "$@"
