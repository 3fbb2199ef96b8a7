#!/bin/bash
# Builds the benchmark harness from this checkout and runs it from the
# repository root. Everything the build and the run write — Go's build cache
# and temp files, the binaries, the daemons' stores and logs — stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/staleapid" ]; then
	echo "benchmark: $root is not a checkout of the repository (no go.mod, no cmd/staleapid): nothing to measure" >&2
	exit 1
fi
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
