#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it.
# Usage, from the root of the repository:
#   bash perfbench/run.sh --workload paper|sweep|hunt --seed N --seconds S --trace 0|1
# Build outputs, the Go build cache and the Go tool's own state stay in
# .bench_build at the root, so a run writes nowhere outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$here" -root "$root" "$@"
