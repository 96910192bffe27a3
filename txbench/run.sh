#!/usr/bin/env bash
# Builds txbench from the sources of the checkout it sits in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash txbench/run.sh --workload kv-read-http --seed 1 --seconds 30 --trace 0
#   bash txbench/run.sh --selfcheck
#
# Everything the build writes (Go build cache, temporary files, the
# binary, span dumps) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/txbench" && go build -o "$out/txbench" .) >&2
cd "$root"
exec "$out/txbench" "$@"
