#!/usr/bin/env bash
# Builds the planning daemon (cmd/mcmpartd) and the benchmark program from
# the source tree this script sits in, then runs one benchmark workload:
#
#   bash e2ebench/run.sh --workload serve-corpus --seed 1 --seconds 25 --trace 0
#
# Every build artefact, Go cache, policy file and daemon log stays under the
# build directory ($CARGO_TARGET_DIR, default .bench_build) of the checkout.
# The last line of standard output is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTELEMETRY=off
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"

cd "$root"
go build -o "$build/bin/mcmpartd" ./cmd/mcmpartd >&2
(cd "$root/e2ebench" && go build -o "$build/bin/e2ebench" .) >&2
exec "$build/bin/e2ebench" -root "$root" -build "$build" -daemon "$build/bin/mcmpartd" "$@"
