#!/usr/bin/env bash
# Builds towerbench from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash towerbench/run.sh --workload resume-echo --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the toolchain's own config files
# and span files stay under $CARGO_TARGET_DIR (default .bench_build) in
# the checkout. Without the repository's sources beside it the build
# fails and nothing is printed on standard output.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$root/towerbench" && go build -o "$out/towerbench" .) >&2
cd "$root"
exec "$out/towerbench" --out "$out" "$@"
