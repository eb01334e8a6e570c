#!/usr/bin/env bash
# Builds the paper-regeneration benchmark from source and runs it. Run
# from the repository root:
#
#   bash regenbench/run.sh --workload pi-solve --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build and module caches, temporary
# files, the binary) stays under $CARGO_TARGET_DIR, default .bench_build,
# in the current directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$(dirname "$0")" && go build -o "$out/regenbench" .)
exec "$out/regenbench" "$@"
