#!/usr/bin/env bash
# Builds s3pg, s3pgd and the benchmark from this checkout, then runs the
# benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --steady 10 [--workload serve-read]
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/s3pg || ! -d cmd/s3pgd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: error: run from the root of an s3pg checkout (go.mod, cmd/s3pg, cmd/s3pgd and perfbench/ not found)" >&2
	exit 2
fi

out=.bench_build
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files in
# the checkout too.
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomod" GOPATH="$PWD/$out/gopath" TMPDIR="$PWD/$out/tmp"
export XDG_CONFIG_HOME="$PWD/$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/s3pg ./cmd/s3pgd
(cd perfbench && go build -o "../$out/bin/perfbench" .)
exec "$out/bin/perfbench" --bin "$out/bin" "$@"
