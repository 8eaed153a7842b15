#!/usr/bin/env bash
# Builds cmd/emserve and the benchmark into .bench_build/ and runs the
# benchmark. Run from the repository root:
#
#   bash e2ebench/run.sh --workload catalog-local --seed 1 --seconds 20 --trace 0
#
# Everything the toolchain and the benchmark write (build cache,
# temporary files, server logs, persist directories, traces) stays
# under .bench_build/. The build is offline: the benchmark module only
# depends on the repository's own module, through a replace directive.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
    GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
    GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
    GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOENV=off CGO_ENABLED=0
# With telemetry on or local, every go command forks a detached sidecar
# that outlives the build; the mode file under the private config dir
# turns it off so the benchmark leaves no process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"
(cd "$root/e2ebench" && go build -o "$build/bin/emserve" llm4em/cmd/emserve && go build -o "$build/bin/e2ebench" .)
exec "$build/bin/e2ebench" -emserve "$build/bin/emserve" -workdir "$build" "$@"
