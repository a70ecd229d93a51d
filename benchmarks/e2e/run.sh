#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ of the checkout it is run from and
# runs it there with the arguments given. Go's caches are kept in
# .bench_build/ too, so that the benchmark writes nothing outside the checkout.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/dcert-e2e" . >&2
exec "$out/dcert-e2e" -scratch "$out/tmp" "$@"
