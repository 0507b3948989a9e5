#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload query|live --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout. The build cache, binary, lakes and
# traces all live under .bench_build/ in the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/campaign" ]]; then
	echo "perfbench: $root is not a btpub checkout (no go.mod or internal/)" >&2
	exit 2
fi

# Everything the go command writes (build cache, temp files, module
# cache, telemetry counters under the config dir) stays in the checkout.
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

go build -C "$here" -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
