#!/usr/bin/env bash
# The benchmark's single entry point. Builds the cost-ledger binary from
# this checkout (offline, path dependencies only) and runs it from the
# repository root, so scratch stores land in benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p benchmark/out
export BENCH_RUSTC="$(rustc --version 2>/dev/null || echo 'rustc unknown')"
export BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_FS="$(stat -f -c %T benchmark/out 2>/dev/null || echo unknown)"
exec cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- "$@"
