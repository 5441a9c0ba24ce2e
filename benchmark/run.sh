#!/usr/bin/env bash
# Builds the benchmark (offline; into $CARGO_TARGET_DIR, or benchmark/target) and runs
# it with the given arguments. See README.md for the arguments and the output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- --out-dir "$here/out" "$@"
