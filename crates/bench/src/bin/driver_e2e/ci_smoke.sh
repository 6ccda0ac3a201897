#!/usr/bin/env bash
# Smoke gate for the driver_e2e benchmark: its unit tests, then every
# workload at 1/50 size, both passes (untraced, traced), correctness gate on,
# regression bounds off. The run exits non-zero when a workload fails its
# gate or a pass does not report every metric of its table.
# Builds the benchmark's own package, so it needs nothing but this checkout.
# A later change can call this from scripts/ci_check.sh as is.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/../../../../.." # repo root: --repeat and the tests read BENCHMARK.json

cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml"
cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
    --smoke --seed "${SEED:-1}" >/dev/null
echo "driver_e2e smoke: ok"
