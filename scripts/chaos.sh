#!/usr/bin/env bash
# Chaos soak: run one Bitcoin adapter against a deliberately hostile
# simulated Bitcoin network and print the merged metrics registry.
#
#   scripts/chaos.sh [--seed N] [--plan NAME] [--recovery SECS] [--json] [--trace-out PATH]
#
# Plans: loss, partition, churn, crash, stall, malformed, mixed, none.
# Thin wrapper over the chaos_soak bench binary; all flags pass through.
# Same (seed, plan) => byte-identical output (scripts/verify.sh enforces
# this as the chaos determinism gate). The committed BENCH_chaos_gate.json
# is the stdout of `scripts/chaos.sh --seed 42 --plan mixed --json`; a
# change that moves an adapter or network number regenerates it.
set -euo pipefail

cd "$(dirname "$0")/.."

exec cargo run -q --release --offline -p icbtc-bench --bin chaos_soak -- "$@"
