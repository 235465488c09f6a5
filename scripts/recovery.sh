#!/usr/bin/env bash
# Durability-and-recovery soak: periodic full-state checkpoints, canister
# upgrades, replica crash–catch-up with deterministic replay, and
# shadow-replica divergence detection with seeded corruption.
#
#   scripts/recovery.sh [--seed N] [--rounds N] [--mine-every N] [--plan NAME]
#                       [--cadence N --upgrades N --crashes N --corruptions N]
#                       [--out PATH] [--metrics-out PATH]
#
# Thin wrapper over the recovery_soak bench binary; all flags pass
# through. Same flags => byte-identical report (scripts/verify.sh
# enforces this as the recovery determinism gate, and requires the small
# gate configuration to equal BENCH_recovery_gate.json exactly; the
# binary exits 3 if a catch-up fails to reconverge or a corruption goes
# undetected).
# The committed BENCH_recovery.json is the full-scale baseline, which
# scripts/verify.sh also reruns and requires exactly:
#
#   scripts/recovery.sh --seed 42 --rounds 240 --cadence 15 \
#       --upgrades 4 --crashes 6 --corruptions 3 --out BENCH_recovery.json
set -euo pipefail

cd "$(dirname "$0")/.."

exec cargo run -q --release --offline -p icbtc-bench --bin recovery_soak -- "$@"
