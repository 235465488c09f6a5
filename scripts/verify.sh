#!/usr/bin/env bash
# Tier-1 verification, fully offline.
#
# The workspace is hermetic: no crates.io dependencies, so the build must
# succeed with the network disabled and an empty registry cache. Any PR
# that reintroduces a registry dependency fails here immediately — cargo's
# --offline flag refuses to resolve anything outside the workspace.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# perfbench/ is a Cargo workspace of its own with path dependencies on
# this one (icbtc-bench included), so the workspace build above never
# compiles it; its equivalence and manifest tests run here.
echo "==> cargo test -q --offline --manifest-path perfbench/Cargo.toml"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT

# same_twice NAME CMD ARG...
#
# Determinism gate: runs CMD twice and fails unless both runs produced
# byte-identical output. Every "@RUN" in an argument becomes the run
# number (1, 2); each such argument names an output file to compare, and
# stdout is compared too (kept as $OBS_TMP/NAME.1.out, NAME.2.out). A
# failing run aborts with the tail of its stderr.
same_twice() {
    local name="$1" run arg
    shift
    for run in 1 2; do
        if ! "${@//@RUN/$run}" > "$OBS_TMP/$name.$run.out" 2> "$OBS_TMP/$name.$run.err"; then
            echo "ERROR: $name run $run failed:" >&2
            tail -20 "$OBS_TMP/$name.$run.err" >&2
            exit 1
        fi
    done
    for arg in "$OBS_TMP/$name.@RUN.out" "$@"; do
        case "$arg" in *@RUN*) ;; *) continue ;; esac
        if ! diff -q "${arg//@RUN/1}" "${arg//@RUN/2}" >/dev/null; then
            echo "ERROR: two same-seed $name runs differ in ${arg//@RUN/N}:" >&2
            diff "${arg//@RUN/1}" "${arg//@RUN/2}" | head -20 >&2 || true
            exit 1
        fi
    done
}

# matches_gate FRESH GATE: a bench report is an exact function of its
# flags, so it must equal its committed file byte for byte.
matches_gate() {
    if ! diff -q "$1" "$2" >/dev/null; then
        echo "ERROR: fresh report differs from committed $2 (regenerate it only for an intended change):" >&2
        diff "$2" "$1" >&2 || true
        exit 1
    fi
}

# require FILE PATTERN...: FILE contains every PATTERN.
require() {
    local file="$1" pattern
    shift
    for pattern in "$@"; do
        if ! grep -q -- "$pattern" "$file"; then
            echo "ERROR: $file is missing $pattern" >&2
            exit 1
        fi
    done
}

echo "==> icbtc-lint (determinism / replicated-state static analysis, double run)"
# The analyzer itself must be deterministic: two runs over the same tree
# must emit byte-identical JSON (timings are only rendered under
# --timings, which is deliberately off here).
same_twice lint cargo run -q --release --offline -p icbtc-lint --bin icbtc-lint -- --root . --json
if ! grep -q '"violation_count": 0' "$OBS_TMP/lint.1.out"; then
    echo "ERROR: icbtc-lint found violations:" >&2
    cargo run -q --release --offline -p icbtc-lint --bin icbtc-lint -- --root . >&2 || true
    exit 1
fi

# rustfmt.toml holds the formatting rules; the files listed here follow
# them already and must stay formatted. The rest of the tree is not
# formatted yet, so a file joins this list once a change formats it.
if rustfmt --version >/dev/null 2>&1; then
    echo "==> rustfmt --check --edition 2021 (files already formatted under rustfmt.toml)"
    rustfmt --check --edition 2021 \
        crates/bitcoin/src/block.rs \
        crates/bitcoin/src/encode.rs \
        crates/bitcoin/src/hash.rs \
        crates/bitcoin/src/script.rs \
        crates/bitcoin/src/tree.rs \
        crates/bitcoin/src/tx.rs \
        crates/canister/src/api.rs \
        crates/canister/src/canister.rs \
        crates/canister/src/qcache.rs \
        crates/canister/src/stable_chain.rs \
        crates/canister/src/state.rs \
        crates/canister/src/storage/btree.rs \
        crates/canister/src/storage/codec.rs \
        crates/canister/src/storage/mod.rs \
        crates/canister/src/storage/page.rs \
        crates/canister/src/utxoset.rs \
        crates/core/src/protocol.rs \
        crates/core/src/stability.rs \
        crates/ic/src/meter.rs \
        crates/sim/src/obs/prof.rs \
        crates/tecdsa/src/curve.rs
else
    echo "WARNING: rustfmt not installed in this toolchain; skipping the formatting gate" >&2
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
    cargo clippy -q --offline --workspace --all-targets -- -D warnings
    # perfbench/ compiles against the workspace's public API but is a
    # workspace of its own, so the step above never lints it.
    echo "==> cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings"
    cargo clippy -q --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
else
    echo "WARNING: clippy not installed in this toolchain; skipping clippy gate" >&2
fi

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --offline --workspace --no-deps"
# A public doc that links a deleted or private item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

echo "==> examples determinism gate (each example's stdout is byte-identical across two runs)"
# The debug example binaries are already built by the workspace test
# step above.
for example in quickstart escrow payroll double_spend_attack; do
    same_twice "example_$example" cargo run -q --offline --example "$example"
done

echo "==> observability determinism gate (same seed => byte-identical metrics + trace)"
same_twice obs_trace cargo run -q --release --offline -p icbtc-bench --bin obs_trace -- \
    --seed 42 --rounds 120 --json --trace-out "$OBS_TMP/trace@RUN.jsonl"

echo "==> chaos gate (byte-identical soak, equal to BENCH_chaos_gate.json)"
same_twice chaos_soak cargo run -q --release --offline -p icbtc-bench --bin chaos_soak -- \
    --seed 42 --plan mixed --json --trace-out "$OBS_TMP/chaos@RUN.jsonl"
matches_gate "$OBS_TMP/chaos_soak.1.out" BENCH_chaos_gate.json

echo "==> calibration determinism gate (fee constants and replicated-call latency path)"
# The only binaries that read the cycles fee constants and the replicated
# routing/certification/XNet latency constants; the exact values are
# pinned by the icbtc-ic unit tests.
same_twice cost_per_request cargo run -q --release --offline -p icbtc-bench --bin cost_per_request
same_twice fig7_request_latency cargo run -q --release --offline -p icbtc-bench --bin fig7_request_latency -- 20

echo "==> query-plane gate (byte-identical qps report, equal to BENCH_qps_gate.json)"
# qps_soak itself exits non-zero if the cache-hit path's per-hit cost is
# not below its pre-optimization flat cost.
same_twice qps_soak cargo run -q --release --offline -p icbtc-bench --bin qps_soak -- \
    --seed 42 --addresses 20000 --requests 4000 --rate 64 \
    --out "$OBS_TMP/qps@RUN.json" --metrics-out "$OBS_TMP/qps_metrics@RUN.json"
matches_gate "$OBS_TMP/qps1.json" BENCH_qps_gate.json
require BENCH_qps.json '"schema_version": 1' '"hot_path"'

echo "==> profiler determinism gate (same flags => byte-identical profile report)"
same_twice prof_report cargo run -q --release --offline -p icbtc-bench --bin prof_report -- \
    --seed 42 --blocks 6 --queries 32 --out "$OBS_TMP/prof@RUN.txt"
require "$OBS_TMP/prof1.txt" 'root_total:' '## collapsed stacks' 'canister;' 'subnet;'

echo "==> storage gate (byte-identical utxo report, equal to BENCH_utxo_gate.json)"
same_twice fig5_utxo_growth cargo run -q --release --offline -p icbtc-bench --bin fig5_utxo_growth -- \
    --seed 42 --blocks 80 --volume-scale 25 --budget-mib 64 --sample-every 20 \
    --out "$OBS_TMP/utxo@RUN.json" --metrics-out "$OBS_TMP/utxo_metrics@RUN.json"
matches_gate "$OBS_TMP/utxo1.json" BENCH_utxo_gate.json
require BENCH_utxo.json '"schema_version": 1' '"state_hash": "'

echo "==> recovery gate (byte-identical lifecycle soak, equal to BENCH_recovery_gate.json and BENCH_recovery.json)"
# recovery_soak itself exits non-zero if a catch-up fails to reconverge
# or detections differ from injected corruptions.
same_twice recovery_soak cargo run -q --release --offline -p icbtc-bench --bin recovery_soak -- \
    --seed 42 --rounds 60 --plan mixed \
    --out "$OBS_TMP/recovery@RUN.json" --metrics-out "$OBS_TMP/recovery_metrics@RUN.json"
matches_gate "$OBS_TMP/recovery1.json" BENCH_recovery_gate.json
# The full-scale baseline is cheap enough to rerun whole (the flags of
# scripts/recovery.sh's header), so a stale committed hash fails here.
scripts/recovery.sh --seed 42 --rounds 240 --cadence 15 \
    --upgrades 4 --crashes 6 --corruptions 3 --out "$OBS_TMP/recovery_full.json" \
    > /dev/null 2> "$OBS_TMP/recovery_full.err" || {
    tail -20 "$OBS_TMP/recovery_full.err" >&2
    exit 1
}
matches_gate "$OBS_TMP/recovery_full.json" BENCH_recovery.json

echo "==> verifying the dependency tree is workspace-only"
if cargo tree --offline --prefix none | grep -v '^icbtc' | grep -q '[^[:space:]]'; then
    echo "ERROR: non-workspace dependency detected:" >&2
    cargo tree --offline --prefix none | grep -v '^icbtc' >&2
    exit 1
fi

echo "OK: hermetic build + tests + perfbench tests + lint + rustfmt + rustdoc + observability + chaos + query-plane + profiler + storage + recovery gates passed"
