// ICL012 (crate `canister`): a profiler read API is node-local — each
// replica accumulates its own frame tree — so branching replicated
// ingestion on a report value forks replicated state. The finding
// anchors at the read inside the update path.
// icbtc-lint: node-local -- profile reports are per-replica diagnostics
pub fn profile_root_total() -> u64 {
    0
}

pub fn try_ingest_block(raw: &[u8]) -> usize {
    if profile_root_total() > 1_000_000 {
        return 0;
    }
    raw.len()
}
