// ICL012 (crate `canister`): a node-local read reachable from a
// replicated update entry point. The finding anchors at the call site
// inside the update path.
// icbtc-lint: node-local -- per-replica cache occupancy, for observability only
pub fn cache_len() -> usize {
    0
}

pub fn try_ingest_block(_raw: &[u8]) -> usize {
    cache_len()
}
