// Driver for `panic_dep_suppressed.rs`: the update root reaches the
// suppressed panic site.
pub fn try_ingest_block(raw: &[u8]) -> u64 {
    decode_header(raw)
}
