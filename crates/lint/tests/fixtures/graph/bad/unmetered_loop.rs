// ICL013 (crate `canister`): a loop on the update path whose call
// closure records no metering constant.
pub fn try_ingest_block(raw: &[u8]) -> u64 {
    let mut acc = 0u64;
    for byte in raw {
        acc += *byte as u64;
    }
    acc
}
