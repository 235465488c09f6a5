// ICL011 driver (crate `canister`): an update entry point whose call
// chain crosses into a dependency crate that panics. The finding is
// reported at the panic site in the *other* file.
pub fn try_ingest_block(raw: &[u8]) -> u64 {
    decode_header(raw)
}
