// ICL013 clean pair: the loop's call closure records a metering
// constant (through a helper, exercising the downward closure).
pub fn try_ingest_block(raw: &[u8]) -> u64 {
    let mut acc = 0u64;
    for byte in raw {
        acc += charge_one(*byte);
    }
    acc
}

fn charge_one(byte: u8) -> u64 {
    let cost = metering::PARSE_TX;
    byte as u64 + cost
}
