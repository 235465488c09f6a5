//! A fixed reference workload that measures the host's current speed.
//!
//! The benchmark runs it before every episode. It uses only `std`, never
//! the program's code, so a change to the program cannot change it: how
//! long it takes depends on the host alone. On a shared host that time
//! swings with the load other tenants put on the core, and the program's
//! times swing with it; `report` divides the swing out (see
//! [`NOMINAL_NS`]).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference pass's time on an idle 2-vCPU Intel Xeon host: the
/// fastest passes seen there took 10.1 to 10.4 ms. Host times are reported
/// as if every run had the reference's speed: a time measured in a run whose
/// fastest reference pass took `r` ns is multiplied by `NOMINAL_NS / r`.
pub const NOMINAL_NS: u64 = 10_000_000;

/// Keys the map holds: enough to spill out of the first-level caches.
const KEYS: u64 = 24_000;
/// Bytes the mixing pass streams over.
const BUFFER: usize = 1 << 20;

fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One pass of the reference work: map inserts, lookups and removals
/// (allocation and pointer chasing), then a hash-like pass over a buffer
/// (integer arithmetic and streaming memory). Returns its host time in
/// nanoseconds.
pub fn reference_ns() -> u64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut map: BTreeMap<u64, [u64; 4]> = BTreeMap::new();
    for i in 0..KEYS {
        let key = next(&mut x) % (4 * KEYS);
        map.insert(key, [i, key, i ^ key, 0]);
    }
    let mut sum = 0u64;
    for _ in 0..KEYS {
        let key = next(&mut x) % (4 * KEYS);
        if let Some(value) = map.get(&key) {
            sum = sum.wrapping_add(value[2]);
        }
        if let Some(value) = map.remove(&(key ^ 1)) {
            sum = sum.wrapping_add(value[0]);
        }
    }
    let mut buffer = vec![0u8; BUFFER];
    for (i, byte) in buffer.iter_mut().enumerate() {
        *byte = (next(&mut x) >> 32) as u8 ^ i as u8;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in buffer.chunks_exact(8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(0x0100_0000_01b3).rotate_left(5);
    }
    black_box((sum, h, map.len()));
    start.elapsed().as_nanos() as u64
}
