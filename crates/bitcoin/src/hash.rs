//! Cryptographic hash primitives implemented from scratch.
//!
//! Bitcoin's consensus and address rules are built on SHA-256 (single and
//! double), RIPEMD-160 and, since taproot, BIP-340 *tagged* hashes; the
//! deterministic-nonce signing in `icbtc-tecdsa` additionally needs
//! HMAC-SHA-256. No third-party cryptography crates are used in this
//! workspace, so all four are implemented here, with the standard test
//! vectors in the test module.

use std::fmt;

/// Writes the Merkle–Damgård padding after the `buffered` message bytes
/// held in `buffer`: the `0x80` marker, zeros, and the message `length`
/// in bits (already in the hash's byte order) in the last 8 bytes. When
/// the marker leaves no room for the length, the filled block is
/// returned to be compressed first and `buffer` becomes the final block.
fn pad(buffer: &mut [u8; 64], buffered: usize, length: [u8; 8]) -> Option<[u8; 64]> {
    buffer[buffered] = 0x80;
    buffer[buffered + 1..].fill(0);
    let mut full = None;
    if buffered >= 56 {
        full = Some(*buffer);
        buffer.fill(0);
    }
    buffer[56..].copy_from_slice(&length);
    full
}

// ---------------------------------------------------------------------------
// SHA-256
// ---------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const SHA256_INIT: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use icbtc_bitcoin::hash::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), icbtc_bitcoin::hash::sha256(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: SHA256_INIT, buffer: [0; 64], buffered: 0, length: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length += data.len() as u64;
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while input.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&input[..64]);
            self.compress(&block);
            input = &input[64..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// The number of bytes absorbed so far.
    pub fn absorbed(&self) -> u64 {
        self.length
    }

    /// Finishes the computation and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.length * 8;
        if let Some(block) = pad(&mut self.buffer, self.buffered, bit_len.to_be_bytes()) {
            self.compress(&block);
        }
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Finishes with Bitcoin's double SHA-256 of everything absorbed.
    pub fn finalize_double(self) -> [u8; 32] {
        sha256(&self.finalize())
    }

    /// A hasher primed with `tag`'s BIP-340 prefix; see [`tagged_hash`].
    pub fn tagged(tag: &str) -> Self {
        let tag_hash = sha256(tag.as_bytes());
        let mut h = Sha256::new();
        h.update(&tag_hash);
        h.update(&tag_hash);
        h
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 =
                h.wrapping_add(s1).wrapping_add(ch).wrapping_add(SHA256_K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// Computes SHA-256 of `data` in one call.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Computes Bitcoin's double SHA-256, `SHA256(SHA256(data))`.
pub fn sha256d(data: &[u8]) -> [u8; 32] {
    sha256(&sha256(data))
}

/// Computes a BIP-340 tagged hash: `SHA256(SHA256(tag) || SHA256(tag) || data)`.
pub fn tagged_hash(tag: &str, data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::tagged(tag);
    h.update(data);
    h.finalize()
}

/// Computes HMAC-SHA-256 with the given key.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    inner.update(&key_block.map(|b| b ^ 0x36));
    inner.update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&key_block.map(|b| b ^ 0x5c));
    outer.update(&inner_digest);
    outer.finalize()
}

// ---------------------------------------------------------------------------
// RIPEMD-160
// ---------------------------------------------------------------------------

/// A streaming RIPEMD-160 hasher, used for Bitcoin's HASH160 addresses.
///
/// # Examples
///
/// ```
/// use icbtc_bitcoin::hash::Ripemd160;
/// let mut h = Ripemd160::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0x8e);
/// ```
#[derive(Clone, Debug)]
pub struct Ripemd160 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl Default for Ripemd160 {
    fn default() -> Self {
        Self::new()
    }
}

const RIPEMD_R: [usize; 80] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, //
    7, 4, 13, 1, 10, 6, 15, 3, 12, 0, 9, 5, 2, 14, 11, 8, //
    3, 10, 14, 4, 9, 15, 8, 1, 2, 7, 0, 6, 13, 11, 5, 12, //
    1, 9, 11, 10, 0, 8, 12, 4, 13, 3, 7, 15, 14, 5, 6, 2, //
    4, 0, 5, 9, 7, 12, 2, 10, 14, 1, 3, 8, 11, 6, 15, 13,
];
const RIPEMD_RP: [usize; 80] = [
    5, 14, 7, 0, 9, 2, 11, 4, 13, 6, 15, 8, 1, 10, 3, 12, //
    6, 11, 3, 7, 0, 13, 5, 10, 14, 15, 8, 12, 4, 9, 1, 2, //
    15, 5, 1, 3, 7, 14, 6, 9, 11, 8, 12, 2, 10, 0, 4, 13, //
    8, 6, 4, 1, 3, 11, 15, 0, 5, 12, 2, 13, 9, 7, 10, 14, //
    12, 15, 10, 4, 1, 5, 8, 7, 6, 2, 13, 14, 0, 3, 9, 11,
];
const RIPEMD_S: [u32; 80] = [
    11, 14, 15, 12, 5, 8, 7, 9, 11, 13, 14, 15, 6, 7, 9, 8, //
    7, 6, 8, 13, 11, 9, 7, 15, 7, 12, 15, 9, 11, 7, 13, 12, //
    11, 13, 6, 7, 14, 9, 13, 15, 14, 8, 13, 6, 5, 12, 7, 5, //
    11, 12, 14, 15, 14, 15, 9, 8, 9, 14, 5, 6, 8, 6, 5, 12, //
    9, 15, 5, 11, 6, 8, 13, 12, 5, 12, 13, 14, 11, 8, 5, 6,
];
const RIPEMD_SP: [u32; 80] = [
    8, 9, 9, 11, 13, 15, 15, 5, 7, 7, 8, 11, 14, 14, 12, 6, //
    9, 13, 15, 7, 12, 8, 9, 11, 7, 7, 12, 7, 6, 15, 13, 11, //
    9, 7, 15, 11, 8, 6, 6, 14, 12, 13, 5, 14, 13, 13, 7, 5, //
    15, 5, 8, 11, 14, 14, 6, 14, 6, 9, 12, 9, 12, 5, 15, 8, //
    8, 5, 12, 9, 12, 5, 14, 6, 8, 13, 6, 5, 15, 13, 11, 11,
];

impl Ripemd160 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Ripemd160 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0],
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length += data.len() as u64;
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while input.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&input[..64]);
            self.compress(&block);
            input = &input[64..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Finishes the computation and returns the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.length * 8;
        if let Some(block) = pad(&mut self.buffer, self.buffered, bit_len.to_le_bytes()) {
            self.compress(&block);
        }
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        fn f(j: usize, x: u32, y: u32, z: u32) -> u32 {
            match j / 16 {
                0 => x ^ y ^ z,
                1 => (x & y) | (!x & z),
                2 => (x | !y) ^ z,
                3 => (x & z) | (y & !z),
                _ => x ^ (y | !z),
            }
        }
        const K: [u32; 5] = [0x00000000, 0x5a827999, 0x6ed9eba1, 0x8f1bbcdc, 0xa953fd4e];
        const KP: [u32; 5] = [0x50a28be6, 0x5c4dd124, 0x6d703ef3, 0x7a6d76e9, 0x00000000];

        let mut x = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            x[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        let [mut ap, mut bp, mut cp, mut dp, mut ep] = self.state;
        for j in 0..80 {
            let t = a
                .wrapping_add(f(j, b, c, d))
                .wrapping_add(x[RIPEMD_R[j]])
                .wrapping_add(K[j / 16])
                .rotate_left(RIPEMD_S[j])
                .wrapping_add(e);
            a = e;
            e = d;
            d = c.rotate_left(10);
            c = b;
            b = t;
            let t = ap
                .wrapping_add(f(79 - j, bp, cp, dp))
                .wrapping_add(x[RIPEMD_RP[j]])
                .wrapping_add(KP[j / 16])
                .rotate_left(RIPEMD_SP[j])
                .wrapping_add(ep);
            ap = ep;
            ep = dp;
            dp = cp.rotate_left(10);
            cp = bp;
            bp = t;
        }
        let t = self.state[1].wrapping_add(c).wrapping_add(dp);
        self.state[1] = self.state[2].wrapping_add(d).wrapping_add(ep);
        self.state[2] = self.state[3].wrapping_add(e).wrapping_add(ap);
        self.state[3] = self.state[4].wrapping_add(a).wrapping_add(bp);
        self.state[4] = self.state[0].wrapping_add(b).wrapping_add(cp);
        self.state[0] = t;
    }
}

/// Computes Bitcoin's HASH160, `RIPEMD160(SHA256(data))`.
pub fn hash160(data: &[u8]) -> [u8; 20] {
    let mut r = Ripemd160::new();
    r.update(&sha256(data));
    r.finalize()
}

// ---------------------------------------------------------------------------
// Hash newtypes
// ---------------------------------------------------------------------------

fn write_hex_reversed(f: &mut fmt::Formatter<'_>, bytes: &[u8]) -> fmt::Result {
    for b in bytes.iter().rev() {
        write!(f, "{b:02x}")?;
    }
    Ok(())
}

/// Parses a hex string of the *display* (byte-reversed) form into internal
/// byte order. Returns `None` on bad length or non-hex characters.
fn parse_hex_reversed<const N: usize>(s: &str) -> Option<[u8; N]> {
    if s.len() != 2 * N || !s.is_ascii() {
        return None;
    }
    let mut out = [0u8; N];
    for i in 0..N {
        let byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()?;
        out[N - 1 - i] = byte;
    }
    Some(out)
}

macro_rules! hash256_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        ///
        /// Internally stored in the byte order produced by the hash function;
        /// `Display` renders the conventional byte-reversed hex used by
        /// Bitcoin tooling.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name(pub [u8; 32]);

        /// The bytes' lexicographic order, compared eight at a time: these
        /// are the keys of the header trees and the UTXO maps.
        impl Ord for $name {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                let word = |h: &[u8; 32], i| u64::from_be_bytes(std::array::from_fn(|j| h[i + j]));
                for i in [0, 8, 16, 24] {
                    let order = word(&self.0, i).cmp(&word(&other.0, i));
                    if order.is_ne() {
                        return order;
                    }
                }
                std::cmp::Ordering::Equal
            }
        }

        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl $name {
            /// The all-zero hash, used as the "no predecessor" sentinel.
            pub const ZERO: $name = $name([0; 32]);

            /// Returns the raw bytes in internal order.
            pub const fn to_bytes(self) -> [u8; 32] {
                self.0
            }

            /// Returns the raw bytes in internal order.
            pub fn as_bytes(&self) -> &[u8; 32] {
                &self.0
            }

            /// Parses the byte-reversed hex form produced by `Display`.
            pub fn from_hex(s: &str) -> Option<Self> {
                parse_hex_reversed::<32>(s).map($name)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write_hex_reversed(f, &self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self)
            }
        }

        impl AsRef<[u8]> for $name {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }

        impl From<[u8; 32]> for $name {
            fn from(bytes: [u8; 32]) -> Self {
                $name(bytes)
            }
        }
    };
}

hash256_newtype! {
    /// A transaction identifier (double SHA-256 of the serialized transaction).
    Txid
}

hash256_newtype! {
    /// A block identifier (double SHA-256 of the 80-byte block header).
    BlockHash
}

hash256_newtype! {
    /// A Merkle tree root over the transactions of a block.
    MerkleRoot
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_nist_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_long_input() {
        // One million 'a' characters — NIST long vector.
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// The padding as it was first written, one `update` per byte; kept
    /// as the reference for [`pad`].
    fn sha256_bytewise_padding(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        let bit_len = h.length * 8;
        h.update(&[0x80]);
        while h.buffered != 56 {
            h.update(&[0]);
        }
        h.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = h.buffer;
        h.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in h.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn ripemd160_bytewise_padding(data: &[u8]) -> [u8; 20] {
        let mut h = Ripemd160::new();
        h.update(data);
        let bit_len = h.length * 8;
        h.update(&[0x80]);
        while h.buffered != 56 {
            h.update(&[0]);
        }
        h.buffer[56..64].copy_from_slice(&bit_len.to_le_bytes());
        let block = h.buffer;
        h.compress(&block);
        let mut out = [0u8; 20];
        for (i, word) in h.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    #[test]
    fn padding_matches_bytewise_padding_at_every_length() {
        // 0..=130 covers the 55/56/63/64-byte boundaries of two blocks.
        let data: Vec<u8> = (0..=130u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in 0..=130 {
            let message = &data[..len];
            assert_eq!(sha256(message), sha256_bytewise_padding(message), "sha256 len {len}");
            let mut h = Ripemd160::new();
            h.update(message);
            assert_eq!(h.finalize(), ripemd160_bytewise_padding(message), "ripemd160 len {len}");
        }
    }

    #[test]
    fn sha256_streaming_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        for chunk_size in [1, 3, 63, 64, 65, 128, 999] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn sha256d_genesis_known_vector() {
        // Double-SHA256 of the empty string.
        assert_eq!(
            hex(&sha256d(b"")),
            "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456"
        );
    }

    #[test]
    fn hmac_rfc4231_vectors() {
        // Test case 1.
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Test case 2: key = "Jefe".
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // Test case 3: 20x 0xaa key, 50x 0xdd data.
        assert_eq!(
            hex(&hmac_sha256(&[0xaa; 20], &[0xdd; 50])),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
        // Long key (> block size) gets hashed first: RFC 4231 case 6.
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn ripemd160_vectors() {
        assert_eq!(
            hex(&{
                let h = Ripemd160::new();
                h.finalize()
            }),
            "9c1185a5c5e9fc54612808977ee8f548b2258d31"
        );
        let mut h = Ripemd160::new();
        h.update(b"abc");
        assert_eq!(hex(&h.finalize()), "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc");
        let mut h = Ripemd160::new();
        h.update(b"message digest");
        assert_eq!(hex(&h.finalize()), "5d0689ef49d2fae572b881b123a85ffa21595f36");
        let mut h = Ripemd160::new();
        h.update(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
        assert_eq!(hex(&h.finalize()), "12a053384a9c0c88e405a06c27dcf49ada62eb2b");
    }

    #[test]
    fn ripemd160_streaming_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(500).collect();
        let mut whole = Ripemd160::new();
        whole.update(&data);
        let expected = whole.finalize();
        for chunk_size in [1, 7, 64, 65] {
            let mut h = Ripemd160::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), expected, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn hash160_known_vector() {
        // HASH160 of the generator point's compressed encoding (widely
        // published as the address hash of private key 1).
        let pubkey = [
            0x02, 0x79, 0xbe, 0x66, 0x7e, 0xf9, 0xdc, 0xbb, 0xac, 0x55, 0xa0, 0x62, 0x95, 0xce,
            0x87, 0x0b, 0x07, 0x02, 0x9b, 0xfc, 0xdb, 0x2d, 0xce, 0x28, 0xd9, 0x59, 0xf2, 0x81,
            0x5b, 0x16, 0xf8, 0x17, 0x98,
        ];
        assert_eq!(hex(&hash160(&pubkey)), "751e76e8199196d454941c45d1b3a323f1433bd6");
    }

    #[test]
    fn tagged_hash_differs_by_tag() {
        let a = tagged_hash("BIP0340/challenge", b"data");
        let b = tagged_hash("BIP0340/aux", b"data");
        assert_ne!(a, b);
        // Deterministic.
        assert_eq!(a, tagged_hash("BIP0340/challenge", b"data"));
    }

    #[test]
    fn hash_newtype_display_is_reversed_hex() {
        let mut bytes = [0u8; 32];
        bytes[0] = 0xab;
        let txid = Txid(bytes);
        let shown = txid.to_string();
        assert!(shown.ends_with("ab"));
        assert_eq!(shown.len(), 64);
        assert_eq!(Txid::from_hex(&shown), Some(txid));
        assert_eq!(Txid::from_hex("zz"), None);
        assert_eq!(Txid::from_hex(&"0".repeat(63)), None);
    }

    #[test]
    fn hash_newtype_debug_nonempty() {
        assert!(format!("{:?}", BlockHash::ZERO).starts_with("BlockHash("));
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;

        /// Streaming and one-shot SHA-256 agree for arbitrary splits.
        #[test]
        fn sha256_split_invariance() {
            testkit::check(0x4A_0001, testkit::DEFAULT_CASES, |rng| {
                let data = testkit::bytes(rng, 0..512);
                let split = testkit::usize_in(rng, 0..512).min(data.len());
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), sha256(&data));
            });
        }

        /// Txid hex display round-trips.
        #[test]
        fn txid_hex_roundtrip() {
            testkit::check(0x4A_0002, testkit::DEFAULT_CASES, |rng| {
                let txid = Txid(testkit::byte_array(rng));
                assert_eq!(Txid::from_hex(&txid.to_string()), Some(txid));
            });
        }

        /// Hashes order exactly as their byte arrays do, including pairs
        /// that share a prefix.
        #[test]
        fn hash_order_is_byte_order() {
            testkit::check(0x4A_0003, testkit::DEFAULT_CASES, |rng| {
                let a: [u8; 32] = testkit::byte_array(rng);
                let mut b = a;
                let at = testkit::usize_in(rng, 0..32);
                b[at..].copy_from_slice(&testkit::byte_array::<32>(rng)[at..]);
                assert_eq!(BlockHash(a).cmp(&BlockHash(b)), a.cmp(&b));
                assert_eq!(BlockHash(a).partial_cmp(&BlockHash(b)), Some(a.cmp(&b)));
            });
        }
    }
}
