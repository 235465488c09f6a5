//! Bitcoin wire-format serialization.
//!
//! Implements the consensus encoding used by the Bitcoin P2P protocol:
//! little-endian fixed-width integers, `CompactSize` variable-length
//! integers, and length-prefixed collections. The [`Encodable`] /
//! [`Decodable`] pair is implemented by every wire type in this crate
//! (transactions, headers, blocks); encoders write into a [`Sink`].

use std::fmt;

use crate::hash::Sha256;

/// Error returned when decoding malformed wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    UnexpectedEnd,
    /// A `CompactSize` used a longer-than-necessary encoding.
    NonCanonicalVarInt,
    /// A length prefix exceeded the sanity limit.
    OversizedLength(u64),
    /// A value violated a domain constraint (e.g. an unknown enum tag).
    InvalidValue(&'static str),
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::NonCanonicalVarInt => write!(f, "non-canonical compact size encoding"),
            DecodeError::OversizedLength(n) => write!(f, "length prefix {n} exceeds sanity limit"),
            DecodeError::InvalidValue(what) => write!(f, "invalid value: {what}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Maximum number of elements accepted in a length-prefixed collection.
/// Matches Bitcoin Core's `MAX_SIZE` sanity limit order of magnitude.
const MAX_COLLECTION_LEN: u64 = 4_000_000;

/// A cursor over wire bytes being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Returns the number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes a fixed-size array.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] if fewer than `N` bytes remain.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Returns the next byte without consuming it, or
    /// [`DecodeError::UnexpectedEnd`] if none remains.
    pub fn peek(&self) -> Result<u8, DecodeError> {
        self.bytes.get(self.pos).copied().ok_or(DecodeError::UnexpectedEnd)
    }
}

/// Where encoded bytes go: a buffer, a SHA-256 state, or a counter, so
/// a hash or a size never builds the encoding first.
pub trait Sink {
    /// Absorbs `bytes` after everything written before.
    fn write(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn write(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Sink for Sha256 {
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// A sink that keeps only the number of bytes written.
pub(crate) struct ByteCount(pub(crate) usize);

impl Sink for ByteCount {
    fn write(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// A type that can be serialized to Bitcoin wire format.
pub trait Encodable {
    /// Writes the wire encoding of `self` into `out`.
    fn encode<S: Sink + ?Sized>(&self, out: &mut S);

    /// Convenience: encodes into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Returns the encoded size in bytes, counted without storing them.
    fn encoded_len(&self) -> usize {
        let mut count = ByteCount(0);
        self.encode(&mut count);
        count.0
    }
}

/// A type that can be deserialized from Bitcoin wire format.
pub trait Decodable: Sized {
    /// Decodes a value from the reader, advancing it.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the bytes are truncated or malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Decodes a value that must consume the entire input.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::TrailingBytes`] if input remains after the
    /// value, in addition to the errors of [`Decodable::decode`].
    fn decode_exact(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        if r.remaining() > 0 {
            return Err(DecodeError::TrailingBytes(r.remaining()));
        }
        Ok(value)
    }
}

macro_rules! impl_int_codec {
    ($($ty:ty),*) => {
        $(
            impl Encodable for $ty {
                fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
                    out.write(&self.to_le_bytes());
                }
            }
            impl Decodable for $ty {
                fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                    Ok(<$ty>::from_le_bytes(r.take_array()?))
                }
            }
        )*
    };
}

impl_int_codec!(u8, u16, u32, u64, i32, i64);

impl Encodable for [u8; 32] {
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
        out.write(self);
    }
}

impl Decodable for [u8; 32] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.take_array()
    }
}

/// A Bitcoin `CompactSize` variable-length integer.
///
/// # Examples
///
/// ```
/// use icbtc_bitcoin::encode::{Decodable, Encodable, VarInt};
/// let v = VarInt(300);
/// let bytes = v.encode_to_vec();
/// assert_eq!(bytes, vec![0xfd, 0x2c, 0x01]);
/// assert_eq!(VarInt::decode_exact(&bytes).unwrap(), v);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VarInt(pub u64);

impl Encodable for VarInt {
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
        let le = self.0.to_le_bytes();
        match self.0 {
            0..=0xfc => out.write(&le[..1]),
            0xfd..=0xffff => out.write(&[0xfd, le[0], le[1]]),
            0x1_0000..=0xffff_ffff => out.write(&[0xfe, le[0], le[1], le[2], le[3]]),
            _ => {
                out.write(&[0xff]);
                out.write(&le);
            }
        }
    }
}

impl Decodable for VarInt {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Each wider form must hold a value the narrower ones cannot.
        let (value, least) = match r.take_array::<1>()?[0] {
            0xfd => (u16::decode(r)? as u64, 0xfd),
            0xfe => (u32::decode(r)? as u64, 0x1_0000),
            0xff => (u64::decode(r)?, 0x1_0000_0000),
            b => return Ok(VarInt(b as u64)),
        };
        if value < least {
            return Err(DecodeError::NonCanonicalVarInt);
        }
        Ok(VarInt(value))
    }
}

/// A length-prefixed byte string (scripts, witness items).
impl Encodable for [u8] {
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
        VarInt(self.len() as u64).encode(out);
        out.write(self);
    }
}

impl Decodable for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = VarInt::decode(r)?.0;
        if len > MAX_COLLECTION_LEN {
            return Err(DecodeError::OversizedLength(len));
        }
        Ok(r.take(len as usize)?.to_vec())
    }
}

/// Encodes a length-prefixed list of encodable items.
pub fn encode_list<T: Encodable, S: Sink + ?Sized>(items: &[T], out: &mut S) {
    VarInt(items.len() as u64).encode(out);
    for item in items {
        item.encode(out);
    }
}

/// Decodes a length-prefixed list of decodable items.
///
/// # Errors
///
/// Returns [`DecodeError::OversizedLength`] for absurd length prefixes and
/// propagates element decode errors.
pub fn decode_list<T: Decodable>(r: &mut Reader<'_>) -> Result<Vec<T>, DecodeError> {
    let len = VarInt::decode(r)?.0;
    if len > MAX_COLLECTION_LEN {
        return Err(DecodeError::OversizedLength(len));
    }
    let mut items = Vec::with_capacity(len.min(1024) as usize);
    for _ in 0..len {
        items.push(T::decode(r)?);
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrips() {
        let mut out = Vec::new();
        0xdeadbeefu32.encode(&mut out);
        assert_eq!(out, vec![0xef, 0xbe, 0xad, 0xde]);
        assert_eq!(u32::decode_exact(&out).unwrap(), 0xdeadbeef);
        assert_eq!(u64::decode_exact(&42u64.encode_to_vec()).unwrap(), 42);
        assert_eq!(i32::decode_exact(&(-7i32).encode_to_vec()).unwrap(), -7);
    }

    #[test]
    fn varint_boundaries() {
        let cases: &[(u64, usize)] = &[
            (0, 1),
            (0xfc, 1),
            (0xfd, 3),
            (0xffff, 3),
            (0x1_0000, 5),
            (0xffff_ffff, 5),
            (0x1_0000_0000, 9),
            (u64::MAX, 9),
        ];
        for &(value, size) in cases {
            let bytes = VarInt(value).encode_to_vec();
            assert_eq!(bytes.len(), size, "size of {value}");
            assert_eq!(VarInt::decode_exact(&bytes).unwrap(), VarInt(value));
        }
    }

    #[test]
    fn varint_rejects_non_canonical() {
        // 1 encoded as 3 bytes.
        assert_eq!(VarInt::decode_exact(&[0xfd, 0x01, 0x00]), Err(DecodeError::NonCanonicalVarInt));
        assert_eq!(
            VarInt::decode_exact(&[0xfe, 0x01, 0x00, 0x00, 0x00]),
            Err(DecodeError::NonCanonicalVarInt)
        );
        assert_eq!(
            VarInt::decode_exact(&[0xff, 1, 0, 0, 0, 0, 0, 0, 0]),
            Err(DecodeError::NonCanonicalVarInt)
        );
    }

    #[test]
    fn truncated_input_errors() {
        assert_eq!(u32::decode_exact(&[1, 2]), Err(DecodeError::UnexpectedEnd));
        assert_eq!(VarInt::decode_exact(&[0xfd, 0x01]), Err(DecodeError::UnexpectedEnd));
        assert_eq!(Vec::<u8>::decode_exact(&[5, 1, 2]), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn trailing_bytes_detected() {
        assert_eq!(u8::decode_exact(&[1, 2]), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn byte_vec_roundtrip() {
        let v: Vec<u8> = (0..300).map(|i| i as u8).collect();
        let encoded = v.encode_to_vec();
        // 300 needs a 3-byte varint prefix.
        assert_eq!(encoded.len(), 303);
        assert_eq!(Vec::<u8>::decode_exact(&encoded).unwrap(), v);
    }

    #[test]
    fn oversized_length_rejected() {
        let mut bytes = Vec::new();
        VarInt(MAX_COLLECTION_LEN + 1).encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        assert!(matches!(Vec::<u8>::decode(&mut r), Err(DecodeError::OversizedLength(_))));
    }

    #[test]
    fn list_roundtrip() {
        let items: Vec<u32> = vec![1, 2, 3, 0xffff_ffff];
        let mut out = Vec::new();
        encode_list(&items, &mut out);
        let mut r = Reader::new(&out);
        let back: Vec<u32> = decode_list(&mut r).unwrap();
        assert_eq!(back, items);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            DecodeError::UnexpectedEnd,
            DecodeError::NonCanonicalVarInt,
            DecodeError::OversizedLength(9),
            DecodeError::InvalidValue("tag"),
            DecodeError::TrailingBytes(3),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;

        #[test]
        fn varint_roundtrip() {
            testkit::check(0xE2_0001, testkit::DEFAULT_CASES, |rng| {
                let v = testkit::u64_any(rng);
                let bytes = VarInt(v).encode_to_vec();
                assert_eq!(VarInt::decode_exact(&bytes).unwrap(), VarInt(v));
            });
        }

        #[test]
        fn varint_encoding_is_minimal() {
            testkit::check(0xE2_0002, testkit::DEFAULT_CASES, |rng| {
                let v = testkit::u64_any(rng);
                let len = VarInt(v).encode_to_vec().len();
                let expected = match v {
                    0..=0xfc => 1,
                    0xfd..=0xffff => 3,
                    0x1_0000..=0xffff_ffff => 5,
                    _ => 9,
                };
                assert_eq!(len, expected);
            });
        }

        #[test]
        fn bytes_roundtrip() {
            testkit::check(0xE2_0003, testkit::DEFAULT_CASES, |rng| {
                let v = testkit::bytes(rng, 0..600);
                assert_eq!(Vec::<u8>::decode_exact(&v.encode_to_vec()).unwrap(), v);
            });
        }
    }
}
