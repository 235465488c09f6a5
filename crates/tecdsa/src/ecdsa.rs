//! ECDSA public keys, verification and signature encoding over secp256k1.
//!
//! These are exactly the signatures Bitcoin verifies for P2PKH/P2WPKH
//! spends: low-s normalized, DER-encoded. Signatures come only from the
//! threshold protocol in [`crate::protocol`], and verify under
//! [`PublicKey::verify`] below.

use crate::{AffinePoint, Scalar};

/// An ECDSA public key.
///
/// # Examples
///
/// ```
/// use icbtc_tecdsa::ecdsa::PublicKey;
/// use icbtc_tecdsa::AffinePoint;
/// // The key whose secret is 1 is the generator itself.
/// let pk = PublicKey(AffinePoint::generator());
/// assert_eq!(PublicKey::from_compressed(&pk.to_compressed()), Some(pk));
/// assert_eq!(pk.pubkey_hash()[..4], [0x75, 0x1e, 0x76, 0xe8]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublicKey(pub AffinePoint);

impl PublicKey {
    /// Parses a 33-byte compressed key.
    pub fn from_compressed(bytes: &[u8]) -> Option<PublicKey> {
        AffinePoint::from_compressed(bytes).map(PublicKey)
    }

    /// Serializes as a 33-byte compressed key.
    pub fn to_compressed(&self) -> [u8; 33] {
        self.0.to_compressed()
    }

    /// Returns Bitcoin's HASH160 of the compressed key — the P2WPKH /
    /// P2PKH address payload.
    pub fn pubkey_hash(&self) -> [u8; 20] {
        icbtc_bitcoin::hash::hash160(&self.to_compressed())
    }

    /// Verifies a signature over a 32-byte digest.
    pub fn verify(&self, digest: &[u8; 32], signature: &Signature) -> bool {
        if signature.r.is_zero() || signature.s.is_zero() || self.0.is_infinity() {
            return false;
        }
        let z = Scalar::from_be_bytes(*digest);
        let s_inv = signature.s.invert();
        let u1 = z * s_inv;
        let u2 = signature.r * s_inv;
        let point = AffinePoint::double_mul(u1, u2, &self.0);
        if point.is_infinity() {
            return false;
        }
        Scalar::from_be_bytes(point.x().to_be_bytes()) == signature.r
    }
}

/// An ECDSA signature `(r, s)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    /// The x coordinate of the nonce point, mod n.
    pub r: Scalar,
    /// The proof scalar.
    pub s: Scalar,
}

impl Signature {
    /// Returns the signature with `s` flipped to the low half if needed —
    /// Bitcoin's BIP-62 low-s rule. Both forms verify; only the low form is
    /// standard.
    pub fn normalize_s(self) -> Signature {
        if self.s.is_high() {
            Signature { r: self.r, s: -self.s }
        } else {
            self
        }
    }

    /// Serializes in DER, as carried in Bitcoin script signatures.
    pub fn to_der(&self) -> Vec<u8> {
        fn der_integer(bytes: &[u8; 32], out: &mut Vec<u8>) {
            let start = bytes.iter().position(|&b| b != 0).unwrap_or(31);
            let mut body: Vec<u8> = bytes[start..].to_vec();
            if body[0] & 0x80 != 0 {
                body.insert(0, 0x00);
            }
            out.push(0x02);
            out.push(body.len() as u8);
            out.extend_from_slice(&body);
        }
        let mut content = Vec::with_capacity(72);
        der_integer(&self.r.to_be_bytes(), &mut content);
        der_integer(&self.s.to_be_bytes(), &mut content);
        let mut out = Vec::with_capacity(content.len() + 2);
        out.push(0x30);
        out.push(content.len() as u8);
        out.extend_from_slice(&content);
        out
    }

    /// Parses a DER signature (strict: minimal integer encodings).
    pub fn from_der(bytes: &[u8]) -> Option<Signature> {
        fn parse_integer(bytes: &[u8]) -> Option<(Scalar, &[u8])> {
            if bytes.len() < 2 || bytes[0] != 0x02 {
                return None;
            }
            let len = bytes[1] as usize;
            if len == 0 || len > 33 || bytes.len() < 2 + len {
                return None;
            }
            let body = &bytes[2..2 + len];
            // Reject non-minimal encodings.
            if body[0] == 0x00 && (body.len() == 1 || body[1] & 0x80 == 0) {
                return None;
            }
            if body[0] & 0x80 != 0 {
                return None; // negative
            }
            let body = if body[0] == 0x00 { &body[1..] } else { body };
            if body.len() > 32 {
                return None;
            }
            let mut padded = [0u8; 32];
            padded[32 - body.len()..].copy_from_slice(body);
            Some((Scalar::from_be_bytes_checked(padded)?, &bytes[2 + len..]))
        }
        if bytes.len() < 6 || bytes[0] != 0x30 || bytes[1] as usize != bytes.len() - 2 {
            return None;
        }
        let (r, rest) = parse_integer(&bytes[2..])?;
        let (s, rest) = parse_integer(rest)?;
        if !rest.is_empty() {
            return None;
        }
        Some(Signature { r, s })
    }

    /// Serializes DER plus the trailing `SIGHASH_ALL` byte, the exact form
    /// carried in P2WPKH witnesses.
    pub fn to_der_with_sighash_all(&self) -> Vec<u8> {
        let mut out = self.to_der();
        out.push(0x01);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DerivationPath, ThresholdKey};
    use icbtc_sim::SimRng;

    /// A 2-of-3 key and its signature over `digest`, from a signing session.
    fn threshold_signature(seed: u64, digest: [u8; 32]) -> (PublicKey, Signature) {
        let mut rng = SimRng::seed_from(seed);
        let key = ThresholdKey::generate(3, 2, &mut rng);
        let session = key.open_ecdsa(&DerivationPath::root(), digest, &mut rng);
        let partials = [session.partial_signature(3), session.partial_signature(1)];
        (key.public_key(), session.combine(&partials).unwrap())
    }

    /// Textbook ECDSA under secret `x` with nonce `k`, not normalized: the
    /// DER edge cases need chosen nonces and both forms of `s`.
    fn fixed_nonce_signature(x: u64, k: u64, digest: &[u8; 32]) -> Signature {
        let k = Scalar::from_u64(k);
        let r = Scalar::from_be_bytes(AffinePoint::generator().mul(k).x().to_be_bytes());
        Signature { r, s: k.invert() * (Scalar::from_be_bytes(*digest) + r * Scalar::from_u64(x)) }
    }

    #[test]
    fn threshold_signatures_verify_and_are_low_s() {
        for (seed, digest) in [(1, [0u8; 32]), (2, [0xff; 32]), (3, [0x5a; 32])] {
            let (pk, sig) = threshold_signature(seed, digest);
            assert!(pk.verify(&digest, &sig));
            assert!(!sig.s.is_high());
        }
    }

    #[test]
    fn verification_rejects_wrong_inputs() {
        let digest = [9u8; 32];
        let (pk, sig) = threshold_signature(42, digest);
        let (other_pk, _) = threshold_signature(43, digest);
        assert!(!pk.verify(&[10u8; 32], &sig));
        assert!(!other_pk.verify(&digest, &sig));
        assert!(!pk.verify(&digest, &Signature { r: sig.r, s: sig.s + Scalar::ONE }));
        assert!(!pk.verify(&digest, &Signature { r: Scalar::ZERO, s: sig.s }));
        assert!(!pk.verify(&digest, &Signature { r: sig.r, s: Scalar::ZERO }));
    }

    #[test]
    fn high_s_form_also_verifies_but_normalizes() {
        let digest = [1u8; 32];
        let (pk, sig) = threshold_signature(55, digest);
        let high = Signature { r: sig.r, s: -sig.s };
        assert!(high.s.is_high());
        assert!(pk.verify(&digest, &high), "ECDSA accepts both s forms");
        assert_eq!(high.normalize_s(), sig);
        assert_eq!(sig.normalize_s(), sig);
    }

    #[test]
    fn der_roundtrip() {
        let pk = PublicKey(AffinePoint::generator().mul(Scalar::from_u64(1234)));
        let (mut saw_high, mut saw_low) = (false, false);
        for k in 1..=16u64 {
            let digest = [k as u8; 32];
            let sig = fixed_nonce_signature(1234, k, &digest);
            assert!(pk.verify(&digest, &sig));
            saw_high |= sig.s.is_high();
            saw_low |= !sig.s.is_high();
            let der = sig.to_der();
            assert_eq!(der[0], 0x30);
            assert!(der.len() <= 72);
            assert_eq!(Signature::from_der(&der), Some(sig), "nonce {k}");
        }
        assert!(saw_high && saw_low, "both forms of s must be encoded");
    }

    #[test]
    fn der_rejects_malformed() {
        let der = fixed_nonce_signature(77, 5, &[0u8; 32]).to_der();
        assert_eq!(Signature::from_der(&[]), None);
        assert_eq!(Signature::from_der(&der[1..]), None);
        let mut bad_tag = der.clone();
        bad_tag[0] = 0x31;
        assert_eq!(Signature::from_der(&bad_tag), None);
        let mut trailing = der.clone();
        trailing.push(0x00);
        assert_eq!(Signature::from_der(&trailing), None);
        let mut bad_len = der.clone();
        bad_len[1] ^= 1;
        assert_eq!(Signature::from_der(&bad_len), None);
    }

    #[test]
    fn der_with_sighash_byte() {
        let bytes = fixed_nonce_signature(88, 2, &[2u8; 32]).to_der_with_sighash_all();
        assert_eq!(*bytes.last().unwrap(), 0x01);
        assert!(Signature::from_der(&bytes[..bytes.len() - 1]).is_some());
    }

    #[test]
    fn pubkey_compressed_roundtrip_and_hash() {
        let pk = PublicKey(AffinePoint::generator());
        let compressed = pk.to_compressed();
        assert_eq!(PublicKey::from_compressed(&compressed), Some(pk));
        // Private key 1's pubkey hash is the well-known value.
        let hex: String = pk.pubkey_hash().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "751e76e8199196d454941c45d1b3a323f1433bd6");
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;

        #[test]
        fn threshold_signatures_over_arbitrary_digests() {
            let mut key_rng = SimRng::seed_from(0xEC);
            let key = ThresholdKey::generate(3, 2, &mut key_rng);
            testkit::check(0xEC_0001, testkit::DEFAULT_CASES, |rng| {
                let digest: [u8; 32] = testkit::byte_array(rng);
                let session = key.open_ecdsa(&DerivationPath::root(), digest, rng);
                let sig = session.combine(&[session.partial_signature(1), session.partial_signature(2)]).unwrap();
                assert!(key.public_key().verify(&digest, &sig));
                assert_eq!(Signature::from_der(&sig.to_der()), Some(sig));
            });
        }
    }
}
