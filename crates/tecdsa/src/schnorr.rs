//! BIP-340 Schnorr signatures over secp256k1.
//!
//! Taproot key spends carry 64-byte Schnorr signatures; the IC exposes a
//! threshold-Schnorr service alongside threshold ECDSA (§I), reproduced in
//! [`crate::protocol`], which produces every signature. This module holds
//! the signature type, the challenge hash and verification.

use icbtc_bitcoin::hash::tagged_hash;

use crate::{AffinePoint, Scalar};

/// A 64-byte BIP-340 Schnorr signature (`R.x || s`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchnorrSignature {
    /// x coordinate of the nonce point.
    pub r: [u8; 32],
    /// The proof scalar.
    pub s: Scalar,
}

impl SchnorrSignature {
    /// Serializes to the 64-byte wire form used in taproot witnesses.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r);
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses the 64-byte wire form (s is range-checked; r is checked
    /// during verification).
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<SchnorrSignature> {
        let mut r = [0u8; 32];
        let mut s = [0u8; 32];
        r.copy_from_slice(&bytes[..32]);
        s.copy_from_slice(&bytes[32..]);
        Some(SchnorrSignature { r, s: Scalar::from_be_bytes_checked(s)? })
    }
}

/// Computes the BIP-340 challenge `e = H_tag(R.x || P.x || m) mod n`.
pub fn challenge(r_x: &[u8; 32], pubkey_x: &[u8; 32], message: &[u8; 32]) -> Scalar {
    let mut data = Vec::with_capacity(96);
    data.extend_from_slice(r_x);
    data.extend_from_slice(pubkey_x);
    data.extend_from_slice(message);
    Scalar::from_be_bytes(tagged_hash("BIP0340/challenge", &data))
}

/// Verifies a BIP-340 signature against an x-only public key.
pub fn verify(pubkey_x: &[u8; 32], message: &[u8; 32], signature: &SchnorrSignature) -> bool {
    let Some(pubkey) = AffinePoint::from_x_only(pubkey_x) else {
        return false;
    };
    let Some(r_field) = crate::FieldElement::from_be_bytes_checked(signature.r) else {
        return false;
    };
    let e = challenge(&signature.r, pubkey_x, message);
    // R = s·G − e·P
    let r_point = AffinePoint::double_mul(signature.s, Scalar::ZERO - e, &pubkey);
    match r_point {
        AffinePoint::Infinity => false,
        AffinePoint::Point { x, y } => y.is_even() && x == r_field,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DerivationPath, ThresholdKey};
    use icbtc_sim::SimRng;

    /// The x-only key of a 2-of-3 key and its signature over `message`,
    /// from a signing session.
    fn threshold_signature(seed: u64, message: [u8; 32]) -> ([u8; 32], SchnorrSignature) {
        let mut rng = SimRng::seed_from(seed);
        let key = ThresholdKey::generate(3, 2, &mut rng);
        let session = key.open_schnorr(&DerivationPath::root(), message, &mut rng);
        let partials = [session.partial_signature(2), session.partial_signature(3)];
        (session.public_key_x(), session.combine(&partials).unwrap())
    }

    fn from_hex<const N: usize>(hex: &str) -> [u8; N] {
        let mut out = [0u8; N];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn threshold_signatures_verify() {
        for (seed, msg) in [(1, [0u8; 32]), (2, [1u8; 32]), (3, [0x7f; 32])] {
            let (pk, sig) = threshold_signature(seed, msg);
            assert!(verify(&pk, &msg, &sig));
        }
    }

    #[test]
    fn verify_rejects_wrong_message_and_key() {
        let msg = [5u8; 32];
        let (pk, sig) = threshold_signature(31337, msg);
        let (other_pk, _) = threshold_signature(31338, msg);
        assert!(!verify(&pk, &[6u8; 32], &sig));
        assert!(!verify(&other_pk, &msg, &sig));
        let mut tampered = sig;
        tampered.s = tampered.s + Scalar::ONE;
        assert!(!verify(&pk, &msg, &tampered));
        let mut bad_r = sig;
        bad_r.r[0] ^= 1;
        assert!(!verify(&pk, &msg, &bad_r));
        // An x with no curve point is not a key.
        assert!(!verify(&[0xff; 32], &msg, &sig));
    }

    #[test]
    fn wire_roundtrip() {
        let (_, sig) = threshold_signature(11, [2u8; 32]);
        let bytes = sig.to_bytes();
        assert_eq!(SchnorrSignature::from_bytes(&bytes), Some(sig));
        // s = 0 is rejected at parse time.
        let mut zeroed = bytes;
        zeroed[32..].fill(0);
        assert_eq!(SchnorrSignature::from_bytes(&zeroed), None);
    }

    #[test]
    fn bip340_vector_0() {
        // BIP-340 official test vector #0 (secret key 3, aux 0, message 0).
        let pk = from_hex("F9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9");
        let sig = SchnorrSignature::from_bytes(&from_hex(
            "E907831F80848D1069A5371B402410364BDF1C5F8307B0084C55F1CE2DCA8215\
             25F66A4A85EA8B71E482A74F382D2CE5EBEEE8FDB2172F477DF4900D310536C0",
        ))
        .unwrap();
        let msg = [0u8; 32];
        assert!(verify(&pk, &msg, &sig));
        assert!(!verify(&pk, &[1u8; 32], &sig));
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;

        #[test]
        fn threshold_signatures_over_arbitrary_messages_and_paths() {
            let mut key_rng = SimRng::seed_from(0x5B);
            let key = ThresholdKey::generate(3, 2, &mut key_rng);
            testkit::check(0x5B_0001, testkit::DEFAULT_CASES, |rng| {
                let msg: [u8; 32] = testkit::byte_array(rng);
                let path = DerivationPath::new([testkit::byte_array::<8>(rng).to_vec()]);
                let session = key.open_schnorr(&path, msg, rng);
                let partials = [session.partial_signature(1), session.partial_signature(3)];
                let sig = session.combine(&partials).unwrap();
                assert!(verify(&session.public_key_x(), &msg, &sig));
                assert_eq!(SchnorrSignature::from_bytes(&sig.to_bytes()), Some(sig));
            });
        }
    }
}
