//! From-scratch secp256k1 with threshold ECDSA and Schnorr signing.
//!
//! The paper's architecture (§I, §III) relies on the Internet Computer's
//! threshold-ECDSA (reference \[3\] of the paper) and threshold-Schnorr services: canisters hold
//! Bitcoin under keys whose private material is secret-shared across the
//! subnet's replicas, and signatures are produced jointly; no single key
//! ever signs. This crate provides that substrate:
//!
//! * [`FieldElement`] / [`Scalar`] — the two instances of one residue type,
//!   [`modular::Residue`], modulo the secp256k1 field prime and group
//!   order, built on fast `2²⁵⁶ − δ` folding.
//! * [`AffinePoint`] / [`curve`] — the secp256k1 group law and scalar
//!   multiplication.
//! * [`ecdsa`] — ECDSA public keys, verification and DER encoding, exactly
//!   the signatures Bitcoin's P2WPKH inputs carry.
//! * [`schnorr`] — BIP-340 Schnorr verification for taproot key spends.
//! * [`shamir`] — Shamir secret sharing over the scalar field.
//! * [`protocol`] — the t-of-n signing service: dealer-assisted key
//!   generation, additive key derivation for canisters, and signing
//!   sessions that tolerate up to `n − t` missing shares. The trusted
//!   dealer stands in for the interactive DKG (see DESIGN.md §1); the
//!   produced signatures are real and verify under the standard algorithms.
//!
//! # Examples
//!
//! ```
//! use icbtc_sim::SimRng;
//! use icbtc_tecdsa::protocol::{DerivationPath, ThresholdKey};
//! use icbtc_tecdsa::schnorr;
//!
//! let mut rng = SimRng::seed_from(1);
//! let key = ThresholdKey::generate(4, 3, &mut rng);
//! let path = DerivationPath::new([b"wallet".to_vec()]);
//! let digest = [7u8; 32];
//!
//! let session = key.open_ecdsa(&path, digest, &mut rng);
//! let partials: Vec<_> = (1..=3).map(|i| session.partial_signature(i)).collect();
//! let sig = session.combine(&partials).unwrap();
//! assert!(key.derived_public_key(&path).verify(&digest, &sig));
//!
//! let session = key.open_schnorr(&path, digest, &mut rng);
//! let partials: Vec<_> = (2..=4).map(|i| session.partial_signature(i)).collect();
//! let sig = session.combine(&partials).unwrap();
//! assert!(schnorr::verify(&session.public_key_x(), &digest, &sig));
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod curve;
pub mod ecdsa;
pub mod modular;
pub mod protocol;
pub mod schnorr;
pub mod shamir;

pub use curve::AffinePoint;
pub use modular::{FieldElement, Scalar};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moduli_match_published_constants() {
        assert_eq!(
            format!("{:x}", FieldElement::MODULUS),
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"
        );
        assert_eq!(
            format!("{:x}", Scalar::MODULUS),
            "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"
        );
    }
}
