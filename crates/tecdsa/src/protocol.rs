//! The t-of-n threshold signing service.
//!
//! Models the Internet Computer's threshold-ECDSA (reference \[3\] of the paper) and threshold-Schnorr
//! services at the level canisters observe them (§I of the paper): a subnet
//! holds a master key secret-shared across its `n` replicas; any `t`
//! replicas jointly produce a standard signature under a key derived for a
//! specific canister (and derivation path), and fewer than `t` shares
//! reveal nothing.
//!
//! Per DESIGN.md §1, a *trusted dealer* (the simulation harness) plays the
//! role of the interactive DKG and per-signature presignature protocol:
//! it deals fresh Shamir sharings of the nonce material for every
//! signature. Everything downstream — share arithmetic, Lagrange
//! combination, abort on missing shares, detection and exclusion of
//! corrupted shares, and the final signatures themselves — is real.

use std::fmt;

use icbtc_bitcoin::hash::hmac_sha256;
use icbtc_sim::SimRng;

use crate::ecdsa::{PublicKey, Signature};
use crate::schnorr::{challenge, SchnorrSignature};
use crate::shamir::{lagrange_at_zero, share_secret, ShamirError, Share};
use crate::{AffinePoint, Scalar};

/// A derivation path, as passed by canisters to the management canister's
/// `sign_with_ecdsa` / `schnorr` endpoints.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct DerivationPath(pub Vec<Vec<u8>>);

impl DerivationPath {
    /// The empty path (the canister's root key).
    pub fn root() -> DerivationPath {
        DerivationPath(Vec::new())
    }

    /// Builds a path from labelled components.
    pub fn new<I, T>(components: I) -> DerivationPath
    where
        I: IntoIterator<Item = T>,
        T: Into<Vec<u8>>,
    {
        DerivationPath(components.into_iter().map(Into::into).collect())
    }
}

/// Error from threshold signing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThresholdError {
    /// Share bookkeeping failed.
    Shamir(ShamirError),
    /// The combined signature did not verify and no valid subset exists
    /// among the submitted shares.
    CorruptShares,
}

impl fmt::Display for ThresholdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThresholdError::Shamir(e) => write!(f, "share error: {e}"),
            ThresholdError::CorruptShares => {
                write!(f, "no valid signature from the submitted shares")
            }
        }
    }
}

impl std::error::Error for ThresholdError {}

impl From<ShamirError> for ThresholdError {
    fn from(e: ShamirError) -> Self {
        ThresholdError::Shamir(e)
    }
}

/// A subnet's threshold key: `n` replica shares with signing threshold
/// `t`.
///
/// # Examples
///
/// ```
/// use icbtc_tecdsa::protocol::{DerivationPath, ThresholdKey};
/// use icbtc_sim::SimRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SimRng::seed_from(7);
/// let key = ThresholdKey::generate(13, 9, &mut rng);
/// let digest = [1u8; 32];
/// let mut session = key.open_ecdsa(&DerivationPath::root(), digest, &mut rng);
/// let partials: Vec<_> = (1..=9).map(|i| session.partial_signature(i)).collect();
/// let sig = session.combine(&partials)?;
/// assert!(key.derived_public_key(&DerivationPath::root()).verify(&digest, &sig));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct ThresholdKey {
    n: usize,
    threshold: usize,
    master_secret: Scalar,
    shares: Vec<Share>,
    public_key: PublicKey,
}

impl ThresholdKey {
    /// Generates a fresh key shared across `n` replicas with signing
    /// threshold `threshold` (dealer-assisted; see module docs).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= threshold <= n`.
    pub fn generate(n: usize, threshold: usize, rng: &mut SimRng) -> ThresholdKey {
        let master_secret = Scalar::random(rng);
        let shares = share_secret(master_secret, threshold, n, rng);
        let public_key = PublicKey(AffinePoint::generator().mul(master_secret));
        ThresholdKey { n, threshold, master_secret, shares, public_key }
    }

    /// Number of replicas holding shares.
    pub fn replicas(&self) -> usize {
        self.n
    }

    /// Minimum shares required to sign.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The master (root) public key.
    pub fn public_key(&self) -> PublicKey {
        self.public_key
    }

    /// Computes the additive tweak for a derivation path, bound to the
    /// master public key (a simplified, non-hardened BIP-32 analogue).
    /// The empty path is the identity derivation.
    fn tweak(&self, path: &DerivationPath) -> Scalar {
        if path.0.is_empty() {
            return Scalar::ZERO;
        }
        let mut data = self.public_key.to_compressed().to_vec();
        for component in &path.0 {
            data.extend_from_slice(&(component.len() as u64).to_be_bytes());
            data.extend_from_slice(component);
        }
        Scalar::from_be_bytes(hmac_sha256(b"icbtc-key-derivation", &data))
    }

    /// Returns the public key derived for `path`; any third party knowing
    /// the master public key can compute this without contacting the
    /// subnet.
    pub fn derived_public_key(&self, path: &DerivationPath) -> PublicKey {
        self.tweaked_public_key(self.tweak(path))
    }

    /// The master public key shifted by `tweak`.
    fn tweaked_public_key(&self, tweak: Scalar) -> PublicKey {
        PublicKey(self.public_key.0.add(&AffinePoint::generator().mul(tweak)))
    }

    /// Opens an ECDSA signing session for `digest` under the key derived
    /// at `path`. The dealer phase picks the nonce and deals the
    /// per-signature sharings; replicas then contribute partial signatures.
    pub fn open_ecdsa(
        &self,
        path: &DerivationPath,
        digest: [u8; 32],
        rng: &mut SimRng,
    ) -> EcdsaSession {
        let tweak = self.tweak(path);
        let x = self.master_secret + tweak;
        loop {
            let k = Scalar::random(rng);
            let point = AffinePoint::generator().mul(k);
            let r = Scalar::from_be_bytes(point.x().to_be_bytes());
            if r.is_zero() {
                continue;
            }
            let k_inv = k.invert();
            // Fresh sharings of k⁻¹ and k⁻¹·x: the dealer knows both
            // values, so each is an independent degree-(t−1) sharing and
            // partial signatures interpolate at the same degree.
            let k_inv_shares = share_secret(k_inv, self.threshold, self.n, rng);
            let k_inv_x_shares = share_secret(k_inv * x, self.threshold, self.n, rng);
            return EcdsaSession {
                threshold: self.threshold,
                digest_scalar: Scalar::from_be_bytes(digest),
                digest,
                r,
                k_inv_shares,
                k_inv_x_shares,
                public_key: self.tweaked_public_key(tweak),
            };
        }
    }

    /// Opens a BIP-340 Schnorr signing session for `message` under the
    /// key derived at `path`.
    pub fn open_schnorr(
        &self,
        path: &DerivationPath,
        message: [u8; 32],
        rng: &mut SimRng,
    ) -> SchnorrSession {
        let tweak = self.tweak(path);
        let secret = self.master_secret + tweak;
        let (pub_even, key_flipped) = AffinePoint::generator().mul(secret).normalize_even_y();
        // Additive tweaks shift every share equally; BIP-340 signs under
        // the even-y key, so a flipped key negates every share.
        let key_shares = self
            .shares
            .iter()
            .map(|share| if key_flipped { -(share.value + tweak) } else { share.value + tweak })
            .collect();
        let pubkey_x = pub_even.to_x_only();
        let k0 = Scalar::random(rng);
        let (r_even, nonce_flipped) = AffinePoint::generator().mul(k0).normalize_even_y();
        let k = if nonce_flipped { -k0 } else { k0 };
        let r_x = r_even.to_x_only();
        let e = challenge(&r_x, &pubkey_x, &message);
        let nonce_shares = share_secret(k, self.threshold, self.n, rng);
        SchnorrSession {
            threshold: self.threshold,
            message,
            pubkey_x,
            r_x,
            e,
            nonce_shares,
            key_shares,
        }
    }
}

impl fmt::Debug for ThresholdKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThresholdKey")
            .field("n", &self.n)
            .field("threshold", &self.threshold)
            .field("public_key", &self.public_key)
            .finish()
    }
}

/// A replica's contribution to a threshold signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartialSignature {
    /// 1-based replica index.
    pub index: u32,
    /// The replica's share of `s`.
    pub value: Scalar,
}

/// An in-progress threshold-ECDSA signature.
pub struct EcdsaSession {
    threshold: usize,
    digest_scalar: Scalar,
    digest: [u8; 32],
    r: Scalar,
    k_inv_shares: Vec<Share>,
    k_inv_x_shares: Vec<Share>,
    public_key: PublicKey,
}

impl EcdsaSession {
    /// Computes replica `index`'s partial signature
    /// `s_i = (k⁻¹)_i·z + r·(k⁻¹x)_i`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn partial_signature(&self, index: u32) -> PartialSignature {
        let i = (index - 1) as usize;
        let value = self.k_inv_shares[i].value * self.digest_scalar
            + self.r * self.k_inv_x_shares[i].value;
        PartialSignature { index, value }
    }

    /// The digest being signed.
    pub fn digest(&self) -> [u8; 32] {
        self.digest
    }

    /// Combines partial signatures into a full, low-s-normalized
    /// signature, verifying the result. If verification fails and more
    /// than `threshold` shares were submitted, corrupted shares are
    /// identified by exclusion.
    ///
    /// # Errors
    ///
    /// Returns [`ThresholdError`] on too few shares or when no valid
    /// subset exists.
    pub fn combine(&self, partials: &[PartialSignature]) -> Result<Signature, ThresholdError> {
        combine_generic(partials, self.threshold, |s| {
            let candidate = Signature { r: self.r, s }.normalize_s();
            self.public_key.verify(&self.digest, &candidate).then_some(candidate)
        })
    }
}

impl fmt::Debug for EcdsaSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EcdsaSession")
            .field("threshold", &self.threshold)
            .field("r", &self.r)
            .finish()
    }
}

/// An in-progress threshold-Schnorr signature.
pub struct SchnorrSession {
    threshold: usize,
    message: [u8; 32],
    pubkey_x: [u8; 32],
    r_x: [u8; 32],
    e: Scalar,
    nonce_shares: Vec<Share>,
    /// Replica `i`'s share of the even-y-normalized derived key, at `i − 1`.
    key_shares: Vec<Scalar>,
}

impl SchnorrSession {
    /// Computes replica `index`'s partial signature `s_i = k_i + e·d'_i`,
    /// where `d'` is the even-y-normalized derived key.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn partial_signature(&self, index: u32) -> PartialSignature {
        let i = (index - 1) as usize;
        let value = self.nonce_shares[i].value + self.e * self.key_shares[i];
        PartialSignature { index, value }
    }

    /// The x-only public key the signature verifies under.
    pub fn public_key_x(&self) -> [u8; 32] {
        self.pubkey_x
    }

    /// Combines partial signatures into a full BIP-340 signature,
    /// verifying the result (with corrupted-share exclusion as in
    /// [`EcdsaSession::combine`]).
    ///
    /// # Errors
    ///
    /// Returns [`ThresholdError`] on too few shares or when no valid
    /// subset exists.
    pub fn combine(
        &self,
        partials: &[PartialSignature],
    ) -> Result<SchnorrSignature, ThresholdError> {
        combine_generic(partials, self.threshold, |s| {
            let candidate = SchnorrSignature { r: self.r_x, s };
            crate::schnorr::verify(&self.pubkey_x, &self.message, &candidate)
                .then_some(candidate)
        })
    }
}

impl fmt::Debug for SchnorrSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchnorrSession").field("threshold", &self.threshold).finish()
    }
}

/// Interpolates `s` from partial signatures and validates via `check`.
/// Tries the full set, then all subsets of size `threshold` obtained by
/// excluding submitted shares one batch at a time — enough to survive up
/// to `len − threshold` corrupted shares.
fn combine_generic<S>(
    partials: &[PartialSignature],
    threshold: usize,
    check: impl Fn(Scalar) -> Option<S>,
) -> Result<S, ThresholdError> {
    if partials.len() < threshold {
        return Err(ShamirError::InsufficientShares {
            have: partials.len(),
            need: threshold,
        }
        .into());
    }
    // Reject duplicates up front.
    let mut seen = Vec::with_capacity(partials.len());
    for p in partials {
        if p.index == 0 {
            return Err(ShamirError::ZeroIndex.into());
        }
        if seen.contains(&p.index) {
            return Err(ShamirError::DuplicateIndex(p.index).into());
        }
        seen.push(p.index);
    }

    // Enumerate threshold-sized subsets lexicographically; with honest
    // shares in the majority this terminates on the first try almost
    // always. Cap the search to keep worst-case combinatorics bounded.
    const MAX_SUBSETS: usize = 4096;
    let mut combo: Vec<usize> = (0..threshold).collect();
    let mut tried = 0;
    loop {
        let subset: Vec<PartialSignature> = combo.iter().map(|&i| partials[i]).collect();
        let indices: Vec<u32> = subset.iter().map(|p| p.index).collect();
        let mut s = Scalar::ZERO;
        for p in &subset {
            s = s + lagrange_at_zero(&indices, p.index) * p.value;
        }
        if let Some(out) = check(s) {
            return Ok(out);
        }
        tried += 1;
        if tried >= MAX_SUBSETS || !advance_combination(&mut combo, partials.len()) {
            return Err(ThresholdError::CorruptShares);
        }
    }
}

/// Advances `combo` to the next k-combination of `0..n`; returns `false`
/// when exhausted.
fn advance_combination(combo: &mut [usize], n: usize) -> bool {
    let k = combo.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if combo[i] < n - (k - i) {
            combo[i] += 1;
            for j in i + 1..k {
                combo[j] = combo[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    fn rng(seed: u64) -> SimRng {
        SimRng::seed_from(seed)
    }

    #[test]
    fn ecdsa_threshold_roundtrip() {
        let mut rng = rng(1);
        // IC-like: n = 13, signing threshold 2f+1 = 9.
        let key = ThresholdKey::generate(13, 9, &mut rng);
        let digest = [0x42u8; 32];
        let session = key.open_ecdsa(&DerivationPath::root(), digest, &mut rng);
        let partials: Vec<_> = (1..=9).map(|i| session.partial_signature(i)).collect();
        let sig = session.combine(&partials).unwrap();
        assert!(key.public_key().verify(&digest, &sig));
        assert!(!sig.s.is_high(), "threshold signatures are low-s normalized");
    }

    #[test]
    fn any_threshold_subset_signs() {
        let mut rng = rng(2);
        let key = ThresholdKey::generate(7, 5, &mut rng);
        let digest = [9u8; 32];
        let session = key.open_ecdsa(&DerivationPath::root(), digest, &mut rng);
        let subset: Vec<_> = [7u32, 3, 1, 6, 4]
            .iter()
            .map(|&i| session.partial_signature(i))
            .collect();
        let sig = session.combine(&subset).unwrap();
        assert!(key.public_key().verify(&digest, &sig));
    }

    #[test]
    fn too_few_shares_abort() {
        let mut rng = rng(3);
        let key = ThresholdKey::generate(7, 5, &mut rng);
        let session = key.open_ecdsa(&DerivationPath::root(), [1u8; 32], &mut rng);
        let partials: Vec<_> = (1..=4).map(|i| session.partial_signature(i)).collect();
        assert!(matches!(
            session.combine(&partials),
            Err(ThresholdError::Shamir(ShamirError::InsufficientShares { have: 4, need: 5 }))
        ));
    }

    #[test]
    fn corrupted_share_is_excluded_when_redundancy_exists() {
        let mut rng = rng(4);
        let key = ThresholdKey::generate(7, 4, &mut rng);
        let digest = [7u8; 32];
        let session = key.open_ecdsa(&DerivationPath::root(), digest, &mut rng);
        let mut partials: Vec<_> = (1..=6).map(|i| session.partial_signature(i)).collect();
        // Replica 2 lies.
        partials[1].value = partials[1].value + Scalar::ONE;
        let sig = session.combine(&partials).unwrap();
        assert!(key.public_key().verify(&digest, &sig));
    }

    #[test]
    fn corrupted_share_without_redundancy_fails() {
        let mut rng = rng(5);
        let key = ThresholdKey::generate(5, 5, &mut rng);
        let session = key.open_ecdsa(&DerivationPath::root(), [3u8; 32], &mut rng);
        let mut partials: Vec<_> = (1..=5).map(|i| session.partial_signature(i)).collect();
        partials[0].value = Scalar::ONE;
        assert_eq!(session.combine(&partials), Err(ThresholdError::CorruptShares).map(|_: Signature| unreachable!()));
    }

    #[test]
    fn duplicate_partial_rejected() {
        let mut rng = rng(6);
        let key = ThresholdKey::generate(5, 3, &mut rng);
        let session = key.open_ecdsa(&DerivationPath::root(), [3u8; 32], &mut rng);
        let p = session.partial_signature(1);
        assert!(matches!(
            session.combine(&[p, p, session.partial_signature(2)]),
            Err(ThresholdError::Shamir(ShamirError::DuplicateIndex(1)))
        ));
    }

    #[test]
    fn derived_keys_differ_and_verify() {
        let mut rng = rng(7);
        let key = ThresholdKey::generate(7, 5, &mut rng);
        let path_a = DerivationPath::new([b"canister-a".to_vec()]);
        let path_b = DerivationPath::new([b"canister-b".to_vec()]);
        assert_ne!(key.derived_public_key(&path_a), key.derived_public_key(&path_b));
        assert_ne!(key.derived_public_key(&path_a), key.public_key());

        let digest = [0x11u8; 32];
        let session = key.open_ecdsa(&path_a, digest, &mut rng);
        let partials: Vec<_> = (1..=5).map(|i| session.partial_signature(i)).collect();
        let sig = session.combine(&partials).unwrap();
        assert!(key.derived_public_key(&path_a).verify(&digest, &sig));
        assert!(!key.derived_public_key(&path_b).verify(&digest, &sig));
        assert!(!key.public_key().verify(&digest, &sig));
    }

    #[test]
    fn multi_component_paths_are_position_sensitive() {
        let mut rng = rng(8);
        let key = ThresholdKey::generate(4, 3, &mut rng);
        let ab = DerivationPath::new([b"a".to_vec(), b"b".to_vec()]);
        let ba = DerivationPath::new([b"b".to_vec(), b"a".to_vec()]);
        // Length prefixes prevent concatenation ambiguity.
        let a_b = DerivationPath::new([b"ab".to_vec()]);
        assert_ne!(key.derived_public_key(&ab), key.derived_public_key(&ba));
        assert_ne!(key.derived_public_key(&ab), key.derived_public_key(&a_b));
    }

    #[test]
    fn schnorr_threshold_roundtrip() {
        let mut rng = rng(9);
        let key = ThresholdKey::generate(13, 9, &mut rng);
        let message = [0x77u8; 32];
        let path = DerivationPath::new([b"taproot".to_vec()]);
        let session = key.open_schnorr(&path, message, &mut rng);
        let partials: Vec<_> = (1..=9).map(|i| session.partial_signature(i)).collect();
        let sig = session.combine(&partials).unwrap();
        assert!(crate::schnorr::verify(&session.public_key_x(), &message, &sig));
    }

    #[test]
    fn schnorr_handles_both_key_parities() {
        let mut saw_flip = false;
        let mut saw_no_flip = false;
        for seed in 0..20 {
            let mut rng = rng(seed);
            let key = ThresholdKey::generate(4, 3, &mut rng);
            let message = [seed as u8; 32];
            let session = key.open_schnorr(&DerivationPath::root(), message, &mut rng);
            // An odd-y key is the one BIP-340 signing negates.
            if key.public_key().to_compressed()[0] == 0x03 {
                saw_flip = true;
            } else {
                saw_no_flip = true;
            }
            let partials: Vec<_> = (1..=3).map(|i| session.partial_signature(i)).collect();
            let sig = session.combine(&partials).unwrap();
            assert!(crate::schnorr::verify(&session.public_key_x(), &message, &sig));
        }
        assert!(saw_flip && saw_no_flip, "both parities must be exercised");
    }

    #[test]
    fn schnorr_corrupted_share_excluded() {
        let mut rng = rng(10);
        let key = ThresholdKey::generate(6, 4, &mut rng);
        let message = [0x55u8; 32];
        let session = key.open_schnorr(&DerivationPath::root(), message, &mut rng);
        let mut partials: Vec<_> = (1..=6).map(|i| session.partial_signature(i)).collect();
        partials[3].value = Scalar::from_u64(1);
        let sig = session.combine(&partials).unwrap();
        assert!(crate::schnorr::verify(&session.public_key_x(), &message, &sig));
    }

    /// Keys and signatures are an exact function of the seed: any change
    /// to the arithmetic or to the order of `SimRng` draws shows here.
    #[test]
    fn keys_and_signatures_are_pinned() {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        let mut rng = rng(23);
        let key = ThresholdKey::generate(13, 9, &mut rng);
        assert_eq!(
            hex(&key.public_key().to_compressed()),
            "02cdb76c050c5a3610daba7a8fd5c4b709821410e3fd8d0c6e69e1fc92258b698e"
        );
        let path = DerivationPath::new([b"canister".to_vec(), b"wallet".to_vec()]);
        assert_eq!(
            hex(&key.derived_public_key(&path).to_compressed()),
            "020f39acca36aab8e8a00b56961af80598c32acd87a224166c11cbedbb5c75ce2b"
        );

        let digest = [0x5cu8; 32];
        let session = key.open_ecdsa(&path, digest, &mut rng);
        let partials: Vec<_> = (1..=9).map(|i| session.partial_signature(i)).collect();
        assert_eq!(
            hex(&session.combine(&partials).unwrap().to_der()),
            "304402201e2a16f863f6d897263294fba5e2d22b24c464bda8d584a6f3b9023b5d2a52e102207af22e5a262c5278fba7682a270bd042609ab51c51c2ed70a2393ce77b2cfc02"
        );

        let session = key.open_schnorr(&path, digest, &mut rng);
        let partials: Vec<_> = (1..=9).map(|i| session.partial_signature(i)).collect();
        assert_eq!(
            hex(&session.combine(&partials).unwrap().to_bytes()),
            "72d76631a869396cae8bd70b22be590b801bea7ca4791ffa66095e9fc268994f357f49f7470aaa88dacd72a1bc3f9dc9d41ab2838a26da0b65e11d30b17bcf99"
        );
        assert_eq!(
            hex(&session.public_key_x()),
            "0f39acca36aab8e8a00b56961af80598c32acd87a224166c11cbedbb5c75ce2b"
        );

        assert_eq!(format!("{:?}", crate::FieldElement::from_u64(0xc0ffee)), "Fe(0xc0ffee)");
        assert_eq!(format!("{:?}", Scalar::from_u64(0xabcd)), "Scalar(…abcd)");
    }

    #[test]
    fn advance_combination_enumerates_all() {
        let mut combo = vec![0usize, 1];
        let mut count = 1;
        while advance_combination(&mut combo, 4) {
            count += 1;
        }
        assert_eq!(count, 6, "C(4,2) = 6");
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!ThresholdError::CorruptShares.to_string().is_empty());
        assert!(!ThresholdError::from(ShamirError::ZeroIndex).to_string().is_empty());
    }
}
