//! Residues modulo the two secp256k1 moduli, fixed at compile time.
//!
//! Both moduli have the shape `m = 2²⁵⁶ − δ` (the field prime `p` with
//! δ = 2³² + 977, the group order `n` with a 129-bit δ), which allows
//! reduction of 512-bit products by folding the high half:
//! `hi·2²⁵⁶ ≡ hi·δ (mod m)`. The fold shrinks the high half by a factor of
//! `2²⁵⁶/δ` per iteration, so it terminates in at most three rounds.
//! [`Residue`] implements that arithmetic once; [`FieldElement`] and
//! [`Scalar`] name its two instances.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Add, Mul, Neg, Sub};

use icbtc_bitcoin::U256;
use icbtc_sim::SimRng;

/// A modulus `M = 2²⁵⁶ − DELTA` with `DELTA < 2¹³⁰`, named by a marker
/// type (the marker's `Copy` and `Eq` make [`Residue`] `Copy` and `Eq`).
pub trait Modulus: Copy + Eq {
    /// The modulus itself.
    const M: U256;
    /// `2²⁵⁶ − M`.
    const DELTA: U256;
}

/// The secp256k1 field prime `p = 2²⁵⁶ − 2³² − 977`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct FieldPrime;

impl Modulus for FieldPrime {
    const M: U256 = U256::from_limbs([0xFFFF_FFFE_FFFF_FC2F, u64::MAX, u64::MAX, u64::MAX]);
    const DELTA: U256 = U256::from_u64((1 << 32) + 977);
}

/// The secp256k1 group order `n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct GroupOrder;

impl Modulus for GroupOrder {
    const M: U256 = U256::from_limbs([
        0xBFD2_5E8C_D036_4141,
        0xBAAE_DCE6_AF48_A03B,
        0xFFFF_FFFF_FFFF_FFFE,
        u64::MAX,
    ]);
    const DELTA: U256 = U256::from_limbs([0x402D_A173_2FC9_BEBF, 0x4551_2319_50B7_5FC4, 1, 0]);
}

/// A residue modulo `M`, always kept reduced into `[0, M)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Residue<M>(U256, PhantomData<M>);

/// An element of the secp256k1 base field GF(p).
///
/// # Examples
///
/// ```
/// use icbtc_tecdsa::FieldElement;
/// let a = FieldElement::from_u64(3);
/// let b = FieldElement::from_u64(4);
/// assert_eq!(a * a + b * b, FieldElement::from_u64(25));
/// ```
pub type FieldElement = Residue<FieldPrime>;

/// A scalar modulo the secp256k1 group order `n`: private-key shares,
/// nonces, signature components, and the Shamir share values of the
/// threshold protocol.
///
/// # Examples
///
/// ```
/// use icbtc_tecdsa::Scalar;
/// let a = Scalar::from_u64(10);
/// assert_eq!(a * a.invert(), Scalar::ONE);
/// ```
pub type Scalar = Residue<GroupOrder>;

impl<M: Modulus> Residue<M> {
    /// The additive identity.
    pub const ZERO: Self = Residue(U256::ZERO, PhantomData);
    /// The multiplicative identity.
    pub const ONE: Self = Residue(U256::ONE, PhantomData);
    /// The modulus.
    pub const MODULUS: U256 = M::M;

    /// Wraps a value already in `[0, M)`.
    const fn new(value: U256) -> Self {
        Residue(value, PhantomData)
    }

    /// Reduces a value below `2²⁵⁶`, which is below `2·M`.
    fn reduce(value: U256) -> Self {
        Self::new(if value >= M::M { value.wrapping_sub(M::M) } else { value })
    }

    /// Reduces a 512-bit value `(lo, hi)` by folding the high half.
    fn reduce_wide(mut lo: U256, mut hi: U256) -> Self {
        while !hi.is_zero() {
            let (folded_lo, folded_hi) = hi.widening_mul(M::DELTA);
            let (sum, carry) = lo.overflowing_add(folded_lo);
            lo = sum;
            hi = if carry { folded_hi + U256::ONE } else { folded_hi };
        }
        Self::reduce(lo)
    }

    /// Creates a residue from a small integer.
    pub fn from_u64(v: u64) -> Self {
        Self::new(U256::from_u64(v))
    }

    /// Creates a residue from big-endian bytes, reducing mod `M`.
    pub fn from_be_bytes(bytes: [u8; 32]) -> Self {
        Self::reduce(U256::from_be_bytes(bytes))
    }

    /// Serializes to big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// Returns the raw reduced value.
    pub fn to_u256(self) -> U256 {
        self.0
    }

    /// Returns `true` for the additive identity.
    pub fn is_zero(self) -> bool {
        self.0.is_zero()
    }

    /// Raises to `exponent` by square-and-multiply.
    fn pow(self, exponent: U256) -> Self {
        let mut result = Self::ONE;
        let mut acc = self;
        for i in 0..exponent.bits() as usize {
            if exponent.bit(i) {
                result = result * acc;
            }
            acc = acc * acc;
        }
        result
    }

    /// Computes the multiplicative inverse by Fermat's little theorem
    /// (both moduli are prime).
    ///
    /// # Panics
    ///
    /// Panics if the residue is zero.
    pub fn invert(self) -> Self {
        assert!(!self.is_zero(), "zero has no modular inverse");
        self.pow(M::M.wrapping_sub(U256::from_u64(2)))
    }
}

impl<M: Modulus> Add for Residue<M> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        let (sum, carry) = self.0.overflowing_add(rhs.0);
        // sum + 2²⁵⁶ ≡ sum + δ, and a + b < 2·M keeps that below M.
        if carry {
            Self::new(sum + M::DELTA)
        } else {
            Self::reduce(sum)
        }
    }
}

impl<M: Modulus> Sub for Residue<M> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        if self.0 >= rhs.0 {
            Self::new(self.0.wrapping_sub(rhs.0))
        } else {
            Self::new(self.0 + M::M.wrapping_sub(rhs.0))
        }
    }
}

impl<M: Modulus> Mul for Residue<M> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        let (lo, hi) = self.0.widening_mul(rhs.0);
        Self::reduce_wide(lo, hi)
    }
}

impl<M: Modulus> Neg for Residue<M> {
    type Output = Self;
    fn neg(self) -> Self {
        Self::ZERO - self
    }
}

impl FieldElement {
    /// Creates an element from big-endian bytes, rejecting values ≥ p
    /// (the strict check BIP-340 x-only parsing requires).
    pub fn from_be_bytes_checked(bytes: [u8; 32]) -> Option<FieldElement> {
        let v = U256::from_be_bytes(bytes);
        (v < FieldPrime::M).then(|| FieldElement::new(v))
    }

    /// Returns `true` if the canonical representative is even — the parity
    /// convention BIP-340 and compressed point encoding rely on.
    pub fn is_even(self) -> bool {
        !self.0.bit(0)
    }

    /// Squares the element.
    pub fn square(self) -> FieldElement {
        self * self
    }

    /// Computes a square root if one exists. Since `p ≡ 3 (mod 4)` the
    /// candidate is `a^((p+1)/4)`; the result is checked by squaring.
    pub fn sqrt(self) -> Option<FieldElement> {
        let candidate = self.pow((FieldPrime::M + U256::ONE) >> 2);
        (candidate.square() == self).then_some(candidate)
    }
}

impl fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fe(0x{:x})", self.0)
    }
}

impl fmt::Display for FieldElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl Scalar {
    /// Creates a scalar from big-endian bytes, rejecting zero and values
    /// ≥ n — the strict validation applied to incoming signatures.
    pub fn from_be_bytes_checked(bytes: [u8; 32]) -> Option<Scalar> {
        let v = U256::from_be_bytes(bytes);
        (!v.is_zero() && v < GroupOrder::M).then(|| Scalar::new(v))
    }

    /// Draws a uniformly random non-zero scalar.
    pub fn random(rng: &mut SimRng) -> Scalar {
        loop {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            let v = U256::from_be_bytes(bytes);
            if !v.is_zero() && v < GroupOrder::M {
                return Scalar::new(v);
            }
        }
    }

    /// Returns `true` if the scalar exceeds `n/2` — the "high-s" test used
    /// for Bitcoin's low-s signature normalization.
    pub fn is_high(self) -> bool {
        self.0 > (GroupOrder::M >> 1)
    }
}

impl std::iter::Sum for Scalar {
    fn sum<I: Iterator<Item = Scalar>>(iter: I) -> Scalar {
        iter.fold(Scalar::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Scalars are frequently secret; display only a short fingerprint.
        let bytes = self.0.to_be_bytes();
        write!(f, "Scalar(…{:02x}{:02x})", bytes[30], bytes[31])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moduli_are_two_to_the_256_minus_delta() {
        for (m, delta) in [(FieldPrime::M, FieldPrime::DELTA), (GroupOrder::M, GroupOrder::DELTA)] {
            assert_eq!(m.overflowing_add(delta), (U256::ZERO, true));
            // The fold bound needs the top bit set and a small δ.
            assert_eq!(m.bits(), 256);
            assert!(delta.bits() <= 130);
        }
    }

    #[test]
    fn add_sub_neg() {
        let a = FieldElement::from_be_bytes([0xab; 32]);
        let b = FieldElement::from_be_bytes([0x17; 32]);
        assert_eq!((a + b) - b, a);
        assert_eq!(a + (-a), FieldElement::ZERO);
        assert_eq!(-FieldElement::ZERO, FieldElement::ZERO);
        // Wrap-around addition stays reduced.
        let near = -FieldElement::ONE;
        assert_eq!(near + FieldElement::from_u64(2), FieldElement::ONE);
    }

    #[test]
    fn from_be_bytes_folds_values_above_the_modulus() {
        // p + 5 and n + 3 still fit in 256 bits.
        let bytes = (FieldPrime::M + U256::from_u64(5)).to_be_bytes();
        assert_eq!(FieldElement::from_be_bytes(bytes), FieldElement::from_u64(5));
        assert_eq!(FieldElement::from_be_bytes_checked(bytes), None);
        assert!(FieldElement::from_be_bytes_checked([0x11; 32]).is_some());
        let bytes = (GroupOrder::M + U256::from_u64(3)).to_be_bytes();
        assert_eq!(Scalar::from_be_bytes(bytes), Scalar::from_u64(3));
        assert_eq!(Scalar::from_be_bytes_checked(bytes), None);
        assert_eq!(Scalar::from_be_bytes_checked(GroupOrder::M.to_be_bytes()), None);
        assert_eq!(Scalar::from_be_bytes_checked([0; 32]), None);
        assert!(Scalar::from_be_bytes_checked([1; 32]).is_some());
    }

    #[test]
    fn mul_matches_small_numbers_and_folds_the_maximum() {
        assert_eq!(Scalar::from_u64(6) * Scalar::from_u64(7), Scalar::from_u64(42));
        assert_eq!(Scalar::ZERO * -Scalar::ONE, Scalar::ZERO);
        // (−1)·(−1) = 1 exercises the largest 512-bit product.
        assert_eq!(-FieldElement::ONE * -FieldElement::ONE, FieldElement::ONE);
        assert_eq!(-Scalar::ONE * -Scalar::ONE, Scalar::ONE);
    }

    fn fermat_inverse_for<M: Modulus>() {
        for v in [2u64, 3, 65537, 0xdeadbeef] {
            let a = Residue::<M>::from_u64(v);
            assert!(a * a.invert() == Residue::ONE, "inverse of {v}");
        }
        // Inverse of M − 1 (= −1) is itself.
        let minus_one = -Residue::<M>::ONE;
        assert!(minus_one.invert() == minus_one);
    }

    #[test]
    fn fermat_inverse() {
        fermat_inverse_for::<FieldPrime>();
        fermat_inverse_for::<GroupOrder>();
    }

    #[test]
    #[should_panic(expected = "zero has no modular inverse")]
    fn inverse_of_zero_panics() {
        let _ = FieldElement::ZERO.invert();
    }

    #[test]
    fn pow_edge_cases() {
        let five = FieldElement::from_u64(5);
        assert_eq!(five.pow(U256::ZERO), FieldElement::ONE);
        assert_eq!(five.pow(U256::ONE), five);
        assert_eq!(FieldElement::from_u64(2).pow(U256::from_u64(10)), FieldElement::from_u64(1024));
        // Fermat: a^(p−1) = 1.
        let p_minus_1 = FieldPrime::M.wrapping_sub(U256::ONE);
        assert_eq!(FieldElement::from_u64(7).pow(p_minus_1), FieldElement::ONE);
    }

    #[test]
    fn parity() {
        assert!(FieldElement::from_u64(4).is_even());
        assert!(!FieldElement::from_u64(7).is_even());
        assert!(FieldElement::ZERO.is_even());
    }

    #[test]
    fn sqrt_of_squares_and_non_residues() {
        for v in [2u64, 3, 9, 1_000_003] {
            let a = FieldElement::from_u64(v);
            let root = a.square().sqrt().expect("squares have roots");
            assert!(root == a || root == -a, "root of {v}^2");
        }
        assert!((2u64..40).any(|v| FieldElement::from_u64(v).sqrt().is_none()));
    }

    #[test]
    fn high_s_detection() {
        let half = Scalar::new(GroupOrder::M >> 1);
        assert!(!half.is_high());
        assert!((half + Scalar::ONE).is_high());
        assert!(!Scalar::ONE.is_high());
        assert!((-Scalar::ONE).is_high());
    }

    #[test]
    fn random_scalars_are_distinct_and_reduced() {
        let mut rng = SimRng::seed_from(7);
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        assert_ne!(a, b);
        assert!(!a.is_zero());
        assert!(a.to_u256() < GroupOrder::M);
    }

    #[test]
    fn sum_folds() {
        let total: Scalar = (1..=10u64).map(Scalar::from_u64).sum();
        assert_eq!(total, Scalar::from_u64(55));
    }

    #[test]
    fn debug_of_a_scalar_reveals_only_a_fingerprint() {
        let shown = format!("{:?}", Scalar::from_be_bytes([0x5a; 32]));
        assert_eq!(shown, "Scalar(…5a5a)");
        assert_eq!(format!("{}", FieldElement::from_u64(0xabc)), "Fe(0xabc)");
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;

        fn arb<M: Modulus>(rng: &mut SimRng) -> Residue<M> {
            Residue::from_be_bytes(testkit::byte_array(rng))
        }

        fn axioms<M: Modulus>(seed: u64) {
            testkit::check(seed, testkit::DEFAULT_CASES, |rng| {
                let (a, b, c) = (arb::<M>(rng), arb::<M>(rng), arb::<M>(rng));
                assert!(a + b == b + a && a * b == b * a);
                assert!((a + b) + c == a + (b + c) && (a * b) * c == a * (b * c));
                assert!(a * (b + c) == a * b + a * c);
                assert!((a - b) + b == a && -(-a) == a);
                assert!((a * b).to_u256() < M::M);
                assert!(Residue::<M>::from_be_bytes(a.to_be_bytes()) == a);
                assert!(a.is_zero() || a * a.invert() == Residue::ONE);
            });
        }

        #[test]
        fn field_and_scalar_axioms() {
            axioms::<FieldPrime>(0xFE_0001);
            axioms::<GroupOrder>(0x5A_0001);
        }

        #[test]
        fn mul_agrees_with_the_wide_fold_of_unreduced_products() {
            testkit::check(0x30_0002, testkit::DEFAULT_CASES, |rng| {
                let (a, b) = (U256::from_limbs(testkit::limbs4(rng)), U256::from_limbs(testkit::limbs4(rng)));
                let (lo, hi) = a.widening_mul(b);
                let reduced = Scalar::reduce_wide(a, U256::ZERO) * Scalar::reduce_wide(b, U256::ZERO);
                assert_eq!(Scalar::reduce_wide(lo, hi), reduced);
            });
        }

        #[test]
        fn sqrt_squares() {
            testkit::check(0xFE_0003, testkit::DEFAULT_CASES, |rng| {
                let a = arb::<FieldPrime>(rng);
                let root = a.square().sqrt().expect("every square has a root");
                assert!(root == a || root == -a);
            });
        }
    }
}
