//! The secp256k1 group: point arithmetic and scalar multiplication.

use std::fmt;

use icbtc_bitcoin::U256;

use crate::{FieldElement, Scalar};

/// A point on secp256k1 in affine coordinates (or the point at infinity).
///
/// # Examples
///
/// ```
/// use icbtc_tecdsa::{AffinePoint, Scalar};
/// let g = AffinePoint::generator();
/// let two_g = g.mul(Scalar::from_u64(2));
/// assert_eq!(two_g, g.add(&g));
/// assert!(two_g.is_on_curve());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum AffinePoint {
    /// The identity element.
    Infinity,
    /// A finite curve point.
    Point {
        /// x coordinate.
        x: FieldElement,
        /// y coordinate.
        y: FieldElement,
    },
}

impl AffinePoint {
    /// Returns the standard generator `G`.
    pub fn generator() -> AffinePoint {
        let gx = U256::from_limbs([
            0x59F2_815B_16F8_1798,
            0x029B_FCDB_2DCE_28D9,
            0x55A0_6295_CE87_0B07,
            0x79BE_667E_F9DC_BBAC,
        ]);
        let gy = U256::from_limbs([
            0x9C47_D08F_FB10_D4B8,
            0xFD17_B448_A685_5419,
            0x5DA4_FBFC_0E11_08A8,
            0x483A_DA77_26A3_C465,
        ]);
        AffinePoint::Point {
            x: FieldElement::from_be_bytes(gx.to_be_bytes()),
            y: FieldElement::from_be_bytes(gy.to_be_bytes()),
        }
    }

    /// Returns `true` for the point at infinity.
    pub fn is_infinity(&self) -> bool {
        matches!(self, AffinePoint::Infinity)
    }

    /// Returns the x coordinate of a finite point.
    ///
    /// # Panics
    ///
    /// Panics on the point at infinity.
    pub fn x(&self) -> FieldElement {
        match self {
            AffinePoint::Point { x, .. } => *x,
            AffinePoint::Infinity => panic!("x of the point at infinity"),
        }
    }

    /// Returns the y coordinate of a finite point.
    ///
    /// # Panics
    ///
    /// Panics on the point at infinity.
    pub fn y(&self) -> FieldElement {
        match self {
            AffinePoint::Point { y, .. } => *y,
            AffinePoint::Infinity => panic!("y of the point at infinity"),
        }
    }

    /// Checks the curve equation `y² = x³ + 7` (infinity counts as on the
    /// curve).
    pub fn is_on_curve(&self) -> bool {
        match self {
            AffinePoint::Infinity => true,
            AffinePoint::Point { x, y } => {
                y.square() == x.square() * *x + FieldElement::from_u64(7)
            }
        }
    }

    /// Negates the point.
    pub fn negate(&self) -> AffinePoint {
        match self {
            AffinePoint::Infinity => AffinePoint::Infinity,
            AffinePoint::Point { x, y } => AffinePoint::Point { x: *x, y: -*y },
        }
    }

    /// Adds two points.
    pub fn add(&self, other: &AffinePoint) -> AffinePoint {
        JacobianPoint::from_affine(*self).add(&JacobianPoint::from_affine(*other)).to_affine()
    }

    /// Multiplies the point by a scalar via Jacobian double-and-add.
    pub fn mul(&self, k: Scalar) -> AffinePoint {
        JacobianPoint::from_affine(*self).mul(k).to_affine()
    }

    /// Computes `a·G + b·Q`, the double multiplication at the heart of
    /// ECDSA and Schnorr verification, by Shamir's trick: one
    /// left-to-right ladder over the bits of `a` and `b` together shares
    /// its doublings between both, adding `G`, `Q` or the precomputed
    /// `G + Q` as the two bits at each position ask.
    pub fn double_mul(a: Scalar, b: Scalar, q: &AffinePoint) -> AffinePoint {
        let g = JacobianPoint::from_affine(AffinePoint::generator());
        let q = JacobianPoint::from_affine(*q);
        let g_plus_q = g.add(&q);
        let (a, b) = (a.to_u256(), b.to_u256());
        let mut acc = JacobianPoint::infinity();
        for i in (0..a.bits().max(b.bits()) as usize).rev() {
            acc = acc.double();
            let addend = match (a.bit(i), b.bit(i)) {
                (true, true) => &g_plus_q,
                (true, false) => &g,
                (false, true) => &q,
                (false, false) => continue,
            };
            acc = acc.add(addend);
        }
        acc.to_affine()
    }

    /// Serializes as a 33-byte compressed point (`02`/`03` prefix by y
    /// parity).
    ///
    /// # Panics
    ///
    /// Panics on the point at infinity, which has no SEC1 encoding here.
    pub fn to_compressed(&self) -> [u8; 33] {
        let (x, y) = match self {
            AffinePoint::Point { x, y } => (x, y),
            AffinePoint::Infinity => panic!("cannot encode the point at infinity"),
        };
        let mut out = [0u8; 33];
        out[0] = if y.is_even() { 0x02 } else { 0x03 };
        out[1..].copy_from_slice(&x.to_be_bytes());
        out
    }

    /// Parses a 33-byte compressed point, validating the curve equation.
    pub fn from_compressed(bytes: &[u8]) -> Option<AffinePoint> {
        if bytes.len() != 33 || (bytes[0] != 0x02 && bytes[0] != 0x03) {
            return None;
        }
        let x = FieldElement::from_be_bytes_checked(bytes[1..].try_into().ok()?)?;
        lift_x(x, bytes[0] == 0x02)
    }

    /// Serializes the x coordinate only (BIP-340 public key form).
    ///
    /// # Panics
    ///
    /// Panics on the point at infinity.
    pub fn to_x_only(&self) -> [u8; 32] {
        self.x().to_be_bytes()
    }

    /// Parses a BIP-340 x-only key: the finite point with this x and even
    /// y.
    pub fn from_x_only(bytes: &[u8; 32]) -> Option<AffinePoint> {
        lift_x(FieldElement::from_be_bytes_checked(*bytes)?, true)
    }

    /// Returns the point with the same x and even y, together with whether
    /// the y was flipped — BIP-340's key normalization.
    pub fn normalize_even_y(&self) -> (AffinePoint, bool) {
        match self {
            AffinePoint::Infinity => (AffinePoint::Infinity, false),
            AffinePoint::Point { x, y } => {
                if y.is_even() {
                    (*self, false)
                } else {
                    (AffinePoint::Point { x: *x, y: -*y }, true)
                }
            }
        }
    }
}

/// The curve point with x coordinate `x` and a y of the requested parity,
/// if `x³ + 7` is a square.
fn lift_x(x: FieldElement, even_y: bool) -> Option<AffinePoint> {
    let y = (x.square() * x + FieldElement::from_u64(7)).sqrt()?;
    let y = if y.is_even() == even_y { y } else { -y };
    Some(AffinePoint::Point { x, y })
}

impl fmt::Debug for AffinePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffinePoint::Infinity => write!(f, "AffinePoint::Infinity"),
            AffinePoint::Point { x, .. } => write!(f, "AffinePoint({x:?})"),
        }
    }
}

/// A point in Jacobian projective coordinates `(X : Y : Z)` with
/// `x = X/Z²`, `y = Y/Z³`; avoids a field inversion per group operation.
#[derive(Clone, Copy, Debug)]
pub struct JacobianPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

impl JacobianPoint {
    /// The identity element (Z = 0).
    pub fn infinity() -> JacobianPoint {
        JacobianPoint { x: FieldElement::ONE, y: FieldElement::ONE, z: FieldElement::ZERO }
    }

    /// Lifts an affine point.
    pub fn from_affine(p: AffinePoint) -> JacobianPoint {
        match p {
            AffinePoint::Infinity => JacobianPoint::infinity(),
            AffinePoint::Point { x, y } => JacobianPoint { x, y, z: FieldElement::ONE },
        }
    }

    /// Returns `true` for the identity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Projects back to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> AffinePoint {
        if self.is_infinity() {
            return AffinePoint::Infinity;
        }
        let z_inv = self.z.invert();
        let z_inv2 = z_inv.square();
        AffinePoint::Point { x: self.x * z_inv2, y: self.y * z_inv2 * z_inv }
    }

    /// Doubles the point (dbl-2009-l formulas, a = 0).
    pub fn double(&self) -> JacobianPoint {
        if self.is_infinity() || self.y.is_zero() {
            return JacobianPoint::infinity();
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let mut d = (self.x + b).square() - a - c;
        d = d + d;
        let e = a + a + a;
        let f = e.square();
        let x3 = f - (d + d);
        let mut c8 = c + c;
        c8 = c8 + c8;
        c8 = c8 + c8;
        let y3 = e * (d - x3) - c8;
        let z3 = (self.y + self.y) * self.z;
        JacobianPoint { x: x3, y: y3, z: z3 }
    }

    /// Adds two points (add-2007-bl formulas with doubling fallback).
    pub fn add(&self, other: &JacobianPoint) -> JacobianPoint {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * other.z * z2z2;
        let s2 = other.y * self.z * z1z1;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return JacobianPoint::infinity();
        }
        let h = u2 - u1;
        let i = (h + h).square();
        let j = h * i;
        let mut r = s2 - s1;
        r = r + r;
        let v = u1 * i;
        let x3 = r.square() - j - (v + v);
        let s1j = s1 * j;
        let y3 = r * (v - x3) - (s1j + s1j);
        let z3 = ((self.z + other.z).square() - z1z1 - z2z2) * h;
        JacobianPoint { x: x3, y: y3, z: z3 }
    }

    /// Scalar multiplication by left-to-right double-and-add.
    pub fn mul(&self, k: Scalar) -> JacobianPoint {
        let bits = k.to_u256();
        let mut acc = JacobianPoint::infinity();
        for i in (0..bits.bits() as usize).rev() {
            acc = acc.double();
            if bits.bit(i) {
                acc = acc.add(self);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_on_curve() {
        let g = AffinePoint::generator();
        assert!(g.is_on_curve());
        assert!(!g.is_infinity());
    }

    #[test]
    fn generator_has_order_n() {
        let g = AffinePoint::generator();
        // (n-1)·G = -G, n·G = ∞.
        let n_minus_1 = -Scalar::ONE;
        assert_eq!(g.mul(n_minus_1), g.negate());
        assert_eq!(g.mul(n_minus_1).add(&g), AffinePoint::Infinity);
    }

    #[test]
    fn known_multiples_of_g() {
        // 2G x-coordinate (published test vector).
        let two_g = AffinePoint::generator().mul(Scalar::from_u64(2));
        let x_hex: String = two_g.x().to_be_bytes().iter().map(|b| format!("{b:02X}")).collect();
        assert_eq!(x_hex, "C6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5");
        // 3G x-coordinate.
        let three_g = AffinePoint::generator().mul(Scalar::from_u64(3));
        let x3_hex: String = three_g.x().to_be_bytes().iter().map(|b| format!("{b:02X}")).collect();
        assert_eq!(x3_hex, "F9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9");
    }

    #[test]
    fn addition_laws() {
        let g = AffinePoint::generator();
        let p = g.mul(Scalar::from_u64(5));
        let q = g.mul(Scalar::from_u64(11));
        // Commutativity and consistency with scalar arithmetic.
        assert_eq!(p.add(&q), q.add(&p));
        assert_eq!(p.add(&q), g.mul(Scalar::from_u64(16)));
        // Identity and inverse.
        assert_eq!(p.add(&AffinePoint::Infinity), p);
        assert_eq!(p.add(&p.negate()), AffinePoint::Infinity);
        // Doubling consistency.
        assert_eq!(p.add(&p), g.mul(Scalar::from_u64(10)));
    }

    #[test]
    fn zero_scalar_gives_infinity() {
        assert!(AffinePoint::generator().mul(Scalar::ZERO).is_infinity());
        assert!(AffinePoint::Infinity.mul(Scalar::from_u64(7)).is_infinity());
    }

    #[test]
    fn double_mul_matches_separate_ops() {
        let g = AffinePoint::generator();
        let q = g.mul(Scalar::from_u64(77));
        let a = Scalar::from_u64(13);
        let b = Scalar::from_u64(29);
        let combined = AffinePoint::double_mul(a, b, &q);
        assert_eq!(combined, g.mul(a).add(&q.mul(b)));
        // 13 + 29*77 = 2246
        assert_eq!(combined, g.mul(Scalar::from_u64(2246)));
    }

    #[test]
    fn compressed_roundtrip() {
        for k in [1u64, 2, 3, 7, 1000, 0xdeadbeef] {
            let p = AffinePoint::generator().mul(Scalar::from_u64(k));
            let compressed = p.to_compressed();
            assert!(compressed[0] == 0x02 || compressed[0] == 0x03);
            let back = AffinePoint::from_compressed(&compressed).unwrap();
            assert_eq!(back, p, "k = {k}");
        }
    }

    #[test]
    fn compressed_rejects_garbage() {
        assert_eq!(AffinePoint::from_compressed(&[0u8; 33]), None);
        assert_eq!(AffinePoint::from_compressed(&[0x04; 33]), None);
        assert_eq!(AffinePoint::from_compressed(&[0x02; 10]), None);
        // x = p is out of range.
        let mut bad = [0u8; 33];
        bad[0] = 0x02;
        bad[1..].copy_from_slice(&FieldElement::MODULUS.to_be_bytes());
        assert_eq!(AffinePoint::from_compressed(&bad), None);
    }

    #[test]
    fn x_only_roundtrip_and_even_y() {
        let p = AffinePoint::generator().mul(Scalar::from_u64(12345));
        let (even, _) = p.normalize_even_y();
        let back = AffinePoint::from_x_only(&even.to_x_only()).unwrap();
        assert_eq!(back, even);
        assert!(back.y().is_even());
    }

    #[test]
    fn generator_known_compressed_encoding() {
        let hex: String =
            AffinePoint::generator().to_compressed().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;

        /// Scalar multiplication is a homomorphism: (a+b)G = aG + bG.
        #[test]
        fn mul_distributes() {
            testkit::check(0xC7_0001, testkit::DEFAULT_CASES, |rng| {
                let a = testkit::u64_in(rng, 1..1_000_000);
                let b = testkit::u64_in(rng, 1..1_000_000);
                let g = AffinePoint::generator();
                let left = g.mul(Scalar::from_u64(a) + Scalar::from_u64(b));
                let right = g.mul(Scalar::from_u64(a)).add(&g.mul(Scalar::from_u64(b)));
                assert_eq!(left, right);
            });
        }

        /// Shamir's trick agrees with two separate ladders summed, for
        /// full-width scalars, a = 0, b = 0, Q = G, and Q = −G with a = b,
        /// where the sum is the point at infinity.
        #[test]
        fn double_mul_matches_two_ladders() {
            let g = AffinePoint::generator();
            let two_ladders = |a: Scalar, b: Scalar, q: &AffinePoint| {
                let ag = JacobianPoint::from_affine(g).mul(a);
                ag.add(&JacobianPoint::from_affine(*q).mul(b)).to_affine()
            };
            testkit::check(0xC7_0003, 24, |rng| {
                let (a, b) = (Scalar::random(rng), Scalar::random(rng));
                let q = g.mul(Scalar::random(rng));
                for (a, b, q) in [
                    (a, b, q),
                    (Scalar::ZERO, b, q),
                    (a, Scalar::ZERO, q),
                    (a, b, g),
                    (a, a, g.negate()),
                ] {
                    assert_eq!(AffinePoint::double_mul(a, b, &q), two_ladders(a, b, &q));
                }
                assert!(AffinePoint::double_mul(a, a, &g.negate()).is_infinity());
            });
        }

        /// All multiples stay on the curve.
        #[test]
        fn multiples_on_curve() {
            testkit::check(0xC7_0002, testkit::DEFAULT_CASES, |rng| {
                let k = testkit::u64_in(rng, 1..u64::MAX);
                let p = AffinePoint::generator().mul(Scalar::from_u64(k));
                assert!(p.is_on_curve());
            });
        }
    }
}
