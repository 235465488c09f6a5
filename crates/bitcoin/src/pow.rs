//! Proof-of-work: compact targets, chain work, difficulty retargeting.
//!
//! The paper's difficulty-based δ-stability (§II-C) is defined over the
//! *hash work* `w(b)` of each block, so the reproduction needs the real
//! arithmetic: compact-bits encoding, target comparison, per-block work
//! `⌊2²⁵⁶ / (target + 1)⌋`, and the 2016-block retargeting rule.
//!
//! [`validate_header`] holds Bitcoin's header rules in one place: the
//! adapter's chain store (§III-B) and the canister's Algorithm 2 (§III-C)
//! both call it, and differ only in how they walk a parent's ancestors.

use std::fmt;

use crate::block::BlockHeader;
use crate::network::Params;
use crate::u256::U256;

/// The difficulty target in Bitcoin's compact "bits" encoding.
///
/// The encoding is a base-256 floating point: the low 3 bytes are the
/// mantissa and the high byte is the exponent (number of bytes of the
/// target).
///
/// # Examples
///
/// ```
/// use icbtc_bitcoin::pow::CompactTarget;
/// let bits = CompactTarget::from_consensus(0x1d00ffff); // Bitcoin genesis
/// let target = bits.to_target();
/// assert_eq!(CompactTarget::from_target(target), bits);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompactTarget(u32);

impl CompactTarget {
    /// Wraps a raw consensus `bits` value.
    pub const fn from_consensus(bits: u32) -> CompactTarget {
        CompactTarget(bits)
    }

    /// Returns the raw consensus `bits` value.
    pub const fn to_consensus(self) -> u32 {
        self.0
    }

    /// Expands the compact encoding into the full 256-bit target.
    ///
    /// Invalid encodings (overflow or negative-flag mantissas) expand to
    /// zero, which no hash can satisfy — matching Bitcoin Core's rejection.
    pub fn to_target(self) -> U256 {
        let exponent = (self.0 >> 24) as usize;
        let mantissa = self.0 & 0x007f_ffff;
        if self.0 & 0x0080_0000 != 0 {
            // Negative targets are invalid.
            return U256::ZERO;
        }
        if exponent <= 3 {
            U256::from_u64((mantissa >> (8 * (3 - exponent))) as u64)
        } else {
            let shift = 8 * (exponent - 3);
            let mantissa_bits = 32 - mantissa.leading_zeros() as usize;
            if shift + mantissa_bits > 256 {
                // Overflow past 256 bits.
                return U256::ZERO;
            }
            U256::from_u64(mantissa as u64) << shift
        }
    }

    /// Compresses a full target into compact form (lossy: only the top
    /// three bytes of precision are kept, exactly as in Bitcoin).
    pub fn from_target(target: U256) -> CompactTarget {
        if target.is_zero() {
            return CompactTarget(0);
        }
        let mut exponent = (target.bits() as usize).div_ceil(8);
        let mut mantissa = if exponent <= 3 {
            (target.limbs()[0] << (8 * (3 - exponent))) as u32
        } else {
            (target >> (8 * (exponent - 3))).limbs()[0] as u32
        };
        // Avoid setting the sign bit.
        if mantissa & 0x0080_0000 != 0 {
            mantissa >>= 8;
            exponent += 1;
        }
        CompactTarget(((exponent as u32) << 24) | (mantissa & 0x007f_ffff))
    }

    /// Computes the expected hash work for this target:
    /// `⌊2²⁵⁶ / (target + 1)⌋`, via Bitcoin Core's overflow-free identity
    /// `(~target / (target + 1)) + 1`.
    pub fn work(self) -> Work {
        let target = self.to_target();
        if target.is_zero() {
            return Work(U256::ZERO);
        }
        let quotient = (!target).div_rem(target + U256::ONE).0;
        Work(quotient + U256::ONE)
    }
}

impl fmt::Display for CompactTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bits(0x{:08x})", self.0)
    }
}

/// Accumulated (or per-block) hash work.
///
/// A 256-bit quantity: chain work sums per-block work over potentially
/// hundreds of thousands of blocks.
///
/// # Examples
///
/// ```
/// use icbtc_bitcoin::pow::{CompactTarget, Work};
/// let w = CompactTarget::from_consensus(0x207fffff).work();
/// assert_eq!(w + Work::ZERO, w);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Work(U256);

impl Work {
    /// Zero work.
    pub const ZERO: Work = Work(U256::ZERO);

    /// Wraps a raw work value.
    pub const fn from_u256(v: U256) -> Work {
        Work(v)
    }

    /// Returns the raw 256-bit value.
    pub const fn to_u256(self) -> U256 {
        self.0
    }
}

impl std::ops::Add for Work {
    type Output = Work;
    fn add(self, rhs: Work) -> Work {
        Work(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, rhs: Work) {
        *self = *self + rhs;
    }
}

impl std::ops::Sub for Work {
    type Output = Work;
    fn sub(self, rhs: Work) -> Work {
        Work(self.0.checked_sub(rhs.0).unwrap_or(U256::ZERO))
    }
}

impl std::ops::Mul<u64> for Work {
    type Output = Work;
    fn mul(self, rhs: u64) -> Work {
        Work(self.0.checked_mul(U256::from_u64(rhs)).unwrap_or(U256::MAX))
    }
}

impl std::iter::Sum for Work {
    fn sum<I: Iterator<Item = Work>>(iter: I) -> Work {
        iter.fold(Work::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Work {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "work({})", self.0)
    }
}

/// Computes the next retarget given the old target and the actual timespan
/// of the last interval, clamped to a factor of 4 in each direction as in
/// Bitcoin.
///
/// `pow_limit` caps the result (difficulty cannot drop below the network
/// minimum).
pub fn retarget(
    old: CompactTarget,
    actual_timespan_secs: u64,
    expected_timespan_secs: u64,
    pow_limit: CompactTarget,
) -> CompactTarget {
    let clamped = actual_timespan_secs
        .max(expected_timespan_secs / 4)
        .min(expected_timespan_secs * 4);
    let old_target = old.to_target();
    // new = old * clamped / expected, computed without overflow by
    // dividing first when the multiply would overflow.
    let (lo, hi) = old_target.widening_mul(U256::from_u64(clamped));
    let new_target = if hi.is_zero() {
        lo / U256::from_u64(expected_timespan_secs)
    } else {
        // Extremely easy targets: divide first (loses negligible precision).
        (old_target / U256::from_u64(expected_timespan_secs))
            .checked_mul(U256::from_u64(clamped))
            .unwrap_or(pow_limit.to_target())
    };
    let limit = pow_limit.to_target();
    CompactTarget::from_target(if new_target > limit { limit } else { new_target })
}

/// Computes the median of the last (up to) 11 block timestamps — the
/// "median time past" used to validate header timestamps.
///
/// # Panics
///
/// Panics if `timestamps` is empty.
pub fn median_time_past(timestamps: &[u32]) -> u32 {
    assert!(!timestamps.is_empty(), "median of empty timestamp slice");
    let start = timestamps.len().saturating_sub(11);
    let mut window: Vec<u32> = timestamps[start..].to_vec();
    window.sort_unstable();
    window[window.len() / 2]
}

/// Maximum allowed clock skew for header timestamps (Bitcoin's rule).
pub const MAX_FUTURE_SKEW_SECS: u32 = 2 * 60 * 60;

/// Headers in the median-time-past window.
const MTP_WINDOW: usize = 11;

/// Why a header breaks Bitcoin's header rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// The `bits` field disagrees with the retarget schedule.
    BadDifficultyBits {
        /// What the schedule requires.
        expected: CompactTarget,
        /// What the header carried.
        actual: CompactTarget,
    },
    /// The header hash does not meet its stated target.
    BadProofOfWork,
    /// Timestamp at or below the median of the previous 11 blocks.
    TimestampTooOld,
    /// Timestamp more than [`MAX_FUTURE_SKEW_SECS`] past the
    /// validator's clock.
    TimestampTooNew,
}

impl fmt::Display for HeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderError::BadDifficultyBits { expected, actual } => {
                write!(f, "wrong difficulty bits: expected {expected}, got {actual}")
            }
            HeaderError::BadProofOfWork => write!(f, "header hash exceeds target"),
            HeaderError::TimestampTooOld => write!(f, "timestamp not above median time past"),
            HeaderError::TimestampTooNew => write!(f, "timestamp too far in the future"),
        }
    }
}

impl std::error::Error for HeaderError {}

/// The difficulty bits the retarget schedule requires of a child of
/// `parent` (at `parent_height`). Off a retarget boundary that is the
/// parent's own bits and `ancestors` is not read; on one, it reads the
/// span of `retarget_interval` headers ending at the parent.
///
/// `ancestors` walks from `parent` (inclusive) toward genesis, newest
/// first.
pub fn next_bits(
    params: &Params,
    parent: &BlockHeader,
    parent_height: u64,
    ancestors: impl Iterator<Item = BlockHeader>,
) -> CompactTarget {
    let interval = params.retarget_interval;
    if !(parent_height + 1).is_multiple_of(interval as u64) {
        return parent.bits;
    }
    let first = ancestors.take(interval as usize).last().unwrap_or(*parent);
    let actual = parent.time.saturating_sub(first.time) as u64;
    retarget(parent.bits, actual.max(1), params.expected_timespan_secs(), params.pow_limit)
}

/// Median time past of the chain `ancestors` walks down from its newest
/// header: the median of the first 11 timestamps (0 for an empty walk).
pub fn walk_median_time_past(ancestors: impl Iterator<Item = BlockHeader>) -> u32 {
    let window: Vec<u32> = ancestors.take(MTP_WINDOW).map(|h| h.time).collect();
    if window.is_empty() {
        return 0;
    }
    median_time_past(&window)
}

/// Checks `header` against Bitcoin's header rules, in order: difficulty
/// bits ([`next_bits`]), proof of work, timestamp above the parent's
/// median time past, and timestamp at most [`MAX_FUTURE_SKEW_SECS`] past
/// `now_unix`. Whether the parent is known at all is the caller's check.
///
/// `ancestors` walks from `parent` (inclusive) toward genesis, newest
/// first; it is cloned once per window and read lazily, so a walk that
/// meters its reads is charged only for the headers a rule needed.
///
/// # Errors
///
/// The first rule the header breaks, as a [`HeaderError`].
pub fn validate_header<I>(
    params: &Params,
    header: &BlockHeader,
    parent: &BlockHeader,
    parent_height: u64,
    ancestors: I,
    now_unix: u32,
) -> Result<(), HeaderError>
where
    I: Iterator<Item = BlockHeader> + Clone,
{
    let expected = next_bits(params, parent, parent_height, ancestors.clone());
    if header.bits != expected {
        return Err(HeaderError::BadDifficultyBits { expected, actual: header.bits });
    }
    if !header.meets_pow_target() {
        return Err(HeaderError::BadProofOfWork);
    }
    if header.time <= walk_median_time_past(ancestors) {
        return Err(HeaderError::TimestampTooOld);
    }
    if header.time > now_unix.saturating_add(MAX_FUTURE_SKEW_SECS) {
        return Err(HeaderError::TimestampTooNew);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_bits_expand_to_known_target() {
        // Bitcoin mainnet genesis target:
        // 0x00000000ffff0000...0000
        let target = CompactTarget::from_consensus(0x1d00ffff).to_target();
        let expected = U256::from_u64(0xffff) << (8 * (0x1d - 3));
        assert_eq!(target, expected);
        assert_eq!(target.bits(), 224);
    }

    #[test]
    fn compact_roundtrip_canonical_values() {
        for bits in [0x1d00ffffu32, 0x207fffff, 0x1b0404cb, 0x17034a7d] {
            let ct = CompactTarget::from_consensus(bits);
            assert_eq!(CompactTarget::from_target(ct.to_target()), ct, "bits 0x{bits:08x}");
        }
    }

    #[test]
    fn sign_bit_mantissa_is_invalid() {
        // Mantissa with bit 23 set is a "negative" target.
        assert_eq!(CompactTarget::from_consensus(0x01fedcba).to_target(), U256::ZERO);
    }

    #[test]
    fn from_target_avoids_sign_bit() {
        // A target whose top mantissa byte would be >= 0x80 must bump the
        // exponent.
        let target = U256::from_u64(0x80) << 16; // 0x800000
        let compact = CompactTarget::from_target(target);
        assert_eq!(compact.to_target(), target);
        assert_eq!(compact.to_consensus() & 0x0080_0000, 0);
    }

    #[test]
    fn work_of_genesis_difficulty() {
        // Work for target 0x1d00ffff is ~2^32 (difficulty 1): exactly
        // floor(2^256 / (0xffff·2^208 + 1)) = 0x1_0001_0001.
        let w = CompactTarget::from_consensus(0x1d00ffff).work();
        assert_eq!(w, Work::from_u256(U256::from_u64(0x1_0001_0001)));
    }

    #[test]
    fn harder_target_means_more_work() {
        let easy = CompactTarget::from_consensus(0x207fffff).work();
        let hard = CompactTarget::from_consensus(0x1d00ffff).work();
        assert!(hard > easy);
        let sum = easy + hard;
        assert!(sum > hard);
        assert_eq!(sum - hard, easy);
    }

    #[test]
    fn work_sums() {
        let w = CompactTarget::from_consensus(0x207fffff).work();
        let total: Work = std::iter::repeat_n(w, 3).sum();
        assert_eq!(total, w * 3);
    }

    #[test]
    fn retarget_clamps_at_4x() {
        let pow_limit = CompactTarget::from_consensus(0x207fffff);
        let old = CompactTarget::from_consensus(0x1d00ffff);
        let expected = 2016 * 600;
        // Blocks found 10x too fast: clamp to 4x harder.
        let faster = retarget(old, expected / 10, expected, pow_limit);
        let quadrupled = retarget(old, expected / 4, expected, pow_limit);
        assert_eq!(faster, quadrupled);
        assert!(faster.to_target() < old.to_target());
        // Blocks found 10x too slow: clamp to 4x easier.
        let slower = retarget(old, expected * 10, expected, pow_limit);
        assert!(slower.to_target() > old.to_target());
        let ratio = slower.to_target().div_rem(old.to_target()).0;
        assert_eq!(ratio, U256::from_u64(4));
    }

    #[test]
    fn retarget_exact_interval_is_stable() {
        let pow_limit = CompactTarget::from_consensus(0x207fffff);
        let old = CompactTarget::from_consensus(0x1c0ae493);
        let new = retarget(old, 2016 * 600, 2016 * 600, pow_limit);
        // Compact rounding may perturb the last bits, but the target stays
        // within mantissa precision.
        let diff = if new.to_target() > old.to_target() {
            new.to_target() - old.to_target()
        } else {
            old.to_target() - new.to_target()
        };
        assert!(diff < old.to_target() >> 15);
    }

    #[test]
    fn retarget_respects_pow_limit() {
        let pow_limit = CompactTarget::from_consensus(0x207fffff);
        let new = retarget(pow_limit, 2016 * 600 * 10, 2016 * 600, pow_limit);
        assert_eq!(new.to_target(), pow_limit.to_target());
    }

    #[test]
    fn median_time_past_windows() {
        assert_eq!(median_time_past(&[5]), 5);
        assert_eq!(median_time_past(&[1, 2, 3]), 2);
        // Only the last 11 entries count.
        let mut ts: Vec<u32> = vec![1000; 20];
        ts.extend([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        assert_eq!(median_time_past(&ts), 6);
        // Unordered input is handled.
        assert_eq!(median_time_past(&[9, 1, 5]), 5);
    }

    #[test]
    #[should_panic]
    fn median_of_empty_panics() {
        let _ = median_time_past(&[]);
    }

    #[test]
    fn next_bits_reads_ancestors_only_at_a_boundary() {
        let params = crate::Network::Regtest.params();
        let parent = crate::Network::Regtest.genesis_block().header;
        let reads = std::cell::Cell::new(0);
        let walk = || std::iter::repeat(parent).inspect(|_| reads.set(reads.get() + 1));
        assert_eq!(next_bits(&params, &parent, 5, walk()), parent.bits);
        assert_eq!(reads.get(), 0);
        // The whole span shares one timestamp: the 4x clamp, harder.
        let bits = next_bits(&params, &parent, 2015, walk());
        assert_eq!(reads.get(), 2016);
        let expected = params.expected_timespan_secs();
        assert_eq!(bits, retarget(parent.bits, 1, expected, params.pow_limit));
        assert_ne!(bits, parent.bits);
    }

    #[test]
    fn walk_median_time_past_uses_the_newest_eleven() {
        let header = |time| BlockHeader { time, ..crate::Network::Regtest.genesis_block().header };
        // Newest first: 30, 29, ..., 1; the window is 30..=20.
        assert_eq!(walk_median_time_past((1..=30).rev().map(header)), 25);
        assert_eq!(walk_median_time_past(std::iter::empty()), 0);
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;

        /// from_target(to_target(x)) is idempotent (compact form is a
        /// fixed point).
        #[test]
        fn compact_idempotent() {
            testkit::check(0x90_0001, testkit::DEFAULT_CASES, |rng| {
                let bits = testkit::u32_any(rng);
                let t = CompactTarget::from_consensus(bits).to_target();
                let c = CompactTarget::from_target(t);
                assert_eq!(c.to_target(), CompactTarget::from_target(c.to_target()).to_target());
            });
        }

        /// Work is antitone in the target: smaller target, more work.
        #[test]
        fn work_antitone() {
            testkit::check(0x90_0002, testkit::DEFAULT_CASES, |rng| {
                let a = testkit::u64_in(rng, 1..u64::MAX);
                let b = testkit::u64_in(rng, 1..u64::MAX);
                let (lo, hi) = (a.min(b), a.max(b));
                let w_lo = CompactTarget::from_target(U256::from_u64(lo)).work();
                let w_hi = CompactTarget::from_target(U256::from_u64(hi)).work();
                assert!(w_lo >= w_hi);
            });
        }

        /// Retarget output never exceeds the pow limit.
        #[test]
        fn retarget_bounded() {
            testkit::check(0x90_0003, testkit::DEFAULT_CASES, |rng| {
                let timespan = testkit::u64_in(rng, 1..10_000_000);
                let pow_limit = CompactTarget::from_consensus(0x207fffff);
                let old = CompactTarget::from_consensus(0x1d00ffff);
                let new = retarget(old, timespan, 2016 * 600, pow_limit);
                assert!(new.to_target() <= pow_limit.to_target());
            });
        }
    }
}
