//! WebAssembly-instruction metering.
//!
//! The paper's cost evaluation (§IV-B, Figures 6 and 7) is denominated in
//! *WebAssembly instructions executed*. The simulated execution layer
//! reproduces that by having canister code charge an explicit [`Meter`]
//! for each operation, with per-operation constants calibrated against
//! the magnitudes the paper reports (see EXPERIMENTS.md).

use icbtc_sim::obs::{FrameToken, Profiler};

/// An instruction counter for one message execution.
///
/// The meter doubles as the clock of a [`Profiler`]: opening a frame with
/// [`Meter::frame`] snapshots the instruction counter, and closing it
/// with [`Meter::frame_end`] attributes every instruction charged in
/// between to that frame (minus nested frames). Frame accounting never
/// changes the instruction total, so metered costs — and therefore
/// replicated state — are identical with or without profiling.
///
/// # Examples
///
/// ```
/// use icbtc_ic::Meter;
/// let mut meter = Meter::new();
/// let frame = meter.frame("hashing");
/// meter.charge(1_000);
/// meter.charge_per_byte(32, 10);
/// meter.frame_end(frame);
/// assert_eq!(meter.instructions(), 1_320);
/// assert_eq!(meter.profile().root_total(), 1_320);
/// ```
#[derive(Debug, Clone, Default, Eq)]
pub struct Meter {
    instructions: u64,
    prof: Profiler,
}

// Meter equality is instruction-count equality: the profiler only
// re-attributes charges to frames, it never changes what was charged, so
// it stays out of the comparison (and out of replicated-state checks).
impl PartialEq for Meter {
    fn eq(&self, other: &Meter) -> bool {
        self.instructions == other.instructions
    }
}

impl Meter {
    /// Creates a zeroed meter.
    pub fn new() -> Meter {
        Meter::default()
    }

    /// Charges a flat number of instructions.
    pub fn charge(&mut self, instructions: u64) {
        self.instructions = self.instructions.saturating_add(instructions);
    }

    /// Charges `per_byte` instructions for each of `bytes` bytes.
    pub fn charge_per_byte(&mut self, bytes: usize, per_byte: u64) {
        self.charge(bytes as u64 * per_byte);
    }

    /// Instructions charged so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Resets the counter and returns the previous total. The profile is
    /// left in place; harvest it separately with [`Meter::take_profile`].
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.instructions)
    }

    /// Opens a profiler frame clocked on this meter's instruction
    /// counter. Close it with [`Meter::frame_end`].
    pub fn frame(&mut self, name: &'static str) -> FrameToken {
        self.prof.enter_at(name, self.instructions)
    }

    /// Closes a frame opened by [`Meter::frame`], attributing the
    /// instructions charged since then (exits of nested frames that were
    /// skipped by early returns are healed at the same clock).
    pub fn frame_end(&mut self, token: FrameToken) {
        self.prof.exit_at(token, self.instructions);
    }

    /// The instruction-attribution profile accumulated so far.
    // icbtc-lint: node-local -- profiles are per-replica diagnostics
    pub fn profile(&self) -> &Profiler {
        &self.prof
    }

    /// Takes the accumulated profile, leaving an empty one — the harvest
    /// point where a component folds a per-message profile into its
    /// longer-lived `Obs` profiler.
    pub fn take_profile(&mut self) -> Profiler {
        std::mem::take(&mut self.prof)
    }

    /// Exchanges the profile this meter records into with `prof`. A
    /// component swaps its long-lived profiler in for one message and
    /// back out after it, so the message's frames land there directly,
    /// without a per-message profile to build and merge.
    pub fn swap_profile(&mut self, prof: &mut Profiler) {
        std::mem::swap(&mut self.prof, prof);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut m = Meter::new();
        m.charge(5);
        m.charge(10);
        m.charge_per_byte(3, 4);
        assert_eq!(m.instructions(), 27);
        assert_eq!(m.take(), 27);
        assert_eq!(m.instructions(), 0);
    }

    #[test]
    fn frames_attribute_charges_without_changing_totals() {
        let mut plain = Meter::new();
        plain.charge(100);
        plain.charge(40);

        let mut framed = Meter::new();
        let outer = framed.frame("outer");
        framed.charge(100);
        let inner = framed.frame("inner");
        framed.charge(40);
        framed.frame_end(inner);
        framed.frame_end(outer);

        // Frame accounting never perturbs the replicated-visible total.
        assert_eq!(plain, framed);
        assert_eq!(framed.profile().root_total(), 140);
        let frames = framed.profile().frames();
        let outer = frames.iter().find(|f| f.path == "outer").unwrap();
        let inner = frames.iter().find(|f| f.path == "outer;inner").unwrap();
        assert_eq!(outer.self_units, 100);
        assert_eq!(inner.self_units, 40);

        let harvested = framed.take_profile();
        assert_eq!(harvested.root_total(), 140);
        assert!(framed.profile().is_empty());

        // Frames recorded into a swapped-in profile land where a merge
        // of a separately recorded one would put them.
        let mut merged = harvested.clone();
        let mut swapped = harvested;
        let mut meter = Meter::new();
        let inner = meter.frame("inner");
        meter.charge(7);
        meter.frame_end(inner);
        merged.merge_from(meter.profile());
        let mut meter = Meter::new();
        meter.swap_profile(&mut swapped);
        let inner = meter.frame("inner");
        meter.charge(7);
        meter.frame_end(inner);
        meter.swap_profile(&mut swapped);
        assert_eq!(swapped.frames(), merged.frames());
        assert_eq!(swapped.root_total(), 147);
        assert!(meter.profile().is_empty());
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut m = Meter::new();
        m.charge(u64::MAX);
        m.charge(10);
        assert_eq!(m.instructions(), u64::MAX);
    }
}
