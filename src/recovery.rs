//! Crash–catch-up replay and recovery bookkeeping for the integrated
//! system.
//!
//! A crashed replica recovers by restoring the subnet's latest
//! checkpoint and deterministically re-executing everything consensus
//! finalized after it: the per-round adapter responses (recorded in the
//! system's ingest log) and the per-round ingress batches (recorded in
//! the subnet's input journal). Because execution is instruction-metered
//! and free of wall-clock or randomness, the replayed canister must land
//! on exactly the live canister's [`BitcoinCanister::state_hash`] — the
//! property [`CatchupReport::matches`] asserts and the recovery soak
//! measures.
//!
//! The replay itself is a pure function ([`replay_catchup`]) so tests
//! can drive it against hand-built logs; `System` wires it to its own
//! lifecycle plan and converts replayed instructions into a modeled
//! mean-time-to-recovery via the calibrated execution rate
//! (`icbtc_ic::ingress::execution_time`).

use icbtc_canister::{BitcoinCanister, CanisterCall, StorageError};
use icbtc_core::GetSuccessorsResponse;
use icbtc_ic::subnet::{ExecutionContext, JournalRound, StateMachine, SubnetCheckpoint};
use icbtc_ic::Meter;
use icbtc_sim::{SimDuration, SimTime};

/// One finalized round's Bitcoin payload, as the block maker delivered
/// it: everything a restarted replica needs (beyond the ingress journal)
/// to re-execute the round bit-for-bit.
#[derive(Debug, Clone)]
pub struct IngestRecord {
    /// The round the response was executed in.
    pub round: u64,
    /// Finalization time of that round (the `ctx.now` of execution).
    pub finalized_at: SimTime,
    /// The Bitcoin-network unix timestamp passed to Algorithm 2.
    pub now_unix: u32,
    /// The adapter response that rode the IC block.
    pub response: GetSuccessorsResponse,
}

/// Running counters over every lifecycle event the system has injected —
/// the source for `BENCH_recovery.json` and `tests/recovery.rs`
/// assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Canister upgrades performed (serialize → drop node-local state →
    /// restore).
    pub upgrades: u64,
    /// Crash/restart catch-ups performed.
    pub catchups: u64,
    /// Catch-ups whose recovered state hash matched the live replica.
    pub catchup_matches: u64,
    /// Rounds replayed across all catch-ups.
    pub replayed_rounds_total: u64,
    /// Longest single catch-up, in replayed rounds.
    pub replayed_rounds_max: u64,
    /// Instructions re-executed across all catch-ups (including the
    /// modeled checkpoint-restore cost).
    pub replayed_instructions_total: u64,
    /// Modeled recovery time summed over all catch-ups, in nanoseconds.
    pub mttr_ns_total: u64,
    /// Slowest single modeled recovery, in nanoseconds.
    pub mttr_ns_max: u64,
    /// Per-round shadow-replica hash comparisons performed.
    pub divergence_checks: u64,
    /// Deliberate shadow-state corruptions injected.
    pub corruptions_injected: u64,
    /// Divergences the shadow detector flagged.
    pub divergence_detected: u64,
}

/// The outcome of one simulated crash/restart catch-up.
#[derive(Debug, Clone)]
pub struct CatchupReport {
    /// Round of the checkpoint the restart recovered from.
    pub checkpoint_round: u64,
    /// Size of that checkpoint.
    pub checkpoint_bytes: u64,
    /// Rounds re-executed on top of the checkpoint.
    pub replayed_rounds: u64,
    /// Instructions spent recovering: modeled restore cost plus every
    /// replayed ingest and ingress message.
    pub replayed_instructions: u64,
    /// Modeled mean-time-to-recovery (restore + replay at the subnet's
    /// execution rate).
    pub mttr: SimDuration,
    /// State hash of the recovered canister.
    pub recovered_state_hash: [u8; 32],
    /// State hash of the live (never-crashed) canister at the same round.
    pub live_state_hash: [u8; 32],
}

impl CatchupReport {
    /// Whether catch-up reconverged with the live replica.
    pub fn matches(&self) -> bool {
        self.recovered_state_hash == self.live_state_hash
    }
}

/// The outcome of one canister upgrade.
#[derive(Debug, Clone)]
pub struct UpgradeReport {
    /// Size of the stable-memory image carried across the upgrade.
    pub checkpoint_bytes: u64,
    /// Whether the replicated state hash survived the round trip (it
    /// always must; surfaced so tests state the invariant explicitly).
    pub state_hash_preserved: bool,
}

/// Restores `checkpoint` and replays every logged round after it with
/// [`replay_round`]. Returns the recovered canister, the number of
/// rounds replayed, and the instructions spent (modeled restore cost
/// plus metered re-execution).
///
/// # Errors
///
/// [`StorageError::Corrupt`] if the checkpoint bytes do not restore.
pub fn replay_catchup(
    checkpoint: &SubnetCheckpoint,
    log: &[IngestRecord],
    journal: &[JournalRound<CanisterCall>],
) -> Result<(BitcoinCanister, u64, u64), StorageError> {
    let mut canister = BitcoinCanister::restore(&checkpoint.bytes)?;
    let mut instructions = (checkpoint.bytes.len() as u64)
        .saturating_mul(icbtc_canister::metering::CHECKPOINT_RESTORE_PER_BYTE);
    let mut replayed_rounds = 0;
    for record in log.iter().filter(|r| r.round > checkpoint.round) {
        replayed_rounds += 1;
        instructions += replay_round(&mut canister, record, journal);
    }
    Ok((canister, replayed_rounds, instructions))
}

/// Re-executes one finalized round on `canister`, in consensus order:
/// the round's adapter response first (Algorithm 2), then its ingress
/// batch from `journal`. Returns the instructions spent.
///
/// Each message runs under a fresh meter, mirroring the live subnet's
/// per-message metering, so the replaying canister's instruction
/// counters — and therefore its state hash — track the live replica
/// exactly. Catch-up and the shadow replica both replay through here.
pub fn replay_round(
    canister: &mut BitcoinCanister,
    record: &IngestRecord,
    journal: &[JournalRound<CanisterCall>],
) -> u64 {
    let mut meter = Meter::new();
    let mut ctx =
        ExecutionContext { meter: &mut meter, now: record.finalized_at, round: record.round };
    canister.ingest_response(record.response.clone(), record.now_unix, &mut ctx);
    let mut instructions = meter.take();
    for entry in journal.iter().filter(|e| e.round == record.round) {
        for input in &entry.inputs {
            let mut meter = Meter::new();
            let mut ctx =
                ExecutionContext { meter: &mut meter, now: entry.finalized_at, round: entry.round };
            canister.execute(input.clone(), &mut ctx);
            instructions += meter.take();
        }
    }
    instructions
}

#[cfg(test)]
mod tests {
    use super::*;
    use icbtc_bitcoin::Network;
    use icbtc_canister::BitcoinCanister;
    use icbtc_core::IntegrationParams;

    fn regtest_canister() -> BitcoinCanister {
        BitcoinCanister::new(IntegrationParams::for_network(Network::Regtest))
    }

    #[test]
    fn empty_log_catchup_is_just_the_restore() {
        let canister = regtest_canister();
        let checkpoint = SubnetCheckpoint {
            round: 5,
            at: SimTime::from_secs(10),
            bytes: canister.checkpoint_bytes(),
            state_hash: canister.state_hash(),
        };
        let (recovered, rounds, instructions) =
            replay_catchup(&checkpoint, &[], &[]).expect("valid checkpoint");
        assert_eq!(rounds, 0);
        assert_eq!(
            instructions,
            checkpoint.bytes.len() as u64 * icbtc_canister::metering::CHECKPOINT_RESTORE_PER_BYTE
        );
        assert_eq!(recovered.state_hash(), canister.state_hash());
    }

    #[test]
    fn rounds_at_or_before_the_checkpoint_are_not_replayed() {
        let canister = regtest_canister();
        let checkpoint = SubnetCheckpoint {
            round: 7,
            at: SimTime::from_secs(10),
            bytes: canister.checkpoint_bytes(),
            state_hash: canister.state_hash(),
        };
        let log: Vec<IngestRecord> = (5..=9)
            .map(|round| IngestRecord {
                round,
                finalized_at: SimTime::from_secs(round),
                now_unix: 1_600_000_000,
                response: GetSuccessorsResponse::default(),
            })
            .collect();
        let (_, rounds, _) = replay_catchup(&checkpoint, &log, &[]).expect("valid checkpoint");
        assert_eq!(rounds, 2, "only rounds 8 and 9 lie after the checkpoint");
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let canister = regtest_canister();
        let mut bytes = canister.checkpoint_bytes();
        bytes[0] ^= 0xFF;
        let checkpoint = SubnetCheckpoint {
            round: 0,
            at: SimTime::ZERO,
            bytes,
            state_hash: [0; 32],
        };
        assert!(replay_catchup(&checkpoint, &[], &[]).is_err());
    }
}
