//! The Bitcoin adapter (§III-B of the paper).
//!
//! A per-replica process that (a) keeps ℓ connections into the Bitcoin
//! network, (b) downloads and validates *all* block headers (forks
//! included — the adapter performs no fork resolution by design, leaving
//! that to the canister's stability logic), (c) fetches blocks on demand,
//! (d) advertises outbound transactions, and (e) answers the canister's
//! `GetSuccessors` requests with **Algorithm 1**.

use std::collections::{BTreeMap, BTreeSet};

use icbtc_bitcoin::encode::Encodable;
use icbtc_bitcoin::{Block, BlockHash, BlockHeader};
use icbtc_btcnet::chain::ValidationError;
use icbtc_btcnet::{BtcNetwork, ChainStore, ConnId, Inventory, Message};
use icbtc_core::{
    GetSuccessorsRequest, GetSuccessorsResponse, IntegrationParams, MAX_NEXT_HEADERS,
    MAX_RESPONSE_BLOCK_BYTES,
};
use icbtc_sim::obs::{FieldValue, Obs};
use icbtc_sim::{SimDuration, SimRng, SimTime};

use crate::discovery::{ConnectionManager, Offence};
use crate::txcache::TransactionCache;

/// The Bitcoin adapter of one IC replica.
///
/// Drive it by alternating [`BitcoinAdapter::step`] (network upkeep) with
/// `net.run_until(..)`, and serve the canister with
/// [`BitcoinAdapter::handle_request`].
///
/// # Examples
///
/// ```
/// use icbtc_adapter::BitcoinAdapter;
/// use icbtc_btcnet::network::{BtcNetwork, NetworkConfig};
/// use icbtc_core::IntegrationParams;
/// use icbtc_bitcoin::Network;
/// use icbtc_sim::{SimDuration, SimTime};
///
/// let mut net = BtcNetwork::new(NetworkConfig::regtest(4), 1);
/// net.run_until(SimTime::from_secs(3600));
/// let params = IntegrationParams::for_network(Network::Regtest);
/// let mut adapter = BitcoinAdapter::new(params, 99);
/// // A few step/run iterations pull in the headers.
/// for _ in 0..30 {
///     adapter.step(&mut net);
///     net.run_until(net.now() + SimDuration::from_secs(2));
/// }
/// assert!(adapter.header_count() > 1);
/// ```
pub struct BitcoinAdapter {
    params: IntegrationParams,
    manager: ConnectionManager,
    store: ChainStore,
    txcache: TransactionCache,
    rng: SimRng,
    /// Blocks requested from peers and not yet received. Ordered so that
    /// iteration (and therefore the re-request schedule) is independent
    /// of hasher randomization.
    inflight_blocks: BTreeMap<BlockHash, InflightBlock>,
    /// Per-connection: has a getheaders round-trip been issued recently?
    last_getheaders: SimTime,
    /// Peers' inventory announcements we have already chased. Ordered and
    /// pruned (see [`SEEN_INV_HORIZON`]) so it stays bounded over soaks.
    seen_inv: BTreeSet<BlockHash>,
    /// Header-sync stall tracking: the last time the tip advanced.
    last_tip_height: u64,
    last_tip_advance: SimTime,
    /// Observability endpoint (metrics + trace), component `"adapter"`.
    obs: Obs,
}

/// One outstanding block fetch.
#[derive(Clone, Copy, Debug)]
struct InflightBlock {
    /// The connection the fetch was sent on — excluded from re-request
    /// peer selection when the fetch times out.
    conn: ConnId,
    /// When the fetch was issued.
    requested_at: SimTime,
    /// Prior attempts for this hash (drives the exponential backoff).
    attempts: u32,
}

/// Base timeout for an outstanding block fetch; doubles per failed
/// attempt up to `<<` [`MAX_BACKOFF_EXPONENT`].
const INFLIGHT_BASE_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Cap on the backoff doubling (30 s << 4 = 480 s).
const MAX_BACKOFF_EXPONENT: u32 = 4;

/// Minimum spacing between header-sync rounds.
const GETHEADERS_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// If the best header height does not advance for this long despite live
/// connections, the adapter forces a fresh discovery round.
const HEADER_STALL_TIMEOUT: SimDuration = SimDuration::from_secs(1800);

/// `seen_inv` entries whose header sits this far below the tip are
/// pruned — deeper blocks are either stored already or unreachable via
/// inv anyway (they are fetched through the locator-driven sync path).
const SEEN_INV_HORIZON: u64 = 32;

/// The exponential re-request timeout after `attempts` failures.
fn backoff_timeout(attempts: u32) -> SimDuration {
    INFLIGHT_BASE_TIMEOUT * (1u64 << attempts.min(MAX_BACKOFF_EXPONENT))
}

/// Static label for the backoff-retry counter (labels must be
/// `&'static str` for the deterministic metrics registry).
fn attempt_bucket(attempt: u32) -> &'static str {
    match attempt {
        0 | 1 => "1",
        2 => "2",
        3 => "3",
        _ => "4+",
    }
}

/// Whether a header rejection is a *hard* protocol violation worth
/// scoring. Orphans are everyday out-of-order delivery; duplicates never
/// reach this path.
fn header_offence(err: &ValidationError) -> bool {
    matches!(err, ValidationError::Header(_))
}

/// Whether a block rejection is a hard violation: malformed bodies and
/// every hard header error. Orphan/unknown-parent cases stay benign.
fn block_offence(err: &ValidationError) -> bool {
    matches!(err, ValidationError::MalformedBlock) || header_offence(err)
}

impl BitcoinAdapter {
    /// Creates an adapter for the configured network.
    pub fn new(params: IntegrationParams, seed: u64) -> BitcoinAdapter {
        BitcoinAdapter {
            manager: ConnectionManager::new(params),
            store: ChainStore::new(params.network),
            txcache: TransactionCache::new(SimDuration::from_secs(params.tx_cache_expiry_secs)),
            rng: SimRng::seed_from(seed),
            params,
            inflight_blocks: BTreeMap::new(),
            last_getheaders: SimTime::ZERO,
            seen_inv: BTreeSet::new(),
            last_tip_height: 0,
            last_tip_advance: SimTime::ZERO,
            obs: Obs::new("adapter"),
        }
    }

    /// Read access to the adapter's observability endpoint.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Mutable access to the adapter's observability endpoint.
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// The integration parameters in force.
    pub fn params(&self) -> &IntegrationParams {
        &self.params
    }

    /// The connection manager (discovery state and peer table).
    pub fn connection_manager(&self) -> &ConnectionManager {
        &self.manager
    }

    /// Number of validated headers held (including genesis).
    pub fn header_count(&self) -> usize {
        self.store.header_count()
    }

    /// Greatest header height seen.
    pub fn best_header_height(&self) -> u64 {
        self.store.tip_height()
    }

    /// Whether the full block for `hash` is stored locally.
    pub fn has_block(&self, hash: &BlockHash) -> bool {
        self.store.has_block(hash)
    }

    /// Number of cached outbound transactions.
    pub fn tx_cache_len(&self) -> usize {
        self.txcache.len()
    }

    /// Read access to the adapter's validated header/block store.
    pub fn chain(&self) -> &ChainStore {
        &self.store
    }

    /// Current size of the inventory dedupe set (bounded; see
    /// `SEEN_INV_HORIZON`).
    pub fn seen_inv_len(&self) -> usize {
        self.seen_inv.len()
    }

    /// One upkeep pass: maintain connections, run header sync, chase
    /// inventory, expire the transaction cache, drain and dispatch all
    /// inbound messages.
    pub fn step(&mut self, net: &mut BtcNetwork) {
        let now = net.now();
        self.manager.maintain(net, &mut self.rng);
        self.txcache.expire(now);
        self.detect_stalls(net);

        // Periodic header sync against every connection.
        if now.saturating_since(self.last_getheaders) >= GETHEADERS_INTERVAL
            || self.last_getheaders == SimTime::ZERO
        {
            self.last_getheaders = now;
            let locator = self.store.locator();
            for conn in self.manager.connection_ids() {
                net.send_external(
                    conn,
                    Message::GetHeaders { locator: locator.clone(), stop: BlockHash::ZERO },
                );
                self.obs.metrics.inc("adapter_getheaders_sent_total");
            }
        }

        // Re-request timed-out block fetches with exponential backoff,
        // rotating away from the peer that failed to serve.
        let stale: Vec<(BlockHash, InflightBlock)> = self
            .inflight_blocks
            .iter()
            .filter(|(_, f)| now.saturating_since(f.requested_at) >= backoff_timeout(f.attempts))
            .map(|(h, f)| (*h, *f))
            .collect();
        for (hash, inflight) in stale {
            self.inflight_blocks.remove(&hash);
            self.obs.metrics.inc("adapter_block_refetch_total");
            self.obs.metrics.inc_with(
                "adapter_block_backoff_retries_total",
                &[("attempt", attempt_bucket(inflight.attempts + 1))],
            );
            self.request_block_from(net, hash, Some(inflight.conn), inflight.attempts + 1);
        }

        // Proactive block download: the adapter's sync pipeline fetches
        // best-chain bodies ahead of canister requests (bounded
        // concurrency), so that Algorithm 1 can serve connected runs of
        // blocks instead of one per request round-trip.
        const MAX_INFLIGHT: usize = 24;
        if self.inflight_blocks.len() < MAX_INFLIGHT {
            let mut wanted = Vec::new();
            for hash in self.store.best_chain() {
                if self.inflight_blocks.len() + wanted.len() >= MAX_INFLIGHT {
                    break;
                }
                if !self.store.has_block(hash) && !self.inflight_blocks.contains_key(hash) {
                    wanted.push(*hash);
                }
            }
            for hash in wanted {
                self.request_block(net, hash);
            }
        }

        // Drain inboxes.
        let conns = self.manager.connection_ids();
        for conn in conns {
            let inbox = net.drain_external(conn);
            for msg in inbox {
                self.manager.mark_heard(conn, net.now());
                self.handle_network_message(net, conn, msg);
            }
        }

        self.prune_seen_inv();

        // Refresh the state gauges once per upkeep pass.
        let m = &mut self.obs.metrics;
        m.set_gauge("adapter_connections", self.manager.connections().len() as i64);
        m.set_gauge("adapter_known_addresses", self.manager.addresses().len() as i64);
        m.set_gauge("adapter_headers", self.store.header_count() as i64);
        m.set_gauge("adapter_tip_height", self.store.tip_height() as i64);
        m.set_gauge("adapter_tx_cache_size", self.txcache.len() as i64);
        m.set_gauge("adapter_inflight_blocks", self.inflight_blocks.len() as i64);
        m.set_gauge("adapter_seen_inv_size", self.seen_inv.len() as i64);
        m.set_gauge("adapter_banned_peers", self.manager.banned_len() as i64);
    }

    /// Stall detection, two layers:
    ///
    /// 1. *Per-connection silence*: each connection the manager reports
    ///    silent is scored and rotated out (reconnect-elsewhere).
    /// 2. *Global header stall*: if the tip has not advanced for
    ///    [`HEADER_STALL_TIMEOUT`] despite live connections, the whole
    ///    pool is suspect — force a fresh discovery round.
    fn detect_stalls(&mut self, net: &mut BtcNetwork) {
        let now = net.now();
        let tip = self.store.tip_height();
        if tip > self.last_tip_height {
            self.last_tip_height = tip;
            self.last_tip_advance = now;
        }

        for conn in self.manager.silent_connections(now) {
            // A ban earlier in this pass may have severed it already.
            if self.manager.node_for(conn).is_none() {
                continue;
            }
            self.obs.metrics.inc("adapter_peer_stalls_total");
            if !self.punish(net, conn, Offence::Stall) {
                // Not bad enough to ban (yet): rotate to a different
                // peer and keep the score on file.
                self.manager.drop_connection(net, conn);
            }
        }

        if now.saturating_since(self.last_tip_advance) >= HEADER_STALL_TIMEOUT
            && !self.manager.connections().is_empty()
        {
            self.obs.metrics.inc("adapter_header_stalls_total");
            self.obs.trace.event(
                "adapter.header_stall",
                now,
                &[("tip", FieldValue::U64(self.store.tip_height()))],
            );
            self.manager.force_discovery();
            for conn in self.manager.connection_ids() {
                net.send_external(conn, Message::GetAddr);
            }
            // Rotate one connection so a fully-wedged pool makes room
            // for the peers discovery turns up.
            if let Some(victim) = self.manager.connections().first().map(|c| c.id) {
                self.manager.drop_connection(net, victim);
            }
            self.last_tip_advance = now; // re-arm
        }
    }

    /// Counts an offence and records it against the node behind `conn`
    /// (see [`ConnectionManager::record_offence`]). Returns `true` if the
    /// ban landed.
    fn punish(&mut self, net: &mut BtcNetwork, conn: ConnId, offence: Offence) -> bool {
        self.obs
            .metrics
            .inc_with("adapter_peer_offences_total", &[("kind", offence.kind())]);
        let Some((node, score)) = self.manager.record_offence(net, conn, offence) else {
            return false;
        };
        self.obs.metrics.inc("adapter_peer_bans_total");
        self.obs.trace.event(
            "adapter.peer_banned",
            net.now(),
            &[
                ("node", FieldValue::U64(node.0 as u64)),
                ("score", FieldValue::U64(score as u64)),
            ],
        );
        true
    }

    /// Drops `seen_inv` entries that can no longer matter: the block is
    /// stored, or its header sits deeper than [`SEEN_INV_HORIZON`] below
    /// the tip. Unknown hashes are kept — they are still being chased.
    fn prune_seen_inv(&mut self) {
        let tip = self.store.tip_height();
        let store = &self.store;
        self.seen_inv.retain(|hash| {
            if store.has_block(hash) {
                return false;
            }
            match store.header(hash) {
                Some(stored) => stored.height + SEEN_INV_HORIZON >= tip,
                None => true,
            }
        });
    }

    fn handle_network_message(&mut self, net: &mut BtcNetwork, conn: ConnId, msg: Message) {
        let now_unix = net.unix_time(net.now());
        self.obs.metrics.inc_with("adapter_messages_received_total", &[("type", msg.kind())]);
        if msg.is_oversized() {
            // Never process an over-limit payload; score the sender.
            self.obs.metrics.inc("adapter_oversized_messages_total");
            self.punish(net, conn, Offence::Oversized);
            return;
        }
        match msg {
            Message::Addr(addrs) => {
                self.obs.metrics.add("adapter_addresses_learned_total", addrs.len() as u64);
                self.manager.learn_addresses(&addrs);
            }
            Message::Headers(headers) => {
                // Validate each header exactly as §III-B prescribes; store
                // every valid one, forks included, no resolution. Hard
                // violations score the sender; once the ban lands the
                // rest of its batch is discarded.
                self.obs.metrics.add("adapter_headers_received_total", headers.len() as u64);
                let validate = self.obs.prof.enter("header_validate");
                for header in headers {
                    self.obs.prof.add(80);
                    match self.store.accept_header(header, now_unix) {
                        Ok(_) => self.obs.metrics.inc("adapter_headers_accepted_total"),
                        Err(err) => {
                            self.obs.metrics.inc("adapter_headers_rejected_total");
                            if header_offence(&err) && self.punish(net, conn, Offence::InvalidHeader)
                            {
                                break;
                            }
                        }
                    }
                }
                self.obs.prof.exit(validate);
            }
            Message::Inv(items) => {
                let mut wanted = Vec::new();
                for item in items {
                    match item {
                        Inventory::Block(hash) => {
                            if !self.seen_inv.contains(&hash) {
                                self.seen_inv.insert(hash);
                                wanted.push(Inventory::Block(hash));
                            }
                        }
                        // The adapter is not interested in inbound
                        // transactions; it is not a mempool node.
                        Inventory::Transaction(_) => {}
                    }
                }
                if !wanted.is_empty() {
                    self.obs.metrics.add_with(
                        "adapter_getdata_sent_total",
                        &[("item", "block")],
                        wanted.len() as u64,
                    );
                    net.send_external(conn, Message::GetData(wanted));
                }
            }
            Message::BlockMsg(block) => {
                let hash = block.block_hash();
                self.inflight_blocks.remove(&hash);
                // A fetched body completes its getdata round-trip; the
                // header-first check inside is a nested frame.
                let roundtrip = self.obs.prof.enter("getdata_roundtrip");
                let body_cost =
                    80 + block.txdata.iter().map(|t| t.vsize() as u64).sum::<u64>();
                self.obs.prof.add(body_cost);
                let validate = self.obs.prof.enter("header_validate");
                self.obs.prof.add(80);
                self.obs.prof.exit(validate);
                // Header-first: a block whose header does not validate is
                // discarded together with its body; hard violations
                // score the sender.
                let outcome = self.store.accept_block(*block, now_unix);
                self.obs.prof.exit(roundtrip);
                match outcome {
                    Ok(_) => self.obs.metrics.inc("adapter_blocks_received_total"),
                    Err(err) => {
                        self.obs.metrics.inc("adapter_blocks_rejected_total");
                        if block_offence(&err) {
                            self.punish(net, conn, Offence::InvalidBlock);
                        }
                    }
                }
            }
            Message::NotFound(items) => {
                // The peer does not hold something we asked for — benign
                // (inventory races happen), but re-request the block
                // immediately from a different connection.
                for item in items {
                    if let Inventory::Block(hash) = item {
                        if let Some(inflight) = self.inflight_blocks.remove(&hash) {
                            self.obs.metrics.inc("adapter_block_notfound_total");
                            self.request_block_from(net, hash, Some(conn), inflight.attempts);
                        }
                    }
                }
            }
            Message::GetData(items) => {
                // Peers fetch transactions we advertised: cache hits are
                // served, misses are recorded (the tx expired or was never
                // ours).
                let total = self.manager.connections().len();
                for item in items {
                    if let Inventory::Transaction(txid) = item {
                        if let Some(tx) = self.txcache.get(&txid).cloned() {
                            self.obs.metrics.inc("adapter_txcache_hits_total");
                            net.send_external(conn, Message::TxMsg(tx));
                            self.txcache.mark_delivered(&txid, conn.0, total);
                        } else {
                            self.obs.metrics.inc("adapter_txcache_misses_total");
                        }
                    }
                }
            }
            Message::Ping(nonce) => net.send_external(conn, Message::Pong(nonce)),
            Message::GetAddr | Message::GetHeaders { .. } | Message::TxMsg(_) | Message::Pong(_) => {
            }
        }
    }

    fn request_block(&mut self, net: &mut BtcNetwork, hash: BlockHash) {
        self.request_block_from(net, hash, None, 0);
    }

    /// Issues a `getdata` for `hash` on a random connection, excluding
    /// `exclude` (the peer a previous fetch failed on) whenever an
    /// alternative exists. `attempts` carries the backoff history.
    fn request_block_from(
        &mut self,
        net: &mut BtcNetwork,
        hash: BlockHash,
        exclude: Option<ConnId>,
        attempts: u32,
    ) {
        let mut conns = self.manager.connection_ids();
        if let Some(excluded) = exclude {
            if conns.len() > 1 {
                conns.retain(|c| *c != excluded);
            }
        }
        if conns.is_empty() {
            return;
        }
        let conn = *self.rng.choose(&conns);
        self.obs.metrics.inc_with("adapter_getdata_sent_total", &[("item", "block")]);
        // The request half of a getdata round-trip (36-byte inv entry);
        // the reply half is accounted when the body arrives.
        let roundtrip = self.obs.prof.enter("getdata_roundtrip");
        self.obs.prof.add(36);
        self.obs.prof.exit(roundtrip);
        net.send_external(conn, Message::GetData(vec![Inventory::Block(hash)]));
        self.inflight_blocks
            .insert(hash, InflightBlock { conn, requested_at: net.now(), attempts });
    }

    /// **Algorithm 1**: serves a canister request `(β*, A, T)` from the
    /// local header tree `B_a`/`𝓑_a`, returning `[B, N]`.
    ///
    /// Outbound transactions are cached and advertised; the header tree is
    /// walked breadth-first from the anchor; available blocks extending
    /// the canister's set are returned subject to the 2 MiB soft cap and
    /// the height-dependent block-count rule; headers of missing blocks
    /// are returned in `N` (capped at 100) and their bodies requested
    /// asynchronously from peers.
    pub fn handle_request(
        &mut self,
        net: &mut BtcNetwork,
        request: &GetSuccessorsRequest,
    ) -> GetSuccessorsResponse {
        let now = net.now();
        let span = self.obs.trace.span_start(
            "adapter.get_successors",
            now,
            &[
                ("anchor_height", FieldValue::U64(request.anchor_height)),
                ("processed", FieldValue::U64(request.processed.len() as u64)),
                ("transactions", FieldValue::U64(request.transactions.len() as u64)),
            ],
        );
        self.obs.metrics.inc("adapter_requests_total");
        let serve = self.obs.prof.enter("handle_request");
        // Lines 1–3: cache and advertise outbound transactions.
        for tx in &request.transactions {
            let txid = self.txcache.insert(tx.clone(), now);
            self.obs.metrics.inc("adapter_txs_advertised_total");
            for conn in self.manager.connection_ids() {
                net.send_external(conn, Message::Inv(vec![Inventory::Transaction(txid)]));
            }
        }

        let anchor_hash = request.anchor.block_hash();
        let have: BTreeSet<BlockHash> = request
            .processed
            .iter()
            .copied()
            .chain(std::iter::once(anchor_hash))
            .collect();
        let max_blocks = self.max_blocks_at_height(request.anchor_height);

        let mut blocks: Vec<Block> = Vec::new();
        let mut returned: BTreeSet<BlockHash> = BTreeSet::new(); // the set 𝓑
        let mut next: Vec<BlockHeader> = Vec::new();
        let mut response_bytes = 0usize;
        let mut to_fetch: Vec<BlockHash> = Vec::new();

        // Lines 4–16: BFS over the header tree starting at β*.
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(anchor_hash);
        while let Some(current) = queue.pop_front() {
            if next.len() >= MAX_NEXT_HEADERS {
                break;
            }
            let Some(stored) = self.store.header(&current) else { continue };
            let header = stored.header;
            let is_anchor = current == anchor_hash;

            if !is_anchor {
                let prev_connected =
                    have.contains(&header.prev_blockhash) || returned.contains(&header.prev_blockhash);
                if !have.contains(&current) && prev_connected {
                    match self.store.block(&current) {
                        Some(block) => {
                            let size = block.encoded_len();
                            let within_soft_cap =
                                response_bytes < MAX_RESPONSE_BLOCK_BYTES || blocks.is_empty();
                            if within_soft_cap && blocks.len() < max_blocks {
                                response_bytes += size;
                                blocks.push(block.clone());
                                returned.insert(current);
                            }
                        }
                        None => {
                            // Fetch asynchronously for a future request.
                            if !self.inflight_blocks.contains_key(&current) {
                                to_fetch.push(current);
                            }
                        }
                    }
                }
                if !have.contains(&current) && !returned.contains(&current) {
                    next.push(header);
                }
            }
            for child in self.store.children(&current) {
                queue.push_back(*child);
            }
        }

        // Graceful degradation: a response that had to defer bodies is
        // still a valid (partial) response — the canister retries and the
        // async fetches fill the gap. Count them so soaks can see how
        // often the adapter degrades under faults.
        if !to_fetch.is_empty() {
            self.obs.metrics.inc("adapter_partial_responses_total");
        }
        for hash in to_fetch {
            self.request_block(net, hash);
        }
        // Serving cost is modeled as the bytes assembled into the
        // response (plus one unit so empty responses still register).
        self.obs.prof.add(1 + response_bytes as u64);
        self.obs.prof.exit(serve);
        let m = &mut self.obs.metrics;
        m.add("adapter_response_blocks_total", blocks.len() as u64);
        m.add("adapter_response_bytes_total", response_bytes as u64);
        m.observe("adapter_response_bytes", response_bytes as u64);
        self.obs.trace.span_end(
            span,
            net.now(),
            &[
                ("blocks", FieldValue::U64(blocks.len() as u64)),
                ("next", FieldValue::U64(next.len() as u64)),
                ("bytes", FieldValue::U64(response_bytes as u64)),
            ],
        );
        GetSuccessorsResponse { blocks, next }
    }

    /// The height-dependent cap on blocks per response: unbounded during
    /// bulk sync below the hard-coded height, a single block above it —
    /// the safeguard Lemma IV.3's proof relies on.
    fn max_blocks_at_height(&self, anchor_height: u64) -> usize {
        if anchor_height < self.params.bulk_sync_height {
            usize::MAX
        } else {
            1
        }
    }
}

impl std::fmt::Debug for BitcoinAdapter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitcoinAdapter")
            .field("network", &self.params.network)
            .field("headers", &self.store.header_count())
            .field("connections", &self.manager.connections().len())
            .field("tx_cache", &self.txcache.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use icbtc_bitcoin::{Amount, Network, OutPoint, Script, Transaction, TxIn, TxOut, Txid};
    use icbtc_btcnet::network::NetworkConfig;
    use icbtc_btcnet::NodeId;

    fn sync_adapter(net: &mut BtcNetwork, adapter: &mut BitcoinAdapter, rounds: usize) {
        for _ in 0..rounds {
            adapter.step(net);
            net.run_until(net.now() + SimDuration::from_secs(3));
        }
    }

    fn setup(nodes: usize, hours: u64) -> (BtcNetwork, BitcoinAdapter) {
        let mut net = BtcNetwork::new(NetworkConfig::regtest(nodes), 42);
        net.run_until(SimTime::from_secs(hours * 3600));
        let params = IntegrationParams::for_network(Network::Regtest).with_connections(2);
        let adapter = BitcoinAdapter::new(params, 7);
        (net, adapter)
    }

    #[test]
    fn header_sync_reaches_network_tip() {
        let (mut net, mut adapter) = setup(4, 6);
        let tip = net.best_height();
        assert!(tip > 10, "need a real chain, got {tip}");
        sync_adapter(&mut net, &mut adapter, 40);
        assert_eq!(adapter.best_header_height(), net.best_height());
    }

    fn request_for_anchor(adapter: &BitcoinAdapter, processed: Vec<BlockHash>) -> GetSuccessorsRequest {
        GetSuccessorsRequest {
            anchor: adapter.params.network.genesis_block().header,
            anchor_height: 0,
            processed,
            transactions: Vec::new(),
        }
    }

    #[test]
    fn algorithm1_serves_blocks_in_connected_order() {
        let (mut net, mut adapter) = setup(4, 4);
        sync_adapter(&mut net, &mut adapter, 40);

        // First request: blocks may need fetching; iterate until served.
        let mut response = GetSuccessorsResponse::default();
        for _ in 0..40 {
            response = adapter.handle_request(&mut net, &request_for_anchor(&adapter, vec![]));
            if !response.blocks.is_empty() && response.next.is_empty() {
                break;
            }
            sync_adapter(&mut net, &mut adapter, 2);
        }
        assert!(!response.blocks.is_empty());
        // Every returned block connects to the anchor or an earlier block
        // in the response.
        let mut known: HashSet<BlockHash> =
            std::iter::once(Network::Regtest.genesis_hash()).collect();
        for block in &response.blocks {
            assert!(known.contains(&block.header.prev_blockhash), "disconnected block");
            known.insert(block.block_hash());
        }
    }

    #[test]
    fn algorithm1_respects_processed_set() {
        let (mut net, mut adapter) = setup(3, 4);
        sync_adapter(&mut net, &mut adapter, 40);
        let mut response = GetSuccessorsResponse::default();
        for _ in 0..40 {
            response = adapter.handle_request(&mut net, &request_for_anchor(&adapter, vec![]));
            if !response.blocks.is_empty() && response.next.is_empty() {
                break;
            }
            sync_adapter(&mut net, &mut adapter, 2);
        }
        let served: Vec<BlockHash> = response.blocks.iter().map(|b| b.block_hash()).collect();
        // Marking everything processed yields an empty response.
        let full = adapter.handle_request(&mut net, &request_for_anchor(&adapter, served.clone()));
        assert!(full.blocks.is_empty(), "all blocks already processed");
        // Marking all but the last: only the last is served again.
        let partial = adapter
            .handle_request(&mut net, &request_for_anchor(&adapter, served[..served.len() - 1].to_vec()));
        assert_eq!(partial.blocks.len(), 1);
        assert_eq!(partial.blocks[0].block_hash(), *served.last().unwrap());
    }

    #[test]
    fn algorithm1_single_block_above_bulk_sync_height() {
        let (mut net, mut adapter) = setup(3, 4);
        // Force single-block mode everywhere.
        adapter.params = adapter.params.with_bulk_sync_height(0);
        sync_adapter(&mut net, &mut adapter, 40);
        let mut response = GetSuccessorsResponse::default();
        for _ in 0..40 {
            response = adapter.handle_request(&mut net, &request_for_anchor(&adapter, vec![]));
            if !response.blocks.is_empty() {
                break;
            }
            sync_adapter(&mut net, &mut adapter, 2);
        }
        assert_eq!(response.blocks.len(), 1, "one block at a time above the boundary");
        // The remaining chain shows up as upcoming headers.
        assert!(!response.next.is_empty());
    }

    #[test]
    fn algorithm1_next_headers_capped() {
        let (mut net, mut adapter) = setup(3, 30);
        sync_adapter(&mut net, &mut adapter, 60);
        assert!(adapter.best_header_height() > MAX_NEXT_HEADERS as u64);
        // Before any blocks are fetched, everything lands in `next`.
        let mut fresh = BitcoinAdapter::new(adapter.params, 8);
        // Move the header tree over without blocks: sync headers only.
        for _ in 0..60 {
            fresh.step(&mut net);
            net.run_until(net.now() + SimDuration::from_secs(3));
            if fresh.best_header_height() == adapter.best_header_height() {
                break;
            }
        }
        let response = fresh.handle_request(&mut net, &request_for_anchor(&fresh, vec![]));
        assert!(response.next.len() <= MAX_NEXT_HEADERS);
    }

    #[test]
    fn outbound_transactions_reach_the_network() {
        let (mut net, mut adapter) = setup(4, 2);
        sync_adapter(&mut net, &mut adapter, 10);
        let tx = Transaction {
            version: 2,
            inputs: vec![TxIn::new(OutPoint::new(Txid([3; 32]), 0))],
            outputs: vec![TxOut::new(Amount::from_sat(250), Script::new_p2wpkh(&[9; 20]))],
            lock_time: 0,
        };
        let txid = tx.txid();
        let request = GetSuccessorsRequest {
            anchor: Network::Regtest.genesis_block().header,
            anchor_height: 0,
            processed: vec![],
            transactions: vec![tx],
        };
        adapter.handle_request(&mut net, &request);
        assert_eq!(adapter.tx_cache_len(), 1);
        // Let inv/getdata/tx propagate and gossip spread it.
        sync_adapter(&mut net, &mut adapter, 20);
        let in_mempools = (0..4)
            .filter(|i| net.node(NodeId(*i)).has_mempool_tx(&txid))
            .count();
        assert!(in_mempools >= 1, "transaction reached no mempool");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_timeout(0), SimDuration::from_secs(30));
        assert_eq!(backoff_timeout(1), SimDuration::from_secs(60));
        assert_eq!(backoff_timeout(2), SimDuration::from_secs(120));
        assert_eq!(backoff_timeout(MAX_BACKOFF_EXPONENT), SimDuration::from_secs(480));
        assert_eq!(backoff_timeout(40), SimDuration::from_secs(480), "exponent capped");
    }

    /// Regression: a timed-out block fetch must not be re-requested from
    /// the very peer that failed to serve it while an alternative exists.
    #[test]
    fn rerequest_avoids_the_timed_out_peer() {
        let (mut net, mut adapter) = setup(4, 2);
        sync_adapter(&mut net, &mut adapter, 10);
        let conns = adapter.manager.connection_ids();
        assert_eq!(conns.len(), 2);
        let dead = conns[0];
        // Plant an outstanding fetch that is about to time out on `dead`.
        let hash = BlockHash([0xAB; 32]);
        adapter
            .inflight_blocks
            .insert(hash, InflightBlock { conn: dead, requested_at: net.now(), attempts: 0 });
        net.run_until(net.now() + INFLIGHT_BASE_TIMEOUT + SimDuration::from_secs(1));
        adapter.step(&mut net);
        let inflight = adapter.inflight_blocks.get(&hash).expect("fetch re-requested");
        assert_ne!(inflight.conn, dead, "re-request went back to the timed-out peer");
        assert_eq!(inflight.attempts, 1, "backoff history carried forward");
    }

    /// Satellite: `seen_inv` must stay bounded no matter how long the
    /// chain grows — entries are pruned once the block is stored or its
    /// header falls behind the locator horizon.
    #[test]
    fn seen_inv_stays_bounded_over_long_runs() {
        let (mut net, mut adapter) = setup(3, 2);
        sync_adapter(&mut net, &mut adapter, 10);
        let script = Script::new_p2wpkh(&[7; 20]);
        let mut max_seen = 0usize;
        for i in 0..10_000u32 {
            net.mine_block_paying(NodeId(0), script.clone());
            if i % 50 == 49 {
                adapter.step(&mut net);
                net.run_until(net.now() + SimDuration::from_secs(2));
                max_seen = max_seen.max(adapter.seen_inv_len());
            }
        }
        for _ in 0..10 {
            adapter.step(&mut net);
            net.run_until(net.now() + SimDuration::from_secs(3));
            max_seen = max_seen.max(adapter.seen_inv_len());
        }
        assert!(max_seen <= 256, "seen_inv grew to {max_seen} over a 10k-block run");
        assert!(
            adapter.seen_inv_len() <= 2 * SEEN_INV_HORIZON as usize,
            "seen_inv did not shrink back: {}",
            adapter.seen_inv_len()
        );
    }

    #[test]
    fn adapter_keeps_fork_headers() {
        let (mut net, mut adapter) = setup(3, 4);
        sync_adapter(&mut net, &mut adapter, 40);
        // Build a competing fork and feed it via the network.
        let honest_chain = net.node(NodeId(0)).chain().clone();
        let branch = honest_chain.best_chain_hash_at(honest_chain.tip_height().saturating_sub(2)).unwrap();
        let mut fork = icbtc_btcnet::adversary::SecretForkMiner::branch_at(&honest_chain, branch).unwrap();
        let fork_blocks = fork.extend(1, 5);
        net.submit_block(NodeId(0), fork_blocks[0].clone());
        sync_adapter(&mut net, &mut adapter, 20);
        // No fork resolution: the adapter stores both branches' headers.
        let before = adapter.header_count();
        assert!(before as u64 > adapter.best_header_height(), "fork header retained");
    }
}
