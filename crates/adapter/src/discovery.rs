//! Bitcoin-node discovery, connection management and peer reputation
//! (§III-B).
//!
//! The adapter keeps ℓ connections to uniformly random Bitcoin nodes,
//! discovered by recursively requesting addresses until the pool holds
//! `t_u` entries; whenever the pool drops below `t_l`, discovery resumes.
//! On mainnet `(t_l, t_u, ℓ) = (500, 2000, 5)`. Random selection over a
//! large pool is what Lemma IV.1's eclipse-resistance argument rests on.
//!
//! Like the production bitcoin-adapter, the manager also scores peers.
//! Every hard protocol violation — invalid headers, invalid or truncated
//! blocks, oversized messages, stalled connections — adds a weighted
//! [`Offence`] to that *node's* score, so reconnecting does not launder a
//! bad reputation. Reaching [`BAN_SCORE`] bans the node for
//! [`BAN_DURATION`]: its connections are severed, its address is purged
//! from the pool, and the next maintain pass reconnects elsewhere.
//!
//! Benign conditions are deliberately *not* scored: orphan headers
//! (out-of-order delivery), `notfound` replies (inventory races), and
//! slow block fetches (the backoff path handles those) are everyday
//! behaviour of honest peers on a degraded network.

use std::collections::BTreeMap;

use icbtc_btcnet::{BtcNetwork, ConnId, Message, NodeId};
use icbtc_core::IntegrationParams;
use icbtc_sim::{SimDuration, SimRng, SimTime};

/// How long a banned node stays banned. Long enough that a misbehaving
/// peer is effectively out of the picture for a soak, short enough that
/// a peer misclassified during an outage eventually serves again.
pub const BAN_DURATION: SimDuration = SimDuration::from_secs(3600);

/// Score at which a node is banned.
pub const BAN_SCORE: u32 = 100;

/// A connection silent this long — while at least one *other* connection
/// keeps talking — is stalled. The "other connection" condition keeps a
/// global outage (we are partitioned, every peer is silent) from banning
/// the whole pool.
const PEER_SILENCE_TIMEOUT: SimDuration = SimDuration::from_secs(90);

/// A hard protocol violation attributable to a peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offence {
    /// A header that fails stateless/contextual validation for a reason
    /// other than a missing parent (bad PoW, wrong bits, bad timestamp).
    InvalidHeader,
    /// A block whose header or body is invalid (bad PoW, malformed).
    InvalidBlock,
    /// A message exceeding the protocol's size caps.
    Oversized,
    /// A connection that went silent while other peers kept talking.
    Stall,
}

impl Offence {
    /// The score this offence adds.
    pub fn weight(self) -> u32 {
        match self {
            Offence::InvalidHeader => 20,
            Offence::InvalidBlock => 34,
            Offence::Oversized => 50,
            Offence::Stall => 34,
        }
    }

    /// Static label for metrics.
    pub fn kind(self) -> &'static str {
        match self {
            Offence::InvalidHeader => "invalid-header",
            Offence::InvalidBlock => "invalid-block",
            Offence::Oversized => "oversized",
            Offence::Stall => "stall",
        }
    }

    /// All offence variants (for tests and docs).
    pub fn all() -> &'static [Offence] {
        &[Offence::InvalidHeader, Offence::InvalidBlock, Offence::Oversized, Offence::Stall]
    }

    /// Upper bound on how many offences of the *lightest* kind a node
    /// can commit before the ban lands — the "bounded number of
    /// offences" guarantee.
    pub fn max_to_ban() -> u32 {
        let min_weight = Offence::all().iter().map(|o| o.weight()).min().unwrap_or(1).max(1);
        BAN_SCORE.div_ceil(min_weight)
    }
}

/// One live connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Connection {
    /// The network's id for the link.
    pub id: ConnId,
    /// The node at the other end.
    pub node: NodeId,
    /// When the link last delivered a message (or opened, if it has not
    /// delivered one yet).
    pub last_heard: SimTime,
}

/// The discovery state machine, connection pool and peer reputation of
/// one adapter.
///
/// # Examples
///
/// ```
/// use icbtc_adapter::discovery::ConnectionManager;
/// use icbtc_btcnet::network::{BtcNetwork, NetworkConfig};
/// use icbtc_core::IntegrationParams;
/// use icbtc_bitcoin::Network;
/// use icbtc_sim::SimRng;
///
/// let mut net = BtcNetwork::new(NetworkConfig::regtest(8), 1);
/// let params = IntegrationParams::for_network(Network::Regtest).with_connections(3);
/// let mut rng = SimRng::seed_from(2);
/// let mut manager = ConnectionManager::new(params);
/// manager.maintain(&mut net, &mut rng);
/// assert_eq!(manager.connections().len(), 3);
/// ```
#[derive(Debug)]
pub struct ConnectionManager {
    params: IntegrationParams,
    addresses: Vec<NodeId>,
    connections: Vec<Connection>,
    discovering: bool,
    /// Misbehaviour score per node, kept across reconnects and cleared by
    /// a ban.
    scores: BTreeMap<NodeId, u32>,
    /// Banned nodes and when each ban expires. Ordered for deterministic
    /// iteration.
    banned: BTreeMap<NodeId, SimTime>,
}

impl ConnectionManager {
    /// Creates a manager with an empty address pool (discovery pending).
    pub fn new(params: IntegrationParams) -> ConnectionManager {
        ConnectionManager {
            params,
            addresses: Vec::new(),
            connections: Vec::new(),
            discovering: true,
            scores: BTreeMap::new(),
            banned: BTreeMap::new(),
        }
    }

    /// The current address pool.
    pub fn addresses(&self) -> &[NodeId] {
        &self.addresses
    }

    /// The live connections, oldest first.
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// The connection ids only.
    pub fn connection_ids(&self) -> Vec<ConnId> {
        self.connections.iter().map(|c| c.id).collect()
    }

    /// Whether the manager is still collecting addresses.
    pub fn is_discovering(&self) -> bool {
        self.discovering
    }

    /// The node behind a live connection, if the connection is ours.
    pub fn node_for(&self, conn: ConnId) -> Option<NodeId> {
        self.connections.iter().find(|c| c.id == conn).map(|c| c.node)
    }

    /// Forces a fresh discovery round: the next maintain passes request
    /// addresses from every peer until the pool refills. Called by the
    /// adapter when header sync wedges.
    pub fn force_discovery(&mut self) {
        self.discovering = true;
    }

    /// Restarts the silence clock of `conn`, which delivered a message at
    /// `now`. A connection that is no longer live is ignored.
    pub(crate) fn mark_heard(&mut self, conn: ConnId, now: SimTime) {
        if let Some(c) = self.connections.iter_mut().find(|c| c.id == conn) {
            c.last_heard = now;
        }
    }

    /// The live connections silent for at least [`PEER_SILENCE_TIMEOUT`]
    /// at `now`, oldest first. While none of them was heard within the
    /// timeout, the adapter is cut off rather than stalled by its peers,
    /// and none is reported; so a lone connection never is.
    pub(crate) fn silent_connections(&self, now: SimTime) -> Vec<ConnId> {
        let silent = |c: &Connection| now.saturating_since(c.last_heard) >= PEER_SILENCE_TIMEOUT;
        if self.connections.iter().all(silent) {
            return Vec::new();
        }
        self.connections.iter().filter(|c| silent(c)).map(|c| c.id).collect()
    }

    /// The node's misbehaviour score (zero if clean).
    pub fn score(&self, node: NodeId) -> u32 {
        self.scores.get(&node).copied().unwrap_or(0)
    }

    /// Number of nodes with a nonzero score.
    pub fn scored_len(&self) -> usize {
        self.scores.len()
    }

    /// Adds `offence` to the score of the node behind `conn` and bans the
    /// node once the score reaches [`BAN_SCORE`]. Returns the node and
    /// its final score if the ban landed. An offence on a connection that
    /// is no longer live scores nothing.
    pub(crate) fn record_offence(
        &mut self,
        net: &mut BtcNetwork,
        conn: ConnId,
        offence: Offence,
    ) -> Option<(NodeId, u32)> {
        let node = self.node_for(conn)?;
        let score = self.scores.entry(node).or_insert(0);
        *score = score.saturating_add(offence.weight());
        let score = *score;
        if score < BAN_SCORE {
            return None;
        }
        self.ban(net, node);
        Some((node, score))
    }

    /// Whether `node` is currently banned.
    pub fn is_banned(&self, node: NodeId) -> bool {
        self.banned.contains_key(&node)
    }

    /// Currently banned nodes, in id order.
    pub fn banned_nodes(&self) -> Vec<NodeId> {
        self.banned.keys().copied().collect()
    }

    /// Number of currently banned nodes.
    pub fn banned_len(&self) -> usize {
        self.banned.len()
    }

    /// Bans `node` for [`BAN_DURATION`] from now: clears its score (after
    /// expiry it starts clean), severs its connections, purges its
    /// address from the pool, and leaves the next maintain pass to
    /// reconnect elsewhere.
    pub fn ban(&mut self, net: &mut BtcNetwork, node: NodeId) {
        self.scores.remove(&node);
        self.banned.insert(node, net.now() + BAN_DURATION);
        self.addresses.retain(|a| *a != node);
        let severed: Vec<ConnId> =
            self.connections.iter().filter(|c| c.node == node).map(|c| c.id).collect();
        for conn in severed {
            self.drop_connection(net, conn);
        }
    }

    /// The pool's size cap: `t_u`, but never below ℓ so the adapter can
    /// always hold ℓ distinct targets.
    fn pool_cap(&self) -> usize {
        self.params.addr_high_watermark.max(self.params.connections)
    }

    /// Ingests addresses learned from `addr` gossip. Banned nodes are
    /// ignored and the pool is capped at `max(t_u, ℓ)` so it stays
    /// bounded no matter how much gossip arrives.
    pub fn learn_addresses(&mut self, addrs: &[NodeId]) {
        let cap = self.pool_cap();
        for addr in addrs {
            if self.addresses.len() >= cap {
                break;
            }
            if !self.banned.contains_key(addr) && !self.addresses.contains(addr) {
                self.addresses.push(*addr);
            }
        }
        if self.addresses.len() >= self.params.addr_high_watermark {
            self.discovering = false;
        }
    }

    /// Runs one maintenance pass:
    ///
    /// 1. seeds the pool from DNS when empty;
    /// 2. re-enters discovery if the pool fell below `t_l`, requesting
    ///    more addresses from connected peers;
    /// 3. tops connections up to ℓ, choosing targets uniformly at random
    ///    from the pool (service continues with ≥ 1 connection even while
    ///    discovery is incomplete, as in the paper).
    pub fn maintain(&mut self, net: &mut BtcNetwork, rng: &mut SimRng) {
        // Expire bans whose time has come.
        let now = net.now();
        self.banned.retain(|_, until| now < *until);

        // Drop connections the network closed underneath us, discarding
        // what they delivered before the close so the network forgets
        // them too.
        self.connections.retain(|c| {
            let open = net.external_is_open(c.id);
            if !open {
                net.drain_external(c.id);
            }
            open
        });

        if self.addresses.is_empty() {
            let seeds = net.dns_seed_sample(self.params.addr_high_watermark.max(8));
            self.learn_addresses(&seeds);
        }
        // Re-enter discovery when the pool drops below `t_l` — or below
        // ℓ, so a ban-shrunk pool refills enough to reconnect elsewhere.
        if self.addresses.len() < self.params.addr_low_watermark.max(self.params.connections) {
            self.discovering = true;
        }
        if self.discovering {
            for c in &self.connections {
                net.send_external(c.id, Message::GetAddr);
            }
            if self.addresses.len() >= self.params.addr_high_watermark {
                self.discovering = false;
            }
        }

        while self.connections.len() < self.params.connections && !self.addresses.is_empty() {
            let target = *rng.choose(&self.addresses);
            if self.connections.iter().any(|c| c.node == target)
                && self.addresses.len() > self.connections.len()
            {
                continue; // avoid duplicate targets while alternatives exist
            }
            let id = net.connect_external(target);
            self.connections.push(Connection { id, node: target, last_heard: now });
        }
    }

    /// Severs one connection (peer failure injection); the next
    /// [`ConnectionManager::maintain`] pass replaces it.
    pub fn drop_connection(&mut self, net: &mut BtcNetwork, conn: ConnId) {
        net.disconnect_external(conn);
        net.drain_external(conn);
        self.connections.retain(|c| c.id != conn);
    }
}

/// Computes the probability that an adapter connecting to `l` uniformly
/// random nodes sees only corrupted ones, given corruption fraction
/// `phi` — the quantity behind Lemma IV.1 (`φ^ℓ` per adapter,
/// `1 − (1 − φ^ℓ)^n` for any of `n` adapters).
pub fn eclipse_probability(phi: f64, l: usize, n: usize) -> f64 {
    assert!((0.0..=1.0).contains(&phi), "phi must be a probability");
    let per_adapter = phi.powi(l as i32);
    1.0 - (1.0 - per_adapter).powi(n as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icbtc_bitcoin::Network;
    use icbtc_btcnet::network::NetworkConfig;

    fn setup(nodes: usize, connections: usize) -> (BtcNetwork, ConnectionManager, SimRng) {
        let net = BtcNetwork::new(NetworkConfig::regtest(nodes), 1);
        let params = IntegrationParams::for_network(Network::Regtest)
            .with_connections(connections);
        (net, ConnectionManager::new(params), SimRng::seed_from(7))
    }

    #[test]
    fn reaches_target_connection_count() {
        let (mut net, mut manager, mut rng) = setup(10, 5);
        manager.maintain(&mut net, &mut rng);
        assert_eq!(manager.connections().len(), 5);
        // Distinct targets when enough addresses exist.
        let mut targets: Vec<NodeId> = manager.connections().iter().map(|c| c.node).collect();
        targets.sort();
        targets.dedup();
        assert_eq!(targets.len(), 5);
    }

    #[test]
    fn replaces_dropped_connections() {
        let (mut net, mut manager, mut rng) = setup(10, 3);
        manager.maintain(&mut net, &mut rng);
        let victim = manager.connections()[0].id;
        manager.drop_connection(&mut net, victim);
        assert_eq!(manager.connections().len(), 2);
        manager.maintain(&mut net, &mut rng);
        assert_eq!(manager.connections().len(), 3);
        assert!(!manager.connection_ids().contains(&victim));
    }

    #[test]
    fn discovery_stops_at_high_watermark() {
        let net = BtcNetwork::new(NetworkConfig::regtest(4), 1);
        let mut params = IntegrationParams::for_network(Network::Regtest);
        params.addr_low_watermark = 2;
        params.addr_high_watermark = 3;
        let mut manager = ConnectionManager::new(params);
        assert!(manager.is_discovering());
        manager.learn_addresses(&[NodeId(0), NodeId(1)]);
        assert!(manager.is_discovering());
        manager.learn_addresses(&[NodeId(1), NodeId(2)]);
        assert!(!manager.is_discovering());
        assert_eq!(manager.addresses().len(), 3, "duplicates ignored");
        let _ = net;
    }

    #[test]
    fn service_with_single_connection_possible() {
        // Even when the pool cannot reach t_u, connections are made.
        let (mut net, mut manager, mut rng) = setup(2, 1);
        manager.maintain(&mut net, &mut rng);
        assert_eq!(manager.connections().len(), 1);
    }

    #[test]
    fn bans_sever_purge_and_expire() {
        let (mut net, mut manager, mut rng) = setup(10, 3);
        manager.maintain(&mut net, &mut rng);
        let Connection { id: conn, node, .. } = manager.connections()[0];
        let now = net.now();
        manager.ban(&mut net, node);
        assert!(manager.is_banned(node));
        assert_eq!(manager.banned_len(), 1);
        assert_eq!(manager.banned_nodes(), vec![node]);
        assert!(!manager.connection_ids().contains(&conn));
        assert!(!manager.addresses().contains(&node));
        assert_eq!(manager.node_for(conn), None);
        // Gossip cannot smuggle the banned address back in.
        manager.learn_addresses(&[node]);
        assert!(!manager.addresses().contains(&node));
        // The next maintain pass reconnects elsewhere.
        manager.maintain(&mut net, &mut rng);
        net.run_until(now + SimDuration::from_secs(5));
        manager.maintain(&mut net, &mut rng);
        assert_eq!(manager.connections().len(), 3);
        assert!(manager.connections().iter().all(|c| c.node != node));
        // Bans expire.
        net.run_until(now + BAN_DURATION + SimDuration::from_secs(1));
        manager.maintain(&mut net, &mut rng);
        assert!(!manager.is_banned(node));
        assert_eq!(manager.banned_len(), 0);
    }

    #[test]
    fn address_pool_is_bounded() {
        let mut params = IntegrationParams::for_network(Network::Regtest).with_connections(2);
        params.addr_high_watermark = 4;
        let mut manager = ConnectionManager::new(params);
        let flood: Vec<NodeId> = (0..100).map(NodeId).collect();
        manager.learn_addresses(&flood);
        assert_eq!(manager.addresses().len(), 4, "pool capped at max(t_u, ℓ)");
        assert!(!manager.is_discovering());
    }

    #[test]
    fn property_discovery_recovers_under_churn() {
        use icbtc_sim::{testkit, SimDuration};
        testkit::check(0xC0FF_EE5E, 24, |rng| {
            let mut net = BtcNetwork::new(NetworkConfig::regtest(8), rng.next_u64());
            let mut params = IntegrationParams::for_network(Network::Regtest).with_connections(3);
            params.addr_low_watermark = 2;
            params.addr_high_watermark = 4;
            let cap = params.addr_high_watermark.max(params.connections);
            let mut mrng = SimRng::seed_from(rng.next_u64());
            let mut manager = ConnectionManager::new(params);
            let mut banned_now: Option<NodeId> = None;
            for round in 0..25u32 {
                manager.maintain(&mut net, &mut mrng);
                // Invariant: the pool never exceeds its cap, and never
                // holds a banned address.
                assert!(manager.addresses().len() <= cap, "pool exceeded t_u");
                if let Some(node) = banned_now {
                    if manager.is_banned(node) {
                        assert!(!manager.addresses().contains(&node));
                        assert!(manager.connections().iter().all(|c| c.node != node));
                    }
                }
                // Churn: close a random subset of connections; once in a
                // while ban a random live peer outright.
                let closes = testkit::usize_in(rng, 0..3);
                for _ in 0..closes {
                    let conns = manager.connection_ids();
                    if conns.is_empty() {
                        break;
                    }
                    let victim = conns[testkit::usize_in(rng, 0..conns.len())];
                    manager.drop_connection(&mut net, victim);
                }
                if round % 7 == 3 && !manager.connections().is_empty() {
                    let pick = testkit::usize_in(rng, 0..manager.connections().len());
                    let node = manager.connections()[pick].node;
                    manager.ban(&mut net, node);
                    banned_now = Some(node);
                }
                net.run_until(net.now() + SimDuration::from_secs(30));
            }
            // Recovery: with churn stopped, the pool and the connection
            // set climb back to target.
            for _ in 0..6 {
                manager.maintain(&mut net, &mut mrng);
                net.run_until(net.now() + SimDuration::from_secs(30));
            }
            assert_eq!(manager.connections().len(), 3, "pool did not recover to ℓ");
            assert!(manager.addresses().len() <= cap);
        });
    }

    #[test]
    fn score_survives_a_reconnect() {
        // One node, one connection: a reconnect reaches the same node.
        let (mut net, mut manager, mut rng) = setup(1, 1);
        manager.maintain(&mut net, &mut rng);
        let Connection { id: first, node, .. } = manager.connections()[0];
        assert_eq!(manager.record_offence(&mut net, first, Offence::InvalidHeader), None);
        manager.drop_connection(&mut net, first);
        manager.maintain(&mut net, &mut rng);
        let second = manager.connections()[0];
        assert_ne!(second.id, first);
        assert_eq!(second.node, node);
        assert_eq!(manager.score(node), Offence::InvalidHeader.weight());
        assert_eq!(manager.record_offence(&mut net, second.id, Offence::InvalidHeader), None);
        assert_eq!(manager.score(node), 2 * Offence::InvalidHeader.weight());
        assert_eq!(manager.score(NodeId(1)), 0);
        assert_eq!(manager.scored_len(), 1);
    }

    #[test]
    fn ban_clears_the_score_and_severs_every_connection_of_the_node() {
        // With a single address both connections reach the same node.
        let (mut net, mut manager, mut rng) = setup(1, 2);
        manager.maintain(&mut net, &mut rng);
        let conns = manager.connection_ids();
        let node = manager.connections()[0].node;
        assert_eq!(conns.len(), 2);
        assert!(manager.connections().iter().all(|c| c.node == node));
        assert_eq!(manager.record_offence(&mut net, conns[0], Offence::Oversized), None);
        assert_eq!(
            manager.record_offence(&mut net, conns[1], Offence::Oversized),
            Some((node, 2 * Offence::Oversized.weight()))
        );
        assert!(manager.is_banned(node));
        assert_eq!(manager.score(node), 0);
        assert_eq!(manager.scored_len(), 0);
        assert!(manager.connections().is_empty());
        assert!(conns.iter().all(|c| !net.external_is_open(*c)));
    }

    #[test]
    fn silence_counts_only_while_another_connection_was_heard() {
        let (mut net, mut manager, mut rng) = setup(10, 3);
        manager.maintain(&mut net, &mut rng);
        let conns = manager.connection_ids();
        let opened = net.now();
        assert!(manager.connections().iter().all(|c| c.last_heard == opened));
        let timeout = opened + PEER_SILENCE_TIMEOUT;
        assert!(manager.silent_connections(timeout - SimDuration::from_secs(1)).is_empty());
        // Every connection silent: an outage, not a stall.
        assert!(manager.silent_connections(timeout).is_empty());
        manager.mark_heard(conns[1], timeout);
        assert_eq!(manager.silent_connections(timeout), vec![conns[0], conns[2]]);
        // A lone connection is never reported, however silent.
        manager.drop_connection(&mut net, conns[0]);
        manager.drop_connection(&mut net, conns[1]);
        assert!(manager.silent_connections(timeout).is_empty());
    }

    #[test]
    fn offence_against_a_closed_connection_scores_nothing() {
        let (mut net, mut manager, mut rng) = setup(10, 3);
        manager.maintain(&mut net, &mut rng);
        let Connection { id: conn, node, .. } = manager.connections()[0];
        manager.drop_connection(&mut net, conn);
        assert_eq!(manager.record_offence(&mut net, conn, Offence::Oversized), None);
        assert_eq!(manager.score(node), 0);
        assert_eq!(manager.scored_len(), 0);
    }

    #[test]
    fn every_offence_bans_within_the_bound() {
        for &offence in Offence::all() {
            let (mut net, mut manager, mut rng) = setup(1, 1);
            manager.maintain(&mut net, &mut rng);
            let conn = manager.connections()[0].id;
            let mut offences = 1;
            while manager.record_offence(&mut net, conn, offence).is_none() {
                offences += 1;
                assert!(
                    offences <= Offence::max_to_ban(),
                    "{} never reaches the ban score",
                    offence.kind()
                );
            }
        }
    }

    #[test]
    fn weights_and_kinds_are_positive_and_distinct() {
        let kinds: std::collections::BTreeSet<&str> =
            Offence::all().iter().map(|o| o.kind()).collect();
        assert_eq!(kinds.len(), Offence::all().len());
        assert!(Offence::all().iter().all(|o| o.weight() > 0));
    }

    #[test]
    fn eclipse_probability_formula() {
        // Lemma IV.1's example: n = 13, l = 5 ⇒ phi ≪ 0.6 keeps the
        // probability tiny.
        let p = eclipse_probability(0.1, 5, 13);
        assert!(p < 1e-3, "{p}");
        let p = eclipse_probability(0.5, 5, 13);
        assert!(p < 0.4, "{p}");
        // Extremes.
        assert_eq!(eclipse_probability(0.0, 5, 13), 0.0);
        assert!((eclipse_probability(1.0, 5, 13) - 1.0).abs() < 1e-12);
        // More links reduce the probability.
        assert!(eclipse_probability(0.5, 8, 13) < eclipse_probability(0.5, 5, 13));
    }
}
