//! The simulated Bitcoin full node.
//!
//! A deterministic state machine: it receives one P2P message at a time
//! and returns the messages it wants delivered in response. The network
//! fabric ([`crate::network`]) owns routing, latency and time.

use std::collections::{HashMap, HashSet};

use icbtc_bitcoin::{Block, Network, Transaction, Txid};

use crate::chain::ChainStore;
use crate::messages::{
    Inventory, Message, NodeId, PeerRef, MAX_ADDR_PER_MSG, MAX_HEADERS_PER_MSG,
};

/// A simulated Bitcoin full node.
///
/// # Examples
///
/// ```
/// use icbtc_btcnet::node::FullNode;
/// use icbtc_btcnet::messages::{Message, NodeId, PeerRef};
/// use icbtc_bitcoin::Network;
///
/// let mut node = FullNode::new(NodeId(0), Network::Regtest);
/// let replies = node.handle_message(PeerRef::Node(NodeId(1)), Message::Ping(7), 0);
/// assert_eq!(replies, vec![(PeerRef::Node(NodeId(1)), Message::Pong(7))]);
/// ```
#[derive(Debug)]
pub struct FullNode {
    id: NodeId,
    chain: ChainStore,
    mempool: HashMap<Txid, Transaction>,
    mempool_order: Vec<Txid>,
    peers: Vec<PeerRef>,
    known_addrs: Vec<NodeId>,
    /// Inventory already announced to us (dedupes getdata).
    seen_inv: HashSet<Inventory>,
    /// Blocks that arrived before their parent, keyed by the missing
    /// parent hash; retried once the parent connects.
    orphan_blocks: HashMap<icbtc_bitcoin::BlockHash, Vec<Block>>,
}

impl FullNode {
    /// Creates a node with only the genesis block.
    pub fn new(id: NodeId, network: Network) -> FullNode {
        FullNode {
            id,
            chain: ChainStore::new(network),
            mempool: HashMap::new(),
            mempool_order: Vec::new(),
            peers: Vec::new(),
            known_addrs: Vec::new(),
            seen_inv: HashSet::new(),
            orphan_blocks: HashMap::new(),
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Read access to the node's chain view.
    pub fn chain(&self) -> &ChainStore {
        &self.chain
    }

    /// Mutable access to the chain (used by the miner driver and by
    /// adversaries forging forks).
    pub fn chain_mut(&mut self) -> &mut ChainStore {
        &mut self.chain
    }

    /// The node's current gossip peers.
    pub fn peers(&self) -> &[PeerRef] {
        &self.peers
    }

    /// Replaces the gossip peer set (the network fabric wires topology).
    pub fn set_peers(&mut self, peers: Vec<PeerRef>) {
        self.peers = peers;
    }

    /// Adds a peer link if not present.
    pub fn add_peer(&mut self, peer: PeerRef) {
        if !self.peers.contains(&peer) {
            self.peers.push(peer);
        }
    }

    /// Removes a peer link.
    pub fn remove_peer(&mut self, peer: PeerRef) {
        self.peers.retain(|p| *p != peer);
    }

    /// Seeds the address book (used for discovery gossip).
    pub fn set_known_addrs(&mut self, addrs: Vec<NodeId>) {
        self.known_addrs = addrs;
    }

    /// Discards all chain, mempool and relay state — a crash that lost
    /// its disk. The peer links and address book survive (they model the
    /// node's configuration, not its database).
    pub fn reset_chain(&mut self) {
        self.chain = ChainStore::new(self.chain.network());
        self.mempool.clear();
        self.mempool_order.clear();
        self.seen_inv.clear();
        self.orphan_blocks.clear();
    }

    /// The initial-block-download requests a node issues on (re)start:
    /// one `getheaders` to every in-network peer. The replies drive the
    /// body-fetch path in the `Headers` handler until the node catches
    /// back up.
    pub fn startup_sync_requests(&self) -> Vec<(PeerRef, Message)> {
        self.peers
            .iter()
            .filter(|p| matches!(p, PeerRef::Node(_)))
            .map(|p| {
                (
                    *p,
                    Message::GetHeaders {
                        locator: self.chain.locator(),
                        stop: icbtc_bitcoin::BlockHash::ZERO,
                    },
                )
            })
            .collect()
    }

    /// Transactions currently in the mempool, oldest first.
    pub fn mempool(&self) -> impl Iterator<Item = &Transaction> {
        self.mempool_order.iter().filter_map(|txid| self.mempool.get(txid))
    }

    /// Returns `true` if the mempool holds `txid`.
    pub fn has_mempool_tx(&self, txid: &Txid) -> bool {
        self.mempool.contains_key(txid)
    }

    /// Number of mempool entries.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Drains up to `max` mempool transactions for a block template.
    pub fn take_template_transactions(&mut self, max: usize) -> Vec<Transaction> {
        let take: Vec<Txid> = self.mempool_order.iter().take(max).copied().collect();
        let mut out = Vec::with_capacity(take.len());
        for txid in take {
            if let Some(tx) = self.mempool.remove(&txid) {
                out.push(tx);
            }
        }
        self.mempool_order.retain(|t| self.mempool.contains_key(t));
        out
    }

    /// Accepts a locally produced (mined or injected) block and returns
    /// the relay announcements for all peers.
    pub fn accept_local_block(&mut self, block: Block, now_unix: u32) -> Vec<(PeerRef, Message)> {
        self.ingest_block(block, None, now_unix)
    }

    /// Shared block-ingestion path: accepts the block, buffers it as an
    /// orphan if the parent is missing, evicts confirmed transactions,
    /// relays, and retries any orphans the new block unblocks.
    fn ingest_block(
        &mut self,
        block: Block,
        from: Option<PeerRef>,
        now_unix: u32,
    ) -> Vec<(PeerRef, Message)> {
        let hash = block.block_hash();
        let parent = block.header.prev_blockhash;
        match self.chain.accept_block(block.clone(), now_unix) {
            Ok(true) => {
                self.seen_inv.insert(Inventory::Block(hash));
                let confirmed: Vec<Txid> = self
                    .chain
                    .block(&hash)
                    .map(|b| icbtc_bitcoin::txids(&b.txdata))
                    .unwrap_or_default();
                for txid in confirmed {
                    self.mempool.remove(&txid);
                }
                self.mempool_order.retain(|t| self.mempool.contains_key(t));
                let mut out = self.broadcast(Message::Inv(vec![Inventory::Block(hash)]), from);
                // This block may be the missing parent of buffered orphans.
                if let Some(children) = self.orphan_blocks.remove(&hash) {
                    for child in children {
                        out.extend(self.ingest_block(child, from, now_unix));
                    }
                }
                out
            }
            Err(crate::chain::ValidationError::OrphanHeader(_)) => {
                // Out-of-order delivery: park the block until its parent
                // connects (bounded, to cap memory under garbage floods).
                let bucket = self.orphan_blocks.entry(parent).or_default();
                if bucket.len() < 16 && !bucket.iter().any(|b| b.block_hash() == hash) {
                    bucket.push(block);
                }
                // Recover the gap: if the block came from a peer, ask it
                // for the headers between our chain and the orphan. The
                // reply drives the body-fetch path — without this, a node
                // that missed an announcement (lossy link, partition,
                // crash) would wait forever for a parent nobody re-sends.
                match from {
                    Some(peer) => vec![(
                        peer,
                        Message::GetHeaders {
                            locator: self.chain.locator(),
                            stop: icbtc_bitcoin::BlockHash::ZERO,
                        },
                    )],
                    None => Vec::new(),
                }
            }
            _ => Vec::new(),
        }
    }

    /// Accepts a transaction into the mempool and returns relay
    /// announcements (empty if already known).
    pub fn accept_transaction(&mut self, tx: Transaction, from: Option<PeerRef>) -> Vec<(PeerRef, Message)> {
        let txid = tx.txid();
        if self.mempool.contains_key(&txid) {
            return Vec::new();
        }
        self.mempool.insert(txid, tx);
        self.mempool_order.push(txid);
        self.seen_inv.insert(Inventory::Transaction(txid));
        self.broadcast(Message::Inv(vec![Inventory::Transaction(txid)]), from)
    }

    fn broadcast(&self, msg: Message, except: Option<PeerRef>) -> Vec<(PeerRef, Message)> {
        self.peers
            .iter()
            .filter(|p| Some(**p) != except)
            .map(|p| (*p, msg.clone()))
            .collect()
    }

    /// Handles one incoming message, returning the outgoing messages it
    /// produces. `now_unix` is the simulated Unix time used for header
    /// timestamp validation.
    pub fn handle_message(
        &mut self,
        from: PeerRef,
        msg: Message,
        now_unix: u32,
    ) -> Vec<(PeerRef, Message)> {
        match msg {
            Message::Ping(nonce) => vec![(from, Message::Pong(nonce))],
            Message::Pong(_) => Vec::new(),
            Message::GetAddr => {
                let addrs: Vec<NodeId> =
                    self.known_addrs.iter().copied().take(MAX_ADDR_PER_MSG).collect();
                vec![(from, Message::Addr(addrs))]
            }
            Message::Addr(addrs) => {
                for addr in addrs {
                    if addr != self.id && !self.known_addrs.contains(&addr) {
                        self.known_addrs.push(addr);
                    }
                }
                Vec::new()
            }
            Message::GetHeaders { locator, stop } => {
                let mut headers = self.chain.headers_after(&locator, MAX_HEADERS_PER_MSG);
                if stop != icbtc_bitcoin::BlockHash::ZERO {
                    if let Some(pos) =
                        headers.iter().position(|h| h.block_hash() == stop)
                    {
                        headers.truncate(pos + 1);
                    }
                }
                vec![(from, Message::Headers(headers))]
            }
            Message::Headers(headers) => {
                // Nodes learn forks from headers. Bodies of newly
                // accepted headers we do not hold yet are fetched right
                // away — this is the initial-block-download loop a node
                // runs after a (state-wiping) restart. A full batch means
                // the sender has more: ask again from the new locator.
                let full_batch = headers.len() >= MAX_HEADERS_PER_MSG;
                let mut fetch = Vec::new();
                for header in headers {
                    let hash = header.block_hash();
                    let newly = self.chain.accept_header(header, now_unix).unwrap_or(false);
                    // Fetch any known header whose body we lack — even if
                    // its inv was seen before: the earlier getdata (or its
                    // reply) may have been lost on a faulty link, and this
                    // headers exchange is exactly the recovery path.
                    let known = newly || self.chain.header(&hash).is_some();
                    if known && !self.chain.has_block(&hash) {
                        let item = Inventory::Block(hash);
                        if !fetch.contains(&item) {
                            self.seen_inv.insert(item);
                            fetch.push(item);
                        }
                    }
                }
                let mut out = Vec::new();
                if !fetch.is_empty() {
                    out.push((from, Message::GetData(fetch)));
                }
                if full_batch {
                    out.push((
                        from,
                        Message::GetHeaders {
                            locator: self.chain.locator(),
                            stop: icbtc_bitcoin::BlockHash::ZERO,
                        },
                    ));
                }
                out
            }
            Message::Inv(items) => {
                let mut wanted = Vec::new();
                for item in items {
                    if self.seen_inv.contains(&item) {
                        continue;
                    }
                    let have = match item {
                        Inventory::Block(hash) => self.chain.has_block(&hash),
                        Inventory::Transaction(txid) => self.mempool.contains_key(&txid),
                    };
                    if !have {
                        wanted.push(item);
                    }
                }
                if wanted.is_empty() {
                    Vec::new()
                } else {
                    for item in &wanted {
                        self.seen_inv.insert(*item);
                    }
                    vec![(from, Message::GetData(wanted))]
                }
            }
            Message::GetData(items) => {
                let mut out = Vec::new();
                let mut missing = Vec::new();
                for item in items {
                    match item {
                        Inventory::Block(hash) => match self.chain.block(&hash) {
                            Some(block) => {
                                out.push((from, Message::BlockMsg(Box::new(block.clone()))))
                            }
                            None => missing.push(item),
                        },
                        Inventory::Transaction(txid) => match self.mempool.get(&txid) {
                            Some(tx) => out.push((from, Message::TxMsg(tx.clone()))),
                            None => missing.push(item),
                        },
                    }
                }
                if !missing.is_empty() {
                    out.push((from, Message::NotFound(missing)));
                }
                out
            }
            Message::BlockMsg(block) => self.ingest_block(*block, Some(from), now_unix),
            Message::TxMsg(tx) => self.accept_transaction(tx, Some(from)),
            Message::NotFound(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::mine_block_on;
    use icbtc_bitcoin::{Amount, OutPoint, Script, TxIn, TxOut};

    fn node(id: u32) -> FullNode {
        FullNode::new(NodeId(id), Network::Regtest)
    }

    fn sample_tx(n: u8) -> Transaction {
        Transaction {
            version: 2,
            inputs: vec![TxIn::new(OutPoint::new(icbtc_bitcoin::Txid([n; 32]), 0))],
            outputs: vec![TxOut::new(Amount::from_sat(500), Script::new_p2wpkh(&[n; 20]))],
            lock_time: 0,
        }
    }

    #[test]
    fn ping_pong() {
        let mut n = node(0);
        let replies = n.handle_message(PeerRef::Node(NodeId(1)), Message::Ping(42), 0);
        assert_eq!(replies, vec![(PeerRef::Node(NodeId(1)), Message::Pong(42))]);
        assert!(n.handle_message(PeerRef::Node(NodeId(1)), Message::Pong(42), 0).is_empty());
    }

    #[test]
    fn addr_gossip() {
        let mut n = node(0);
        n.set_known_addrs(vec![NodeId(1), NodeId(2)]);
        let from = PeerRef::Node(NodeId(9));
        let replies = n.handle_message(from, Message::GetAddr, 0);
        assert_eq!(replies, vec![(from, Message::Addr(vec![NodeId(1), NodeId(2)]))]);
        // Learning new addresses, ignoring self and duplicates.
        n.handle_message(from, Message::Addr(vec![NodeId(0), NodeId(2), NodeId(3)]), 0);
        let replies = n.handle_message(from, Message::GetAddr, 0);
        assert_eq!(
            replies,
            vec![(from, Message::Addr(vec![NodeId(1), NodeId(2), NodeId(3)]))]
        );
    }

    #[test]
    fn inv_getdata_block_flow() {
        let mut a = node(0);
        let mut b = node(1);
        a.set_peers(vec![PeerRef::Node(NodeId(1))]);
        b.set_peers(vec![PeerRef::Node(NodeId(0))]);

        let block = mine_block_on(a.chain(), a.chain().tip_hash(), Vec::new(), Script::new_op_return(b"x"), 0);
        let now = block.header.time;
        let hash = block.block_hash();

        // A mines and announces.
        let announcements = a.accept_local_block(block, now);
        assert_eq!(announcements.len(), 1);
        let (to, inv) = &announcements[0];
        assert_eq!(*to, PeerRef::Node(NodeId(1)));

        // B requests the block.
        let requests = b.handle_message(PeerRef::Node(NodeId(0)), inv.clone(), now);
        assert_eq!(requests.len(), 1);
        let (_, getdata) = &requests[0];
        assert_eq!(getdata.kind(), "getdata");

        // A serves it; B accepts and would relay onward (no other peers).
        let served = a.handle_message(PeerRef::Node(NodeId(1)), getdata.clone(), now);
        assert_eq!(served.len(), 1);
        let relays = b.handle_message(PeerRef::Node(NodeId(0)), served[0].1.clone(), now);
        assert!(b.chain().has_block(&hash));
        assert_eq!(b.chain().tip_height(), 1);
        // Relay goes back only to non-sender peers — none here.
        assert!(relays.is_empty());

        // Duplicate inv is ignored.
        assert!(b.handle_message(PeerRef::Node(NodeId(0)), inv.clone(), now).is_empty());
    }

    #[test]
    fn getdata_for_unknown_returns_notfound() {
        let mut n = node(0);
        let item = Inventory::Block(icbtc_bitcoin::BlockHash([7; 32]));
        let replies = n.handle_message(PeerRef::Node(NodeId(1)), Message::GetData(vec![item]), 0);
        assert_eq!(replies, vec![(PeerRef::Node(NodeId(1)), Message::NotFound(vec![item]))]);
    }

    #[test]
    fn tx_relay_and_mempool() {
        let mut n = node(0);
        n.set_peers(vec![PeerRef::Node(NodeId(1)), PeerRef::Node(NodeId(2))]);
        let tx = sample_tx(1);
        let txid = tx.txid();
        let from = PeerRef::Node(NodeId(1));
        let relays = n.handle_message(from, Message::TxMsg(tx.clone()), 0);
        // Relayed to everyone except the sender.
        assert_eq!(relays.len(), 1);
        assert_eq!(relays[0].0, PeerRef::Node(NodeId(2)));
        assert!(n.has_mempool_tx(&txid));
        // Re-delivery does nothing.
        assert!(n.handle_message(from, Message::TxMsg(tx), 0).is_empty());
        assert_eq!(n.mempool_len(), 1);
    }

    #[test]
    fn block_confirmation_evicts_mempool() {
        let mut n = node(0);
        let tx = sample_tx(2);
        let txid = tx.txid();
        n.accept_transaction(tx.clone(), None);
        assert!(n.has_mempool_tx(&txid));

        let block = mine_block_on(n.chain(), n.chain().tip_hash(), vec![tx], Script::new_op_return(b"m"), 0);
        let now = block.header.time;
        n.handle_message(PeerRef::Node(NodeId(1)), Message::BlockMsg(Box::new(block)), now);
        assert!(!n.has_mempool_tx(&txid));
        assert_eq!(n.mempool_len(), 0);
    }

    #[test]
    fn template_extraction_preserves_order() {
        let mut n = node(0);
        for i in 1..=5 {
            n.accept_transaction(sample_tx(i), None);
        }
        let template = n.take_template_transactions(3);
        assert_eq!(template.len(), 3);
        assert_eq!(n.mempool_len(), 2);
        assert_eq!(template[0], sample_tx(1));
    }

    #[test]
    fn getheaders_serves_chain() {
        let mut n = node(0);
        for i in 0..5 {
            let block = mine_block_on(n.chain(), n.chain().tip_hash(), Vec::new(), Script::new_op_return(b"m"), i);
            let now = block.header.time;
            n.chain_mut().accept_block(block, now).unwrap();
        }
        let replies = n.handle_message(
            PeerRef::External(crate::messages::ConnId(0)),
            Message::GetHeaders {
                locator: vec![Network::Regtest.genesis_hash()],
                stop: icbtc_bitcoin::BlockHash::ZERO,
            },
            0,
        );
        assert_eq!(replies.len(), 1);
        match &replies[0].1 {
            Message::Headers(headers) => assert_eq!(headers.len(), 5),
            other => panic!("expected headers, got {}", other.kind()),
        }
    }

    #[test]
    fn out_of_order_blocks_are_parked_and_replayed() {
        // Regression: blocks delivered child-before-parent must not be
        // dropped (the orphan pool reconnects them).
        let mut n = node(0);
        let chain_src = {
            let mut c = crate::chain::ChainStore::new(Network::Regtest);
            let mut out = Vec::new();
            for i in 0..3 {
                let b = mine_block_on(&c, c.tip_hash(), Vec::new(), Script::new_op_return(b"o"), i);
                let now = b.header.time;
                c.accept_block(b.clone(), now).unwrap();
                out.push(b);
            }
            out
        };
        let now = chain_src.last().unwrap().header.time;
        let from = PeerRef::Node(NodeId(1));
        // Deliver 3, then 2, then 1.
        n.handle_message(from, Message::BlockMsg(Box::new(chain_src[2].clone())), now);
        assert_eq!(n.chain().tip_height(), 0, "orphan must not connect yet");
        n.handle_message(from, Message::BlockMsg(Box::new(chain_src[1].clone())), now);
        assert_eq!(n.chain().tip_height(), 0);
        let relays = n.handle_message(from, Message::BlockMsg(Box::new(chain_src[0].clone())), now);
        assert_eq!(n.chain().tip_height(), 3, "parent arrival replays the whole chain");
        // No peers configured, so no relays — but all blocks stored.
        assert!(relays.is_empty());
        for b in &chain_src {
            assert!(n.chain().has_block(&b.block_hash()));
        }
    }

    #[test]
    fn orphan_pool_is_bounded() {
        let mut n = node(0);
        let parent = icbtc_bitcoin::BlockHash([9; 32]);
        let chain = ChainStore::new(Network::Regtest);
        for i in 0..40u64 {
            let mut b = mine_block_on(&chain, chain.tip_hash(), Vec::new(), Script::new_op_return(b"x"), i);
            b.header.prev_blockhash = parent; // all orphans of one parent
            let now = b.header.time;
            n.handle_message(PeerRef::Node(NodeId(1)), Message::BlockMsg(Box::new(b)), now);
        }
        assert!(
            n.orphan_blocks.get(&parent).map(|v| v.len()).unwrap_or(0) <= 16,
            "orphan bucket must stay bounded"
        );
    }
}
