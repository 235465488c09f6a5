//! The Bitcoin canister's replicated state and **Algorithm 2** (§III-C).
//!
//! The canister keeps (a) the stable UTXO set up to and including the
//! *anchor* — the newest difficulty-based δ-stable block —, (b) the tree
//! of all headers above the anchor, (c) the full blocks for those
//! headers, and (d) the queue of outbound transactions. Responses from
//! the Bitcoin adapter are folded in by Algorithm 2: validate, append,
//! advance the anchor whenever a child becomes δ-stable, and track
//! syncedness against the τ lag bound.

use std::cell::{Cell, OnceCell};
use std::cmp::Ordering;
use std::collections::BTreeMap;

use icbtc_bitcoin::encode::{Decodable, DecodeError, Encodable, Reader, Sink};
use icbtc_bitcoin::hash::Sha256;
use icbtc_bitcoin::pow::{self, HeaderError};
use icbtc_bitcoin::{
    txids, Block, BlockHash, BlockHeader, HeaderTree, OutPoint, Script, Transaction, TxOut, Txid,
};
use icbtc_core::stability;
use icbtc_core::{GetSuccessorsRequest, GetSuccessorsResponse, IntegrationParams};
use icbtc_ic::Meter;

use crate::metering;
use crate::stable_chain::StableChain;
use crate::storage::{codec, StorageError};
use crate::utxoset::UtxoSet;

/// Why a header or block from the adapter was rejected. Rejections are
/// not errors of the canister — malicious replicas may relay garbage —
/// so Algorithm 2 records and skips them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// Parent header not in the unstable tree: unknown, or at or below
    /// the anchor (already finalized).
    Orphan(BlockHash),
    /// The header breaks Bitcoin's header rules.
    Header(HeaderError),
    /// Block body malformed (coinbase/Merkle rules).
    MalformedBlock,
    /// Predecessor block body unavailable.
    MissingPredecessorBlock(BlockHash),
}

/// Statistics from one [`BitcoinCanisterState::process_response`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Blocks accepted and stored.
    pub blocks_accepted: usize,
    /// Headers (from `next`) accepted into the tree.
    pub headers_accepted: usize,
    /// Items rejected, with reasons.
    pub rejected: Vec<RejectReason>,
    /// Blocks that became stable and were folded into the UTXO set.
    pub stabilized: Vec<BlockHash>,
    /// The response was byte-identical (same tip, same block and header
    /// hashes) to the most recently applied one and was dropped without
    /// re-applying — the idempotence guard a restarted replica relies on
    /// when the adapter re-delivers the last response after catch-up.
    pub duplicate_dropped: bool,
}

/// The replicated state of the Bitcoin canister.
///
/// # Examples
///
/// ```
/// use icbtc_canister::state::BitcoinCanisterState;
/// use icbtc_core::IntegrationParams;
/// use icbtc_bitcoin::Network;
///
/// let state = BitcoinCanisterState::new(IntegrationParams::for_network(Network::Regtest));
/// assert_eq!(state.anchor_height(), 0);
/// assert!(state.is_synced());
/// ```
#[derive(Debug, Clone)]
pub struct BitcoinCanisterState {
    params: IntegrationParams,
    utxos: UtxoSet,
    /// The single stable header per height, genesis first, with the
    /// running digest [`BitcoinCanisterState::state_hash`] reads.
    stable: StableChain,
    /// Header tree rooted at the anchor (the anchor plus all unstable
    /// headers).
    tree: HeaderTree,
    /// Bodies of unstable blocks with their txids, keyed by header hash.
    blocks: BTreeMap<BlockHash, UnstableBlock>,
    /// Outbound transactions awaiting the next adapter request.
    outbound: Vec<Transaction>,
    synced: bool,
    /// The best-chain tip after the last non-empty adapter response was
    /// applied, paired with that response's content fingerprint.
    /// Replicated state: every replica must agree on whether a
    /// redelivered response is a duplicate.
    last_response_fingerprint: Option<(BlockHash, [u8; 32])>,
}

/// An unstable block body with the txid of each of its transactions, as
/// its acceptance check ([`Block::checked_txids`]) computed them: the
/// overlay, fee lookups and stabilization read these instead of hashing
/// the transactions again.
#[derive(Debug, Clone)]
pub struct UnstableBlock {
    block: Block,
    txids: Vec<Txid>,
    /// Built by the first query that reads the block, so ingest and
    /// restore pay nothing for it; never part of a snapshot.
    index: OnceCell<BlockIndex>,
    /// SHA-256d of the block's full encoding, witnesses included, filled
    /// by the first state hash that reads the block. The block never
    /// changes, so neither does this.
    digest: OnceCell<[u8; 32]>,
}

/// An unstable block's outputs and spends as `(transaction, output or
/// input)` positions into its `txdata`, sorted so that a query
/// binary-searches them instead of scanning every transaction. No script
/// or outpoint bytes are copied.
#[derive(Debug, Clone)]
struct BlockIndex {
    /// Every output, by script bytes, equal scripts in block order.
    outputs: Vec<(u32, u32)>,
    /// Every non-coinbase input, by the outpoint it spends.
    spends: Vec<(u32, u32)>,
    /// A bit set at [`txid_bit`] of each spent txid, about 16 bits per
    /// spend. A clear bit proves the block spends no output of that
    /// transaction, so masking an address's stable entries costs most
    /// blocks one probe per entry instead of a binary search.
    spent_txids: Vec<u64>,
}

/// Where `txid` falls in a bit set of `words` 64-bit words (a power of
/// two). A txid is a hash, so its low bytes are spread evenly.
fn txid_bit(txid: &Txid, words: usize) -> usize {
    let low = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7].map(|i| txid.0[i]));
    (low % (words as u64 * 64)) as usize
}

impl UnstableBlock {
    /// Runs the structural and Merkle check over `block`, keeping the
    /// txids it computed; `None` if the block is malformed.
    fn check(block: Block) -> Option<UnstableBlock> {
        let txids = block.checked_txids()?;
        Some(UnstableBlock { block, txids, index: OnceCell::new(), digest: OnceCell::new() })
    }

    /// The block itself.
    pub fn block(&self) -> &Block {
        &self.block
    }

    /// `txids()[i]` is the txid of `block().txdata[i]`.
    pub fn txids(&self) -> &[Txid] {
        &self.txids
    }

    /// Each transaction with its txid, in block order.
    pub fn transactions(&self) -> impl Iterator<Item = (&Transaction, Txid)> {
        self.block.txdata.iter().zip(self.txids.iter().copied())
    }

    /// SHA-256d of [`UnstableBlock::block`]'s encoding, computed once.
    fn digest(&self) -> &[u8; 32] {
        self.digest.get_or_init(|| {
            let mut hasher = Sha256::new();
            self.block.encode(&mut hasher);
            #[cfg(test)]
            hashed_bytes::count(hasher.absorbed());
            hasher.finalize_double()
        })
    }

    fn output(&self, (tx, vout): (u32, u32)) -> &TxOut {
        &self.block.txdata[tx as usize].outputs[vout as usize]
    }

    fn spent(&self, (tx, input): (u32, u32)) -> &OutPoint {
        &self.block.txdata[tx as usize].inputs[input as usize].previous_output
    }

    fn index(&self) -> &BlockIndex {
        self.index.get_or_init(|| {
            let (mut outputs, mut spends) = (Vec::new(), Vec::new());
            // icbtc-lint: allow(unmetered-loop) -- a host-side index built once per block; the overlay charges each read of the block UNSTABLE_BLOCK_SCAN, as the model prices it
            for (t, tx) in self.block.txdata.iter().enumerate() {
                let t = t as u32;
                outputs.extend((0..tx.outputs.len() as u32).map(|vout| (t, vout)));
                if !tx.is_coinbase() {
                    spends.extend((0..tx.inputs.len() as u32).map(|input| (t, input)));
                }
            }
            // Both lists start in block order, which a stable sort keeps
            // among equal keys.
            let script = |position| &self.output(position).script_pubkey;
            outputs.sort_by(|&a, &b| script(a).cmp(script(b)));
            spends.sort_by(|&a, &b| self.spent(a).cmp(self.spent(b)));
            let mut spent_txids = vec![0u64; (spends.len() / 4).next_power_of_two()];
            // icbtc-lint: allow(unmetered-loop) -- part of the host-side index, built once per block
            for &position in &spends {
                let bit = txid_bit(&self.spent(position).txid, spent_txids.len());
                spent_txids[bit / 64] |= 1 << (bit % 64);
            }
            BlockIndex { outputs, spends, spent_txids }
        })
    }

    /// The outputs of this block locked by `script`, in block order, each
    /// with its outpoint.
    pub(crate) fn outputs_paying<'a>(
        &'a self,
        script: &'a Script,
    ) -> impl Iterator<Item = (OutPoint, &'a TxOut)> + 'a {
        let run = equal_run(&self.index().outputs, |position| {
            #[cfg(test)]
            comparisons::count_script();
            self.output(position).script_pubkey.cmp(script)
        });
        run.iter().map(move |&(tx, vout)| {
            (OutPoint::new(self.txids[tx as usize], vout), self.output((tx, vout)))
        })
    }

    /// Whether a transaction of this block spends `outpoint`.
    pub(crate) fn spends(&self, outpoint: &OutPoint) -> bool {
        let index = self.index();
        let bit = txid_bit(&outpoint.txid, index.spent_txids.len());
        if index.spent_txids[bit / 64] & (1 << (bit % 64)) == 0 {
            return false;
        }
        let found = index.spends.binary_search_by(|&position| {
            #[cfg(test)]
            comparisons::count_outpoint();
            self.spent(position).cmp(outpoint)
        });
        found.is_ok()
    }
}

/// The run of `sorted` on which `cmp` is `Equal`, for `cmp` ordered along
/// `sorted`. Takes at most ⌈log₂(n + 1)⌉ calls to find the run's start,
/// then one more per further element of the run and one to end it.
fn equal_run<T: Copy>(sorted: &[T], mut cmp: impl FnMut(T) -> Ordering) -> &[T] {
    let (mut start, mut end, mut found) = (0, sorted.len(), false);
    // icbtc-lint: allow(unmetered-loop) -- a binary search inside one block, priced by the caller's UNSTABLE_BLOCK_SCAN
    while start < end {
        let mid = start + (end - start) / 2;
        match cmp(sorted[mid]) {
            Ordering::Less => start = mid + 1,
            order => {
                end = mid;
                found = order == Ordering::Equal;
            }
        }
    }
    // `end` last moved to `start`, so `found` is what `cmp` said there.
    if !found {
        return &[];
    }
    end = start + 1;
    // icbtc-lint: allow(unmetered-loop) -- one step per match, each priced by the caller's UNSTABLE_UTXO_FETCH
    while end < sorted.len() && cmp(sorted[end]) == Ordering::Equal {
        end += 1;
    }
    &sorted[start..end]
}

/// Script and outpoint comparisons made by [`UnstableBlock`] lookups on
/// this thread, so a test can check that a query's host work grows with
/// the logarithm of block size, not with the size itself.
#[cfg(test)]
pub(crate) mod comparisons {
    use std::cell::Cell;

    thread_local! {
        static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    pub(crate) fn count_script() {
        COUNTS.with(|c| c.set((c.get().0 + 1, c.get().1)));
    }

    pub(crate) fn count_outpoint() {
        COUNTS.with(|c| c.set((c.get().0, c.get().1 + 1)));
    }

    /// The `(script, outpoint)` comparisons since the last call.
    pub(crate) fn take() -> (u64, u64) {
        COUNTS.with(|c| c.replace((0, 0)))
    }
}

/// Bytes fed to SHA-256 for state hashes on this thread, so a test can
/// check that a call's host work does not grow with the chain.
#[cfg(test)]
pub(crate) mod hashed_bytes {
    use std::cell::Cell;

    thread_local! {
        static BYTES: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn count(bytes: u64) {
        BYTES.with(|b| b.set(b.get() + bytes));
    }

    /// The bytes hashed since the last call.
    pub(crate) fn take() -> u64 {
        BYTES.with(|b| b.replace(0))
    }
}

impl BitcoinCanisterState {
    /// Creates the state anchored at the network's genesis block, whose
    /// outputs seed the stable UTXO set.
    ///
    /// # Panics
    ///
    /// Panics if `params.stability_delta` is zero: no block is δ-stable
    /// at δ = 0, so the first accepted block could not be folded.
    pub fn new(params: IntegrationParams) -> BitcoinCanisterState {
        assert!(params.stability_delta > 0, "the stability delta must be at least 1");
        let genesis = params.network.genesis_block().clone();
        let mut utxos = UtxoSet::new(params.network);
        if let Err(error) =
            utxos.try_ingest_block(&genesis.txdata, &txids(&genesis.txdata), 0, &mut Meter::new())
        {
            panic!("stable UTXO storage failed ingesting height 0: {error}"); // icbtc-lint: allow(no-panic) -- the budget must fail loudly: continuing past it would silently diverge replicated state
        }
        BitcoinCanisterState {
            params,
            utxos,
            stable: StableChain::new(genesis.header),
            tree: HeaderTree::new(genesis.header),
            blocks: BTreeMap::new(),
            outbound: Vec::new(),
            synced: true,
            last_response_fingerprint: None,
        }
    }

    /// The integration parameters in force.
    pub fn params(&self) -> &IntegrationParams {
        &self.params
    }

    /// The anchor header `β*` — the newest stable header.
    pub fn anchor(&self) -> BlockHeader {
        self.stable.tip()
    }

    /// Height of the anchor.
    pub fn anchor_height(&self) -> u64 {
        self.stable.headers().len() as u64 - 1
    }

    /// Read access to the stable UTXO set.
    pub fn utxos(&self) -> &UtxoSet {
        &self.utxos
    }

    /// The unstable header tree (rooted at the anchor).
    pub fn tree(&self) -> &HeaderTree {
        &self.tree
    }

    /// The unstable block body for `hash` with its txids, if held.
    pub fn block(&self, hash: &BlockHash) -> Option<&UnstableBlock> {
        self.blocks.get(hash)
    }

    /// Number of unstable block bodies held.
    pub fn unstable_block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total blocks ever folded into the stable set (including genesis).
    pub fn blocks_stabilized(&self) -> u64 {
        self.stable.headers().len() as u64
    }

    /// Whether the canister considers itself synced (§III-C: the maximum
    /// known header height exceeds the maximum height with an available
    /// block by at most τ). When `false`, all API requests are answered
    /// with errors.
    pub fn is_synced(&self) -> bool {
        self.synced
    }

    /// Queues a transaction for transmission via the next adapter request.
    pub fn queue_transaction(&mut self, tx: Transaction) -> Txid {
        let txid = tx.txid();
        self.outbound.push(tx);
        txid
    }

    /// Number of queued outbound transactions.
    pub fn outbound_len(&self) -> usize {
        self.outbound.len()
    }

    /// Builds the periodic request to the adapter: the anchor `β*`, the
    /// processed set `A`, and the outbound transactions `T` (drained).
    pub fn make_request(&mut self) -> GetSuccessorsRequest {
        GetSuccessorsRequest {
            anchor: self.anchor(),
            anchor_height: self.anchor_height(),
            processed: self.blocks.keys().copied().collect(),
            transactions: std::mem::take(&mut self.outbound),
        }
    }

    /// The header at an absolute height on the canonical path: the stable
    /// chain below the anchor, the best unstable chain above it.
    pub fn header_at_height(&self, height: u64) -> Option<BlockHeader> {
        if height <= self.anchor_height() {
            return self.stable.headers().get(height as usize).copied();
        }
        let hash = self.tree.best_at(height)?;
        self.tree.header(&hash)
    }

    /// The tip of the current best chain: the most cumulative work, and
    /// of equal-work tips the one whose header arrived first.
    pub fn best_tip(&self) -> (BlockHash, u64) {
        (self.tree.tip_hash(), self.tree.tip().height)
    }

    /// The deepest height on the best chain for which the block body is
    /// available — what `get_utxos`/`get_balance` can actually see. Lags
    /// [`BitcoinCanisterState::best_tip`] by at most τ while synced.
    pub fn available_tip_height(&self) -> u64 {
        let best = self.tree.best_chain();
        let with_bodies = best[1..].iter().take_while(|h| self.blocks.contains_key(h)).count();
        self.anchor_height() + with_bodies as u64
    }

    // -----------------------------------------------------------------
    // Validation (the same checks the adapter performs, §III-B/§III-C)
    // -----------------------------------------------------------------

    /// A known parent in the unstable tree, then Bitcoin's header rules
    /// ([`pow::validate_header`]) over a walk from the parent up the
    /// unstable tree to the anchor, then down the stable chain below it.
    /// Each header the walk yields is charged [`metering::HEADER_WALK`].
    fn validate_header(
        &self,
        header: &BlockHeader,
        now_unix: u32,
        meter: &mut Meter,
    ) -> Result<(), RejectReason> {
        let prev = header.prev_blockhash;
        let Some(parent) = self.tree.get(&prev) else {
            return Err(RejectReason::Orphan(prev));
        };
        let below_anchor = self.stable.headers()[..self.anchor_height() as usize].iter().rev();
        let walked = Cell::new(0u64);
        let ancestors = (self.tree.ancestors(&prev).chain(below_anchor.copied()))
            .inspect(|_| walked.set(walked.get() + 1));
        let verdict = pow::validate_header(
            &self.params.network.params(),
            header,
            &parent.header,
            parent.height,
            ancestors,
            now_unix,
        );
        meter.charge(walked.get() * metering::HEADER_WALK);
        verdict.map_err(RejectReason::Header)
    }

    /// The body rules ([`UnstableBlock::check`]), then an available
    /// predecessor body. Returns the body with the txids the check
    /// hashed, ready to store.
    fn block_valid(&self, block: Block) -> Result<UnstableBlock, RejectReason> {
        let body = UnstableBlock::check(block).ok_or(RejectReason::MalformedBlock)?;
        let prev = body.block.header.prev_blockhash;
        let prev_available = prev == self.tree.root() || self.blocks.contains_key(&prev);
        if !prev_available {
            return Err(RejectReason::MissingPredecessorBlock(prev));
        }
        Ok(body)
    }

    // -----------------------------------------------------------------
    // Algorithm 2
    // -----------------------------------------------------------------

    /// Deterministic content fingerprint of a non-empty adapter
    /// response: SHA-256d over the block hashes and the upcoming-header
    /// hashes. `None` for the empty response, which carries no state
    /// transition to deduplicate. The probe is metered so the dedup
    /// check itself is replicated work.
    fn response_fingerprint(
        &self,
        response: &GetSuccessorsResponse,
        meter: &mut Meter,
    ) -> Option<[u8; 32]> {
        if response.blocks.is_empty() && response.next.is_empty() {
            return None;
        }
        meter.charge(metering::INGEST_DEDUP_PROBE);
        let mut hasher = Sha256::new();
        hasher.update(&(response.blocks.len() as u64).to_be_bytes());
        for block in &response.blocks {
            meter.charge(metering::INGEST_DEDUP_PER_ITEM);
            hasher.update(&block.block_hash().0);
        }
        for header in &response.next {
            meter.charge(metering::INGEST_DEDUP_PER_ITEM);
            hasher.update(&header.block_hash().0);
        }
        Some(hasher.finalize_double())
    }

    /// Processes an adapter response `(B, N)` per **Algorithm 2**:
    /// validates and stores each block, advances the anchor while any
    /// child of it is difficulty-based δ-stable (folding stabilized
    /// blocks into the UTXO set and pruning defeated forks), appends the
    /// upcoming headers, and recomputes the synced flag.
    pub fn process_response(
        &mut self,
        response: GetSuccessorsResponse,
        now_unix: u32,
        meter: &mut Meter,
    ) -> IngestReport {
        let mut report = IngestReport::default();
        // Idempotence guard: a response identical to the most recently
        // applied one *at the same tip* is dropped as a metered no-op.
        // Without this, an adapter re-delivering the last response after
        // a replica restart (or a replayed post-checkpoint ingest log
        // running one entry past the live state) would double-charge the
        // per-transaction parse costs for every duplicate block.
        let probe = meter.frame("dedup_probe");
        let fingerprint = self.response_fingerprint(&response, meter);
        meter.frame_end(probe);
        if let Some(content) = fingerprint {
            let (tip, _) = self.best_tip();
            if self.last_response_fingerprint == Some((tip, content)) {
                report.duplicate_dropped = true;
                return report;
            }
        }
        for block in response.blocks {
            let hash = block.block_hash();
            let validate = meter.frame("header_validate");
            meter.charge(metering::VALIDATE_HEADER);
            if !self.tree.contains(&hash) {
                if let Err(reason) = self.validate_header(&block.header, now_unix, meter) {
                    meter.frame_end(validate);
                    report.rejected.push(reason);
                    continue;
                }
            }
            meter.frame_end(validate);
            let body = match self.block_valid(block) {
                Ok(body) => body,
                Err(reason) => {
                    report.rejected.push(reason);
                    continue;
                }
            };
            // PARSE_TX = TX_HASHING + TX_DECODE, split into two frames so
            // the profiler can attribute the parts.
            let tx_count = body.txids.len() as u64;
            let hashing = meter.frame("hashing");
            meter.charge(tx_count * metering::TX_HASHING);
            meter.frame_end(hashing);
            let decode = meter.frame("tx_decode");
            meter.charge(tx_count * metering::TX_DECODE);
            meter.frame_end(decode);
            let _ = self.tree.insert_hashed(hash, body.block.header);
            if self.blocks.insert(hash, body).is_none() {
                report.blocks_accepted += 1;
            }
            self.advance_anchor(&mut report, meter);
        }

        for header in response.next {
            let hash = header.block_hash();
            let validate = meter.frame("header_validate");
            meter.charge(metering::VALIDATE_HEADER);
            if self.tree.contains(&hash) {
                meter.frame_end(validate);
                continue;
            }
            match self.validate_header(&header, now_unix, meter) {
                Ok(()) => {
                    let _ = self.tree.insert_hashed(hash, header);
                    report.headers_accepted += 1;
                }
                Err(reason) => report.rejected.push(reason),
            }
            meter.frame_end(validate);
        }

        if let Some(content) = fingerprint {
            // Keyed at the *post-apply* tip: a redelivered copy of this
            // response arrives when the live tip is exactly this one.
            let (tip, _) = self.best_tip();
            self.last_response_fingerprint = Some((tip, content));
        }
        self.update_synced();
        report
    }

    /// Advances the anchor while its child on the best chain has an
    /// available body and is difficulty-based δ-stable with respect to
    /// the current anchor's work, re-read after every step. No other
    /// child can be: a δ-stable child outweighs every sibling by
    /// `δ·w(b*) > 0`, so the tip is under it.
    fn advance_anchor(&mut self, report: &mut IngestReport, meter: &mut Meter) {
        let delta = self.params.stability_delta;
        while stability::difficulty_stable_prefix(&self.tree, delta, self.anchor().work()) > 0 {
            let Some(next_hash) = self.tree.best_at(self.tree.root_height() + 1) else {
                return;
            };
            // Fold the stabilized block into the UTXO set and discard its
            // body; keep exactly its header at this height.
            let Some(body) = self.blocks.remove(&next_hash) else { return };
            let height = self.anchor_height() + 1;
            let ingest = meter.frame("ingest_block");
            if let Err(error) =
                self.utxos.try_ingest_block(&body.block.txdata, &body.txids, height, meter)
            {
                // icbtc-lint: allow(no-panic) -- the budget must fail loudly: continuing past it would silently diverge replicated state
                panic!("stable UTXO storage failed ingesting height {height}: {error}");
            }
            meter.frame_end(ingest);
            self.stable.push(body.block.header);
            report.stabilized.push(next_hash);
            // Prune every branch not passing through the new anchor.
            for removed in self.tree.advance_root() {
                self.blocks.remove(&removed);
            }
        }
    }

    fn update_synced(&mut self) {
        let max_block_height = self
            .blocks
            .keys()
            .filter_map(|h| self.tree.height(h))
            .max()
            .unwrap_or(self.anchor_height());
        self.synced = self.tree.max_height().saturating_sub(max_block_height) <= self.params.tau;
    }

    /// Marks the canister out of sync manually (downtime experiments).
    pub fn force_unsynced(&mut self) {
        self.synced = false;
    }

    /// Installs a pre-built state snapshot, as a canister
    /// (re)installation would: the stable UTXO set and the matching
    /// stable header chain. The anchor becomes the last header; the
    /// unstable region is reset. Used by the benchmark harness to load
    /// large workloads without replaying block-by-block sync.
    ///
    /// # Panics
    ///
    /// Panics unless `stable_headers` is non-empty, chains correctly
    /// (each header's `prev` is its predecessor's hash), and its length
    /// equals the UTXO set's `next_height`.
    pub fn install_snapshot(&mut self, utxos: UtxoSet, stable_headers: Vec<BlockHeader>) {
        assert!(!stable_headers.is_empty(), "snapshot needs at least the genesis header");
        assert_eq!(
            stable_headers.len() as u64,
            utxos.next_height(),
            "one stable header per ingested height"
        );
        let mut stable = StableChain::new(stable_headers[0]);
        for &header in &stable_headers[1..] {
            let linked = header.prev_blockhash == stable.tip().block_hash();
            assert!(linked, "stable headers must chain");
            stable.push(header);
        }
        let anchor_height = stable_headers.len() as u64 - 1;
        self.utxos = utxos;
        self.tree = HeaderTree::with_root_height(stable.tip(), anchor_height);
        self.stable = stable;
        self.blocks.clear();
        self.synced = true;
    }

    // -----------------------------------------------------------------
    // Full-state snapshot envelope (checkpoints & upgrades)
    // -----------------------------------------------------------------

    /// Streams the canonical full-state sections into `sink`: magic,
    /// version, the integration parameters, the UTXO section, the stable
    /// header chain, the unstable header tree, the unstable block bodies,
    /// the outbound queue, and the bookkeeping scalars. The one section
    /// list backs both [`BitcoinCanisterState::serialize`] and
    /// [`BitcoinCanisterState::state_hash`]; `form` says how the UTXO
    /// set, the stable headers and the bodies are emitted, and every
    /// other section is the same in both.
    pub(crate) fn snapshot_into(&self, form: Section, sink: &mut dyn Sink) {
        sink.write(STATE_MAGIC);
        sink.write(&STATE_VERSION.to_be_bytes());
        sink.write(&[codec::network_tag(self.params.network)]);
        sink.write(&self.params.stability_delta.to_be_bytes());
        sink.write(&self.params.tau.to_be_bytes());
        sink.write(&(self.params.connections as u64).to_be_bytes());
        sink.write(&(self.params.addr_low_watermark as u64).to_be_bytes());
        sink.write(&(self.params.addr_high_watermark as u64).to_be_bytes());
        sink.write(&self.params.bulk_sync_height.to_be_bytes());
        sink.write(&self.params.tx_cache_expiry_secs.to_be_bytes());
        match form {
            Section::Image => {
                sink.write(&self.utxos.snapshot_len().to_be_bytes());
                self.utxos.snapshot_into(sink);
            }
            Section::Digest => sink.write(&self.utxos.state_hash()),
        }
        let stable = self.stable.headers();
        sink.write(&(stable.len() as u64).to_be_bytes());
        match form {
            Section::Image => {
                for header in stable {
                    header.encode(sink);
                }
            }
            Section::Digest => sink.write(&self.stable.digest()),
        }
        // Unstable headers, excluding the root (the anchor is already the
        // last stable header), in arrival order: parents precede children,
        // and a restore that reinserts in stream order keeps the
        // first-seen tip of an equal-work fork.
        let unstable = self.tree.insertion_order();
        sink.write(&(unstable.len() as u64 - 1).to_be_bytes());
        for header in unstable[1..].iter().filter_map(|h| self.tree.header(h)) {
            header.encode(sink);
        }
        sink.write(&(self.blocks.len() as u64).to_be_bytes());
        for body in self.blocks.values() {
            match form {
                Section::Image => sized_into(&body.block, sink),
                Section::Digest => sink.write(body.digest()),
            }
        }
        sink.write(&(self.outbound.len() as u64).to_be_bytes());
        for tx in &self.outbound {
            sized_into(tx, sink);
        }
        sink.write(&[self.synced as u8]);
        // Derived from the stable headers, and kept in the envelope so
        // its layout and every state hash stay as they were.
        sink.write(&self.blocks_stabilized().to_be_bytes());
        match &self.last_response_fingerprint {
            None => sink.write(&[0u8]),
            Some((tip, content)) => {
                sink.write(&[1u8]);
                sink.write(&tip.0);
                sink.write(content);
            }
        }
    }

    /// The full-state snapshot as one contiguous buffer — what a canister
    /// upgrade writes to stable memory in `pre_upgrade`. The exact image
    /// length is reserved first, so the buffer is never regrown.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.sized_len());
        self.snapshot_into(Section::Image, &mut out);
        out
    }

    /// Exact length of [`BitcoinCanisterState::serialize`]'s output: the
    /// UTXO section from [`UtxoSet::snapshot_len`], each header at 80
    /// bytes, and each block body and outbound transaction counted by
    /// [`Encodable::encoded_len`] behind its 8-byte length prefix.
    pub(crate) fn sized_len(&self) -> usize {
        let params = 8 + 2 + 1 + 7 * 8;
        let utxos = 8 + self.utxos.snapshot_len() as usize;
        let headers = 8 + 8 + 80 * (self.stable.headers().len() + self.tree.len() - 1);
        let bodies: usize = self.blocks.values().map(|body| 8 + body.block.encoded_len()).sum();
        let outbound: usize = self.outbound.iter().map(|tx| 8 + tx.encoded_len()).sum();
        let fingerprint = if self.last_response_fingerprint.is_some() { 65 } else { 1 };
        params + utxos + headers + 8 + bodies + 8 + outbound + 1 + 8 + fingerprint
    }

    /// SHA-256d over the snapshot's sections with three of them replaced
    /// by digests, each kept up to date or memoized so that a call hashes
    /// only what changed since the last one:
    ///
    /// - the UTXO section (`len ‖ snapshot bytes`) by the set's 32-byte
    ///   [`UtxoSet::state_hash`], memoized until the anchor next advances;
    /// - the stable headers by `count ‖ SHA-256d(headers)`, finalized
    ///   from a running digest that each anchor advance extends by one
    ///   header;
    /// - each unstable body by SHA-256d of its full encoding, witnesses
    ///   included, memoized on the body by the first call that reads it.
    ///
    /// A round with a still anchor hashes the unstable headers, the
    /// outbound queue and the bodies that arrived since the last call.
    /// The unstable headers enter in arrival order, which decides the
    /// tip of an equal-work fork, so two states with equal hashes follow
    /// the same best chain and answer every replicated API alike: what
    /// the shadow-replica divergence detector compares every round.
    pub fn state_hash(&self) -> [u8; 32] {
        let mut hasher = Sha256::new();
        self.snapshot_into(Section::Digest, &mut hasher);
        #[cfg(test)]
        hashed_bytes::count(hasher.absorbed());
        hasher.finalize_double()
    }

    /// Rebuilds a state from [`BitcoinCanisterState::serialize`] bytes,
    /// validating every structural invariant a live state maintains.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] on a bad magic/version/network tag, a
    /// zero stability δ, a stable chain that is empty, does not link, or
    /// disagrees with the UTXO set's height, an unstable header without
    /// its parent or seen twice, a block body without its header or
    /// failing the coinbase and Merkle rules ingest applies, or trailing
    /// bytes. The bodies' txids are recomputed here, never read from
    /// `bytes`.
    pub fn deserialize(bytes: &[u8]) -> Result<BitcoinCanisterState, StorageError> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != STATE_MAGIC {
            return Err(StorageError::Corrupt("bad state magic"));
        }
        if u16::from_be_bytes(r.take_array()?) != STATE_VERSION {
            return Err(StorageError::Corrupt("unsupported state snapshot version"));
        }
        let network = codec::network_from_tag(u8::from_be_bytes(r.take_array()?))?;
        let mut params = IntegrationParams::for_network(network);
        params.stability_delta = u64::from_be_bytes(r.take_array()?);
        if params.stability_delta == 0 {
            return Err(StorageError::Corrupt("zero stability delta"));
        }
        params.tau = u64::from_be_bytes(r.take_array()?);
        params.connections = u64::from_be_bytes(r.take_array()?) as usize;
        params.addr_low_watermark = u64::from_be_bytes(r.take_array()?) as usize;
        params.addr_high_watermark = u64::from_be_bytes(r.take_array()?) as usize;
        params.bulk_sync_height = u64::from_be_bytes(r.take_array()?);
        params.tx_cache_expiry_secs = u64::from_be_bytes(r.take_array()?);
        let utxos = UtxoSet::deserialize(take_sized(&mut r)?)?;
        if utxos.network() != network {
            return Err(StorageError::Corrupt("utxo snapshot network mismatch"));
        }
        let stable_count = u64::from_be_bytes(r.take_array()?);
        if stable_count == 0 {
            return Err(StorageError::Corrupt("empty stable chain"));
        }
        if stable_count != utxos.next_height() {
            return Err(StorageError::Corrupt("stable chain length disagrees with utxo height"));
        }
        // The running digest is rebuilt in the pass that checks linkage.
        let mut stable = StableChain::new(BlockHeader::decode(&mut r)?);
        for _ in 1..stable_count {
            let header = BlockHeader::decode(&mut r)?;
            if header.prev_blockhash != stable.tip().block_hash() {
                return Err(StorageError::Corrupt("stable headers do not chain"));
            }
            stable.push(header);
        }
        let anchor_height = stable_count - 1;
        let mut tree = HeaderTree::with_root_height(stable.tip(), anchor_height);
        for _ in 0..u64::from_be_bytes(r.take_array()?) {
            match tree.insert(BlockHeader::decode(&mut r)?) {
                Ok(true) => {}
                Ok(false) => return Err(StorageError::Corrupt("duplicate unstable header")),
                Err(_) => return Err(StorageError::Corrupt("orphan unstable header")),
            }
        }
        let mut blocks = BTreeMap::new();
        for _ in 0..u64::from_be_bytes(r.take_array()?) {
            let block: Block = sized_from(&mut r, "bad unstable block")?;
            let hash = block.block_hash();
            if !tree.contains(&hash) || hash == tree.root() {
                return Err(StorageError::Corrupt("block body without unstable header"));
            }
            let body = UnstableBlock::check(block)
                .ok_or(StorageError::Corrupt("malformed unstable block"))?;
            blocks.insert(hash, body);
        }
        let mut outbound: Vec<Transaction> = Vec::new();
        for _ in 0..u64::from_be_bytes(r.take_array()?) {
            outbound.push(sized_from(&mut r, "bad outbound transaction")?);
        }
        let synced = match u8::from_be_bytes(r.take_array()?) {
            0 => false,
            1 => true,
            _ => return Err(StorageError::Corrupt("bad synced flag")),
        };
        if u64::from_be_bytes(r.take_array()?) != anchor_height + 1 {
            return Err(StorageError::Corrupt("blocks_stabilized disagrees with anchor height"));
        }
        let last_response_fingerprint = match u8::from_be_bytes(r.take_array()?) {
            0 => None,
            1 => Some((BlockHash(r.take_array()?), r.take_array()?)),
            _ => return Err(StorageError::Corrupt("bad fingerprint tag")),
        };
        if r.remaining() > 0 {
            return Err(StorageError::Corrupt("trailing bytes in state snapshot"));
        }
        Ok(BitcoinCanisterState {
            params,
            utxos,
            stable,
            tree,
            blocks,
            outbound,
            synced,
            last_response_fingerprint,
        })
    }
}

/// How an envelope emits its sections: the image a restore reads back,
/// or the stream a state hash absorbs, where the checkpoint envelope's
/// full state, the state envelope's UTXO set and stable headers, and
/// each unstable body are replaced by 32-byte digests.
pub(crate) enum Section {
    /// `len ‖ image bytes` for a nested layer, every header and body
    /// whole.
    Image,
    /// Digests in place of the nested layer, the stable headers and the
    /// bodies, for hashing.
    Digest,
}

/// Writes `item` behind its 8-byte big-endian encoded length.
fn sized_into(item: &impl Encodable, sink: &mut dyn Sink) {
    sink.write(&(item.encoded_len() as u64).to_be_bytes());
    item.encode(sink);
}

/// Reads an item [`sized_into`] wrote; `what` names a value that does
/// not decode to exactly its stated length.
fn sized_from<T: Decodable>(r: &mut Reader<'_>, what: &'static str) -> Result<T, StorageError> {
    T::decode_exact(take_sized(r)?).map_err(|_| StorageError::Corrupt(what))
}

/// Takes the bytes behind an 8-byte big-endian length: a nested image,
/// or an item [`sized_into`] wrote.
pub(crate) fn take_sized<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], DecodeError> {
    let len = u64::from_be_bytes(r.take_array()?);
    // A length past the address space is past the end of the input too.
    r.take(usize::try_from(len).unwrap_or(usize::MAX))
}

/// Magic prefix of the full-state snapshot envelope.
const STATE_MAGIC: &[u8; 8] = b"ICBTCSTA";
/// Bumped on any layout change; restores reject other versions.
const STATE_VERSION: u16 = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use icbtc_bitcoin::{Amount, Network, Script};
    use icbtc_btcnet::miner::mine_block_on;
    use icbtc_btcnet::{ChainStore, ValidationError};

    const NOW: u32 = 2_000_000_000;

    fn params() -> IntegrationParams {
        IntegrationParams::for_network(Network::Regtest).with_stability_delta(2)
    }

    /// Mines `n` blocks on a reference chain and returns them.
    fn mine_chain(chain: &mut ChainStore, n: usize, salt: u64) -> Vec<Block> {
        let mut out = Vec::new();
        for i in 0..n {
            let block = mine_block_on(
                chain,
                chain.tip_hash(),
                Vec::new(),
                Script::new_p2wpkh(&[i as u8; 20]),
                salt + i as u64,
            );
            chain.accept_block(block.clone(), NOW).unwrap();
            out.push(block);
        }
        out
    }

    fn respond_with(blocks: &[Block]) -> GetSuccessorsResponse {
        GetSuccessorsResponse { blocks: blocks.to_vec(), next: Vec::new() }
    }

    #[test]
    fn initial_state_is_genesis_anchored() {
        let state = BitcoinCanisterState::new(params());
        assert_eq!(state.anchor_height(), 0);
        assert_eq!(state.anchor(), Network::Regtest.genesis_block().header);
        // The simulated genesis coinbase pays OP_RETURN (unspendable, as
        // Bitcoin's real genesis output effectively is), so nothing lands
        // in the UTXO set.
        assert_eq!(state.utxos().len(), 0);
        assert_eq!(state.utxos().next_height(), 1);
        assert_eq!(state.unstable_block_count(), 0);
        let (tip, height) = state.best_tip();
        assert_eq!(height, 0);
        assert_eq!(tip, Network::Regtest.genesis_hash());
    }

    #[test]
    fn blocks_accumulate_and_anchor_advances_at_delta() {
        let mut chain = ChainStore::new(Network::Regtest);
        let blocks = mine_chain(&mut chain, 6, 0);
        let mut state = BitcoinCanisterState::new(params());
        let mut meter = Meter::new();

        // Feed the first two blocks: nothing stable yet at δ = 2
        // (block 1 has depth 2 but needs d_w/w ≥ 2... it is exactly 2).
        let report = state.process_response(respond_with(&blocks[..1]), NOW, &mut meter);
        assert_eq!(report.blocks_accepted, 1);
        assert!(report.stabilized.is_empty());
        assert_eq!(state.anchor_height(), 0);

        // Feeding the rest advances the anchor: with 6 blocks and δ = 2,
        // blocks 1..=4 become stable (block at height h is stable once
        // depth ≥ 2, i.e. there is a block at h+1).
        let report = state.process_response(respond_with(&blocks[1..]), NOW, &mut meter);
        assert_eq!(report.blocks_accepted, 5);
        assert_eq!(state.anchor_height(), 5);
        assert_eq!(report.stabilized.len(), 5);
        // The unstable region holds the remaining tip block.
        assert_eq!(state.unstable_block_count(), 1);
        assert!(meter.instructions() > 0);
        // Stable UTXO set includes the stabilized coinbases.
        assert_eq!(state.utxos().next_height(), 6);
    }

    #[test]
    fn rejects_invalid_blocks() {
        let mut chain = ChainStore::new(Network::Regtest);
        let blocks = mine_chain(&mut chain, 2, 0);
        let mut state = BitcoinCanisterState::new(params());
        let mut meter = Meter::new();

        // Orphan: skip ahead.
        let report = state.process_response(respond_with(&blocks[1..2]), NOW, &mut meter);
        assert_eq!(report.blocks_accepted, 0);
        assert!(matches!(report.rejected[0], RejectReason::Orphan(_)));

        // Malformed body.
        let mut bad = blocks[0].clone();
        bad.txdata.clear();
        let report = state.process_response(respond_with(&[bad]), NOW, &mut meter);
        assert_eq!(report.rejected, vec![RejectReason::MalformedBlock]);

        // Bad PoW.
        let mut tampered = blocks[0].clone();
        for delta in 1..1000 {
            tampered.header.nonce = blocks[0].header.nonce.wrapping_add(delta);
            if !tampered.header.meets_pow_target() {
                break;
            }
        }
        let report = state.process_response(respond_with(&[tampered]), NOW, &mut meter);
        assert_eq!(report.rejected, vec![RejectReason::Header(HeaderError::BadProofOfWork)]);

        // Timestamp too far in the future.
        let future_chain_now = blocks[0].header.time.saturating_sub(3 * 60 * 60);
        let report =
            state.process_response(respond_with(&blocks[..1]), future_chain_now, &mut meter);
        assert_eq!(report.rejected, vec![RejectReason::Header(HeaderError::TimestampTooNew)]);
    }

    #[test]
    fn fork_below_the_anchor_is_an_orphan() {
        let mut chain = ChainStore::new(Network::Regtest);
        let main = mine_chain(&mut chain, 6, 0);
        let mut state = BitcoinCanisterState::new(params());
        state.process_response(respond_with(&main), NOW, &mut Meter::new());
        assert!(state.anchor_height() >= 3);
        let tree_before = state.tree().insertion_order();

        // A fork off height 1, which is now below the anchor.
        let mut fork_chain = ChainStore::new(Network::Regtest);
        fork_chain.accept_block(main[0].clone(), NOW).unwrap();
        let fork = mine_chain(&mut fork_chain, 1, 900);
        let report = state.process_response(respond_with(&fork), NOW, &mut Meter::new());
        assert_eq!(report.rejected, vec![RejectReason::Orphan(main[0].block_hash())]);
        assert_eq!(report.blocks_accepted, 0);
        let tree_after = state.tree().insertion_order();
        assert_eq!(tree_after, tree_before);
    }

    #[test]
    fn retarget_boundary_is_checked_alike_by_chain_store_and_canister() {
        let interval = Network::Regtest.params().retarget_interval as usize;
        let mut chain = ChainStore::new(Network::Regtest);
        let blocks = mine_chain(&mut chain, interval - 1, 0);
        let parent = blocks[interval - 2].header;
        // mine_block_on spaces blocks one second apart, so the boundary
        // retargets to the 4x clamp instead of keeping the parent's bits.
        let boundary =
            mine_block_on(&chain, chain.tip_hash(), Vec::new(), Script::new_p2wpkh(&[9; 20]), 0);
        assert_ne!(boundary.header.bits, parent.bits);
        let mut stale = boundary.clone();
        stale.header.bits = parent.bits;
        while !stale.header.meets_pow_target() {
            stale.header.nonce += 1;
        }
        let wrong_bits =
            HeaderError::BadDifficultyBits { expected: boundary.header.bits, actual: parent.bits };

        assert_eq!(chain.validate_header(&boundary.header, NOW), Ok(()));
        assert_eq!(
            chain.validate_header(&stale.header, NOW),
            Err(ValidationError::Header(wrong_bits))
        );

        let mut state = BitcoinCanisterState::new(params());
        state.process_response(respond_with(&blocks), NOW, &mut Meter::new());
        // The retarget span reaches far below the anchor, so the walk
        // must cross from the tree into the stable chain.
        assert!(state.tree().len() < interval);
        let report = state.process_response(respond_with(&[stale]), NOW, &mut Meter::new());
        assert_eq!(report.rejected, vec![RejectReason::Header(wrong_bits)]);
        let mut meter = Meter::new();
        let report = state.process_response(respond_with(&[boundary]), NOW, &mut meter);
        assert_eq!(report.blocks_accepted, 1, "{:?}", report.rejected);
        // One header validation plus the walks: the retarget span
        // (2,016 headers) and the median-time-past window (11).
        let frames = meter.profile().frames();
        let validate = frames.iter().find(|f| f.path == "header_validate").unwrap();
        assert_eq!(validate.total_units, 4_114_000);
        assert_eq!(
            validate.total_units,
            metering::VALIDATE_HEADER + (interval as u64 + 11) * metering::HEADER_WALK
        );
    }

    #[test]
    fn transaction_validity_is_not_checked() {
        // §III-C: the canister deliberately skips spend validation.
        let mut chain = ChainStore::new(Network::Regtest);
        let bogus_spend = Transaction {
            version: 2,
            inputs: vec![icbtc_bitcoin::TxIn::new(icbtc_bitcoin::OutPoint::new(
                Txid([0xab; 32]),
                7,
            ))],
            outputs: vec![icbtc_bitcoin::TxOut::new(
                icbtc_bitcoin::Amount::from_sat(123),
                Script::new_p2wpkh(&[0xcd; 20]),
            )],
            lock_time: 0,
        };
        let block = mine_block_on(
            &chain,
            chain.tip_hash(),
            vec![bogus_spend],
            Script::new_p2wpkh(&[1; 20]),
            0,
        );
        chain.accept_block(block.clone(), NOW).unwrap();
        let mut state = BitcoinCanisterState::new(params());
        let report = state.process_response(respond_with(&[block]), NOW, &mut Meter::new());
        assert_eq!(report.blocks_accepted, 1);
        assert!(report.rejected.is_empty());
    }

    #[test]
    fn fork_resolution_follows_work_and_prunes_on_stability() {
        let mut chain = ChainStore::new(Network::Regtest);
        let main = mine_chain(&mut chain, 3, 0);
        // A one-block fork off genesis.
        let mut fork_chain = ChainStore::new(Network::Regtest);
        let fork = mine_chain(&mut fork_chain, 1, 100);

        let mut state = BitcoinCanisterState::new(params());
        let mut meter = Meter::new();
        state.process_response(respond_with(&fork), NOW, &mut meter);
        state.process_response(respond_with(&main[..1]), NOW, &mut meter);
        // Two children of the anchor: neither is δ-stable (equal work).
        assert_eq!(state.anchor_height(), 0);
        assert_eq!(state.unstable_block_count(), 2);

        // Extend the main branch until it wins by δ = 2.
        state.process_response(respond_with(&main[1..]), NOW, &mut meter);
        assert!(state.anchor_height() >= 1, "main branch must stabilize");
        // The fork's block was pruned with its branch.
        assert!(state.block(&fork[0].block_hash()).is_none());
        assert!(!state.tree().contains(&fork[0].block_hash()));
    }

    #[test]
    fn make_request_carries_anchor_processed_and_transactions() {
        let mut chain = ChainStore::new(Network::Regtest);
        let blocks = mine_chain(&mut chain, 2, 0);
        let mut state = BitcoinCanisterState::new(params());
        state.process_response(respond_with(&blocks[..1]), NOW, &mut Meter::new());
        let tx = Transaction::default();
        state.queue_transaction(tx.clone());
        assert_eq!(state.outbound_len(), 1);

        let request = state.make_request();
        assert_eq!(request.anchor, state.anchor());
        assert_eq!(request.anchor_height, 0);
        assert_eq!(request.processed, vec![blocks[0].block_hash()]);
        assert_eq!(request.transactions, vec![tx]);
        // Drained.
        assert_eq!(state.outbound_len(), 0);
        assert!(state.make_request().transactions.is_empty());
    }

    #[test]
    fn synced_flag_follows_tau() {
        let mut chain = ChainStore::new(Network::Regtest);
        let blocks = mine_chain(&mut chain, 6, 0);
        let mut state = BitcoinCanisterState::new(params());
        let mut meter = Meter::new();
        assert!(state.is_synced());

        // Learn 6 headers but only 1 block: lag 5 > τ = 2 ⇒ unsynced.
        let response = GetSuccessorsResponse {
            blocks: blocks[..1].to_vec(),
            next: blocks[1..].iter().map(|b| b.header).collect(),
        };
        state.process_response(response, NOW, &mut meter);
        assert!(!state.is_synced());

        // Deliver the remaining blocks: synced again.
        state.process_response(respond_with(&blocks[1..]), NOW, &mut meter);
        assert!(state.is_synced());
    }

    #[test]
    fn header_at_height_spans_stable_and_unstable() {
        let mut chain = ChainStore::new(Network::Regtest);
        let blocks = mine_chain(&mut chain, 5, 0);
        let mut state = BitcoinCanisterState::new(params());
        state.process_response(respond_with(&blocks), NOW, &mut Meter::new());
        assert!(state.anchor_height() >= 3);
        // Every height up to the tip resolves and matches the mined chain.
        for (i, block) in blocks.iter().enumerate() {
            let header = state.header_at_height(i as u64 + 1).unwrap();
            assert_eq!(header.block_hash(), block.block_hash(), "height {}", i + 1);
        }
        assert_eq!(state.header_at_height(99), None);
        let (_, tip_height) = state.best_tip();
        assert_eq!(tip_height, 5);
    }

    #[test]
    fn stabilized_blocks_profile_the_fig6_split() {
        let mut chain = ChainStore::new(Network::Regtest);
        let blocks = mine_chain(&mut chain, 4, 0);
        let mut state = BitcoinCanisterState::new(params());
        let mut meter = Meter::new();
        state.process_response(respond_with(&blocks), NOW, &mut meter);
        // The split is a node-local measurement on the message's meter,
        // nested under the block it was charged for; state carries none.
        let frames = meter.profile().frames();
        let insertion = frames.iter().find(|f| f.path == "ingest_block;output_insertion");
        assert!(insertion.is_some_and(|f| f.total_units > 0), "{frames:?}");
    }

    /// A stabilization that runs the stable set past its byte budget
    /// must stop the canister, not leave a half-applied block behind.
    #[test]
    #[should_panic(expected = "failed ingesting height 1: byte budget exhausted")]
    fn stabilization_past_the_storage_budget_panics() {
        use crate::storage::StorageConfig;
        use icbtc_bitcoin::{OutPoint, TxIn, TxOut};

        let genesis = Network::Regtest.genesis_block().clone();
        let mut utxos = UtxoSet::with_config(
            Network::Regtest,
            StorageConfig { page_size: 512, byte_budget: 2 * 512 },
        );
        utxos
            .try_ingest_block(&genesis.txdata, &txids(&genesis.txdata), 0, &mut Meter::new())
            .expect("genesis fits");
        let mut state = BitcoinCanisterState::new(params());
        state.install_snapshot(utxos, vec![genesis.header]);

        let mut chain = ChainStore::new(Network::Regtest);
        let mut blocks = Vec::new();
        for i in 0..4u8 {
            let fan_out = Transaction {
                version: 2,
                inputs: vec![TxIn::new(OutPoint::new(Txid([i; 32]), 0))],
                outputs: (0..30u8)
                    .map(|n| TxOut::new(Amount::from_sat(100), Script::new_p2wpkh(&[n; 20])))
                    .collect(),
                lock_time: 0,
            };
            let block = mine_block_on(
                &chain,
                chain.tip_hash(),
                vec![fan_out],
                Script::new_op_return(b"b"),
                u64::from(i),
            );
            chain.accept_block(block.clone(), NOW).unwrap();
            blocks.push(block);
        }
        state.process_response(respond_with(&blocks), NOW, &mut Meter::new());
    }

    #[test]
    fn duplicate_blocks_are_idempotent() {
        let mut chain = ChainStore::new(Network::Regtest);
        let blocks = mine_chain(&mut chain, 1, 0);
        let mut state = BitcoinCanisterState::new(params());
        let mut meter = Meter::new();
        let first = state.process_response(respond_with(&blocks), NOW, &mut meter);
        let hash_after_first = state.state_hash();
        let second = state.process_response(respond_with(&blocks), NOW, &mut meter);
        assert_eq!(first.blocks_accepted, 1);
        assert!(!first.duplicate_dropped);
        assert_eq!(second.blocks_accepted, 0);
        assert!(second.duplicate_dropped, "redelivered response must hit the dedup guard");
        assert_eq!(state.unstable_block_count(), 1);
        // The drop is a true no-op on replicated state.
        assert_eq!(state.state_hash(), hash_after_first);
        // A *different* response at the same tip is not a duplicate.
        let header_only =
            GetSuccessorsResponse { blocks: Vec::new(), next: vec![blocks[0].header] };
        let third = state.process_response(header_only, NOW, &mut meter);
        assert!(!third.duplicate_dropped);
    }

    #[test]
    fn duplicate_probe_is_metered() {
        let mut chain = ChainStore::new(Network::Regtest);
        let blocks = mine_chain(&mut chain, 1, 0);
        let mut state = BitcoinCanisterState::new(params());
        let mut meter = Meter::new();
        state.process_response(respond_with(&blocks), NOW, &mut meter);
        meter.take();
        let report = state.process_response(respond_with(&blocks), NOW, &mut meter);
        assert!(report.duplicate_dropped);
        let spent = meter.take();
        assert_eq!(
            spent,
            metering::INGEST_DEDUP_PROBE + metering::INGEST_DEDUP_PER_ITEM,
            "a dropped duplicate still pays for its own dedup probe"
        );
        // Empty responses pay nothing extra: the guard never fires.
        let report = state.process_response(GetSuccessorsResponse::default(), NOW, &mut meter);
        assert!(!report.duplicate_dropped);
        assert_eq!(meter.take(), 0);
    }

    /// Drives a state into a representative mid-flight shape: stable
    /// progress, an unstable tree with a fork, queued transactions, and a
    /// set dedup fingerprint.
    fn populated_state() -> BitcoinCanisterState {
        let mut chain = ChainStore::new(Network::Regtest);
        let main = mine_chain(&mut chain, 6, 0);
        let mut fork_chain = ChainStore::new(Network::Regtest);
        for block in &main[..5] {
            fork_chain.accept_block(block.clone(), NOW).unwrap();
        }
        let fork = mine_chain(&mut fork_chain, 1, 500);
        let mut state = BitcoinCanisterState::new(params());
        let mut meter = Meter::new();
        state.process_response(respond_with(&main), NOW, &mut meter);
        state.process_response(respond_with(&fork), NOW, &mut meter);
        state.queue_transaction(Transaction {
            version: 2,
            inputs: vec![icbtc_bitcoin::TxIn::new(icbtc_bitcoin::OutPoint::new(
                Txid([0x11; 32]),
                0,
            ))],
            outputs: vec![icbtc_bitcoin::TxOut::new(
                icbtc_bitcoin::Amount::from_sat(4_200),
                Script::new_p2wpkh(&[0x22; 20]),
            )],
            lock_time: 0,
        });
        state
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical() {
        let state = populated_state();
        let bytes = state.serialize();
        let restored = BitcoinCanisterState::deserialize(&bytes).unwrap();
        assert_eq!(restored.serialize(), bytes);
        assert_eq!(restored.state_hash(), state.state_hash());
        // Everything observable survives.
        assert_eq!(restored.anchor_height(), state.anchor_height());
        assert_eq!(restored.best_tip(), state.best_tip());
        assert_eq!(restored.unstable_block_count(), state.unstable_block_count());
        assert_eq!(restored.outbound_len(), state.outbound_len());
        assert_eq!(restored.is_synced(), state.is_synced());
        assert_eq!(restored.blocks_stabilized(), state.blocks_stabilized());
        assert_eq!(restored.last_response_fingerprint, state.last_response_fingerprint);
    }

    #[test]
    fn sized_len_is_the_serialized_length() {
        let state = populated_state();
        assert!(!state.blocks.is_empty() && !state.outbound.is_empty());
        assert_eq!(state.sized_len(), state.serialize().len());
        let fresh = BitcoinCanisterState::new(params());
        assert_eq!(fresh.sized_len(), fresh.serialize().len());
    }

    #[test]
    fn state_hash_is_sha256d_of_sections_with_their_digests() {
        // The serialized sections with `len ‖ utxo snapshot` replaced by
        // the UTXO set's own hash, the stable headers by their count and
        // SHA-256d, and each `len ‖ body` by the body's SHA-256d.
        use icbtc_bitcoin::hash::sha256d;
        let state = populated_state();
        assert!(state.anchor_height() > 0 && state.unstable_block_count() > 1);
        let bytes = state.serialize();
        let mut r = Reader::new(&bytes);
        let mut sections = r.take(8 + 2 + 1 + 7 * 8).unwrap().to_vec();
        let utxo_bytes = take_sized(&mut r).unwrap();
        assert_eq!(utxo_bytes, state.utxos().serialize());
        assert_eq!(state.utxos().state_hash(), sha256d(utxo_bytes));
        sections.extend_from_slice(&sha256d(utxo_bytes));
        let count = r.take(8).unwrap();
        sections.extend_from_slice(count);
        let stable_len = 80 * u64::from_be_bytes(count.try_into().unwrap()) as usize;
        sections.extend_from_slice(&sha256d(r.take(stable_len).unwrap()));
        let count = r.take(8).unwrap();
        sections.extend_from_slice(count);
        let unstable_len = 80 * u64::from_be_bytes(count.try_into().unwrap()) as usize;
        sections.extend_from_slice(r.take(unstable_len).unwrap());
        let count = r.take(8).unwrap();
        sections.extend_from_slice(count);
        for _ in 0..u64::from_be_bytes(count.try_into().unwrap()) {
            sections.extend_from_slice(&sha256d(take_sized(&mut r).unwrap()));
        }
        sections.extend_from_slice(r.take(r.remaining()).unwrap());
        assert_eq!(state.state_hash(), sha256d(&sections));
    }

    /// A state of `stable` installed stable headers (installed history
    /// needs no proof of work) with two mined unstable blocks above them,
    /// whose bodies have the same length at every `stable`.
    fn long_chain_state(stable: u64) -> BitcoinCanisterState {
        use icbtc_bitcoin::builder::coinbase_transaction;
        use icbtc_bitcoin::merkle_root;

        let genesis = Network::Regtest.genesis_block().clone();
        let mut utxos = UtxoSet::new(Network::Regtest);
        let mut meter = Meter::new();
        utxos.try_ingest_block(&genesis.txdata, &txids(&genesis.txdata), 0, &mut meter).unwrap();
        let mut headers = vec![genesis.header];
        for height in 1..stable {
            utxos.try_ingest_block(&[], &[], height, &mut meter).unwrap();
            let prev = headers[headers.len() - 1];
            let time = prev.time + 600;
            headers.push(BlockHeader { prev_blockhash: prev.block_hash(), time, ..prev });
        }
        let mut state = BitcoinCanisterState::new(params().with_stability_delta(6));
        state.install_snapshot(utxos, headers);
        let (mut prev, mut blocks) = (state.anchor(), Vec::new());
        for i in 0..2 {
            let payout = Script::new_p2wpkh(&[i as u8; 20]);
            let txdata = vec![coinbase_transaction(stable + i, Amount::from_btc_int(1), payout, 0)];
            let merkle_root = merkle_root(&txids(&txdata));
            let mut header = BlockHeader {
                prev_blockhash: prev.block_hash(),
                merkle_root,
                time: prev.time + 600,
                nonce: 0,
                ..genesis.header
            };
            while !header.meets_pow_target() {
                header.nonce += 1;
            }
            blocks.push(Block { header, txdata });
            prev = header;
        }
        let report = state.process_response(respond_with(&blocks), prev.time + 60, &mut meter);
        assert_eq!(report.blocks_accepted, 2, "{:?}", report.rejected);
        state
    }

    #[test]
    fn state_hash_work_does_not_grow_with_the_chain() {
        // Bytes fed to SHA-256 by a first and a second state hash call.
        let per_call = |stable| {
            let state = long_chain_state(stable);
            assert_eq!(state.anchor_height(), stable - 1);
            // Both sizes hold an empty UTXO set; fill its memo here so the
            // two calls differ only in the bodies.
            state.utxos().state_hash();
            hashed_bytes::take();
            let first = (state.state_hash(), hashed_bytes::take());
            let second = (state.state_hash(), hashed_bytes::take());
            assert_eq!(first.0, second.0);
            let bodies: usize = state.blocks.values().map(|body| body.block.encoded_len()).sum();
            assert_eq!(first.1 - second.1, bodies as u64, "the second call hashes no body");
            // The digest `install_snapshot` built is the one a restore
            // rebuilds.
            let restored = BitcoinCanisterState::deserialize(&state.serialize()).unwrap();
            assert_eq!(restored.state_hash(), first.0);
            (first.1, second.1)
        };
        assert_eq!(per_call(10_000), per_call(100_000));
    }

    #[test]
    #[should_panic(expected = "the stability delta must be at least 1")]
    fn new_rejects_a_zero_stability_delta() {
        BitcoinCanisterState::new(params().with_stability_delta(0));
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        // A restored state must process future responses exactly like the
        // original — including the dedup guard carried across.
        let mut chain = ChainStore::new(Network::Regtest);
        let blocks = mine_chain(&mut chain, 8, 0);
        let mut original = BitcoinCanisterState::new(params());
        let mut meter = Meter::new();
        original.process_response(respond_with(&blocks[..5]), NOW, &mut meter);
        let mut restored = BitcoinCanisterState::deserialize(&original.serialize()).unwrap();
        // The redelivered last response is a duplicate for both.
        let a = original.process_response(respond_with(&blocks[..5]), NOW, &mut meter);
        let b = restored.process_response(respond_with(&blocks[..5]), NOW, &mut meter);
        assert!(a.duplicate_dropped && b.duplicate_dropped);
        // Fresh blocks apply identically.
        original.process_response(respond_with(&blocks[5..]), NOW, &mut meter);
        restored.process_response(respond_with(&blocks[5..]), NOW, &mut meter);
        assert_eq!(original.state_hash(), restored.state_hash());
    }

    /// Two one-block branches off genesis with equal work.
    fn equal_work_fork() -> (Block, Block) {
        let a = mine_chain(&mut ChainStore::new(Network::Regtest), 1, 0).remove(0);
        let b = mine_chain(&mut ChainStore::new(Network::Regtest), 1, 100).remove(0);
        assert_eq!(a.header.work(), b.header.work());
        (a, b)
    }

    #[test]
    fn equal_work_fork_tip_is_the_first_seen_in_chain_store_and_canister() {
        let (a, b) = equal_work_fork();
        for (first, second) in [(&a, &b), (&b, &a)] {
            let mut chain = ChainStore::new(Network::Regtest);
            let mut state = BitcoinCanisterState::new(params());
            for block in [first, second] {
                chain.accept_block(block.clone(), NOW).unwrap();
                let response = respond_with(std::slice::from_ref(block));
                state.process_response(response, NOW, &mut Meter::new());
            }
            assert_eq!(chain.tip_hash(), first.block_hash());
            assert_eq!(state.best_tip(), (first.block_hash(), 1));
        }
    }

    #[test]
    fn restore_keeps_the_first_seen_tip_of_an_equal_work_fork() {
        let (a, b) = equal_work_fork();
        for order in [[&a, &b], [&b, &a]] {
            let mut state = BitcoinCanisterState::new(params());
            let blocks: Vec<Block> = order.into_iter().cloned().collect();
            state.process_response(respond_with(&blocks), NOW, &mut Meter::new());
            let restored = BitcoinCanisterState::deserialize(&state.serialize()).unwrap();
            assert_eq!(state.best_tip().0, order[0].block_hash());
            assert_eq!(restored.best_tip(), state.best_tip());
        }
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let state = populated_state();
        let good = state.serialize();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(BitcoinCanisterState::deserialize(&bad_magic).is_err());

        let mut bad_version = good.clone();
        bad_version[9] = 0xff;
        assert!(BitcoinCanisterState::deserialize(&bad_version).is_err());

        let mut truncated = good.clone();
        truncated.pop();
        assert!(BitcoinCanisterState::deserialize(&truncated).is_err());

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(BitcoinCanisterState::deserialize(&trailing).is_err());

        assert!(BitcoinCanisterState::deserialize(&[]).is_err());
    }

    #[test]
    fn restore_rejects_an_unstable_body_whose_transaction_changed() {
        // One output-value byte of the tip's coinbase, changed in place:
        // the header and every length stay as they were, so only the
        // Merkle check can tell.
        let state = populated_state();
        let good = state.serialize();
        let body = state.block(&state.best_tip().0).expect("the tip body is held").block();
        let mut tampered = body.clone();
        let output = &mut tampered.txdata[0].outputs[0];
        output.value = Amount::from_sat(output.value.to_sat() ^ 1);
        let (original, changed) = (body.encode_to_vec(), tampered.encode_to_vec());
        assert_eq!(original.len(), changed.len());
        assert_eq!(original.iter().zip(&changed).filter(|(a, b)| a != b).count(), 1);
        let at = good.windows(original.len()).position(|w| w == original).unwrap();
        let mut bad = good.clone();
        bad[at..at + changed.len()].copy_from_slice(&changed);
        assert_eq!(
            BitcoinCanisterState::deserialize(&bad).err(),
            Some(StorageError::Corrupt("malformed unstable block"))
        );
    }

    #[test]
    fn restore_rejects_a_zero_stability_delta() {
        // δ follows the 8-byte magic, the 2-byte version and the network
        // tag. Restored as zero, the next accepted block would panic.
        let state = populated_state();
        let mut bytes = state.serialize();
        let delta = 8 + 2 + 1..8 + 2 + 1 + 8;
        assert_eq!(bytes[delta.clone()], state.params().stability_delta.to_be_bytes());
        bytes[delta].fill(0);
        assert_eq!(
            BitcoinCanisterState::deserialize(&bytes).err(),
            Some(StorageError::Corrupt("zero stability delta"))
        );
    }

    #[test]
    fn v1_envelopes_are_rejected_by_version() {
        // Rebuild the v1 layout of the same state: version 1, and the
        // per-label ingestion totals v1 carried after the synced flag.
        let state = populated_state();
        let v2 = state.serialize();
        let tail = 8 + if state.last_response_fingerprint.is_some() { 65 } else { 1 };
        let mut v1 = v2[..v2.len() - tail].to_vec();
        v1[8..10].copy_from_slice(&1u16.to_be_bytes());
        v1.extend_from_slice(&2u64.to_be_bytes());
        for (label, value) in [("output_insertion", 1_000u64), ("input_removal", 900)] {
            v1.extend_from_slice(&(label.len() as u16).to_be_bytes());
            v1.extend_from_slice(label.as_bytes());
            v1.extend_from_slice(&value.to_be_bytes());
        }
        v1.extend_from_slice(&v2[v2.len() - tail..]);
        assert_eq!(
            BitcoinCanisterState::deserialize(&v1).err(),
            Some(StorageError::Corrupt("unsupported state snapshot version"))
        );
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;

        /// Restores decode bytes from stable memory or a peer's
        /// checkpoint: every truncation is an error, and a flipped byte is
        /// either an error or decodes to a state that re-serializes to
        /// exactly those bytes. Neither ever panics.
        #[test]
        fn damaged_envelopes_are_typed_errors_never_panics() {
            let good = populated_state().serialize();
            testkit::check(0x57A7_0002, testkit::DEFAULT_CASES, |rng| {
                let cut = testkit::u64_in(rng, 0..good.len() as u64) as usize;
                assert!(BitcoinCanisterState::deserialize(&good[..cut]).is_err(), "cut {cut}");

                let mut flipped = good.clone();
                let at = testkit::u64_in(rng, 0..good.len() as u64) as usize;
                flipped[at] ^= testkit::u64_in(rng, 1..256) as u8;
                if let Ok(state) = BitcoinCanisterState::deserialize(&flipped) {
                    assert_eq!(state.serialize(), flipped, "flip at {at} decoded non-canonically");
                }
            });
        }
    }
}
