//! The Bitcoin canister's public API (§III-C).
//!
//! The two core endpoints are `get_utxos` (read) and `send_transaction`
//! (write), plus the `get_balance` convenience and fee percentiles. Reads
//! combine the stable UTXO set with the unstable blocks along the current
//! best chain; an optional *minimum confirmations* filter restricts the
//! view to confirmation-based c-stable blocks, and responses above the
//! page size carry an opaque continuation token.

use icbtc_bitcoin::encode::{Decodable, DecodeError, Encodable, Reader, Sink};
use icbtc_bitcoin::{Address, Amount, BlockHash, OutPoint, Transaction, Txid};
use icbtc_core::stability;
use icbtc_ic::Meter;

use crate::metering;
use crate::state::{BitcoinCanisterState, UnstableBlock};
use crate::utxoset::Utxo;

/// Maximum UTXOs returned per `get_utxos` page — the production
/// canister's response cap. The largest first page therefore costs
/// ≈ `QUERY_BASE + 10_000 · STABLE_UTXO_FETCH` ≈ 4.5·10⁸ instructions,
/// which is what puts Figure 7's 4.76·10⁸ maximum in reach even though
/// each page is now metered O(page size), not O(address size).
pub const MAX_UTXOS_PER_PAGE: usize = 10_000;

/// Optional filter on `get_utxos`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UtxosFilter {
    /// Only consider confirmation-based c-stable blocks.
    MinConfirmations(u32),
    /// Continue a paginated response.
    Page(Vec<u8>),
}

/// Response of `get_utxos`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetUtxosResponse {
    /// The page of UTXOs, sorted by height descending.
    pub utxos: Vec<Utxo>,
    /// Hash of the tip of the considered chain.
    pub tip_block_hash: BlockHash,
    /// Height of that tip.
    pub tip_height: u64,
    /// Continuation token if more UTXOs remain.
    pub next_page: Option<Vec<u8>>,
}

/// Response of `get_balance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetBalanceResponse {
    /// Total value of the address's UTXOs in the considered view.
    pub balance: Amount,
    /// Height of the considered tip.
    pub tip_height: u64,
}

/// Response of `get_block_headers`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetBlockHeadersResponse {
    /// The requested canonical headers, lowest height first.
    pub headers: Vec<icbtc_bitcoin::BlockHeader>,
    /// The current best-chain tip height.
    pub tip_height: u64,
}

/// Response of `get_metrics` — the observability endpoint, mirroring the
/// counters the production canister publishes over its `/metrics` HTTP
/// query (block height, UTXO count, instruction and cycle totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetMetricsResponse {
    /// Height of the current best (main chain) tip.
    pub main_chain_height: u64,
    /// Height of the stable anchor `β*`.
    pub anchor_height: u64,
    /// Entries in the stable UTXO set.
    pub utxo_count: u64,
    /// Unstable block bodies currently held.
    pub unstable_blocks: u64,
    /// Blocks ever folded into the stable set (including genesis).
    pub blocks_ingested: u64,
    /// Whether the canister is within τ of the known headers.
    pub is_synced: bool,
    /// Instructions metered across all replicated calls and ingestion.
    pub instructions_total: u64,
    /// Cycles burned by replicated calls per the fee schedule.
    pub cycles_burned: u128,
}

/// Errors returned by the canister API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// The canister is more than τ behind the known headers (§III-C) and
    /// refuses to serve potentially stale state.
    NotSynced,
    /// `min_confirmations` exceeded δ; beyond that the stable UTXO set
    /// cannot answer correctly (§III-C).
    MinConfirmationsTooLarge {
        /// What the caller asked for.
        requested: u32,
        /// The δ bound.
        maximum: u32,
    },
    /// The pagination token was malformed or stale.
    MalformedPage,
    /// The submitted bytes are not a syntactically valid transaction.
    MalformedTransaction,
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::NotSynced => write!(f, "bitcoin canister is not fully synced"),
            ApiError::MinConfirmationsTooLarge { requested, maximum } => {
                write!(f, "min_confirmations {requested} exceeds the maximum {maximum}")
            }
            ApiError::MalformedPage => write!(f, "malformed pagination token"),
            ApiError::MalformedTransaction => write!(f, "malformed transaction bytes"),
        }
    }
}

impl std::error::Error for ApiError {}

/// Token format version; bumped when the layout below changes so stale
/// tokens from older deployments decode to [`ApiError::MalformedPage`].
const PAGE_TOKEN_VERSION: u8 = 2;

/// A decoded pagination token: the filter's confirmation requirement,
/// the tip the previous page was computed at, and the address-index key
/// of the last UTXO returned. The next page resumes *strictly after*
/// that key via a B-tree range scan — no offset, no re-materialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PageToken {
    min_confirmations: u32,
    tip: BlockHash,
    height: u64,
    outpoint: OutPoint,
}

/// Wire layout: version ‖ min_confirmations ‖ tip hash ‖ cursor height ‖
/// cursor outpoint, little-endian as the Bitcoin codec writes them.
impl Encodable for PageToken {
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
        PAGE_TOKEN_VERSION.encode(out);
        self.min_confirmations.encode(out);
        self.tip.0.encode(out);
        self.height.encode(out);
        self.outpoint.encode(out);
    }
}

impl Decodable for PageToken {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        if u8::decode(r)? != PAGE_TOKEN_VERSION {
            return Err(DecodeError::InvalidValue("page token version"));
        }
        Ok(PageToken {
            min_confirmations: u32::decode(r)?,
            tip: BlockHash(<[u8; 32]>::decode(r)?),
            height: u64::decode(r)?,
            outpoint: OutPoint::decode(r)?,
        })
    }
}

/// Charges the flat per-query base cost, attributed to its two profiler
/// frames: call dispatch and response-envelope serialization. The two
/// parts sum to [`metering::QUERY_BASE`].
fn charge_query_base(meter: &mut Meter) {
    let dispatch = meter.frame("query_dispatch");
    meter.charge(metering::QUERY_DISPATCH);
    meter.frame_end(dispatch);
    let serialize = meter.frame("response_serialize");
    meter.charge(metering::RESPONSE_SERIALIZE_BASE);
    meter.frame_end(serialize);
}

/// Returns `true` if `utxo` sorts strictly after the `(height,
/// outpoint)` cursor in pagination order (height descending, then
/// outpoint ascending).
fn after_cursor(utxo: &Utxo, cursor: Option<(u64, OutPoint)>) -> bool {
    match cursor {
        None => true,
        Some((height, outpoint)) => {
            utxo.height < height || (utxo.height == height && utxo.outpoint > outpoint)
        }
    }
}

/// The unstable-region view for one address under a confirmation
/// requirement: the UTXOs the considered unstable blocks *create* for
/// the address (net of in-region spends, in pagination order) plus what
/// answers whether those blocks *spend* an outpoint (stable entries must
/// be masked by it).
///
/// Its size, and the cost of building it, is bounded by the δ unstable
/// blocks, independent of how many stable UTXOs the address owns.
struct UnstableOverlay<S> {
    created: Vec<Utxo>,
    spent: S,
    tip_hash: BlockHash,
    tip_height: u64,
}

/// Whether the considered unstable blocks spend an outpoint.
trait Spent {
    fn contains(&self, outpoint: &OutPoint) -> bool;
}

/// The considered blocks themselves: each answers from its own index.
impl Spent for Vec<&UnstableBlock> {
    fn contains(&self, outpoint: &OutPoint) -> bool {
        self.iter().any(|block| block.spends(outpoint))
    }
}

impl BitcoinCanisterState {
    /// Builds the [`UnstableOverlay`] of `address` by walking the best
    /// chain above the anchor, stopping at the first block that misses
    /// the confirmation requirement (or whose body is absent). Each block
    /// binary-searches its own index of outputs by script and spends by
    /// outpoint, so nothing here hashes, copies an input or compares every
    /// output: host work is O(c·log n + matches) for c blocks of n outputs,
    /// what the model charges.
    fn unstable_overlay(
        &self,
        address: &Address,
        min_confirmations: u32,
        meter: &mut Meter,
    ) -> Result<UnstableOverlay<Vec<&UnstableBlock>>, ApiError> {
        let delta = self.params().stability_delta;
        if min_confirmations as u64 > delta {
            return Err(ApiError::MinConfirmationsTooLarge {
                requested: min_confirmations,
                maximum: delta as u32,
            });
        }

        let script = address.script_pubkey();
        let tree = self.tree();
        let considered = match min_confirmations {
            0 => usize::MAX,
            c => stability::confirmation_stable_prefix(tree, u64::from(c)),
        };
        let mut overlay = UnstableOverlay {
            created: Vec::new(),
            spent: Vec::new(),
            tip_hash: tree.root(),
            tip_height: self.anchor_height(),
        };
        for (i, hash) in tree.best_chain().iter().enumerate().skip(1).take(considered) {
            let Some(body) = self.block(hash) else { break };
            meter.charge(metering::UNSTABLE_BLOCK_SCAN);
            let height = self.anchor_height() + i as u64;
            for (outpoint, output) in body.outputs_paying(&script) {
                meter.charge(metering::UNSTABLE_UTXO_FETCH);
                overlay.created.push(Utxo { outpoint, value: output.value, height });
            }
            overlay.spent.push(body);
            overlay.tip_hash = *hash;
            overlay.tip_height = height;
        }
        // Outputs both created and spent within the region never surface.
        let spent = &overlay.spent;
        overlay.created.retain(|u| !spent.contains(&u.outpoint));
        // Pagination order. All created entries sit above the anchor, so
        // they precede every stable entry.
        overlay.created.sort_by(|a, b| b.height.cmp(&a.height).then(a.outpoint.cmp(&b.outpoint)));
        Ok(overlay)
    }

    /// `get_utxos` with an explicit page size: the O(page) core that
    /// [`BitcoinCanisterState::get_utxos`] calls with
    /// [`MAX_UTXOS_PER_PAGE`]. Exposed so tests (and embedders) can walk
    /// arbitrary page sizes through the same code path.
    ///
    /// The page is assembled by chaining the (δ-bounded) unstable overlay
    /// with a stable-index range scan that starts *strictly after* the
    /// token's cursor, masking stable entries spent in the unstable
    /// region. Stable entries are charged per entry *yielded*, so a page
    /// costs O(page size + δ) regardless of the address's total UTXO
    /// count.
    ///
    /// # Errors
    ///
    /// As for [`BitcoinCanisterState::get_utxos`]. A token this canister
    /// cannot have issued (undecodable, or carrying a `min_confirmations`
    /// above δ) is [`ApiError::MalformedPage`]. A token whose tip no
    /// longer matches the considered tip is *stale*: the view it was
    /// paging over has shifted, and resuming would silently skip or
    /// duplicate entries — [`ApiError::MalformedPage`] is returned
    /// instead, and the caller restarts from the first page.
    pub fn get_utxos_paged(
        &self,
        address: &Address,
        filter: Option<UtxosFilter>,
        page_size: usize,
        meter: &mut Meter,
    ) -> Result<GetUtxosResponse, ApiError> {
        let overlay = |c, meter: &mut Meter| self.unstable_overlay(address, c, meter);
        self.utxos_page(address, filter, page_size, meter, overlay)
    }

    /// [`BitcoinCanisterState::get_utxos_paged`] over the overlay that
    /// `overlay` builds for a confirmation requirement.
    fn utxos_page<S: Spent>(
        &self,
        address: &Address,
        filter: Option<UtxosFilter>,
        page_size: usize,
        meter: &mut Meter,
        overlay: impl FnOnce(u32, &mut Meter) -> Result<UnstableOverlay<S>, ApiError>,
    ) -> Result<GetUtxosResponse, ApiError> {
        charge_query_base(meter);
        if !self.is_synced() {
            return Err(ApiError::NotSynced);
        }
        let page_size = page_size.max(1);
        let (min_confirmations, token) = match &filter {
            None => (0, None),
            Some(UtxosFilter::MinConfirmations(c)) => (*c, None),
            Some(UtxosFilter::Page(bytes)) => {
                // A token carrying c > δ was never issued here: report the
                // token, not a confirmation bound the caller never asked for.
                let token = PageToken::decode_exact(bytes)
                    .ok()
                    .filter(|t| u64::from(t.min_confirmations) <= self.params().stability_delta)
                    .ok_or(ApiError::MalformedPage)?;
                (token.min_confirmations, Some(token))
            }
        };
        let overlay_frame = meter.frame("unstable_overlay");
        let overlay = overlay(min_confirmations, meter)?;
        meter.frame_end(overlay_frame);
        let cursor = match token {
            Some(token) => {
                if token.tip != overlay.tip_hash {
                    return Err(ApiError::MalformedPage);
                }
                Some((token.height, token.outpoint))
            }
            None => None,
        };

        let scan = meter.frame("range_scan");
        let created = overlay.created.iter().filter(|u| after_cursor(u, cursor)).cloned();
        let stable = self
            .utxos()
            .utxos_after(address, cursor)
            .filter(|u| !overlay.spent.contains(&u.outpoint));
        let mut page = Vec::new();
        let mut more = false;
        for utxo in created.chain(stable) {
            if page.len() == page_size {
                more = true;
                break;
            }
            if utxo.height <= self.anchor_height() {
                meter.charge(metering::STABLE_UTXO_FETCH);
            }
            page.push(utxo);
        }
        meter.frame_end(scan);
        let next_page = match (more, page.last()) {
            (true, Some(last)) => Some(
                PageToken {
                    min_confirmations,
                    tip: overlay.tip_hash,
                    height: last.height,
                    outpoint: last.outpoint,
                }
                .encode_to_vec(),
            ),
            _ => None,
        };
        Ok(GetUtxosResponse {
            utxos: page,
            tip_block_hash: overlay.tip_hash,
            tip_height: overlay.tip_height,
            next_page,
        })
    }

    /// `get_utxos`: the UTXOs of `address`, optionally filtered by
    /// minimum confirmations or continued from a pagination token.
    ///
    /// # Errors
    ///
    /// [`ApiError::NotSynced`] while the canister lags more than τ;
    /// [`ApiError::MinConfirmationsTooLarge`] for `c > δ`;
    /// [`ApiError::MalformedPage`] for bad or stale tokens.
    pub fn get_utxos(
        &self,
        address: &Address,
        filter: Option<UtxosFilter>,
        meter: &mut Meter,
    ) -> Result<GetUtxosResponse, ApiError> {
        self.get_utxos_paged(address, filter, MAX_UTXOS_PER_PAGE, meter)
    }

    /// `get_balance`: the address's balance under an optional minimum
    /// confirmation requirement. Summed directly over the address index
    /// (per-entry [`metering::STABLE_BALANCE_ENTRY`] charge, no `TxOut`
    /// clones) plus the δ-bounded unstable overlay.
    ///
    /// # Errors
    ///
    /// As for [`BitcoinCanisterState::get_utxos`].
    pub fn get_balance(
        &self,
        address: &Address,
        min_confirmations: u32,
        meter: &mut Meter,
    ) -> Result<GetBalanceResponse, ApiError> {
        let overlay = |meter: &mut Meter| self.unstable_overlay(address, min_confirmations, meter);
        self.balance(address, meter, overlay)
    }

    /// [`BitcoinCanisterState::get_balance`] over the overlay that
    /// `overlay` builds.
    fn balance<S: Spent>(
        &self,
        address: &Address,
        meter: &mut Meter,
        overlay: impl FnOnce(&mut Meter) -> Result<UnstableOverlay<S>, ApiError>,
    ) -> Result<GetBalanceResponse, ApiError> {
        charge_query_base(meter);
        if !self.is_synced() {
            return Err(ApiError::NotSynced);
        }
        let overlay_frame = meter.frame("unstable_overlay");
        let overlay = overlay(meter)?;
        meter.frame_end(overlay_frame);
        // Saturating accumulation: the canister does not validate
        // issuance (§III-C), so a hostile chain of max-value outputs
        // must clamp at MAX_MONEY, not panic the query.
        let scan = meter.frame("range_scan");
        let stable = self
            .utxos()
            .utxos_after(address, None)
            .filter(|u| !overlay.spent.contains(&u.outpoint))
            .fold(Amount::ZERO, |total, u| {
                meter.charge(metering::STABLE_BALANCE_ENTRY);
                total.saturating_add(u.value)
            });
        meter.frame_end(scan);
        let unstable =
            overlay.created.iter().fold(Amount::ZERO, |total, u| total.saturating_add(u.value));
        Ok(GetBalanceResponse {
            balance: stable.saturating_add(unstable),
            tip_height: overlay.tip_height,
        })
    }

    /// `send_transaction`: checks that `bytes` encode a syntactically
    /// valid transaction and queues it for the adapter (§III-C —
    /// semantic validity is the Bitcoin network's job).
    ///
    /// # Errors
    ///
    /// [`ApiError::MalformedTransaction`] if the bytes do not parse or
    /// the transaction has no inputs or outputs.
    pub fn send_transaction(&mut self, bytes: &[u8], meter: &mut Meter) -> Result<Txid, ApiError> {
        meter.charge(metering::SEND_TX_BASE);
        meter.charge_per_byte(bytes.len(), metering::SEND_TX_PER_BYTE);
        let tx = Transaction::decode_exact(bytes).map_err(|_| ApiError::MalformedTransaction)?;
        if tx.inputs.is_empty() || tx.outputs.is_empty() {
            return Err(ApiError::MalformedTransaction);
        }
        Ok(self.queue_transaction(tx))
    }

    /// `get_block_headers`: the canonical block headers in the inclusive
    /// height range, spanning the stable chain and the best unstable
    /// chain — the endpoint other canisters use to verify Bitcoin SPV
    /// proofs themselves.
    ///
    /// # Errors
    ///
    /// [`ApiError::NotSynced`] while lagging;
    /// [`ApiError::MalformedPage`] if the range is inverted or starts
    /// beyond the tip (reusing the malformed-argument error).
    pub fn get_block_headers(
        &self,
        start_height: u64,
        end_height: u64,
        meter: &mut Meter,
    ) -> Result<GetBlockHeadersResponse, ApiError> {
        charge_query_base(meter);
        if !self.is_synced() {
            return Err(ApiError::NotSynced);
        }
        let (_, tip_height) = self.best_tip();
        if start_height > end_height || start_height > tip_height {
            return Err(ApiError::MalformedPage);
        }
        let end_height = end_height.min(tip_height);
        let mut headers = Vec::with_capacity((end_height - start_height + 1) as usize);
        for height in start_height..=end_height {
            meter.charge(metering::VALIDATE_HEADER);
            // The range is clamped to the tip, so a miss can only mean an
            // internal inconsistency — answer with an error rather than
            // trapping the canister mid-query.
            let Some(header) = self.header_at_height(height) else {
                return Err(ApiError::MalformedPage);
            };
            headers.push(header);
        }
        Ok(GetBlockHeadersResponse { headers, tip_height })
    }

    /// `get_current_fee_percentiles`: fee rates (millisatoshi per vbyte)
    /// at percentiles 1..=100 over the transactions of recent unstable
    /// blocks whose inputs the canister can resolve. Returns an empty
    /// vector when no fees are observable.
    pub fn get_current_fee_percentiles(&self, meter: &mut Meter) -> Vec<u64> {
        charge_query_base(meter);
        let tree = self.tree();
        let best = tree.best_chain();
        let mut rates: Vec<u64> = Vec::new();
        for hash in best.iter().skip(1).rev().take(6) {
            let Some(body) = self.block(hash) else { continue };
            meter.charge(metering::UNSTABLE_BLOCK_SCAN);
            for tx in body.block().txdata.iter().filter(|t| !t.is_coinbase()) {
                if let Some(fee) = self.resolve_fee(tx, meter) {
                    let vsize = tx.vsize().max(1) as u64;
                    rates.push(fee.to_sat() * 1000 / vsize);
                }
            }
        }
        if rates.is_empty() {
            return Vec::new();
        }
        rates.sort_unstable();
        (1..=100u64)
            .map(|p| rates[((p as usize * rates.len()).div_ceil(100) - 1).min(rates.len() - 1)])
            .collect()
    }

    /// Sums a transaction's input values if every input is resolvable
    /// against the stable set or an unstable block, returning the fee.
    /// `None` also when the input or output values sum past MAX_MONEY:
    /// the canister checks no values (§III-C), so a valid-PoW block may
    /// carry such a transaction.
    fn resolve_fee(&self, tx: &Transaction, meter: &mut Meter) -> Option<Amount> {
        let mut input_total = Amount::ZERO;
        for input in &tx.inputs {
            let op = input.previous_output;
            meter.charge(metering::STABLE_UTXO_FETCH);
            let value = if let Some(utxo) = self.utxos().get(&op) {
                utxo.value
            } else {
                self.lookup_unstable_output(&op, meter)?
            };
            input_total = input_total.checked_add(value)?;
        }
        input_total.checked_sub(tx.output_value()?)
    }

    fn lookup_unstable_output(&self, outpoint: &OutPoint, meter: &mut Meter) -> Option<Amount> {
        for hash in self.tree().best_chain().iter().skip(1) {
            let body = self.block(hash)?;
            meter.charge(metering::UNSTABLE_BLOCK_SCAN);
            for (tx, txid) in body.transactions() {
                meter.charge(metering::UNSTABLE_UTXO_FETCH);
                if txid == outpoint.txid {
                    return tx.outputs.get(outpoint.vout as usize).map(|o| o.value);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{comparisons, BitcoinCanisterState};
    use crate::BitcoinCanister;
    use icbtc_bitcoin::encode::Encodable;
    use icbtc_bitcoin::{AddressKind, Network, Script, TxIn, TxOut};
    use icbtc_btcnet::miner::mine_block_on;
    use icbtc_btcnet::ChainStore;
    use icbtc_core::{GetSuccessorsResponse, IntegrationParams};
    use icbtc_sim::{testkit, SimRng};
    use std::collections::BTreeSet;

    const NOW: u32 = 2_000_000_000;

    fn addr(n: u8) -> Address {
        Address::new(Network::Regtest, AddressKind::P2wpkh([n; 20]))
    }

    fn params(delta: u64) -> IntegrationParams {
        IntegrationParams::for_network(Network::Regtest).with_stability_delta(delta)
    }

    /// Builds a state fed with `n` blocks whose coinbases pay `addr(7)`.
    fn state_with_chain(n: usize, delta: u64) -> (BitcoinCanisterState, ChainStore) {
        let mut chain = ChainStore::new(Network::Regtest);
        let mut blocks = Vec::new();
        for i in 0..n {
            let block = mine_block_on(
                &chain,
                chain.tip_hash(),
                Vec::new(),
                addr(7).script_pubkey(),
                i as u64,
            );
            chain.accept_block(block.clone(), NOW).unwrap();
            blocks.push(block);
        }
        let mut state = BitcoinCanisterState::new(params(delta));
        state.process_response(
            GetSuccessorsResponse { blocks, next: Vec::new() },
            NOW,
            &mut Meter::new(),
        );
        (state, chain)
    }

    #[test]
    fn balance_counts_stable_and_unstable_coinbases() {
        let (state, _) = state_with_chain(8, 3);
        let subsidy = Network::Regtest.params().block_subsidy;
        let mut meter = Meter::new();
        let response = state.get_balance(&addr(7), 0, &mut meter).unwrap();
        assert_eq!(response.balance.to_sat(), subsidy.to_sat() * 8);
        assert_eq!(response.tip_height, 8);
        assert!(meter.instructions() >= metering::QUERY_BASE);
    }

    #[test]
    fn min_confirmations_restricts_view() {
        let (state, _) = state_with_chain(8, 3);
        let subsidy = Network::Regtest.params().block_subsidy.to_sat();
        // The tip has 1 confirmation; asking for 2 drops it.
        let b1 = state.get_balance(&addr(7), 1, &mut Meter::new()).unwrap();
        let b2 = state.get_balance(&addr(7), 2, &mut Meter::new()).unwrap();
        assert_eq!(b1.balance.to_sat(), subsidy * 8);
        assert_eq!(b2.balance.to_sat(), subsidy * 7);
        assert_eq!(b2.tip_height, 7);
        // c > δ is rejected.
        assert_eq!(
            state.get_balance(&addr(7), 4, &mut Meter::new()),
            Err(ApiError::MinConfirmationsTooLarge { requested: 4, maximum: 3 })
        );
    }

    #[test]
    fn get_utxos_orders_by_height_descending() {
        let (state, _) = state_with_chain(6, 2);
        let response = state.get_utxos(&addr(7), None, &mut Meter::new()).unwrap();
        assert_eq!(response.utxos.len(), 6);
        let heights: Vec<u64> = response.utxos.iter().map(|u| u.height).collect();
        assert_eq!(heights, vec![6, 5, 4, 3, 2, 1]);
        assert!(response.next_page.is_none());
        assert_eq!(response.tip_height, 6);
    }

    #[test]
    fn unstable_spend_removes_stable_utxo() {
        // Build: blocks 1..=5 pay addr(7); block 6 spends block 1's
        // coinbase to addr(9). With δ=10 everything stays unstable… use
        // δ=2 so some are stable, exercising the cross-region removal.
        let mut chain = ChainStore::new(Network::Regtest);
        let mut blocks = Vec::new();
        for i in 0..5 {
            let block =
                mine_block_on(&chain, chain.tip_hash(), Vec::new(), addr(7).script_pubkey(), i);
            chain.accept_block(block.clone(), NOW).unwrap();
            blocks.push(block);
        }
        let spend = Transaction {
            version: 2,
            inputs: vec![TxIn::new(OutPoint::new(blocks[0].txdata[0].txid(), 0))],
            outputs: vec![TxOut::new(Amount::from_sat(1000), addr(9).script_pubkey())],
            lock_time: 0,
        };
        let block6 =
            mine_block_on(&chain, chain.tip_hash(), vec![spend], Script::new_op_return(b"m"), 99);
        chain.accept_block(block6.clone(), NOW).unwrap();
        blocks.push(block6);

        let mut state = BitcoinCanisterState::new(params(2));
        state.process_response(
            GetSuccessorsResponse { blocks, next: Vec::new() },
            NOW,
            &mut Meter::new(),
        );
        let subsidy = Network::Regtest.params().block_subsidy.to_sat();
        let balance7 = state.get_balance(&addr(7), 0, &mut Meter::new()).unwrap();
        assert_eq!(balance7.balance.to_sat(), subsidy * 4, "block 1's coinbase was spent");
        let balance9 = state.get_balance(&addr(9), 0, &mut Meter::new()).unwrap();
        assert_eq!(balance9.balance.to_sat(), 1000);
    }

    /// One block whose transaction pays addr(3) 25 outputs.
    fn state_with_25_utxos_for_addr3() -> BitcoinCanisterState {
        let chain = ChainStore::new(Network::Regtest);
        let outputs: Vec<TxOut> =
            (0..25).map(|_| TxOut::new(Amount::from_sat(10), addr(3).script_pubkey())).collect();
        let big_tx = Transaction {
            version: 2,
            inputs: vec![TxIn::new(OutPoint::new(Txid([9; 32]), 0))],
            outputs,
            lock_time: 0,
        };
        let block =
            mine_block_on(&chain, chain.tip_hash(), vec![big_tx], Script::new_op_return(b"m"), 0);
        let mut state = BitcoinCanisterState::new(params(2));
        state.process_response(
            GetSuccessorsResponse { blocks: vec![block], next: Vec::new() },
            NOW,
            &mut Meter::new(),
        );
        state
    }

    #[test]
    fn pagination_walks_the_full_set() {
        // Page through with a small page size and stitch the pages back up.
        let state = state_with_25_utxos_for_addr3();

        // The default page size swallows all 25 at once.
        let response = state.get_utxos(&addr(3), None, &mut Meter::new()).unwrap();
        assert_eq!(response.utxos.len(), 25);
        assert!(response.next_page.is_none());

        // Stitching pages of 10 reproduces the full scan exactly.
        let mut stitched = Vec::new();
        let mut filter = None;
        loop {
            let page =
                state.get_utxos_paged(&addr(3), filter.clone(), 10, &mut Meter::new()).unwrap();
            stitched.extend(page.utxos);
            match page.next_page {
                Some(token) => filter = Some(UtxosFilter::Page(token)),
                None => break,
            }
        }
        assert_eq!(stitched, response.utxos);

        // Tampered and truncated tokens are malformed.
        let first = state.get_utxos_paged(&addr(3), None, 10, &mut Meter::new()).unwrap();
        let mut tampered = first.next_page.clone().unwrap();
        tampered[0] ^= 0xff; // wrong version byte
        assert_eq!(
            state.get_utxos(&addr(3), Some(UtxosFilter::Page(tampered)), &mut Meter::new()),
            Err(ApiError::MalformedPage)
        );
        assert_eq!(
            state.get_utxos(&addr(3), Some(UtxosFilter::Page(vec![1, 2])), &mut Meter::new()),
            Err(ApiError::MalformedPage)
        );
    }

    #[test]
    fn stale_tokens_rejected_when_the_tip_advances() {
        let mut chain = ChainStore::new(Network::Regtest);
        let mut blocks = Vec::new();
        for i in 0..3 {
            let block =
                mine_block_on(&chain, chain.tip_hash(), Vec::new(), addr(7).script_pubkey(), i);
            chain.accept_block(block.clone(), NOW).unwrap();
            blocks.push(block);
        }
        let mut state = BitcoinCanisterState::new(params(6));
        state.process_response(
            GetSuccessorsResponse { blocks, next: Vec::new() },
            NOW,
            &mut Meter::new(),
        );
        let first = state.get_utxos_paged(&addr(7), None, 1, &mut Meter::new()).unwrap();
        let token = first.next_page.expect("3 coinbases paginate at size 1");

        // The token resumes fine while the tip is unchanged…
        let resumed = state
            .get_utxos_paged(&addr(7), Some(UtxosFilter::Page(token.clone())), 1, &mut Meter::new())
            .unwrap();
        assert_eq!(resumed.utxos.len(), 1);

        // …but once a new block lands, the view has shifted and the
        // token must be rejected rather than silently re-anchored.
        let block4 =
            mine_block_on(&chain, chain.tip_hash(), Vec::new(), addr(7).script_pubkey(), 9);
        chain.accept_block(block4.clone(), NOW).unwrap();
        state.process_response(
            GetSuccessorsResponse { blocks: vec![block4], next: Vec::new() },
            NOW,
            &mut Meter::new(),
        );
        assert_eq!(
            state.get_utxos_paged(&addr(7), Some(UtxosFilter::Page(token)), 1, &mut Meter::new()),
            Err(ApiError::MalformedPage)
        );
    }

    #[test]
    fn page_cost_is_independent_of_address_utxo_count() {
        // addr(1) owns 4 stable UTXOs, addr(2) owns 400; an equal-sized
        // page must cost the same metered instructions for both. The
        // payment block is buried under empty blocks so it stabilizes
        // into the address index.
        let mut chain = ChainStore::new(Network::Regtest);
        let mut outputs = Vec::new();
        for _ in 0..4 {
            outputs.push(TxOut::new(Amount::from_sat(10), addr(1).script_pubkey()));
        }
        for _ in 0..400 {
            outputs.push(TxOut::new(Amount::from_sat(10), addr(2).script_pubkey()));
        }
        let tx = Transaction {
            version: 2,
            inputs: vec![TxIn::new(OutPoint::new(Txid([9; 32]), 0))],
            outputs,
            lock_time: 0,
        };
        let mut blocks = Vec::new();
        let pay = mine_block_on(&chain, chain.tip_hash(), vec![tx], Script::new_op_return(b"m"), 0);
        chain.accept_block(pay.clone(), NOW).unwrap();
        blocks.push(pay);
        for i in 0..5 {
            let filler = mine_block_on(
                &chain,
                chain.tip_hash(),
                Vec::new(),
                Script::new_op_return(b"fill"),
                10 + i,
            );
            chain.accept_block(filler.clone(), NOW).unwrap();
            blocks.push(filler);
        }
        let mut state = BitcoinCanisterState::new(params(2));
        state.process_response(
            GetSuccessorsResponse { blocks, next: Vec::new() },
            NOW,
            &mut Meter::new(),
        );
        assert!(state.anchor_height() >= 1, "payment block must have stabilized");
        let cost = |n: u8| {
            let mut meter = Meter::new();
            let page = state.get_utxos_paged(&addr(n), None, 4, &mut meter).unwrap();
            assert_eq!(page.utxos.len(), 4);
            assert!(
                page.utxos.iter().all(|u| u.height <= state.anchor_height()),
                "UTXOs must be served from the stable index"
            );
            meter.instructions()
        };
        assert_eq!(cost(1), cost(2), "page cost must not scale with the address's UTXO count");
    }

    #[test]
    fn unsynced_state_rejects_requests() {
        let (mut state, _) = state_with_chain(3, 2);
        state.force_unsynced();
        assert_eq!(state.get_balance(&addr(7), 0, &mut Meter::new()), Err(ApiError::NotSynced));
        assert!(matches!(
            state.get_utxos(&addr(7), None, &mut Meter::new()),
            Err(ApiError::NotSynced)
        ));
    }

    #[test]
    fn send_transaction_validates_syntax_only() {
        let (mut state, _) = state_with_chain(1, 2);
        let tx = Transaction {
            version: 2,
            inputs: vec![TxIn::new(OutPoint::new(Txid([1; 32]), 0))],
            outputs: vec![TxOut::new(Amount::from_sat(5), addr(1).script_pubkey())],
            lock_time: 0,
        };
        let txid = state.send_transaction(&tx.encode_to_vec(), &mut Meter::new()).unwrap();
        assert_eq!(txid, tx.txid());
        assert_eq!(state.outbound_len(), 1);

        assert_eq!(
            state.send_transaction(b"garbage", &mut Meter::new()),
            Err(ApiError::MalformedTransaction)
        );
        let empty = Transaction::default();
        assert_eq!(
            state.send_transaction(&empty.encode_to_vec(), &mut Meter::new()),
            Err(ApiError::MalformedTransaction)
        );
    }

    #[test]
    fn fee_percentiles_from_resolvable_transactions() {
        // Block 1 creates a coinbase to addr(7); block 2 spends it with a
        // visible fee.
        let mut chain = ChainStore::new(Network::Regtest);
        let b1 = mine_block_on(&chain, chain.tip_hash(), Vec::new(), addr(7).script_pubkey(), 0);
        chain.accept_block(b1.clone(), NOW).unwrap();
        let subsidy = Network::Regtest.params().block_subsidy;
        let spend = Transaction {
            version: 2,
            inputs: vec![TxIn::new(OutPoint::new(b1.txdata[0].txid(), 0))],
            outputs: vec![TxOut::new(
                subsidy.checked_sub(Amount::from_sat(10_000)).unwrap(),
                addr(9).script_pubkey(),
            )],
            lock_time: 0,
        };
        let expected_rate = 10_000u64 * 1000 / spend.vsize() as u64;
        let b2 =
            mine_block_on(&chain, chain.tip_hash(), vec![spend], Script::new_op_return(b"m"), 1);
        chain.accept_block(b2.clone(), NOW).unwrap();

        let mut state = BitcoinCanisterState::new(params(10)); // all unstable
        state.process_response(
            GetSuccessorsResponse { blocks: vec![b1, b2], next: Vec::new() },
            NOW,
            &mut Meter::new(),
        );
        let percentiles = state.get_current_fee_percentiles(&mut Meter::new());
        assert_eq!(percentiles.len(), 100);
        assert!(percentiles.iter().all(|&r| r == expected_rate));
    }

    /// The canister checks no values (§III-C), so a valid-PoW block can
    /// spend a coinbase into outputs summing past MAX_MONEY. The fee
    /// query skips such a transaction instead of panicking.
    #[test]
    fn fee_percentiles_skip_a_transaction_whose_outputs_overflow() {
        let mut chain = ChainStore::new(Network::Regtest);
        let b1 = mine_block_on(&chain, chain.tip_hash(), Vec::new(), addr(7).script_pubkey(), 0);
        chain.accept_block(b1.clone(), NOW).unwrap();
        let fifteen_million_btc = Amount::from_btc_int(15_000_000);
        let hostile = Transaction {
            version: 2,
            inputs: vec![TxIn::new(OutPoint::new(b1.txdata[0].txid(), 0))],
            outputs: vec![
                TxOut::new(fifteen_million_btc, addr(8).script_pubkey()),
                TxOut::new(fifteen_million_btc, addr(9).script_pubkey()),
            ],
            lock_time: 0,
        };
        let b2 =
            mine_block_on(&chain, chain.tip_hash(), vec![hostile], Script::new_op_return(b"m"), 1);
        chain.accept_block(b2.clone(), NOW).expect("the chain store checks no values either");

        let mut state = BitcoinCanisterState::new(params(10));
        let report = state.process_response(
            GetSuccessorsResponse { blocks: vec![b1, b2], next: Vec::new() },
            NOW,
            &mut Meter::new(),
        );
        assert_eq!(report.blocks_accepted, 2, "both blocks are accepted");
        assert!(state.get_current_fee_percentiles(&mut Meter::new()).is_empty());
    }

    #[test]
    fn fee_percentiles_empty_without_observable_fees() {
        let (state, _) = state_with_chain(3, 10);
        assert!(state.get_current_fee_percentiles(&mut Meter::new()).is_empty());
    }

    #[test]
    fn instruction_counts_scale_with_response_size() {
        let (state, _) = state_with_chain(10, 3);
        let mut small = Meter::new();
        let _ = state.get_balance(&addr(200), 0, &mut small); // empty address
        let mut large = Meter::new();
        let _ = state.get_utxos(&addr(7), None, &mut large);
        assert!(large.instructions() > small.instructions());
        assert!(small.instructions() >= metering::QUERY_BASE);
    }

    /// The first page token of the 25-UTXO address at page size 10,
    /// pinned byte for byte: version, min_confirmations, tip hash, cursor
    /// height and cursor outpoint, all little-endian.
    #[test]
    fn page_token_bytes_are_pinned() {
        let state = state_with_25_utxos_for_addr3();
        let first = state.get_utxos_paged(&addr(3), None, 10, &mut Meter::new()).unwrap();
        let token = first.next_page.expect("25 UTXOs span three pages of 10");
        let hex: String = token.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "02\
             00000000\
             08c8430215c49a45fa3fc1f9426ca1a902e50ed39db8abef5589c5f233c9131d\
             0100000000000000\
             bdad47a5f269e98c044dfdd2e6849c048fbbf3e0acdfe54b50f453ab474df3d7\
             09000000"
        );
    }

    /// A state whose unstable region holds `blocks` mainnet-shaped
    /// blocks: `txs` two-input, two-output transactions each, paying
    /// random P2WPKH scripts, with every 100th output paying addr(1) and
    /// every input spending an outpoint outside the region. δ = 1000, so
    /// nothing stabilizes.
    fn mainnet_shape_state(blocks: usize, txs: usize) -> BitcoinCanisterState {
        let mut rng = SimRng::seed_from(blocks as u64);
        let mut chain = ChainStore::new(Network::Regtest);
        let mut state = BitcoinCanisterState::new(params(1000));
        let mut paid = 0u64;
        for b in 0..blocks {
            let mut tx = || {
                let spend =
                    |rng: &mut SimRng| TxIn::new(OutPoint::new(Txid(testkit::byte_array(rng)), 0));
                let mut pay = |rng: &mut SimRng| {
                    paid += 1;
                    let script = match paid % 100 {
                        0 => addr(1).script_pubkey(),
                        _ => Script::new_p2wpkh(&testkit::byte_array(rng)),
                    };
                    TxOut::new(Amount::from_sat(1_000), script)
                };
                Transaction {
                    version: 2,
                    inputs: vec![spend(&mut rng), spend(&mut rng)],
                    outputs: vec![pay(&mut rng), pay(&mut rng)],
                    lock_time: 0,
                }
            };
            let transactions = (0..txs).map(|_| tx()).collect();
            let payout = Script::new_op_return(b"m");
            let block = mine_block_on(&chain, chain.tip_hash(), transactions, payout, b as u64);
            chain.accept_header(block.header, NOW).unwrap();
            let response = GetSuccessorsResponse { blocks: vec![block], next: Vec::new() };
            assert_eq!(state.process_response(response, NOW, &mut Meter::new()).blocks_accepted, 1);
        }
        state
    }

    /// ⌈log₂ n⌉ for n ≥ 1.
    fn ceil_log2(n: u64) -> u64 {
        u64::from(n.next_power_of_two().trailing_zeros())
    }

    /// A miss costs each considered block a binary search, not a pass
    /// over its outputs: at 6 and at 144 mainnet-shaped blocks of n
    /// outputs, `get_balance` compares at most c·(⌈log₂ n⌉ + 1) scripts
    /// plus one per match, and each created match is checked against
    /// each block's sorted spends. A scan compares c·n scripts.
    #[test]
    fn a_miss_compares_logarithmically_many_scripts_per_block() {
        for blocks in [6, 144] {
            let state = mainnet_shape_state(blocks, 500);
            let bodies: Vec<&UnstableBlock> =
                state.tree().best_chain()[1..].iter().filter_map(|h| state.block(h)).collect();
            assert_eq!(bodies.len(), blocks);
            let widest = |count: fn(&Transaction) -> usize| {
                let per_block = bodies.iter().map(|b| b.block().txdata.iter().map(count).sum());
                per_block.max().unwrap_or(0) as u64
            };
            let (outputs, inputs) = (widest(|tx| tx.outputs.len()), widest(|tx| tx.inputs.len()));
            assert!(outputs > 1_000, "{outputs}");
            let c = blocks as u64;
            for (n, expected_matches) in [(1, c * 1_000 / 100), (2, 0)] {
                let address = addr(n);
                // The first query builds each block's index; the second is
                // the one counted.
                let reply = state.get_balance(&address, 0, &mut Meter::new()).unwrap();
                comparisons::take();
                assert_eq!(state.get_balance(&address, 0, &mut Meter::new()).unwrap(), reply);
                let (scripts, outpoints) = comparisons::take();
                let matches = reply.balance.to_sat() / 1_000;
                assert_eq!(matches, expected_matches);
                let bound = c * (ceil_log2(outputs) + 1) + matches;
                assert!(scripts <= bound, "{blocks} blocks, addr({n}): {scripts} > {bound}");
                let bound = matches * c * (ceil_log2(inputs) + 1);
                assert!(outpoints <= bound, "{blocks} blocks, addr({n}): {outpoints} > {bound}");
            }
        }
    }

    /// The overlay as it was built before blocks were indexed, kept as the
    /// model the index is checked against: every input of every
    /// considered block goes into one set, and every output script is
    /// compared.
    fn scan_overlay(
        state: &BitcoinCanisterState,
        address: &Address,
        min_confirmations: u32,
        meter: &mut Meter,
    ) -> Result<UnstableOverlay<BTreeSet<OutPoint>>, ApiError> {
        let delta = state.params().stability_delta;
        if min_confirmations as u64 > delta {
            return Err(ApiError::MinConfirmationsTooLarge {
                requested: min_confirmations,
                maximum: delta as u32,
            });
        }
        let script = address.script_pubkey();
        let tree = state.tree();
        let considered = match min_confirmations {
            0 => usize::MAX,
            c => stability::confirmation_stable_prefix(tree, u64::from(c)),
        };
        let mut overlay = UnstableOverlay {
            created: Vec::new(),
            spent: BTreeSet::new(),
            tip_hash: tree.root(),
            tip_height: state.anchor_height(),
        };
        for (i, hash) in tree.best_chain().iter().enumerate().skip(1).take(considered) {
            let Some(body) = state.block(hash) else { break };
            meter.charge(metering::UNSTABLE_BLOCK_SCAN);
            let height = state.anchor_height() + i as u64;
            for (tx, txid) in body.transactions() {
                if !tx.is_coinbase() {
                    for input in &tx.inputs {
                        overlay.spent.insert(input.previous_output);
                    }
                }
                for (vout, output) in tx.outputs.iter().enumerate() {
                    if output.script_pubkey == script {
                        meter.charge(metering::UNSTABLE_UTXO_FETCH);
                        overlay.created.push(Utxo {
                            outpoint: OutPoint::new(txid, vout as u32),
                            value: output.value,
                            height,
                        });
                    }
                }
            }
            overlay.tip_hash = *hash;
            overlay.tip_height = height;
        }
        let spent = &overlay.spent;
        overlay.created.retain(|u| !spent.contains(&u.outpoint));
        overlay.created.sort_by(|a, b| b.height.cmp(&a.height).then(a.outpoint.cmp(&b.outpoint)));
        Ok(overlay)
    }

    impl Spent for BTreeSet<OutPoint> {
        fn contains(&self, outpoint: &OutPoint) -> bool {
            BTreeSet::contains(self, outpoint)
        }
    }

    /// Every `get_balance` and every page of `get_utxos` (pages of 2,
    /// followed to the end) of each address at each c in 0..=δ + 1 is
    /// the same reply, at the same metered cost and profile, over the
    /// indexed overlay as over the scan model.
    fn assert_index_matches_scan(state: &BitcoinCanisterState, addresses: &[Address]) {
        let delta = state.params().stability_delta as u32;
        for address in addresses {
            let model = |c, meter: &mut Meter| scan_overlay(state, address, c, meter);
            for c in 0..=delta + 1 {
                let (mut indexed, mut scanned) = (Meter::new(), Meter::new());
                let balance = state.get_balance(address, c, &mut indexed);
                assert_eq!(balance, state.balance(address, &mut scanned, |m| model(c, m)));
                let mut filter = Some(UtxosFilter::MinConfirmations(c));
                loop {
                    let page = state.get_utxos_paged(address, filter.clone(), 2, &mut indexed);
                    assert_eq!(page, state.utxos_page(address, filter, 2, &mut scanned, model));
                    match page {
                        Ok(GetUtxosResponse { next_page: Some(token), .. }) => {
                            filter = Some(UtxosFilter::Page(token));
                        }
                        _ => break,
                    }
                }
                assert_eq!(indexed.instructions(), scanned.instructions(), "c = {c}");
                assert_eq!(indexed.profile().frames(), scanned.profile().frames(), "c = {c}");
            }
        }
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;

        /// Page tokens are caller-supplied bytes: random tokens and
        /// damaged real ones never panic the query path. The reply is
        /// [`ApiError::MalformedPage`] or a page of the address's UTXOs.
        #[test]
        fn damaged_page_tokens_are_malformed_or_valid_pages() {
            let state = state_with_25_utxos_for_addr3();
            let all = state.get_utxos(&addr(3), None, &mut Meter::new()).unwrap();
            let first = state.get_utxos_paged(&addr(3), None, 10, &mut Meter::new()).unwrap();
            let token = first.next_page.expect("25 UTXOs span three pages of 10");
            let check = |bytes: Vec<u8>| {
                let filter = Some(UtxosFilter::Page(bytes));
                match state.get_utxos_paged(&addr(3), filter, 10, &mut Meter::new()) {
                    Err(error) => assert_eq!(error, ApiError::MalformedPage),
                    Ok(page) => {
                        assert!(page.utxos.len() <= 10);
                        assert!(page.utxos.iter().all(|u| all.utxos.contains(u)));
                        assert_eq!(page.tip_block_hash, all.tip_block_hash);
                    }
                }
            };
            testkit::check(0xA9_0001, testkit::DEFAULT_CASES, |rng| {
                check(testkit::bytes(rng, 0..121));
                let mut flipped = token.clone();
                let at = testkit::usize_in(rng, 0..token.len());
                flipped[at] ^= testkit::u64_in(rng, 1..256) as u8;
                check(flipped);
            });
        }

        /// A block on `parent` of up to three transactions, each spending
        /// one or two of `outpoints` (or one outside any block) and paying
        /// `addresses`; every output it creates joins `outpoints`, so a
        /// later transaction of the same block may spend it.
        fn random_block(
            rng: &mut SimRng,
            chain: &ChainStore,
            parent: BlockHash,
            outpoints: &mut Vec<OutPoint>,
            addresses: &[Address],
        ) -> icbtc_bitcoin::Block {
            let mut transactions = Vec::new();
            for _ in 0..testkit::usize_in(rng, 0..4) {
                let mut inputs: Vec<TxIn> = (0..testkit::usize_in(rng, 1..3))
                    .filter(|_| !outpoints.is_empty())
                    .map(|_| TxIn::new(outpoints[rng.index(outpoints.len())]))
                    .collect();
                if inputs.is_empty() {
                    inputs.push(TxIn::new(OutPoint::new(Txid(testkit::byte_array(rng)), 0)));
                }
                let outputs = (0..testkit::usize_in(rng, 1..4))
                    .map(|_| {
                        let value = Amount::from_sat(testkit::u64_in(rng, 1..1_000));
                        TxOut::new(value, addresses[rng.index(addresses.len())].script_pubkey())
                    })
                    .collect();
                let lock_time = testkit::u32_any(rng);
                let tx = Transaction { version: 2, inputs, outputs, lock_time };
                let txid = tx.txid();
                outpoints.extend((0..tx.outputs.len() as u32).map(|v| OutPoint::new(txid, v)));
                transactions.push(tx);
            }
            let payout = addresses[rng.index(addresses.len())].script_pubkey();
            let block = mine_block_on(chain, parent, transactions, payout, testkit::u64_any(rng));
            outpoints.push(OutPoint::new(block.txdata[0].txid(), 0));
            block
        }

        /// The indexed overlay answers as the scan model does over random
        /// chains with forks off recent blocks (equal-work ties, then
        /// reorgs once a fork grows), spends of stable outputs, of
        /// outputs of other branches, of earlier unstable blocks and of
        /// earlier transactions of the same block, and a state replaced
        /// now and then by `restore(checkpoint_bytes())`, whose indexes
        /// start empty.
        #[test]
        fn indexed_overlay_answers_as_the_scan_does() {
            testkit::check(0xA9_0002, 48, |rng| {
                let delta = testkit::u64_in(rng, 1..5);
                let addresses: Vec<Address> = (0..4).map(addr).collect();
                let mut chain = ChainStore::new(Network::Regtest);
                let mut state = BitcoinCanisterState::new(params(delta));
                let mut outpoints = Vec::new();
                let mut mined = vec![chain.tip_hash()];
                for _ in 0..testkit::usize_in(rng, 1..10) {
                    let mut blocks = Vec::new();
                    for _ in 0..testkit::usize_in(rng, 1..3) {
                        let parent = match rng.chance(0.3) {
                            true => mined[mined.len() - 1 - rng.index(mined.len().min(3))],
                            false => chain.tip_hash(),
                        };
                        let block = random_block(rng, &chain, parent, &mut outpoints, &addresses);
                        chain.accept_block(block.clone(), NOW).unwrap();
                        mined.push(block.block_hash());
                        blocks.push(block);
                    }
                    let response = GetSuccessorsResponse { blocks, next: Vec::new() };
                    state.process_response(response, NOW, &mut Meter::new());
                    if rng.chance(0.25) {
                        let checkpoint = BitcoinCanister::from_state(state).checkpoint_bytes();
                        let restored = BitcoinCanister::restore(&checkpoint).unwrap();
                        state = restored.state().clone();
                    }
                    assert_index_matches_scan(&state, &addresses);
                }
            });
        }
    }
}
