//! The adapter ⇄ canister protocol (paper §III-B / §III-C).
//!
//! The Bitcoin canister periodically sends the adapter a request carrying
//! its anchor header `β*`, the set `A` of headers for which it already
//! holds blocks, and outbound transactions `T`; the adapter answers with
//! blocks `B` extending the canister's tree plus upcoming headers `N`
//! (Algorithm 1). Both sides must agree on the message shapes and limits,
//! so they live here, in the crate both depend on.

use icbtc_bitcoin::{Block, BlockHash, BlockHeader, Network, Transaction};

/// Soft cap on the total size of blocks in one response (`MAX_SIZE`,
/// 2 MiB in production; a block that alone exceeds it is still returned).
pub const MAX_RESPONSE_BLOCK_BYTES: usize = 2 * 1024 * 1024;

/// Cap on the number of upcoming block headers per response
/// (`MAX_HEADERS`, 100 in production).
pub const MAX_NEXT_HEADERS: usize = 100;

/// The request the Bitcoin canister sends to the Bitcoin adapter.
#[derive(Debug, Clone, PartialEq)]
pub struct GetSuccessorsRequest {
    /// The anchor header `β*`: the newest stable header.
    pub anchor: BlockHeader,
    /// Absolute height of the anchor.
    pub anchor_height: u64,
    /// Hashes of headers above the anchor whose blocks the canister
    /// already has (the set `A`).
    pub processed: Vec<BlockHash>,
    /// Outbound Bitcoin transactions to advertise (the set `T`).
    pub transactions: Vec<Transaction>,
}

/// The response from the Bitcoin adapter (Algorithm 1's `[B, N]`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GetSuccessorsResponse {
    /// Blocks extending the canister's tree (the set `B`), BFS order.
    pub blocks: Vec<Block>,
    /// Headers of upcoming blocks the canister still needs (the set `N`).
    pub next: Vec<BlockHeader>,
}

impl GetSuccessorsResponse {
    /// Returns `true` if the response carries nothing new.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty() && self.next.is_empty()
    }
}

/// The production parameters of the integration, per network
/// (§III-B/§III-C and §IV-A of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrationParams {
    /// The Bitcoin network served.
    pub network: Network,
    /// Difficulty-based stability threshold δ for anchor advancement
    /// (144 on mainnet — about one day of blocks).
    pub stability_delta: u64,
    /// Max height lag τ between known headers and available blocks before
    /// the canister answers requests with errors (2 in production).
    pub tau: u64,
    /// Number of Bitcoin-node connections ℓ per adapter (5 on mainnet).
    pub connections: usize,
    /// Lower address-pool threshold `t_l` for discovery.
    pub addr_low_watermark: usize,
    /// Upper address-pool threshold `t_u` for discovery.
    pub addr_high_watermark: usize,
    /// Height below which the adapter may return many blocks per
    /// response; above it, at most one (the Lemma IV.3 safeguard).
    pub bulk_sync_height: u64,
    /// Transaction-cache expiry in the adapter, seconds (10 minutes).
    pub tx_cache_expiry_secs: u64,
}

impl IntegrationParams {
    /// Parameters for a network, matching the paper's production values.
    /// `bulk_sync_height` is "hardcoded" in production; the simulation
    /// exposes it because several experiments sweep it.
    pub fn for_network(network: Network) -> IntegrationParams {
        match network {
            Network::Mainnet => IntegrationParams {
                network,
                stability_delta: 144,
                tau: 2,
                connections: 5,
                addr_low_watermark: 500,
                addr_high_watermark: 2000,
                bulk_sync_height: 800_000,
                tx_cache_expiry_secs: 600,
            },
            Network::Testnet => IntegrationParams {
                network,
                stability_delta: 144,
                tau: 2,
                connections: 5,
                addr_low_watermark: 100,
                addr_high_watermark: 1000,
                bulk_sync_height: 2_500_000,
                tx_cache_expiry_secs: 600,
            },
            Network::Regtest => IntegrationParams {
                network,
                stability_delta: 6,
                tau: 2,
                connections: 1,
                addr_low_watermark: 1,
                addr_high_watermark: 1,
                bulk_sync_height: 100,
                tx_cache_expiry_secs: 600,
            },
        }
    }

    /// A copy with a different stability δ (ablation sweeps). δ must be
    /// at least 1: `BitcoinCanisterState::new` panics on zero, and a
    /// restore rejects it as corrupt.
    pub fn with_stability_delta(mut self, delta: u64) -> IntegrationParams {
        self.stability_delta = delta;
        self
    }

    /// A copy with a different bulk-sync boundary (ablation sweeps).
    pub fn with_bulk_sync_height(mut self, height: u64) -> IntegrationParams {
        self.bulk_sync_height = height;
        self
    }

    /// A copy with a different connection count ℓ.
    pub fn with_connections(mut self, connections: usize) -> IntegrationParams {
        self.connections = connections;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_parameters_match_paper() {
        let mainnet = IntegrationParams::for_network(Network::Mainnet);
        assert_eq!(mainnet.stability_delta, 144);
        assert_eq!(mainnet.tau, 2);
        assert_eq!(mainnet.connections, 5);
        assert_eq!(mainnet.addr_low_watermark, 500);
        assert_eq!(mainnet.addr_high_watermark, 2000);
        assert_eq!(mainnet.tx_cache_expiry_secs, 600);

        let testnet = IntegrationParams::for_network(Network::Testnet);
        assert_eq!(testnet.addr_low_watermark, 100);
        assert_eq!(testnet.addr_high_watermark, 1000);

        let regtest = IntegrationParams::for_network(Network::Regtest);
        assert_eq!(regtest.addr_low_watermark, 1);
        assert_eq!(regtest.addr_high_watermark, 1);
        assert_eq!(regtest.connections, 1);
    }

    #[test]
    fn builder_style_overrides() {
        let p = IntegrationParams::for_network(Network::Regtest)
            .with_stability_delta(10)
            .with_bulk_sync_height(50)
            .with_connections(7);
        assert_eq!(p.stability_delta, 10);
        assert_eq!(p.bulk_sync_height, 50);
        assert_eq!(p.connections, 7);
    }

    #[test]
    fn response_emptiness() {
        assert!(GetSuccessorsResponse::default().is_empty());
        let response = GetSuccessorsResponse {
            blocks: vec![],
            next: vec![Network::Regtest.genesis_block().header],
        };
        assert!(!response.is_empty());
    }

    #[test]
    fn limits_match_paper() {
        assert_eq!(MAX_RESPONSE_BLOCK_BYTES, 2 * 1024 * 1024);
        assert_eq!(MAX_NEXT_HEADERS, 100);
    }
}
