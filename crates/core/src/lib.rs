//! The core concepts of the Bitcoin ⇄ Internet Computer integration.
//!
//! This crate holds the paper's primary conceptual contribution and the
//! contract between its two architectural components:
//!
//! * [`stability`] — δ-stability (Definition II.1) over the shared
//!   block-header tree (`icbtc_bitcoin::HeaderTree`), in both its
//!   confirmation-based (`d_c`) and difficulty-based (`d_w`)
//!   instantiations. This is what reconciles Bitcoin's probabilistic
//!   finality with the IC's deterministic finalization.
//! * [`protocol`] — the `GetSuccessors` request/response shapes exchanged
//!   between the Bitcoin canister and the Bitcoin adapter (Algorithms 1
//!   and 2 operate on these), plus the production [`IntegrationParams`]
//!   (δ = 144, τ = 2, ℓ = 5, discovery watermarks, 2 MiB / 100-header
//!   response limits).
//!
//! The concrete components live in their own crates: `icbtc-adapter`
//! (§III-B) and `icbtc-canister` (§III-C); the full system wiring lives in
//! the umbrella crate `icbtc`.
//!
//! # Examples
//!
//! ```
//! use icbtc_bitcoin::{BlockHeader, HeaderTree, Network};
//! use icbtc_core::stability;
//!
//! let genesis = Network::Regtest.genesis_block().header;
//! let mut tree = HeaderTree::new(genesis);
//! let child = BlockHeader { prev_blockhash: genesis.block_hash(), nonce: 1, ..genesis };
//! tree.insert(child).unwrap();
//! // The root's child is 1-stable (one block deep, unopposed), not 2-stable.
//! assert_eq!(stability::confirmation_stable_prefix(&tree, 1), 1);
//! assert_eq!(stability::confirmation_stable_prefix(&tree, 2), 0);
//! assert_eq!(stability::difficulty_stable_prefix(&tree, 1, genesis.work()), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod protocol;
pub mod stability;

pub use protocol::{
    GetSuccessorsRequest, GetSuccessorsResponse, IntegrationParams, MAX_NEXT_HEADERS,
    MAX_RESPONSE_BLOCK_BYTES,
};
