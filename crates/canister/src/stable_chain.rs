//! The stable header chain with a running digest of its encodings, so
//! that a state hash costs the same at every chain length.

use icbtc_bitcoin::encode::Encodable;
use icbtc_bitcoin::hash::Sha256;
use icbtc_bitcoin::BlockHeader;

/// The single stable header per height, genesis first (kept forever, as
/// the paper specifies), and a SHA-256 state that has absorbed each
/// header's 80-byte encoding in order. [`StableChain::push`] is the only
/// mutator and extends both, so the digest is never stale.
#[derive(Debug, Clone)]
pub(crate) struct StableChain {
    headers: Vec<BlockHeader>,
    running: Sha256,
}

impl StableChain {
    /// The chain holding only `first`, the header at height 0.
    pub(crate) fn new(first: BlockHeader) -> StableChain {
        let mut chain = StableChain { headers: Vec::new(), running: Sha256::new() };
        chain.push(first);
        chain
    }

    /// Appends `header` at the next height. The caller has checked that
    /// it links to [`StableChain::tip`].
    pub(crate) fn push(&mut self, header: BlockHeader) {
        header.encode(&mut self.running);
        #[cfg(test)]
        crate::state::hashed_bytes::count(80);
        self.headers.push(header);
    }

    /// Every stable header, genesis first.
    pub(crate) fn headers(&self) -> &[BlockHeader] {
        &self.headers
    }

    /// The newest stable header (the anchor).
    pub(crate) fn tip(&self) -> BlockHeader {
        // icbtc-lint: allow(no-panic) -- invariant: `new` pushes the first header and nothing removes one
        *self.headers.last().expect("a stable chain holds at least its first header")
    }

    /// SHA-256d of the headers' concatenated encodings, finalized from a
    /// copy of the running state: two compressions at any chain length,
    /// since 80 bytes a header leave at most 48 buffered and the padding
    /// fits beside them.
    pub(crate) fn digest(&self) -> [u8; 32] {
        self.running.clone().finalize_double()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icbtc_bitcoin::hash::sha256d;
    use icbtc_bitcoin::Network;

    #[test]
    fn digest_is_sha256d_of_the_concatenated_headers() {
        let genesis = Network::Regtest.genesis_block().header;
        let mut chain = StableChain::new(genesis);
        let mut bytes = genesis.encode_to_vec();
        assert_eq!(chain.digest(), sha256d(&bytes));
        for nonce in 1..=3 {
            let header = BlockHeader { prev_blockhash: chain.tip().block_hash(), nonce, ..genesis };
            chain.push(header);
            bytes.extend_from_slice(&header.encode_to_vec());
            assert_eq!(chain.digest(), sha256d(&bytes));
        }
        assert_eq!(chain.headers().len() * 80, bytes.len());
        // A copy extends independently of the original.
        let mut copy = chain.clone();
        copy.push(BlockHeader { nonce: 9, ..genesis });
        assert_eq!(chain.digest(), sha256d(&bytes));
        assert_ne!(copy.digest(), chain.digest());
    }
}
