//! Block production for the simulated Bitcoin network.
//!
//! Mining is *real* proof of work against the (scaled-down) targets from
//! [`icbtc_bitcoin::network::Params`]: the miner assembles a template and
//! scans nonces until the double-SHA-256 header hash meets the compact
//! target. Block *timing* is driven by the network's Poisson process (see
//! [`crate::network`]); the nonce scan only decides validity, not tempo.

use icbtc_bitcoin::builder::coinbase_transaction;
use icbtc_bitcoin::pow::{next_bits, walk_median_time_past};
use icbtc_bitcoin::{Amount, Block, BlockHash, BlockHeader, Script, Transaction};

use crate::chain::ChainStore;

/// Maximum serialized bytes of non-coinbase transactions per template;
/// a scaled-down stand-in for Bitcoin's 4M-weight limit.
pub const MAX_TEMPLATE_TX_BYTES: usize = 512 * 1024;

/// Mines a block on top of `prev` containing `transactions` (after the
/// coinbase paying `payout_script`), with `extra_nonce` distinguishing
/// miners.
///
/// The template's timestamp is one second past the parent's median time
/// past or the parent time, whichever is later, keeping validation happy
/// without modelling wall clocks inside the miner.
///
/// # Panics
///
/// Panics if `prev` is not in `chain`.
pub fn mine_block_on(
    chain: &ChainStore,
    prev: BlockHash,
    transactions: Vec<Transaction>,
    payout_script: Script,
    extra_nonce: u64,
) -> Block {
    let parent_time = chain.header(&prev).expect("mining on unknown parent").header.time;
    let time = parent_time.saturating_add(1);
    mine_block_at(chain, prev, transactions, payout_script, extra_nonce, time)
}

/// Mines a block at a caller-supplied timestamp (used by the network
/// driver, which knows the simulated wall clock).
///
/// The timestamp is clamped into the valid window above the parent's
/// median time past.
///
/// # Panics
///
/// Panics if `prev` is not in `chain`.
pub fn mine_block_at(
    chain: &ChainStore,
    prev: BlockHash,
    transactions: Vec<Transaction>,
    payout_script: Script,
    extra_nonce: u64,
    unix_time: u32,
) -> Block {
    let parent = chain.header(&prev).expect("mining on unknown parent");
    let params = chain.network().params();
    let height = parent.height + 1;
    let fees = Amount::ZERO; // fee accounting is tracked by wallets, not consensus, here
    let reward = params.block_subsidy.checked_add(fees).expect("subsidy below max money");
    let coinbase = coinbase_transaction(height, reward, payout_script, extra_nonce);

    let mut txdata = Vec::with_capacity(transactions.len() + 1);
    txdata.push(coinbase);
    let mut budget = MAX_TEMPLATE_TX_BYTES;
    for tx in transactions {
        let size = icbtc_bitcoin::encode::Encodable::encoded_len(&tx);
        if size > budget {
            continue;
        }
        budget -= size;
        txdata.push(tx);
    }

    let merkle = icbtc_bitcoin::merkle_root(&icbtc_bitcoin::txids(&txdata));
    let time = unix_time.max(walk_median_time_past(chain.ancestors(&prev)) + 1);
    let bits = next_bits(&params, &parent.header, parent.height, chain.ancestors(&prev));

    let mut header = BlockHeader {
        version: 2,
        prev_blockhash: prev,
        merkle_root: merkle,
        time,
        bits,
        nonce: 0,
    };
    loop {
        if header.meets_pow_target() {
            return Block { header, txdata };
        }
        header.nonce = header.nonce.wrapping_add(1);
        if header.nonce == 0 {
            // Nonce space exhausted (astronomically unlikely at simulated
            // difficulty) — perturb the timestamp and rescan.
            header.time += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icbtc_bitcoin::Network;

    #[test]
    fn mined_blocks_are_valid() {
        let mut chain = ChainStore::new(Network::Regtest);
        for i in 0..10 {
            let block = mine_block_on(
                &chain,
                chain.tip_hash(),
                Vec::new(),
                Script::new_op_return(b"miner"),
                i,
            );
            assert!(block.header.meets_pow_target());
            assert!(block.is_well_formed());
            let now = block.header.time;
            assert!(chain.accept_block(block, now).unwrap());
        }
        assert_eq!(chain.tip_height(), 10);
    }

    #[test]
    fn different_extra_nonce_different_blocks() {
        let chain = ChainStore::new(Network::Regtest);
        let a = mine_block_on(&chain, chain.tip_hash(), Vec::new(), Script::new_op_return(b"a"), 1);
        let b = mine_block_on(&chain, chain.tip_hash(), Vec::new(), Script::new_op_return(b"a"), 2);
        assert_ne!(a.block_hash(), b.block_hash());
    }

    #[test]
    fn includes_transactions_within_budget() {
        let mut chain = ChainStore::new(Network::Regtest);
        // Spendable-looking transaction (validity is not checked by design).
        let tx = Transaction {
            version: 2,
            inputs: vec![icbtc_bitcoin::TxIn::new(icbtc_bitcoin::OutPoint::new(
                icbtc_bitcoin::Txid([1; 32]),
                0,
            ))],
            outputs: vec![icbtc_bitcoin::TxOut::new(
                Amount::from_sat(1000),
                Script::new_p2wpkh(&[2; 20]),
            )],
            lock_time: 0,
        };
        let block = mine_block_on(
            &chain,
            chain.tip_hash(),
            vec![tx.clone()],
            Script::new_op_return(b"m"),
            0,
        );
        assert_eq!(block.txdata.len(), 2);
        assert_eq!(block.txdata[1], tx);
        let now = block.header.time;
        chain.accept_block(block, now).unwrap();
    }

    #[test]
    fn mine_at_timestamp_clamps_to_mtp() {
        let chain = ChainStore::new(Network::Regtest);
        let genesis_time = Network::Regtest.genesis_block().header.time;
        let early = mine_block_at(
            &chain,
            chain.tip_hash(),
            Vec::new(),
            Script::new_op_return(b"m"),
            0,
            0, // long before genesis
        );
        assert!(early.header.time > genesis_time);
        assert!(early.header.meets_pow_target());

        let late = mine_block_at(
            &chain,
            chain.tip_hash(),
            Vec::new(),
            Script::new_op_return(b"m"),
            0,
            genesis_time + 1234,
        );
        assert_eq!(late.header.time, genesis_time + 1234);
        assert!(late.header.meets_pow_target());
    }
}
