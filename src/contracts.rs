//! The smart-contract toolkit: canisters holding and moving bitcoin.
//!
//! The paper's motivating capability (§I): canisters hold bitcoin
//! *natively* — each contract controls Bitcoin addresses derived from the
//! subnet's threshold key, reads its balance through the Bitcoin
//! canister, and spends by having the replicas threshold-sign real
//! Bitcoin transactions that the adapters forward to the network.
//!
//! [`Wallet`] is the building block the example applications (escrow,
//! payroll) compose. It spends P2WPKH outputs with threshold ECDSA
//! ([`Wallet::new`]) or P2TR outputs with threshold Schnorr
//! ([`Wallet::taproot`]) through one build-sign-submit path, and
//! [`verify_spend`] checks either kind of spend.

use icbtc_bitcoin::builder::{BuildError, TransactionBuilder};
use icbtc_bitcoin::encode::Encodable;
use icbtc_bitcoin::script::{segwit_v0_sighash, taproot_key_spend_sighash, ScriptKind};
use icbtc_bitcoin::{Address, AddressKind, Amount, Script, Transaction, Txid};
use icbtc_canister::{ApiError, CanisterCall, CanisterReply, Utxo};
use icbtc_tecdsa::ecdsa::{PublicKey, Signature};
use icbtc_tecdsa::protocol::DerivationPath;
use icbtc_tecdsa::schnorr::{self, SchnorrSignature};

use crate::system::System;

/// Error from wallet operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalletError {
    /// The Bitcoin canister rejected a call.
    Api(ApiError),
    /// Not enough confirmed funds for the requested transfer.
    InsufficientFunds {
        /// What the wallet holds.
        available: Amount,
        /// What the transfer needs (amount + fee).
        required: Amount,
    },
    /// Transaction construction failed.
    Build(BuildError),
}

impl std::fmt::Display for WalletError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalletError::Api(e) => write!(f, "bitcoin canister error: {e}"),
            WalletError::InsufficientFunds { available, required } => {
                write!(f, "insufficient funds: have {available}, need {required}")
            }
            WalletError::Build(e) => write!(f, "transaction build error: {e}"),
        }
    }
}

impl std::error::Error for WalletError {}

impl From<ApiError> for WalletError {
    fn from(e: ApiError) -> WalletError {
        WalletError::Api(e)
    }
}

impl From<BuildError> for WalletError {
    fn from(e: BuildError) -> WalletError {
        WalletError::Build(e)
    }
}

/// How a [`Wallet`] locks and spends its outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheme {
    /// P2WPKH, signed with threshold ECDSA over the BIP-143 sighash.
    P2wpkh,
    /// P2TR key path, signed with threshold Schnorr (BIP-340) over the
    /// BIP-341 sighash.
    P2tr,
}

/// A canister-controlled Bitcoin wallet: one derivation path under the
/// subnet's threshold key and one signature scheme.
///
/// # Examples
///
/// ```
/// use icbtc::contracts::Wallet;
/// use icbtc::system::{System, SystemConfig};
///
/// let system = System::new(SystemConfig::regtest(5));
/// let wallet = Wallet::new("my-dapp");
/// assert!(wallet.address(&system).to_string().starts_with("bcrt1q"));
/// ```
#[derive(Debug, Clone)]
pub struct Wallet {
    path: DerivationPath,
    scheme: Scheme,
}

impl Wallet {
    /// Creates a P2WPKH wallet, spending with threshold ECDSA, for a
    /// contract identified by `label` (derivation path `[label]`).
    pub fn new(label: &str) -> Wallet {
        Wallet { path: DerivationPath::new([label.as_bytes().to_vec()]), scheme: Scheme::P2wpkh }
    }

    /// Creates a taproot wallet, holding P2TR outputs spent by key path
    /// with threshold Schnorr (BIP-340/341), for a contract identified
    /// by `label` (derivation path `["taproot", label]`, so no key is
    /// shared with [`Wallet::new`] of the same label).
    ///
    /// # Examples
    ///
    /// ```
    /// use icbtc::contracts::Wallet;
    /// use icbtc::system::{System, SystemConfig};
    ///
    /// let system = System::new(SystemConfig::regtest(5));
    /// let wallet = Wallet::taproot("taproot-dapp");
    /// assert!(wallet.address(&system).to_string().starts_with("bcrt1p"));
    /// ```
    pub fn taproot(label: &str) -> Wallet {
        Wallet {
            path: DerivationPath::new([b"taproot".to_vec(), label.as_bytes().to_vec()]),
            scheme: Scheme::P2tr,
        }
    }

    /// The wallet's derivation path.
    pub fn path(&self) -> &DerivationPath {
        &self.path
    }

    /// The wallet's address on the system's network: P2WPKH of the
    /// derived key, or P2TR of its x-only (BIP-340 even-y) form.
    pub fn address(&self, system: &System) -> Address {
        let pubkey = system.threshold_key().derived_public_key(&self.path);
        let kind = match self.scheme {
            Scheme::P2wpkh => AddressKind::P2wpkh(pubkey.pubkey_hash()),
            Scheme::P2tr => AddressKind::P2tr(pubkey.0.normalize_even_y().0.to_x_only()),
        };
        Address::new(system.canister().state().params().network, kind)
    }

    /// The wallet's confirmed balance via a canister query.
    ///
    /// # Errors
    ///
    /// Propagates canister API errors (e.g. not synced).
    pub fn balance(
        &self,
        system: &mut System,
        min_confirmations: u32,
    ) -> Result<Amount, WalletError> {
        let address = self.address(system);
        let outcome = system.query(CanisterCall::GetBalance { address, min_confirmations });
        expect_reply(outcome.outcome.reply, |reply| match reply {
            CanisterReply::Balance(b) => Some(b.balance),
            _ => None,
        })
    }

    /// The wallet's UTXOs via a canister query (first page).
    ///
    /// # Errors
    ///
    /// Propagates canister API errors.
    pub fn utxos(&self, system: &mut System) -> Result<Vec<Utxo>, WalletError> {
        let address = self.address(system);
        let outcome = system.query(CanisterCall::GetUtxos { address, filter: None });
        expect_reply(outcome.outcome.reply, |reply| match reply {
            CanisterReply::Utxos(r) => Some(r.utxos),
            _ => None,
        })
    }

    /// Builds, threshold-signs, and submits a transfer of `amount` to
    /// `to`, paying `fee`; change returns to the wallet. Returns the
    /// txid accepted by the Bitcoin canister.
    ///
    /// # Errors
    ///
    /// [`WalletError::InsufficientFunds`] when the confirmed UTXOs cannot
    /// cover `amount + fee`, and canister/build errors otherwise.
    pub fn transfer(
        &self,
        system: &mut System,
        to: &Address,
        amount: Amount,
        fee: Amount,
    ) -> Result<Txid, WalletError> {
        self.pay_many(system, &[(*to, amount)], fee)
    }

    /// Pays several recipients in a single threshold-signed transaction —
    /// the batch form payroll-style contracts use. Returns the accepted
    /// txid.
    ///
    /// # Errors
    ///
    /// As for [`Wallet::transfer`].
    pub fn pay_many(
        &self,
        system: &mut System,
        payments: &[(Address, Amount)],
        fee: Amount,
    ) -> Result<Txid, WalletError> {
        let tx = self.build_signed_payment(system, payments, fee)?;
        let outcome =
            system.replicated(CanisterCall::SendTransaction { transaction: tx.encode_to_vec() });
        expect_reply(outcome.outcome.reply, |reply| match reply {
            CanisterReply::TransactionSent(txid) => Some(txid),
            _ => None,
        })
    }

    /// Like [`Wallet::transfer`] but returns the signed transaction
    /// without submitting it (used by contracts that hold pre-signed
    /// transactions, e.g. escrow releases).
    ///
    /// # Errors
    ///
    /// As for [`Wallet::transfer`].
    pub fn build_signed_transfer(
        &self,
        system: &mut System,
        to: &Address,
        amount: Amount,
        fee: Amount,
    ) -> Result<Transaction, WalletError> {
        self.build_signed_payment(system, &[(*to, amount)], fee)
    }

    /// Builds and threshold-signs a multi-output payment without
    /// submitting it.
    ///
    /// The spend selects UTXOs greedily (largest first) and gathers one
    /// threshold signature per input over that input's sighash. The
    /// witnesses are exactly what Bitcoin validates for the scheme:
    /// `[DER signature ‖ SIGHASH_ALL, compressed pubkey]` over the
    /// BIP-143 sighash for P2WPKH, or one 64-byte BIP-340 signature over
    /// the BIP-341 key-path sighash for P2TR.
    ///
    /// # Errors
    ///
    /// As for [`Wallet::transfer`].
    pub fn build_signed_payment(
        &self,
        system: &mut System,
        payments: &[(Address, Amount)],
        fee: Amount,
    ) -> Result<Transaction, WalletError> {
        let own_script = self.address(system).script_pubkey();
        let utxos = self.utxos(system)?;
        let required = payments
            .iter()
            .try_fold(fee, |sum, (_, value)| sum.checked_add(*value))
            .ok_or(WalletError::InsufficientFunds {
                available: Amount::ZERO,
                required: Amount::MAX_MONEY,
            })?;
        let selected = select_largest_first(utxos, required)?;

        let mut builder = TransactionBuilder::new();
        for utxo in &selected {
            builder.add_input(utxo.outpoint, utxo.value, own_script.clone());
        }
        for (to, value) in payments {
            builder.add_output(to.script_pubkey(), *value);
        }
        builder.change_script(own_script);
        builder.fee(fee);
        let mut unsigned = builder.build()?;

        let pubkey = system.threshold_key().derived_public_key(&self.path);
        for index in 0..selected.len() {
            let sighash = unsigned.sighash(index);
            let witness = match self.scheme {
                Scheme::P2wpkh => {
                    let signature = system.sign_with_ecdsa(&self.path, sighash);
                    debug_assert!(pubkey.verify(&sighash, &signature));
                    vec![signature.to_der_with_sighash_all(), pubkey.to_compressed().to_vec()]
                }
                Scheme::P2tr => {
                    let (signature, pubkey_x) = system.sign_with_schnorr(&self.path, sighash);
                    debug_assert!(schnorr::verify(&pubkey_x, &sighash, &signature));
                    vec![signature.to_bytes().to_vec()]
                }
            };
            unsigned.set_witness(index, witness);
        }
        Ok(unsigned.into_transaction())
    }
}

/// Unwraps a canister reply to the variant `pick` selects. The canister
/// answers each call with that call's own variant, so only an API error
/// can come back instead.
fn expect_reply<T>(
    reply: Result<CanisterReply, ApiError>,
    pick: impl FnOnce(CanisterReply) -> Option<T>,
) -> Result<T, WalletError> {
    match pick(reply?) {
        Some(value) => Ok(value),
        None => unreachable!("the canister answers each call with its own reply variant"),
    }
}

/// Largest-first coin selection: takes `utxos` in descending value
/// (ties keep their order) until they cover `required`.
fn select_largest_first(mut utxos: Vec<Utxo>, required: Amount) -> Result<Vec<Utxo>, WalletError> {
    utxos.sort_by_key(|u| std::cmp::Reverse(u.value));
    let mut selected = Vec::new();
    // Saturating: a total clamped at MAX_MONEY already covers any
    // `required`, which is at most MAX_MONEY.
    let mut total = Amount::ZERO;
    for utxo in utxos {
        total = total.saturating_add(utxo.value);
        selected.push(utxo);
        if total >= required {
            break;
        }
    }
    if total < required {
        return Err(WalletError::InsufficientFunds { available: total, required });
    }
    Ok(selected)
}

/// Verifies that every input of `tx` carries a valid threshold signature
/// for the output it spends, as a Bitcoin full node would before
/// accepting the spend: BIP-143 sighash and DER ECDSA for P2WPKH, BIP-341
/// key-path sighash and BIP-340 Schnorr for P2TR; any other script kind
/// fails. `spent[i]` is the `(value, script_pubkey)` input `i` spends.
/// Used by tests and examples to show the produced transactions are
/// genuinely valid.
pub fn verify_spend(tx: &Transaction, spent: &[(Amount, Script)]) -> bool {
    tx.inputs.len() == spent.len()
        && (0..spent.len()).all(|index| input_signed(tx, index, spent) == Some(true))
}

/// Whether input `index` of `tx` is validly signed for `spent[index]`;
/// `None` if its witness is malformed or the script is of another kind.
fn input_signed(tx: &Transaction, index: usize, spent: &[(Amount, Script)]) -> Option<bool> {
    let (value, script) = &spent[index];
    match (script.classify(), tx.inputs[index].witness.as_slice()) {
        (ScriptKind::P2wpkh(hash), [sig_bytes, pubkey_bytes]) => {
            let pubkey = PublicKey::from_compressed(pubkey_bytes)?;
            let (der, [sighash_flag]) = sig_bytes.split_last_chunk::<1>()?;
            let signature = Signature::from_der(der)?;
            let digest = segwit_v0_sighash(tx, index, &Script::new_p2pkh(&hash), *value);
            let valid = pubkey.pubkey_hash() == hash && *sighash_flag == 0x01;
            Some(valid && pubkey.verify(&digest, &signature))
        }
        (ScriptKind::P2tr(output_key), [sig_bytes]) => {
            let signature = SchnorrSignature::from_bytes(sig_bytes.as_slice().try_into().ok()?)?;
            let digest = taproot_key_spend_sighash(tx, index, spent);
            Some(schnorr::verify(&output_key, &digest, &signature))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use icbtc_bitcoin::OutPoint;
    use icbtc_sim::SimTime;

    #[test]
    fn wallet_addresses_are_stable_and_distinct() {
        let system = System::new(SystemConfig::regtest(9));
        let a = Wallet::new("alpha");
        let b = Wallet::new("beta");
        assert_eq!(a.address(&system), a.address(&system));
        assert_ne!(a.address(&system), b.address(&system));
    }

    /// Both constructors keep the derivation paths and address encodings
    /// the two schemes have always used, so funds sent to an address
    /// stay spendable.
    #[test]
    fn addresses_of_both_schemes_are_pinned() {
        let system = System::new(SystemConfig::regtest(9));
        let pinned = [
            (Wallet::new("alpha"), "bcrt1qx7q6qus0pnhkmmk802dc8wzxytr05stjx7ed7m"),
            (Wallet::new("beta"), "bcrt1qjfrh9f64aljfjzx062cuqc0v5u0n0hqzxm2chp"),
            (
                Wallet::taproot("alpha"),
                "bcrt1pjuhttwhmk9qzwm4cack8vzytywsdgnq2k2h548qmaz8wmjvrhcps4g4298",
            ),
            (
                Wallet::taproot("beta"),
                "bcrt1pj3jcjf3sj59f58t83vmm9glaw5xx3d7lnesrx2hmpj8l2v25n73sddggwt",
            ),
        ];
        for (wallet, address) in pinned {
            assert_eq!(wallet.address(&system).to_string(), address, "{:?}", wallet.path());
        }
    }

    #[test]
    fn empty_wallet_reports_zero_and_refuses_transfer() {
        let mut system = System::new(SystemConfig::regtest(10));
        system.btc_mut().run_until(SimTime::from_secs(3600));
        assert!(system.sync_canister(3000));
        let wallet = Wallet::new("empty");
        assert_eq!(wallet.balance(&mut system, 0).unwrap(), Amount::ZERO);
        let to = Wallet::new("other").address(&system);
        let err = wallet
            .transfer(&mut system, &to, Amount::from_sat(1000), Amount::from_sat(100))
            .unwrap_err();
        assert!(matches!(err, WalletError::InsufficientFunds { .. }));
    }

    fn utxo(n: u8, sats: u64) -> Utxo {
        Utxo { outpoint: OutPoint::new(Txid([n; 32]), 0), value: Amount::from_sat(sats), height: 1 }
    }

    #[test]
    fn selection_takes_the_largest_first_until_covered() {
        let utxos = vec![utxo(1, 300), utxo(2, 900), utxo(3, 500), utxo(4, 900)];
        let picked = |required| {
            select_largest_first(utxos.clone(), Amount::from_sat(required))
                .map(|s| s.iter().map(|u| u.outpoint.txid.0[0]).collect::<Vec<_>>())
        };
        assert_eq!(picked(900), Ok(vec![2]));
        assert_eq!(picked(901), Ok(vec![2, 4]), "equal values keep the reply order");
        assert_eq!(picked(2_300), Ok(vec![2, 4, 3]));
        assert_eq!(picked(0), Ok(vec![2]));
        assert_eq!(
            picked(2_601),
            Err(WalletError::InsufficientFunds {
                available: Amount::from_sat(2_600),
                required: Amount::from_sat(2_601),
            })
        );
        assert_eq!(select_largest_first(Vec::new(), Amount::ZERO), Ok(Vec::new()));
        // UTXOs from a hostile chain may sum past MAX_MONEY: the running
        // total clamps instead of panicking.
        let half = Amount::MAX_MONEY.to_sat() / 2 + 1;
        let hostile = vec![utxo(1, half), utxo(2, half), utxo(3, half)];
        assert_eq!(select_largest_first(hostile, Amount::MAX_MONEY).map(|s| s.len()), Ok(2));
    }
}
