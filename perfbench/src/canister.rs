//! The benchmark's own [`StateMachine`] around [`BitcoinCanister`].
//!
//! A `Subnet` calls its state machine internally, so its calls into the
//! canister cannot be timed from outside. The subnet hosts this wrapper
//! instead: it forwards every method unchanged and records one span per
//! call.

use icbtc::canister::{BitcoinCanister, CallOutcome, CanisterCall};
use icbtc::ic::{ExecutionContext, StateMachine};

use crate::trace::span;

/// A [`BitcoinCanister`] whose state-machine calls are traced.
#[derive(Debug)]
pub struct TracedCanister {
    /// The wrapped canister.
    pub inner: BitcoinCanister,
}

impl TracedCanister {
    /// Wraps `inner`.
    pub fn new(inner: BitcoinCanister) -> TracedCanister {
        TracedCanister { inner }
    }
}

/// Span name of a query, per API method.
fn query_span(call: &CanisterCall) -> &'static str {
    match call {
        CanisterCall::GetUtxos { .. } => "canister.query.get_utxos",
        CanisterCall::GetBalance { .. } => "canister.query.get_balance",
        CanisterCall::GetFeePercentiles => "canister.query.fee_percentiles",
        _ => "canister.query.other",
    }
}

impl StateMachine for TracedCanister {
    type Input = CanisterCall;
    type Output = CallOutcome;

    fn execute(&mut self, input: CanisterCall, ctx: &mut ExecutionContext<'_>) -> CallOutcome {
        span("canister.execute", || self.inner.execute(input, ctx))
    }

    fn execute_query(
        &mut self,
        input: CanisterCall,
        ctx: &mut ExecutionContext<'_>,
    ) -> CallOutcome {
        span(query_span(&input), || self.inner.execute_query(input, ctx))
    }

    fn output_bytes(output: &CallOutcome) -> usize {
        span("canister.output_bytes", || {
            BitcoinCanister::output_bytes(output)
        })
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        span("canister.checkpoint_bytes", || self.inner.checkpoint())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        span("canister.restore", || {
            StateMachine::restore(&mut self.inner, bytes)
        })
    }

    fn state_fingerprint(&self) -> Option<[u8; 32]> {
        span("canister.state_hash", || self.inner.state_fingerprint())
    }
}
