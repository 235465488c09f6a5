//! A decentralized Bitcoin payroll — one of the paper's motivating
//! applications (§I), exercising canister timers and batch payouts.
//!
//! ```text
//! cargo run --example payroll
//! ```
//!
//! An employer contract holds a Bitcoin treasury under the subnet's
//! threshold key. On every (simulated) payday its timer fires and it pays
//! all employees **in a single threshold-signed transaction** with one
//! output per employee — cheap on Bitcoin fees and atomic.

use icbtc::contracts::Wallet;
use icbtc::system::{System, SystemConfig};
use icbtc_bitcoin::{Address, Amount};
use icbtc_sim::SimTime;

struct Payroll {
    treasury: Wallet,
    employees: Vec<(String, Address, Amount)>,
    paydays_run: u32,
}

impl Payroll {
    fn new(system: &System, staff: &[(&str, Amount)]) -> Payroll {
        let employees = staff
            .iter()
            .map(|(name, salary)| {
                let wallet = Wallet::new(&format!("employee-{name}"));
                (name.to_string(), wallet.address(system), *salary)
            })
            .collect();
        Payroll { treasury: Wallet::new("payroll-treasury"), employees, paydays_run: 0 }
    }

    fn total_per_payday(&self) -> Amount {
        self.employees
            .iter()
            .try_fold(Amount::ZERO, |sum, (_, _, salary)| sum.checked_add(*salary))
            .expect("salaries sum below MAX_MONEY")
    }

    /// The timer callback: one batch payment for the whole staff.
    fn run_payday(&mut self, system: &mut System) -> icbtc_bitcoin::Txid {
        let payments: Vec<(Address, Amount)> =
            self.employees.iter().map(|(_, addr, salary)| (*addr, *salary)).collect();
        let txid = self
            .treasury
            .pay_many(system, &payments, Amount::from_sat(3_000))
            .expect("treasury funded");
        self.paydays_run += 1;
        txid
    }
}

fn main() {
    println!("=== decentralized payroll on the IC ===\n");
    let mut system = System::new(SystemConfig::regtest(4242));
    system.btc_mut().run_until(SimTime::from_secs(1800));
    assert!(system.sync_canister(5000));

    let staff: &[(&str, Amount)] = &[
        ("alice", Amount::from_sat(60_000_000)),
        ("bob", Amount::from_sat(45_000_000)),
        ("carol", Amount::from_sat(80_000_000)),
        ("dave", Amount::from_sat(30_000_000)),
    ];
    let mut payroll = Payroll::new(&system, staff);
    println!(
        "staff of {}, total per payday: {}",
        staff.len(),
        payroll.total_per_payday()
    );

    // Fund the treasury for several paydays.
    let treasury_addr = payroll.treasury.address(&system);
    println!("treasury address: {treasury_addr}");
    system.fund_address(&treasury_addr, 3);
    assert!(system.sync_canister(5000));
    println!(
        "treasury funded: {}\n",
        payroll.treasury.balance(&mut system, 0).unwrap()
    );

    const PAYDAYS: u32 = 3;
    for month in 1..=PAYDAYS {
        let txid = payroll.run_payday(&mut system);
        let height = system.await_transaction_mined(txid, 600).expect("payday mined");
        println!("payday {month}: batch tx {txid} mined at height {height}");
        assert!(system.sync_canister(5000));
    }

    println!();
    for (name, address, salary) in &payroll.employees {
        let wallet_balance = {
            let outcome = system.query(icbtc::canister::CanisterCall::GetBalance {
                address: *address,
                min_confirmations: 0,
            });
            match outcome.outcome.reply {
                Ok(icbtc::canister::CanisterReply::Balance(b)) => b.balance,
                other => panic!("balance query failed: {other:?}"),
            }
        };
        let expected = Amount::from_sat(salary.to_sat() * PAYDAYS as u64);
        println!("{name:>6}: {wallet_balance} (expected {expected})");
        assert_eq!(wallet_balance, expected);
    }
    println!(
        "\ntreasury after {PAYDAYS} paydays: {}",
        payroll.treasury.balance(&mut system, 0).unwrap()
    );
    println!("payroll complete.");
}
