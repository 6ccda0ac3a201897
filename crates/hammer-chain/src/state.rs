//! Versioned world state with read/write-set tracking.
//!
//! Every key (account) carries a version that bumps on each committed
//! write. Execution can run in two modes:
//!
//! * [`VersionedState::apply`] — execute-and-commit in one step (used by
//!   order-execute chains such as the Ethereum, Neuchain and Meepo
//!   simulators, which execute in block order).
//! * [`VersionedState::simulate`] — Fabric-style endorsement: execute
//!   against current state *without* writing, recording a [`RwSet`]; later
//!   [`VersionedState::validate_and_commit`] re-checks the read versions
//!   and either applies the writes or rejects the transaction as an MVCC
//!   conflict. This conflict path is what drives the client-scaling
//!   behaviour in the paper's Fig. 10.

use std::collections::HashMap;

use crate::smallbank::{ExecError, Op, OpOutput};
use crate::types::Address;

/// One account's state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccountState {
    /// Checking balance.
    pub checking: u64,
    /// Savings balance.
    pub savings: u64,
    /// Version, bumped on every committed write.
    pub version: u64,
}

/// A Fabric-style read/write set produced by simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RwSet {
    /// Keys read, with the version observed at simulation time.
    pub reads: Vec<(Address, u64)>,
    /// Keys written, with the complete new state (version not yet bumped).
    pub writes: Vec<(Address, AccountState)>,
    /// The operation's output at simulation time.
    pub output: OpOutput,
}

/// The versioned key/value world state of a (shard of a) chain.
#[derive(Clone, Debug, Default)]
pub struct VersionedState {
    accounts: HashMap<Address, AccountState>,
}

impl VersionedState {
    /// An empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads an account's state.
    pub fn get(&self, account: Address) -> Option<AccountState> {
        self.accounts.get(&account).copied()
    }

    /// Directly creates an account (used for test-fixture initialisation,
    /// bypassing transaction flow). Overwrites an existing account.
    pub fn seed_account(&mut self, account: Address, checking: u64, savings: u64) {
        self.accounts.insert(
            account,
            AccountState {
                checking,
                savings,
                version: 0,
            },
        );
    }

    /// Overwrites an account's balances, bumping its version; creates the
    /// account when missing.
    ///
    /// Sharded chains use this for cross-shard settlement, where the
    /// debit/credit halves of one transaction execute on different shards
    /// outside the single-shard operation flow (Meepo's cross-epoch calls).
    pub fn force_write(&mut self, account: Address, checking: u64, savings: u64) {
        let version = self.accounts.get(&account).map(|a| a.version).unwrap_or(0) + 1;
        self.accounts.insert(
            account,
            AccountState {
                checking,
                savings,
                version,
            },
        );
    }

    /// Sum of all balances (conservation-of-money invariant checks).
    pub fn total_funds(&self) -> u128 {
        self.accounts
            .values()
            .map(|a| a.checking as u128 + a.savings as u128)
            .sum()
    }

    /// Executes `op` and commits its writes immediately.
    pub fn apply(&mut self, op: &Op) -> Result<OpOutput, ExecError> {
        let rwset = self.execute(op)?;
        for (addr, mut new_state) in rwset.writes {
            let old_version = self.accounts.get(&addr).map(|a| a.version).unwrap_or(0);
            new_state.version = old_version + 1;
            self.accounts.insert(addr, new_state);
        }
        Ok(rwset.output)
    }

    /// Executes `op` against current state without committing, returning
    /// the read/write set (Fabric endorsement).
    pub fn simulate(&self, op: &Op) -> Result<RwSet, ExecError> {
        self.execute(op)
    }

    /// Validates a simulated [`RwSet`] against current versions and commits
    /// it if every read version still matches. Returns `true` on commit,
    /// `false` on MVCC conflict.
    pub fn validate_and_commit(&mut self, rwset: &RwSet) -> bool {
        for (addr, seen_version) in &rwset.reads {
            let current = self.accounts.get(addr).map(|a| a.version).unwrap_or(0);
            if current != *seen_version {
                return false;
            }
        }
        for (addr, new_state) in &rwset.writes {
            let old_version = self.accounts.get(addr).map(|a| a.version).unwrap_or(0);
            let mut state = *new_state;
            state.version = old_version + 1;
            self.accounts.insert(*addr, state);
        }
        true
    }

    /// The shared execution core: computes the rwset for `op`.
    fn execute(&self, op: &Op) -> Result<RwSet, ExecError> {
        let mut rw = RwSet::default();
        let read = |rw: &mut RwSet, addr: Address| -> Option<AccountState> {
            let state = self.accounts.get(&addr).copied();
            rw.reads.push((addr, state.map(|s| s.version).unwrap_or(0)));
            state
        };
        match *op {
            Op::CreateAccount {
                account,
                checking,
                savings,
            } => {
                if read(&mut rw, account).is_some() {
                    return Err(ExecError::AccountExists(account));
                }
                rw.writes.push((
                    account,
                    AccountState {
                        checking,
                        savings,
                        version: 0,
                    },
                ));
                rw.output = OpOutput::Ok;
            }
            Op::DepositChecking { account, amount } => {
                let mut state = read(&mut rw, account).ok_or(ExecError::UnknownAccount(account))?;
                state.checking = state
                    .checking
                    .checked_add(amount)
                    .ok_or(ExecError::Overflow)?;
                rw.writes.push((account, state));
                rw.output = OpOutput::Ok;
            }
            Op::WriteCheck { account, amount } => {
                let mut state = read(&mut rw, account).ok_or(ExecError::UnknownAccount(account))?;
                if state.checking < amount {
                    return Err(ExecError::InsufficientFunds {
                        account,
                        available: state.checking,
                        requested: amount,
                    });
                }
                state.checking -= amount;
                rw.writes.push((account, state));
                rw.output = OpOutput::Ok;
            }
            Op::SendPayment { from, to, amount } => {
                let mut src = read(&mut rw, from).ok_or(ExecError::UnknownAccount(from))?;
                let mut dst = read(&mut rw, to).ok_or(ExecError::UnknownAccount(to))?;
                if src.checking < amount {
                    return Err(ExecError::InsufficientFunds {
                        account: from,
                        available: src.checking,
                        requested: amount,
                    });
                }
                if from == to {
                    // Self-transfer is a no-op that still bumps the version.
                    rw.writes.push((from, src));
                } else {
                    src.checking -= amount;
                    dst.checking = dst
                        .checking
                        .checked_add(amount)
                        .ok_or(ExecError::Overflow)?;
                    rw.writes.push((from, src));
                    rw.writes.push((to, dst));
                }
                rw.output = OpOutput::Ok;
            }
            Op::Amalgamate { from, to } => {
                let mut src = read(&mut rw, from).ok_or(ExecError::UnknownAccount(from))?;
                let mut dst = read(&mut rw, to).ok_or(ExecError::UnknownAccount(to))?;
                if from == to {
                    // Move own savings into own checking.
                    src.checking = src
                        .checking
                        .checked_add(src.savings)
                        .ok_or(ExecError::Overflow)?;
                    src.savings = 0;
                    rw.writes.push((from, src));
                } else {
                    let moved = src.savings;
                    src.savings = 0;
                    dst.checking = dst.checking.checked_add(moved).ok_or(ExecError::Overflow)?;
                    rw.writes.push((from, src));
                    rw.writes.push((to, dst));
                }
                rw.output = OpOutput::Ok;
            }
            Op::TransactSavings { account, amount } => {
                let mut state = read(&mut rw, account).ok_or(ExecError::UnknownAccount(account))?;
                state.savings = state
                    .savings
                    .checked_add(amount)
                    .ok_or(ExecError::Overflow)?;
                rw.writes.push((account, state));
                rw.output = OpOutput::Ok;
            }
            Op::Balance { account } => {
                let state = read(&mut rw, account).ok_or(ExecError::UnknownAccount(account))?;
                rw.output = OpOutput::Balances(state.checking, state.savings);
            }
            Op::KvPut { key, value } => {
                let addr = Address(key);
                let _ = read(&mut rw, addr);
                rw.writes.push((
                    addr,
                    AccountState {
                        checking: value,
                        savings: 0,
                        version: 0,
                    },
                ));
                rw.output = OpOutput::Ok;
            }
            Op::KvGet { key } => {
                let addr = Address(key);
                let state = read(&mut rw, addr);
                rw.output = OpOutput::KvValue(state.map(|s| s.checking));
            }
        }
        Ok(rw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn addr(n: &str) -> Address {
        Address::from_name(n)
    }

    fn seeded() -> VersionedState {
        let mut s = VersionedState::new();
        s.seed_account(addr("alice"), 100, 50);
        s.seed_account(addr("bob"), 200, 75);
        s
    }

    #[test]
    fn create_and_read() {
        let mut s = VersionedState::new();
        s.apply(&Op::CreateAccount {
            account: addr("a"),
            checking: 10,
            savings: 20,
        })
        .unwrap();
        let out = s.apply(&Op::Balance { account: addr("a") }).unwrap();
        assert_eq!(out, OpOutput::Balances(10, 20));
    }

    #[test]
    fn create_duplicate_fails() {
        let mut s = seeded();
        let err = s
            .apply(&Op::CreateAccount {
                account: addr("alice"),
                checking: 0,
                savings: 0,
            })
            .unwrap_err();
        assert_eq!(err, ExecError::AccountExists(addr("alice")));
    }

    #[test]
    fn deposit_and_withdraw() {
        let mut s = seeded();
        s.apply(&Op::DepositChecking {
            account: addr("alice"),
            amount: 25,
        })
        .unwrap();
        assert_eq!(s.get(addr("alice")).unwrap().checking, 125);
        s.apply(&Op::WriteCheck {
            account: addr("alice"),
            amount: 100,
        })
        .unwrap();
        assert_eq!(s.get(addr("alice")).unwrap().checking, 25);
    }

    #[test]
    fn withdraw_insufficient_fails() {
        let mut s = seeded();
        let err = s
            .apply(&Op::WriteCheck {
                account: addr("alice"),
                amount: 1000,
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::InsufficientFunds { .. }));
        // State unchanged.
        assert_eq!(s.get(addr("alice")).unwrap().checking, 100);
    }

    #[test]
    fn transfer_moves_funds() {
        let mut s = seeded();
        s.apply(&Op::SendPayment {
            from: addr("alice"),
            to: addr("bob"),
            amount: 40,
        })
        .unwrap();
        assert_eq!(s.get(addr("alice")).unwrap().checking, 60);
        assert_eq!(s.get(addr("bob")).unwrap().checking, 240);
    }

    #[test]
    fn self_transfer_is_noop_but_bumps_version() {
        let mut s = seeded();
        let v0 = s.get(addr("alice")).unwrap().version;
        s.apply(&Op::SendPayment {
            from: addr("alice"),
            to: addr("alice"),
            amount: 10,
        })
        .unwrap();
        let st = s.get(addr("alice")).unwrap();
        assert_eq!(st.checking, 100);
        assert_eq!(st.version, v0 + 1);
    }

    #[test]
    fn amalgamate_drains_savings() {
        let mut s = seeded();
        s.apply(&Op::Amalgamate {
            from: addr("alice"),
            to: addr("bob"),
        })
        .unwrap();
        let alice = s.get(addr("alice")).unwrap();
        let bob = s.get(addr("bob")).unwrap();
        assert_eq!(alice.savings, 0);
        assert_eq!(bob.checking, 250);
    }

    #[test]
    fn self_amalgamate_moves_savings_to_checking() {
        let mut s = seeded();
        s.apply(&Op::Amalgamate {
            from: addr("alice"),
            to: addr("alice"),
        })
        .unwrap();
        let alice = s.get(addr("alice")).unwrap();
        assert_eq!(alice.checking, 150);
        assert_eq!(alice.savings, 0);
    }

    #[test]
    fn unknown_account_fails() {
        let mut s = VersionedState::new();
        for op in [
            Op::DepositChecking {
                account: addr("x"),
                amount: 1,
            },
            Op::WriteCheck {
                account: addr("x"),
                amount: 1,
            },
            Op::Balance { account: addr("x") },
            Op::TransactSavings {
                account: addr("x"),
                amount: 1,
            },
        ] {
            assert!(
                matches!(s.apply(&op), Err(ExecError::UnknownAccount(_))),
                "{op:?}"
            );
        }
    }

    #[test]
    fn overflow_detected() {
        let mut s = VersionedState::new();
        s.seed_account(addr("rich"), u64::MAX, 0);
        let err = s
            .apply(&Op::DepositChecking {
                account: addr("rich"),
                amount: 1,
            })
            .unwrap_err();
        assert_eq!(err, ExecError::Overflow);
    }

    #[test]
    fn kv_put_get() {
        let mut s = VersionedState::new();
        assert_eq!(
            s.apply(&Op::KvGet { key: 7 }).unwrap(),
            OpOutput::KvValue(None)
        );
        s.apply(&Op::KvPut { key: 7, value: 99 }).unwrap();
        assert_eq!(
            s.apply(&Op::KvGet { key: 7 }).unwrap(),
            OpOutput::KvValue(Some(99))
        );
    }

    #[test]
    fn versions_bump_on_commit() {
        let mut s = seeded();
        assert_eq!(s.get(addr("alice")).unwrap().version, 0);
        s.apply(&Op::DepositChecking {
            account: addr("alice"),
            amount: 1,
        })
        .unwrap();
        assert_eq!(s.get(addr("alice")).unwrap().version, 1);
        s.apply(&Op::DepositChecking {
            account: addr("alice"),
            amount: 1,
        })
        .unwrap();
        assert_eq!(s.get(addr("alice")).unwrap().version, 2);
    }

    #[test]
    fn mvcc_conflict_detected() {
        let mut s = seeded();
        // Two transactions simulated against the same snapshot.
        let rw1 = s
            .simulate(&Op::WriteCheck {
                account: addr("alice"),
                amount: 10,
            })
            .unwrap();
        let rw2 = s
            .simulate(&Op::WriteCheck {
                account: addr("alice"),
                amount: 20,
            })
            .unwrap();
        assert!(s.validate_and_commit(&rw1));
        // Second one read version 0 but alice is now at version 1.
        assert!(!s.validate_and_commit(&rw2));
        assert_eq!(s.get(addr("alice")).unwrap().checking, 90);
    }

    #[test]
    fn disjoint_rwsets_both_commit() {
        let mut s = seeded();
        let rw1 = s
            .simulate(&Op::DepositChecking {
                account: addr("alice"),
                amount: 1,
            })
            .unwrap();
        let rw2 = s
            .simulate(&Op::DepositChecking {
                account: addr("bob"),
                amount: 2,
            })
            .unwrap();
        assert!(s.validate_and_commit(&rw1));
        assert!(s.validate_and_commit(&rw2));
    }

    #[test]
    fn read_only_rwset_has_no_writes() {
        let s = seeded();
        let rw = s
            .simulate(&Op::Balance {
                account: addr("alice"),
            })
            .unwrap();
        assert!(rw.writes.is_empty());
        assert_eq!(rw.reads.len(), 1);
        assert_eq!(rw.output, OpOutput::Balances(100, 50));
    }

    #[test]
    fn transfers_conserve_total_funds() {
        let mut s = seeded();
        let before = s.total_funds();
        s.apply(&Op::SendPayment {
            from: addr("alice"),
            to: addr("bob"),
            amount: 33,
        })
        .unwrap();
        s.apply(&Op::Amalgamate {
            from: addr("bob"),
            to: addr("alice"),
        })
        .unwrap();
        assert_eq!(s.total_funds(), before);
    }

    proptest! {
        /// Any sequence of transfers/amalgamates between seeded accounts
        /// conserves total funds, regardless of failures.
        #[test]
        fn prop_conservation(ops in proptest::collection::vec((0u8..4, 0u64..300), 1..40)) {
            let names = ["a", "b", "c"];
            let mut s = VersionedState::new();
            for n in names {
                s.seed_account(addr(n), 1000, 500);
            }
            // Deposits/withdrawals change the total by a known delta;
            // transfers/amalgamates must not change it at all.
            let mut expected = s.total_funds();
            for (sel, amount) in ops {
                let from = addr(names[(amount % 3) as usize]);
                let to = addr(names[((amount / 3) % 3) as usize]);
                let op = match sel {
                    0 => Op::SendPayment { from, to, amount },
                    1 => Op::Amalgamate { from, to },
                    2 => Op::WriteCheck { account: from, amount },
                    _ => Op::DepositChecking { account: from, amount },
                };
                let ok = s.apply(&op).is_ok();
                if ok {
                    match sel {
                        2 => expected -= amount as u128,
                        3 => expected += amount as u128,
                        _ => {}
                    }
                }
                // Failures must leave state untouched; successes must match
                // the accounting delta exactly.
                prop_assert_eq!(s.total_funds(), expected);
            }
        }

        /// validate_and_commit after interleaved commits never double-spends:
        /// conflicting rwsets are rejected.
        #[test]
        fn prop_mvcc_no_lost_updates(amounts in proptest::collection::vec(1u64..50, 2..10)) {
            let mut s = VersionedState::new();
            s.seed_account(addr("acct"), 10_000, 0);
            // Simulate all against the same snapshot; only the first commit
            // may succeed.
            let rwsets: Vec<_> = amounts
                .iter()
                .map(|a| s.simulate(&Op::WriteCheck { account: addr("acct"), amount: *a }).unwrap())
                .collect();
            let mut committed = 0;
            let mut spent = 0;
            for rw in &rwsets {
                if s.validate_and_commit(rw) {
                    committed += 1;
                }
            }
            if committed == 1 {
                spent = 10_000 - s.get(addr("acct")).unwrap().checking;
            }
            prop_assert_eq!(committed, 1);
            prop_assert_eq!(spent, amounts[0]);
        }
    }
}
