//! `firing_cpu` traffic: each transaction credits sixteen distinct
//! accounts out of sixty-four, so every commit hands the scheduler
//! sixteen independent targets.

use super::Rng;

const TAG: u64 = 0xF1E;

pub const CREDITS_PER_TXN: usize = 16;
/// Credits are whole amounts in `1..=AMOUNT_MAX`; the immediate rule's
/// condition holds above `BIG_CREDIT` (one credit in ten).
pub const AMOUNT_MAX: i64 = 1000;
pub const BIG_CREDIT: i64 = 900;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub accounts: u32,
    pub txns: usize,
}

impl Shape {
    pub const FULL: Shape = Shape {
        accounts: 64,
        txns: 1500,
    };
    pub const SMOKE: Shape = Shape {
        accounts: 64,
        txns: 40,
    };
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Credit {
    pub account: u32,
    pub amount: i64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Txn {
    pub credits: [Credit; CREDITS_PER_TXN],
}

pub fn round(seed: u64, round: u64, shape: &Shape) -> Vec<Txn> {
    let mut rng = Rng::for_round(seed, TAG, 0, round);
    let mut deck: Vec<u32> = (0..shape.accounts).collect();
    (0..shape.txns)
        .map(|_| {
            // Partial Fisher-Yates: the first sixteen of the deck.
            for i in 0..CREDITS_PER_TXN {
                let j = i + rng.below((deck.len() - i) as u64) as usize;
                deck.swap(i, j);
            }
            Txn {
                credits: std::array::from_fn(|i| Credit {
                    account: deck[i],
                    amount: rng.range(1, AMOUNT_MAX),
                }),
            }
        })
        .collect()
}
