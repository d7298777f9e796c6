//! `fraud_mixed` traffic: card spends and probes in four-send
//! transactions, with quiet gaps that let the rule windows empty and
//! about one transaction in fifty carrying an over-limit spend.

use super::Rng;

/// A spend above this is refused by the `OverLimit` rule, which aborts
/// the whole transaction.
pub const SPEND_LIMIT: i64 = 10_000;

const TAG: u64 = 0xF4A0D;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub cards: u32,
    /// Half the traffic goes to the first `hot_cards` cards.
    pub hot_cards: u32,
    /// Transactions per client per round.
    pub txns: usize,
}

impl Shape {
    pub const FULL: Shape = Shape {
        cards: 1024,
        hot_cards: 32,
        txns: 4000,
    };
    pub const SMOKE: Shape = Shape {
        cards: 64,
        hot_cards: 8,
        txns: 150,
    };
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Send {
    Probe { card: u32 },
    Spend { card: u32, amount: i64 },
}

pub const SENDS_PER_TXN: usize = 4;

#[derive(Debug, Clone, PartialEq)]
pub struct Txn {
    pub sends: [Send; SENDS_PER_TXN],
    /// Virtual instants to let pass after the transaction.
    pub advance: u64,
}

impl Txn {
    /// Index of the send the `OverLimit` rule will refuse, if any: the
    /// expected outcome of the transaction is then a rule abort.
    pub fn aborts_at(&self) -> Option<usize> {
        self.sends
            .iter()
            .position(|s| matches!(s, Send::Spend { amount, .. } if *amount > SPEND_LIMIT))
    }
}

pub fn round(seed: u64, client: u64, round: u64, shape: &Shape) -> Vec<Txn> {
    let mut rng = Rng::for_round(seed, TAG, client, round);
    (0..shape.txns)
        .map(|_| {
            let mut sends = [Send::Probe { card: 0 }; SENDS_PER_TXN];
            for s in &mut sends {
                let card = if rng.chance(1, 2) {
                    rng.below(shape.hot_cards as u64) as u32
                } else {
                    rng.below(shape.cards as u64) as u32
                };
                *s = if rng.chance(1, 10) {
                    Send::Probe { card }
                } else if rng.chance(1, 20) {
                    Send::Spend {
                        card,
                        amount: rng.range(1000, 4000),
                    }
                } else {
                    Send::Spend {
                        card,
                        amount: rng.range(1, 500),
                    }
                };
            }
            if rng.chance(1, 50) {
                let at = rng.below(SENDS_PER_TXN as u64) as usize;
                let card = rng.below(shape.cards as u64) as u32;
                sends[at] = Send::Spend {
                    card,
                    amount: SPEND_LIMIT + rng.range(1, 1000),
                };
            }
            // One gap in 64 is longer than every rule window, so the
            // latched aggregates re-arm and the periodic sweep comes due.
            let advance = if rng.chance(1, 64) {
                300
            } else {
                rng.range(1, 8) as u64
            };
            Txn { sends, advance }
        })
        .collect()
}
