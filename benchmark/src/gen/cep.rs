//! `cep_shared` traffic: uniform sends over the sixteen event methods of
//! a small population of sensors, eight sends to a transaction.

use super::Rng;

const TAG: u64 = 0xCE9;

pub const METHODS: usize = 16;
pub const SENDS_PER_TXN: usize = 8;
/// Parameter values are drawn from `0..PARAM_RANGE`; the rule conditions
/// hold only at the top value, so they are false 999 times in 1000.
pub const PARAM_RANGE: i64 = 1000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub sensors: u32,
    pub txns: usize,
}

impl Shape {
    pub const FULL: Shape = Shape {
        sensors: 64,
        txns: 4500,
    };
    pub const SMOKE: Shape = Shape {
        sensors: 8,
        txns: 100,
    };
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Send {
    pub sensor: u32,
    pub method: u8,
    pub v: i64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Txn {
    pub sends: [Send; SENDS_PER_TXN],
}

pub fn round(seed: u64, round: u64, shape: &Shape) -> Vec<Txn> {
    let mut rng = Rng::for_round(seed, TAG, 0, round);
    (0..shape.txns)
        .map(|_| Txn {
            sends: std::array::from_fn(|_| Send {
                sensor: rng.below(shape.sensors as u64) as u32,
                method: rng.below(METHODS as u64) as u8,
                v: rng.range(0, PARAM_RANGE - 1),
            }),
        })
        .collect()
}
