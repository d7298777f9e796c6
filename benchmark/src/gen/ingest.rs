//! `durable_ingest` traffic and its model: documents of a passive class
//! are created, written through setter methods and direct attribute
//! writes, and the oldest are deleted so the live set stays one size.
//!
//! The generator keeps its own copy of what every live document must
//! hold; the recovered database is compared against it.

use super::Rng;
use std::collections::{HashMap, VecDeque};

const TAG: u64 = 0x1265;

/// Attributes per document: `i0..i7` Int, `f0..f7` Float, `s0..s7` Str.
pub const ATTRS: usize = 24;
/// Attributes that also have a setter method (`Set_i0`, …): a mix of the
/// three types.
pub const SETTER_ATTRS: [u8; 8] = [0, 1, 2, 8, 9, 10, 16, 17];
pub const WRITES_PER_TXN: usize = 24;
/// Every `DELETE_EVERY`-th transaction deletes that many documents.
pub const DELETE_EVERY: usize = 4;

pub fn attr_name(attr: u8) -> String {
    let (kind, i) = match attr {
        0..=7 => ('i', attr),
        8..=15 => ('f', attr - 8),
        _ => ('s', attr - 16),
    };
    format!("{kind}{i}")
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Live documents, held constant after population.
    pub live: usize,
    pub txns: usize,
    /// Transactions in the log tail recovery replays.
    pub tail_txns: usize,
}

impl Shape {
    pub const FULL: Shape = Shape {
        live: 4096,
        txns: 12_000,
        tail_txns: 2000,
    };
    pub const SMOKE: Shape = Shape {
        live: 128,
        txns: 60,
        tail_txns: 30,
    };
}

#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    Int(i64),
    Float(f64),
    Str(String),
}

impl Val {
    fn default_of(attr: u8) -> Val {
        match attr {
            0..=7 => Val::Int(0),
            8..=15 => Val::Float(0.0),
            _ => Val::Str(String::new()),
        }
    }
}

/// Documents are named by a generator-side id; the client maps it to the
/// oid the database assigned at creation.
pub type DocId = u64;

#[derive(Debug, Clone, PartialEq)]
pub struct Write {
    pub doc: DocId,
    pub attr: u8,
    pub value: Val,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Txn {
    pub create: DocId,
    /// Sent as messages to the setter methods.
    pub setters: [Write; SETTER_ATTRS.len()],
    /// Applied with `set_attr`.
    pub writes: [Write; WRITES_PER_TXN],
    pub deletes: Vec<DocId>,
}

impl Txn {
    pub fn ops(&self) -> u64 {
        (1 + self.setters.len() + self.writes.len() + self.deletes.len()) as u64
    }
}

pub struct Generator {
    seed: u64,
    shape: Shape,
    next_doc: DocId,
    next_round: u64,
    txns_made: usize,
    live: VecDeque<DocId>,
    model: HashMap<DocId, Vec<Val>>,
}

impl Generator {
    pub fn new(seed: u64, shape: Shape) -> Self {
        Generator {
            seed,
            shape,
            next_doc: 0,
            next_round: 0,
            txns_made: 0,
            live: VecDeque::new(),
            model: HashMap::new(),
        }
    }

    fn create(&mut self) -> DocId {
        let doc = self.next_doc;
        self.next_doc += 1;
        self.live.push_back(doc);
        self.model
            .insert(doc, (0..ATTRS as u8).map(Val::default_of).collect());
        doc
    }

    /// The documents to create (with default values) before the clock
    /// starts.
    pub fn populate(&mut self) -> Vec<DocId> {
        (0..self.shape.live).map(|_| self.create()).collect()
    }

    fn value(rng: &mut Rng, attr: u8) -> Val {
        match attr {
            0..=7 => Val::Int(rng.range(-1_000_000, 1_000_000)),
            // Sixty-fourths: exactly representable, so equality after a
            // round trip through the log is a fair check.
            8..=15 => Val::Float(rng.range(-64_000_000, 64_000_000) as f64 / 64.0),
            _ => {
                let len = rng.range(4, 24) as usize;
                Val::Str(
                    (0..len)
                        .map(|_| (b'a' + rng.below(26) as u8) as char)
                        .collect(),
                )
            }
        }
    }

    fn write(&mut self, rng: &mut Rng, fresh: DocId, attr: u8) -> Write {
        let doc = if rng.chance(1, 2) {
            fresh
        } else {
            self.live[rng.below(self.live.len() as u64) as usize]
        };
        let value = Self::value(rng, attr);
        self.model.get_mut(&doc).expect("live doc")[attr as usize] = value.clone();
        Write { doc, attr, value }
    }

    /// Round `round`'s transactions. Rounds must be generated in order:
    /// the live set carries over.
    pub fn round(&mut self, round: u64) -> Vec<Txn> {
        self.batch(round, self.shape.txns)
    }

    /// The transactions of the fixed-size log tail, generated as round
    /// `round` (the one after the last measured round).
    pub fn tail(&mut self, round: u64) -> Vec<Txn> {
        self.batch(round, self.shape.tail_txns)
    }

    fn batch(&mut self, round: u64, txns: usize) -> Vec<Txn> {
        assert_eq!(round, self.next_round, "ingest rounds are sequential");
        self.next_round += 1;
        let mut rng = Rng::for_round(self.seed, TAG, 0, round);
        (0..txns)
            .map(|_| {
                let create = self.create();
                let setters = SETTER_ATTRS.map(|attr| self.write(&mut rng, create, attr));
                let writes = std::array::from_fn(|_| {
                    let attr = rng.below(ATTRS as u64) as u8;
                    self.write(&mut rng, create, attr)
                });
                self.txns_made += 1;
                let mut deletes = Vec::new();
                if self.txns_made.is_multiple_of(DELETE_EVERY) {
                    while self.live.len() > self.shape.live {
                        let doc = self.live.pop_front().expect("non-empty");
                        self.model.remove(&doc);
                        deletes.push(doc);
                    }
                }
                Txn {
                    create,
                    setters,
                    writes,
                    deletes,
                }
            })
            .collect()
    }

    /// What every live document must hold once every generated
    /// transaction has committed.
    pub fn model(&self) -> &HashMap<DocId, Vec<Val>> {
        &self.model
    }
}
