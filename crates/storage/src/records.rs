//! Write-ahead-log records and the binary codec the log and the
//! snapshot share.
//!
//! A record is a tag byte followed by its fields. Unsigned integers
//! (ids, slot indices, counts, lengths) are LEB128 varints; `Int` is a
//! zig-zag varint; `Float` is its eight IEEE-754 bytes, little-endian,
//! so NaN payloads, the infinities and `-0.0` come back bit for bit;
//! strings are a varint byte length followed by UTF-8. Lists and maps
//! are a count followed by their items, nested at most [`MAX_DEPTH`]
//! deep.
//!
//! Decoding never trusts the input: every read is bounds-checked, a
//! count is bounded by the bytes left before anything is allocated for
//! it, and malformed input is an `Err`, never a panic.

use sentinel_object::{
    AttributeDef, ClassDecl, ClassId, EventSpec, MethodDef, ObjectError, Oid, ParamDef, Reactivity,
    Result, TypeTag, Value, Visibility,
};
use std::collections::BTreeMap;

/// Transaction identifier, unique per database lifetime.
pub type TxnId = u64;

/// How deeply lists and maps may nest in decoded input, like the JSON
/// parser's recursion limit.
pub const MAX_DEPTH: usize = 128;

/// One record in the write-ahead log.
///
/// Records are *redo* records: recovery replays the mutations of
/// committed transactions in log order, and nothing else.
///
/// Mutation records (`CreateSlots` / `SetSlot`) are slot-interned:
/// class by [`ClassId`], attribute by slot index, no old value (undo
/// lives in memory; the log is redo-only). `ClassId`s and slot indices
/// are stable across recovery because snapshots restore classes in
/// definition order and `Schema` records replay in log order, both
/// reproducing registry ids exactly.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // record fields are named and self-describing
pub enum LogRecord {
    /// Transaction start.
    Begin { txn: TxnId },
    /// Transaction commit — its earlier records become durable.
    Commit { txn: TxnId },
    /// Transaction abort — its earlier records must be ignored.
    Abort { txn: TxnId },
    /// Object creation, class by registry id, with the initial slot
    /// values.
    CreateSlots {
        txn: TxnId,
        oid: Oid,
        class: ClassId,
        slots: Vec<Value>,
    },
    /// Attribute update by slot index (redo-only: the displaced old
    /// value stays in the in-memory undo list).
    SetSlot {
        txn: TxnId,
        oid: Oid,
        class: ClassId,
        slot: u32,
        new: Value,
    },
    /// Object deletion.
    Delete { txn: TxnId, oid: Oid },
    /// Logical-clock watermark, so recovery resumes timestamps above
    /// anything already issued.
    ClockAdvance { at: u64 },
    /// A class defined after the last snapshot.
    Schema { txn: TxnId, decl: Box<ClassDecl> },
}

const BEGIN: u8 = 1;
const COMMIT: u8 = 2;
const ABORT: u8 = 3;
const CREATE_SLOTS: u8 = 4;
const SET_SLOT: u8 = 5;
const DELETE: u8 = 6;
const CLOCK_ADVANCE: u8 = 7;
const SCHEMA: u8 = 8;

impl LogRecord {
    /// The transaction a record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::CreateSlots { txn, .. }
            | LogRecord::SetSlot { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::Schema { txn, .. } => Some(*txn),
            LogRecord::ClockAdvance { .. } => None,
        }
    }

    /// Append the record's binary encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::Begin { txn } => put_tagged(out, BEGIN, *txn),
            LogRecord::Commit { txn } => put_tagged(out, COMMIT, *txn),
            LogRecord::Abort { txn } => put_tagged(out, ABORT, *txn),
            LogRecord::CreateSlots {
                txn,
                oid,
                class,
                slots,
            } => {
                put_tagged(out, CREATE_SLOTS, *txn);
                put_varint(out, oid.0);
                put_varint(out, class.0.into());
                put_list(out, slots, put_value);
            }
            LogRecord::SetSlot {
                txn,
                oid,
                class,
                slot,
                new,
            } => {
                put_tagged(out, SET_SLOT, *txn);
                put_varint(out, oid.0);
                put_varint(out, class.0.into());
                put_varint(out, (*slot).into());
                put_value(out, new);
            }
            LogRecord::Delete { txn, oid } => {
                put_tagged(out, DELETE, *txn);
                put_varint(out, oid.0);
            }
            LogRecord::ClockAdvance { at } => put_tagged(out, CLOCK_ADVANCE, *at),
            LogRecord::Schema { txn, decl } => {
                put_tagged(out, SCHEMA, *txn);
                put_class_decl(out, decl);
            }
        }
    }

    /// Append `records` as one log-frame payload: their count, then
    /// each record.
    pub fn encode_all(records: &[LogRecord], out: &mut Vec<u8>) {
        put_list(out, records, |out, r| r.encode(out));
    }

    /// Decode a payload written by [`encode_all`](Self::encode_all),
    /// appending its records to `out`. On `Err` (truncated, trailing or
    /// malformed bytes) `out` is left as it was.
    pub fn decode_all(payload: &[u8], out: &mut Vec<LogRecord>) -> Result<()> {
        let before = out.len();
        let decoded = Reader::new(payload).records_into(out);
        if decoded.is_err() {
            out.truncate(before);
        }
        decoded
    }
}

fn put_tagged(out: &mut Vec<u8>, tag: u8, n: u64) {
    out.push(tag);
    put_varint(out, n);
}

/// An unsigned LEB128 varint.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// A count, then each item.
pub(crate) fn put_list<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_varint(out, items.len() as u64);
    for item in items {
        put(out, item);
    }
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
const INT: u8 = 3;
const FLOAT: u8 = 4;
const STR: u8 = 5;
const OID: u8 = 6;
const LIST: u8 = 7;
const MAP: u8 = 8;

pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(NULL),
        Value::Bool(false) => out.push(FALSE),
        Value::Bool(true) => out.push(TRUE),
        Value::Int(n) => {
            out.push(INT);
            put_varint(out, ((n << 1) ^ (n >> 63)) as u64);
        }
        Value::Float(f) => {
            out.push(FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(STR);
            put_str(out, s);
        }
        Value::Oid(o) => {
            out.push(OID);
            put_varint(out, o.0);
        }
        Value::List(items) => {
            out.push(LIST);
            put_list(out, items, put_value);
        }
        Value::Map(map) => {
            out.push(MAP);
            put_varint(out, map.len() as u64);
            for (k, v) in map {
                put_str(out, k);
                put_value(out, v);
            }
        }
    }
}

/// The on-disk order of each schema enum: a variant is written as its
/// index here, so reordering a Rust enum cannot change the format.
const REACTIVITIES: [Reactivity; 2] = [Reactivity::Passive, Reactivity::Reactive];
const TYPE_TAGS: [TypeTag; 8] = [
    TypeTag::Any,
    TypeTag::Bool,
    TypeTag::Int,
    TypeTag::Float,
    TypeTag::Str,
    TypeTag::Oid,
    TypeTag::List,
    TypeTag::Map,
];
const VISIBILITIES: [Visibility; 3] = [
    Visibility::Public,
    Visibility::Protected,
    Visibility::Private,
];
const EVENT_SPECS: [EventSpec; 4] = [
    EventSpec::None,
    EventSpec::Begin,
    EventSpec::End,
    EventSpec::BeginAndEnd,
];

fn put_enum<T: PartialEq>(out: &mut Vec<u8>, table: &[T], v: &T) {
    let index = table
        .iter()
        .position(|t| t == v)
        .expect("every variant is in its table");
    out.push(index as u8);
}

pub(crate) fn put_class_decl(out: &mut Vec<u8>, decl: &ClassDecl) {
    put_str(out, &decl.name);
    put_list(out, &decl.parents, |out, p| put_str(out, p));
    put_enum(out, &REACTIVITIES, &decl.reactivity);
    put_list(out, &decl.attributes, |out, a| {
        put_str(out, &a.name);
        put_enum(out, &TYPE_TAGS, &a.ty);
        put_value(out, &a.default);
        put_enum(out, &VISIBILITIES, &a.visibility);
    });
    put_list(out, &decl.methods, |out, m| {
        put_str(out, &m.name);
        put_list(out, &m.params, |out, p| {
            put_str(out, &p.name);
            put_enum(out, &TYPE_TAGS, &p.ty);
        });
        put_enum(out, &VISIBILITIES, &m.visibility);
        put_enum(out, &EVENT_SPECS, &m.events);
    });
}

fn malformed(what: &str) -> ObjectError {
    ObjectError::Storage(format!("malformed encoding: {what}"))
}

/// Reads the codec's items off a byte slice, bounds-checking each.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// `Ok` only when every byte was consumed.
    pub(crate) fn finish(&self) -> Result<()> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(malformed(&format!("{n} trailing byte(s)"))),
        }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() {
            return Err(malformed("truncated"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn varint(&mut self) -> Result<u64> {
        let mut n = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(malformed("varint overflows 64 bits"));
            }
            n |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(n);
            }
        }
        Err(malformed("varint overflows 64 bits"))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        u32::try_from(self.varint()?).map_err(|_| malformed("value overflows 32 bits"))
    }

    /// An item count. Every item takes at least one byte, so a count
    /// above the bytes left is malformed; checked before anything is
    /// allocated for it.
    pub(crate) fn count(&mut self) -> Result<usize> {
        let n = self.varint()?;
        if n > self.buf.len() as u64 {
            return Err(malformed("count exceeds the bytes left"));
        }
        Ok(n as usize)
    }

    pub(crate) fn string(&mut self) -> Result<String> {
        let n = self.count()?;
        let bytes = self.bytes(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| malformed("string is not UTF-8"))
    }

    pub(crate) fn value(&mut self, depth: usize) -> Result<Value> {
        Ok(match self.u8()? {
            NULL => Value::Null,
            FALSE => Value::Bool(false),
            TRUE => Value::Bool(true),
            INT => {
                let z = self.varint()?;
                Value::Int((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            FLOAT => {
                let b = self.bytes(8)?;
                Value::Float(f64::from_le_bytes(b.try_into().expect("eight bytes")))
            }
            STR => Value::Str(self.string()?),
            OID => Value::Oid(Oid(self.varint()?)),
            LIST | MAP if depth >= MAX_DEPTH => {
                return Err(malformed("values nest too deeply"));
            }
            LIST => Value::List(self.list(|r| r.value(depth + 1))?),
            MAP => {
                let n = self.count()?;
                let mut map = BTreeMap::new();
                for _ in 0..n {
                    let k = self.string()?;
                    let v = self.value(depth + 1)?;
                    if map.insert(k, v).is_some() {
                        return Err(malformed("duplicate map key"));
                    }
                }
                Value::Map(map)
            }
            tag => return Err(malformed(&format!("unknown value tag {tag}"))),
        })
    }

    pub(crate) fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.count()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn enum_of<T: Copy>(&mut self, table: &[T], what: &str) -> Result<T> {
        let index = self.u8()?;
        table
            .get(usize::from(index))
            .copied()
            .ok_or_else(|| malformed(&format!("unknown {what} {index}")))
    }

    pub(crate) fn class_decl(&mut self) -> Result<ClassDecl> {
        Ok(ClassDecl {
            name: self.string()?,
            parents: self.list(Self::string)?,
            reactivity: self.enum_of(&REACTIVITIES, "reactivity")?,
            attributes: self.list(|r| {
                Ok(AttributeDef {
                    name: r.string()?,
                    ty: r.enum_of(&TYPE_TAGS, "type tag")?,
                    default: r.value(0)?,
                    visibility: r.enum_of(&VISIBILITIES, "visibility")?,
                })
            })?,
            methods: self.list(|r| {
                Ok(MethodDef {
                    name: r.string()?,
                    params: r.list(|r| {
                        Ok(ParamDef {
                            name: r.string()?,
                            ty: r.enum_of(&TYPE_TAGS, "type tag")?,
                        })
                    })?,
                    visibility: r.enum_of(&VISIBILITIES, "visibility")?,
                    events: r.enum_of(&EVENT_SPECS, "event spec")?,
                })
            })?,
        })
    }

    /// A whole frame payload: a count, that many records, nothing more.
    fn records_into(mut self, out: &mut Vec<LogRecord>) -> Result<()> {
        let n = self.count()?;
        out.reserve(n);
        for _ in 0..n {
            out.push(self.record()?);
        }
        self.finish()
    }

    fn record(&mut self) -> Result<LogRecord> {
        let tag = self.u8()?;
        if tag == CLOCK_ADVANCE {
            return Ok(LogRecord::ClockAdvance { at: self.varint()? });
        }
        let txn = self.varint()?;
        Ok(match tag {
            BEGIN => LogRecord::Begin { txn },
            COMMIT => LogRecord::Commit { txn },
            ABORT => LogRecord::Abort { txn },
            CREATE_SLOTS => LogRecord::CreateSlots {
                txn,
                oid: Oid(self.varint()?),
                class: ClassId(self.u32()?),
                slots: self.list(|r| r.value(0))?,
            },
            SET_SLOT => LogRecord::SetSlot {
                txn,
                oid: Oid(self.varint()?),
                class: ClassId(self.u32()?),
                slot: self.u32()?,
                new: self.value(0)?,
            },
            DELETE => LogRecord::Delete {
                txn,
                oid: Oid(self.varint()?),
            },
            SCHEMA => LogRecord::Schema {
                txn,
                decl: Box::new(self.class_decl()?),
            },
            tag => return Err(malformed(&format!("unknown record tag {tag}"))),
        })
    }
}

/// Whether `data` starts like the JSON that logs and snapshots were
/// written in before the binary format, so the error can say so.
pub(crate) fn looks_like_json(data: &[u8]) -> bool {
    data.iter().find(|b| !b.is_ascii_whitespace()) == Some(&b'{')
}

/// CRC-32C (Castagnoli), the checksum of every log frame and snapshot.
/// Portable slice-by-8: eight bytes per step through eight tables.
pub(crate) fn crc32c(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    const POLY: u32 = 0x82f6_3b78; // Castagnoli, bit-reflected
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut j = 1;
        while j < 8 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xff) as usize];
            j += 1;
        }
        i += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(records: &[LogRecord]) -> Vec<LogRecord> {
        let mut buf = Vec::new();
        LogRecord::encode_all(records, &mut buf);
        let mut back = Vec::new();
        LogRecord::decode_all(&buf, &mut back).unwrap();
        back
    }

    #[test]
    fn every_record_kind_round_trips() {
        let mut map = BTreeMap::new();
        map.insert("k\n1".to_string(), Value::Float(-0.5));
        map.insert("z".to_string(), Value::List(vec![]));
        let records = vec![
            LogRecord::Begin { txn: u64::MAX },
            LogRecord::Commit { txn: 0 },
            LogRecord::Abort { txn: 7 },
            LogRecord::CreateSlots {
                txn: 1,
                oid: Oid(7),
                class: ClassId(u32::MAX),
                slots: vec![
                    Value::Float(10.0),
                    Value::Str("Fred\t\u{1}\u{1F600}".into()),
                    Value::Null,
                    Value::Bool(true),
                    Value::Int(i64::MIN),
                ],
            },
            LogRecord::SetSlot {
                txn: 1,
                oid: Oid(7),
                class: ClassId(2),
                slot: u32::MAX,
                new: Value::Map(map),
            },
            LogRecord::Delete {
                txn: 3,
                oid: Oid(9),
            },
            LogRecord::ClockAdvance { at: 42 },
            LogRecord::Schema {
                txn: 4,
                decl: Box::new(
                    ClassDecl::reactive("Emp")
                        .parent("Person")
                        .attr("salary", TypeTag::Float)
                        .event_method("Raise", &[("by", TypeTag::Int)], EventSpec::End),
                ),
            },
        ];
        assert_eq!(round_trip(&records), records);
    }

    #[test]
    fn non_finite_floats_keep_their_bits() {
        for f in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            let back = round_trip(&[LogRecord::SetSlot {
                txn: 1,
                oid: Oid(1),
                class: ClassId(0),
                slot: 0,
                new: Value::Float(f),
            }]);
            let LogRecord::SetSlot {
                new: Value::Float(g),
                ..
            } = back[0]
            else {
                panic!("not a float write: {back:?}");
            };
            assert_eq!(g.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn malformed_payloads_are_errors() {
        let mut out = vec![LogRecord::Begin { txn: 1 }];
        for bad in [
            &[][..],                                        // no count
            &[1],                                           // count 1, no record
            &[1, 99, 0],                                    // unknown tag
            &[1, BEGIN, 0x80],                              // truncated varint
            &[1, BEGIN, 1, 0],                              // trailing byte
            &[2, BEGIN, 1],                                 // count above the records
            &[0xff, 0xff, 0xff, 0xff, 0x0f],                // huge count
            &[1, SET_SLOT, 1, 1, 0, 0, STR, 2, 0xff, 0xfe], // not UTF-8
        ] {
            assert!(LogRecord::decode_all(bad, &mut out).is_err(), "{bad:?}");
            assert_eq!(out.len(), 1, "a failed decode leaves `out` alone");
        }
        let mut deep = vec![1, SET_SLOT, 1, 1, 0, 0];
        deep.extend(std::iter::repeat_n([LIST, 1], MAX_DEPTH + 1).flatten());
        deep.push(NULL);
        assert!(LogRecord::decode_all(&deep, &mut out).is_err());
    }

    #[test]
    fn crc32c_matches_the_standard_check_value() {
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
        assert_eq!(crc32c(b""), 0);
        // Slicing and the byte-at-a-time tail agree at every split.
        let data: Vec<u8> = (0..100u8).collect();
        let bytewise = |d: &[u8]| {
            let mut crc = !0u32;
            for &b in d {
                crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
            }
            !crc
        };
        for n in 0..data.len() {
            assert_eq!(crc32c(&data[..n]), bytewise(&data[..n]));
        }
    }

    #[test]
    fn txn_extraction() {
        assert_eq!(LogRecord::Begin { txn: 3 }.txn(), Some(3));
        assert_eq!(LogRecord::ClockAdvance { at: 1 }.txn(), None);
    }
}
