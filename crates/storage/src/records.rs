//! Write-ahead-log record types.

use sentinel_object::{ClassId, Oid, Value};
use serde::{Deserialize, Serialize};

/// Transaction identifier, unique per database lifetime.
pub type TxnId = u64;

/// One record in the write-ahead log.
///
/// Records are *redo* records: recovery replays the mutations of
/// committed transactions in log order.
///
/// Mutation records (`CreateSlots` / `SetSlot`) are slot-interned:
/// class by [`ClassId`], attribute by slot index, no old value (undo
/// lives in memory; the log is redo-only). `ClassId`s and slot indices
/// are stable across recovery because snapshots restore classes in
/// definition order and schema meta-records replay in log order, both
/// reproducing registry ids exactly.
///
/// The log is line-delimited externally-tagged JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Object deletion, with the final slot values (for auditability).
    Delete {
        txn: TxnId,
        oid: Oid,
        class: String,
        slots: Vec<Value>,
    },
    /// Logical-clock watermark, so recovery resumes timestamps above
    /// anything already issued.
    ClockAdvance { at: u64 },
    /// A tagged payload outside the object store. Schema changes
    /// ([`META_CLASS_TAG`](crate::META_CLASS_TAG)) are the only kind
    /// recovery reads.
    Meta {
        txn: TxnId,
        tag: String,
        payload: String,
    },
}

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
            | LogRecord::Meta { txn, .. } => Some(*txn),
            LogRecord::ClockAdvance { .. } => None,
        }
    }

    /// Short static variant name, used as the subject of WAL telemetry
    /// trace records.
    pub const fn kind(&self) -> &'static str {
        match self {
            LogRecord::Begin { .. } => "begin",
            LogRecord::Commit { .. } => "commit",
            LogRecord::Abort { .. } => "abort",
            LogRecord::CreateSlots { .. } => "create_slots",
            LogRecord::SetSlot { .. } => "set_slot",
            LogRecord::Delete { .. } => "delete",
            LogRecord::ClockAdvance { .. } => "clock_advance",
            LogRecord::Meta { .. } => "meta",
        }
    }

    /// Append the record's compact JSON encoding to `out`,
    /// byte-identical to `serde_json::to_string(self)`.
    ///
    /// The generic serde path builds an intermediate value tree (one
    /// heap-allocated key string per field) and renders it into a fresh
    /// `String` per record — fine for recovery-time parsing, far too
    /// slow for the WAL hot path. This encoder writes the same bytes
    /// straight into the caller's reusable buffer: zero allocations
    /// for scalar-valued records. Equivalence with the serde encoding
    /// is pinned by a unit test here and a property test in
    /// `tests/wal_props.rs`, so the on-disk format cannot drift.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        match self {
            LogRecord::Begin { txn } => {
                let _ = write!(out, "{{\"Begin\":{{\"txn\":{txn}}}}}");
            }
            LogRecord::Commit { txn } => {
                let _ = write!(out, "{{\"Commit\":{{\"txn\":{txn}}}}}");
            }
            LogRecord::Abort { txn } => {
                let _ = write!(out, "{{\"Abort\":{{\"txn\":{txn}}}}}");
            }
            LogRecord::CreateSlots {
                txn,
                oid,
                class,
                slots,
            } => {
                let _ = write!(
                    out,
                    "{{\"CreateSlots\":{{\"txn\":{txn},\"oid\":{},\"class\":{},\"slots\":",
                    oid.0, class.0
                );
                push_value_list(out, slots);
                out.extend_from_slice(b"}}");
            }
            LogRecord::SetSlot {
                txn,
                oid,
                class,
                slot,
                new,
            } => {
                let _ = write!(
                    out,
                    "{{\"SetSlot\":{{\"txn\":{txn},\"oid\":{},\"class\":{},\"slot\":{slot},\"new\":",
                    oid.0, class.0
                );
                push_value(out, new);
                out.extend_from_slice(b"}}");
            }
            LogRecord::Delete {
                txn,
                oid,
                class,
                slots,
            } => {
                let _ = write!(
                    out,
                    "{{\"Delete\":{{\"txn\":{txn},\"oid\":{},\"class\":",
                    oid.0
                );
                push_json_str(out, class);
                out.extend_from_slice(b",\"slots\":");
                push_value_list(out, slots);
                out.extend_from_slice(b"}}");
            }
            LogRecord::ClockAdvance { at } => {
                let _ = write!(out, "{{\"ClockAdvance\":{{\"at\":{at}}}}}");
            }
            LogRecord::Meta { txn, tag, payload } => {
                let _ = write!(out, "{{\"Meta\":{{\"txn\":{txn},\"tag\":");
                push_json_str(out, tag);
                out.extend_from_slice(b",\"payload\":");
                push_json_str(out, payload);
                out.extend_from_slice(b"}}");
            }
        }
    }
}

/// JSON string literal with serde_json's escape set.
fn push_json_str(out: &mut Vec<u8>, s: &str) {
    use std::io::Write as _;
    out.push(b'"');
    for c in s.chars() {
        match c {
            '"' => out.extend_from_slice(b"\\\""),
            '\\' => out.extend_from_slice(b"\\\\"),
            '\n' => out.extend_from_slice(b"\\n"),
            '\r' => out.extend_from_slice(b"\\r"),
            '\t' => out.extend_from_slice(b"\\t"),
            '\u{08}' => out.extend_from_slice(b"\\b"),
            '\u{0c}' => out.extend_from_slice(b"\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => {
                let mut buf = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            }
        }
    }
    out.push(b'"');
}

/// A float, written the way serde_json writes it: non-finite becomes
/// `null`, integral floats keep a `.0` so they re-parse float-typed.
fn push_json_float(out: &mut Vec<u8>, f: f64) {
    use std::io::Write as _;
    if !f.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..]
        .iter()
        .any(|&b| matches!(b, b'.' | b'e' | b'E'))
    {
        out.extend_from_slice(b".0");
    }
}

/// A `Value` in its externally-tagged serde encoding.
fn push_value(out: &mut Vec<u8>, v: &Value) {
    use std::io::Write as _;
    match v {
        Value::Null => out.extend_from_slice(b"\"Null\""),
        Value::Bool(true) => out.extend_from_slice(b"{\"Bool\":true}"),
        Value::Bool(false) => out.extend_from_slice(b"{\"Bool\":false}"),
        Value::Int(n) => {
            let _ = write!(out, "{{\"Int\":{n}}}");
        }
        Value::Float(f) => {
            out.extend_from_slice(b"{\"Float\":");
            push_json_float(out, *f);
            out.push(b'}');
        }
        Value::Str(s) => {
            out.extend_from_slice(b"{\"Str\":");
            push_json_str(out, s);
            out.push(b'}');
        }
        Value::Oid(o) => {
            let _ = write!(out, "{{\"Oid\":{}}}", o.0);
        }
        Value::List(items) => {
            out.extend_from_slice(b"{\"List\":");
            push_value_list(out, items);
            out.push(b'}');
        }
        Value::Map(map) => {
            out.extend_from_slice(b"{\"Map\":{");
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                push_json_str(out, k);
                out.push(b':');
                push_value(out, val);
            }
            out.extend_from_slice(b"}}");
        }
    }
}

fn push_value_list(out: &mut Vec<u8>, items: &[Value]) {
    out.push(b'[');
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_value(out, v);
    }
    out.push(b']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_round_trip() {
        let records = vec![
            LogRecord::Begin { txn: 1 },
            LogRecord::CreateSlots {
                txn: 1,
                oid: Oid(7),
                class: ClassId(2),
                slots: vec![Value::Float(10.0), Value::Str("Fred".into())],
            },
            LogRecord::SetSlot {
                txn: 1,
                oid: Oid(7),
                class: ClassId(2),
                slot: 0,
                new: Value::Float(20.0),
            },
            LogRecord::CreateSlots {
                txn: 2,
                oid: Oid(8),
                class: ClassId(3),
                slots: vec![Value::Int(1), Value::Null],
            },
            LogRecord::SetSlot {
                txn: 2,
                oid: Oid(8),
                class: ClassId(3),
                slot: 1,
                new: Value::Int(9),
            },
            LogRecord::Commit { txn: 1 },
            LogRecord::ClockAdvance { at: 42 },
        ];
        for r in records {
            let s = serde_json::to_string(&r).unwrap();
            let back: LogRecord = serde_json::from_str(&s).unwrap();
            assert_eq!(r, back);
        }
    }

    #[test]
    fn compact_encoder_matches_serde_byte_for_byte() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("k\n1".to_string(), Value::Float(-0.5));
        map.insert("z".to_string(), Value::List(vec![]));
        let records = vec![
            LogRecord::Begin { txn: u64::MAX },
            LogRecord::Commit { txn: 0 },
            LogRecord::Abort { txn: 7 },
            LogRecord::CreateSlots {
                txn: 1,
                oid: Oid(7),
                class: ClassId(2),
                slots: vec![
                    Value::Float(10.0),
                    Value::Str("Fred\t\u{1}\u{1F600}".into()),
                    Value::Null,
                    Value::Bool(true),
                    Value::Float(f64::NAN),
                ],
            },
            LogRecord::SetSlot {
                txn: 1,
                oid: Oid(7),
                class: ClassId(2),
                slot: 1,
                new: Value::Map(map),
            },
            LogRecord::SetSlot {
                txn: 1,
                oid: Oid(7),
                class: ClassId(2),
                slot: 2,
                new: Value::List(vec![Value::Oid(Oid(3)), Value::Int(i64::MIN)]),
            },
            LogRecord::CreateSlots {
                txn: 2,
                oid: Oid(8),
                class: ClassId(u32::MAX),
                slots: vec![],
            },
            LogRecord::SetSlot {
                txn: 2,
                oid: Oid(8),
                class: ClassId(0),
                slot: 4,
                new: Value::Float(1e300),
            },
            LogRecord::Delete {
                txn: 3,
                oid: Oid(9),
                class: "Emp\"loyee\\".into(),
                slots: vec![Value::Bool(false)],
            },
            LogRecord::ClockAdvance { at: 42 },
            LogRecord::Meta {
                txn: 4,
                tag: "rule".into(),
                payload: "{\"name\":\"R\"}".into(),
            },
        ];
        for r in records {
            let mut buf = Vec::new();
            r.encode_into(&mut buf);
            assert_eq!(
                String::from_utf8(buf).unwrap(),
                serde_json::to_string(&r).unwrap(),
                "compact encoding diverged for {r:?}"
            );
        }
    }

    #[test]
    fn txn_extraction() {
        assert_eq!(LogRecord::Begin { txn: 3 }.txn(), Some(3));
        assert_eq!(LogRecord::ClockAdvance { at: 1 }.txn(), None);
    }
}
