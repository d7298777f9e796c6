//! Property tests for the write-ahead log and the committed-records
//! filter.

use proptest::prelude::*;
use sentinel_object::{ClassId, Oid, Value};
use sentinel_storage::{committed_records, LogRecord, SyncPolicy, Wal};

/// Arbitrary scalar attribute values. Floats are built from an integer
/// numerator so they are always finite yet still hit both the
/// fractional and the integral (`.0`-suffixed) encoding paths;
/// non-finite floats are pinned by the unit tests in `records.rs`.
fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<i64>().prop_map(|n| Value::Float(n as f64 / 64.0)),
        // Printable ASCII, and `.` (which occasionally emits arbitrary
        // Unicode, including escape-needing control characters).
        "[ -~]{0,12}".prop_map(Value::Str),
        ".{0,8}".prop_map(Value::Str),
        (0u64..100).prop_map(|n| Value::Oid(Oid(n))),
    ]
}

/// Arbitrary attribute values covering every `Value` variant — the
/// encoder-equivalence property below must hold for all of them.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_scalar(),
        prop::collection::vec(arb_scalar(), 0..4).prop_map(Value::List),
        (".{0,4}", arb_scalar(), "[a-z]{0,3}", arb_scalar()).prop_map(|(k1, v1, k2, v2)| {
            let mut m = std::collections::BTreeMap::new();
            m.insert(k1, v1);
            m.insert(k2, v2);
            Value::Map(m)
        }),
    ]
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (1u64..8).prop_map(|txn| LogRecord::Begin { txn }),
        (1u64..8).prop_map(|txn| LogRecord::Commit { txn }),
        (1u64..8).prop_map(|txn| LogRecord::Abort { txn }),
        (1u64..8, 1u64..50).prop_map(|(txn, oid)| LogRecord::Delete {
            txn,
            oid: Oid(oid),
            class: "C".into(),
            slots: vec![],
        }),
        (1u64..8, 1u64..50, 0u32..4, 0u32..3, arb_value()).prop_map(
            |(txn, oid, class, slot, new)| LogRecord::SetSlot {
                txn,
                oid: Oid(oid),
                class: ClassId(class),
                slot,
                new,
            }
        ),
        (
            1u64..8,
            1u64..50,
            0u32..4,
            prop::collection::vec(arb_value(), 0..3)
        )
            .prop_map(|(txn, oid, class, slots)| LogRecord::CreateSlots {
                txn,
                oid: Oid(oid),
                class: ClassId(class),
                slots,
            }),
        (0u64..100).prop_map(|at| LogRecord::ClockAdvance { at }),
        (1u64..8, "[a-z]{1,8}").prop_map(|(txn, p)| LogRecord::Meta {
            txn,
            tag: "t".into(),
            payload: p,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Append-then-read returns exactly what was written, in order.
    #[test]
    fn wal_round_trip(records in prop::collection::vec(arb_record(), 0..60)) {
        let dir = std::env::temp_dir().join(format!(
            "sentinel-walprop-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("prop.wal");
        let _ = std::fs::remove_file(&p);
        {
            let mut wal = Wal::open(&p, SyncPolicy::Never).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
            wal.flush().unwrap();
        }
        let back = Wal::read_all(&p).unwrap();
        prop_assert_eq!(back, records);
    }

    /// The committed filter keeps exactly: ClockAdvance records, plus
    /// data records of transactions with a Commit marker; and it
    /// preserves order.
    #[test]
    fn committed_filter_laws(records in prop::collection::vec(arb_record(), 0..80)) {
        let committed: std::collections::HashSet<u64> = records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Commit { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        let kept = committed_records(&records);
        // No control markers survive.
        for r in &kept {
            let is_marker = matches!(
                r,
                LogRecord::Begin { .. } | LogRecord::Commit { .. } | LogRecord::Abort { .. }
            );
            prop_assert!(!is_marker);
        }
        // Everything kept is committed (or a clock watermark).
        for r in &kept {
            match r.txn() {
                Some(t) => prop_assert!(committed.contains(&t)),
                None => {
                    let is_clock = matches!(r, LogRecord::ClockAdvance { .. });
                    prop_assert!(is_clock);
                }
            }
        }
        // Everything droppable was dropped for a reason: recount.
        let expected = records
            .iter()
            .filter(|r| match r {
                LogRecord::Begin { .. } | LogRecord::Commit { .. } | LogRecord::Abort { .. } => {
                    false
                }
                LogRecord::ClockAdvance { .. } => true,
                other => other.txn().map(|t| committed.contains(&t)).unwrap_or(false),
            })
            .count();
        prop_assert_eq!(kept.len(), expected);
    }

    /// The hand-rolled compact encoder behind `Wal::append` produces
    /// exactly the bytes `serde_json` would, for every record shape
    /// and attribute value — so logs stay readable by the generic
    /// deserializer recovery uses.
    #[test]
    fn compact_encoder_matches_serde(records in prop::collection::vec(arb_record(), 1..40)) {
        for record in &records {
            let mut buf = Vec::new();
            record.encode_into(&mut buf);
            prop_assert_eq!(
                String::from_utf8(buf).unwrap(),
                serde_json::to_string(record).unwrap()
            );
        }
    }
}
