//! Property tests for the write-ahead log, its binary codec, and the
//! committed-records filter.

use proptest::prelude::*;
use sentinel_object::{ClassDecl, ClassId, EventSpec, Oid, TypeTag, Value};
use sentinel_storage::{committed_records, LogRecord, SyncPolicy, Wal};

const SPECIAL_FLOATS: [f64; 6] = [
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
];

/// Arbitrary scalar attribute values. Floats come from arbitrary bit
/// patterns (every NaN payload, subnormals) plus the special values the
/// old JSON log could not hold.
fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        (0usize..SPECIAL_FLOATS.len()).prop_map(|i| Value::Float(SPECIAL_FLOATS[i])),
        // Printable ASCII, and `.` (arbitrary Unicode, control
        // characters included).
        "[ -~]{0,12}".prop_map(Value::Str),
        ".{0,8}".prop_map(Value::Str),
        any::<u64>().prop_map(|n| Value::Oid(Oid(n))),
    ]
}

fn arb_map() -> impl Strategy<Value = Value> {
    prop::collection::vec((".{0,4}", arb_scalar()), 0..4)
        .prop_map(|entries| Value::Map(entries.into_iter().collect()))
}

/// Arbitrary attribute values covering every `Value` variant, nested
/// two deep.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_scalar(),
        prop::collection::vec(arb_scalar(), 0..4).prop_map(Value::List),
        arb_map(),
        prop::collection::vec(arb_map(), 0..3).prop_map(Value::List),
    ]
}

fn arb_decl() -> impl Strategy<Value = ClassDecl> {
    ("[A-Z][a-z]{0,6}", "[a-z]{1,4}", arb_scalar(), any::<bool>()).prop_map(
        |(name, attr, default, reactive)| {
            let decl = if reactive {
                ClassDecl::reactive(name.clone())
            } else {
                ClassDecl::new(name.clone())
            };
            let mut decl = decl.parent("Base").attr(&attr, TypeTag::Any).event_method(
                "Set",
                &[("v", TypeTag::Int)],
                EventSpec::BeginAndEnd,
            );
            decl.attributes[0].default = default;
            decl
        },
    )
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (1u64..8).prop_map(|txn| LogRecord::Begin { txn }),
        (1u64..8).prop_map(|txn| LogRecord::Commit { txn }),
        (1u64..8).prop_map(|txn| LogRecord::Abort { txn }),
        (1u64..8, 1u64..50).prop_map(|(txn, oid)| LogRecord::Delete { txn, oid: Oid(oid) }),
        (1u64..8, 1u64..50, 0u32..4, any::<u32>(), arb_value()).prop_map(
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
            any::<u64>(),
            any::<u32>(),
            prop::collection::vec(arb_value(), 0..3)
        )
            .prop_map(|(txn, oid, class, slots)| LogRecord::CreateSlots {
                txn,
                oid: Oid(oid),
                class: ClassId(class),
                slots,
            }),
        any::<u64>().prop_map(|at| LogRecord::ClockAdvance { at }),
        (1u64..8, arb_decl()).prop_map(|(txn, decl)| LogRecord::Schema {
            txn,
            decl: Box::new(decl),
        }),
    ]
}

/// `v` with every float replaced by a string of its bits, so `==`
/// compares floats bit for bit (NaN equals the same NaN, `-0.0` differs
/// from `0.0`).
fn by_bits(v: &Value) -> Value {
    match v {
        Value::Float(f) => Value::Str(format!("f64 bits {:016x}", f.to_bits())),
        Value::List(items) => Value::List(items.iter().map(by_bits).collect()),
        Value::Map(map) => Value::Map(map.iter().map(|(k, v)| (k.clone(), by_bits(v))).collect()),
        other => other.clone(),
    }
}

fn records_by_bits(records: &[LogRecord]) -> Vec<LogRecord> {
    records
        .iter()
        .map(|r| match r {
            LogRecord::SetSlot {
                txn,
                oid,
                class,
                slot,
                new,
            } => LogRecord::SetSlot {
                txn: *txn,
                oid: *oid,
                class: *class,
                slot: *slot,
                new: by_bits(new),
            },
            LogRecord::CreateSlots {
                txn,
                oid,
                class,
                slots,
            } => LogRecord::CreateSlots {
                txn: *txn,
                oid: *oid,
                class: *class,
                slots: slots.iter().map(by_bits).collect(),
            },
            LogRecord::Schema { txn, decl } => {
                let mut decl = decl.clone();
                for a in &mut decl.attributes {
                    a.default = by_bits(&a.default);
                }
                LogRecord::Schema { txn: *txn, decl }
            }
            other => other.clone(),
        })
        .collect()
}

fn encoded(records: &[LogRecord]) -> Vec<u8> {
    let mut payload = Vec::new();
    LogRecord::encode_all(records, &mut payload);
    payload
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Append-then-read returns exactly what was written, in order, bit
    /// for bit, whichever way the records were split into frames.
    #[test]
    fn wal_round_trip(
        records in prop::collection::vec(arb_record(), 0..60),
        frame in 1usize..8,
    ) {
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
            let mut batch = sentinel_storage::WriteBatch::new();
            for chunk in records.chunks(frame) {
                batch.begin(1);
                for r in chunk {
                    batch.push_record(r.clone());
                }
                wal.append_batch(&batch).unwrap();
            }
            wal.flush().unwrap();
        }
        let back = Wal::read_all(&p).unwrap();
        prop_assert_eq!(records_by_bits(&back), records_by_bits(&records));
    }

    /// The codec alone: a payload decodes to the records it was encoded
    /// from, floats compared by bits.
    #[test]
    fn codec_round_trip(records in prop::collection::vec(arb_record(), 0..40)) {
        let mut back = Vec::new();
        LogRecord::decode_all(&encoded(&records), &mut back).unwrap();
        prop_assert_eq!(records_by_bits(&back), records_by_bits(&records));
    }

    /// Every strict prefix of a valid payload is an error, and decoding
    /// it leaves the output untouched.
    #[test]
    fn payload_prefixes_are_errors(records in prop::collection::vec(arb_record(), 1..6)) {
        let payload = encoded(&records);
        let mut out = Vec::new();
        for len in 0..payload.len() {
            prop_assert!(LogRecord::decode_all(&payload[..len], &mut out).is_err());
            prop_assert!(out.is_empty());
        }
    }

    /// Arbitrary bytes never panic the decoder. The rare input that does
    /// decode is a well-formed payload: it round-trips.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut out = Vec::new();
        if LogRecord::decode_all(&bytes, &mut out).is_ok() {
            let mut again = Vec::new();
            LogRecord::decode_all(&encoded(&out), &mut again).unwrap();
            prop_assert_eq!(records_by_bits(&again), records_by_bits(&out));
        }
    }

    /// Arbitrary bytes behind a valid log header never panic the reader:
    /// the log reads, or reading fails.
    #[test]
    fn random_log_tails_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let dir = std::env::temp_dir().join(format!(
            "sentinel-walprop-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("random.wal");
        let _ = std::fs::remove_file(&p);
        {
            let mut wal = Wal::open(&p, SyncPolicy::Never).unwrap();
            wal.append(&LogRecord::Commit { txn: 1 }).unwrap();
            wal.flush().unwrap();
        }
        let mut data = std::fs::read(&p).unwrap();
        data.extend_from_slice(&bytes);
        std::fs::write(&p, &data).unwrap();
        if let Ok(records) = Wal::read_all(&p) {
            prop_assert_eq!(records.first(), Some(&LogRecord::Commit { txn: 1 }));
        }
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
}
