//! Full-store snapshots (checkpoints).
//!
//! A snapshot captures the schema, every live object, the logical-clock
//! watermark, and an opaque `extra` blob the database facade uses for the
//! rule/event catalog. After a snapshot is written the WAL can be
//! truncated; recovery is `snapshot + committed WAL suffix`.
//!
//! The file is an 8-byte header (`SENTSNP` and a version byte), the
//! CRC-32C of the body (u32 LE), and the body in the codec of
//! [`crate::records`]: clock, `extra`, class declarations, objects. A
//! snapshot is replaced whole (written beside, synced, renamed), so it
//! is never torn: any mismatch is an error.

use crate::records::{
    crc32c, looks_like_json, put_class_decl, put_list, put_str, put_value, put_varint, Reader,
};
use sentinel_object::{
    ClassDecl, ClassId, ClassRegistry, ObjectError, ObjectStore, Oid, Result, Value,
};
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// The first bytes of every snapshot: a name and the format version.
const MAGIC: &[u8; 8] = b"SENTSNP\x01";

/// One object in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSnapshot {
    /// The object's identity.
    pub oid: Oid,
    /// The object's class: its index in [`Snapshot::classes`], which
    /// restore reproduces as its registry id.
    pub class: ClassId,
    /// Slot values, in layout order.
    pub slots: Vec<Value>,
}

/// A complete checkpoint of a database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Class declarations, in original definition order (so parents
    /// precede children and ids are reproduced exactly on reload).
    pub classes: Vec<ClassDecl>,
    /// Every live object.
    pub objects: Vec<ObjectSnapshot>,
    /// Logical-clock watermark at snapshot time.
    pub clock: u64,
    /// Opaque payload for higher layers (rule/event catalog).
    pub extra: String,
}

fn storage_err(path: &Path, what: impl std::fmt::Display) -> ObjectError {
    ObjectError::Storage(format!("snapshot {}: {what}", path.display()))
}

impl Snapshot {
    /// Capture the current schema and store.
    pub fn capture(
        registry: &ClassRegistry,
        store: &ObjectStore,
        clock: u64,
        extra: String,
    ) -> Self {
        let classes = registry
            .iter()
            .map(|c| ClassDecl {
                name: c.name.clone(),
                parents: c
                    .parents
                    .iter()
                    .map(|&p| registry.get(p).name.clone())
                    .collect(),
                reactivity: c.reactivity,
                attributes: c.own_attributes.clone(),
                methods: c.own_methods.clone(),
            })
            .collect();
        let mut objects: Vec<ObjectSnapshot> = Vec::with_capacity(store.len());
        store.for_each(|oid, st| {
            objects.push(ObjectSnapshot {
                oid,
                class: st.class,
                slots: st.slots.clone(),
            });
        });
        objects.sort_by_key(|o| o.oid);
        Snapshot {
            classes,
            objects,
            clock,
            extra,
        }
    }

    /// The file's bytes: header, checksum, body.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.extra.len() + 16 * self.objects.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&[0; 4]);
        put_varint(&mut out, self.clock);
        put_str(&mut out, &self.extra);
        put_list(&mut out, &self.classes, put_class_decl);
        put_list(&mut out, &self.objects, |out, obj| {
            put_varint(out, obj.oid.0);
            put_varint(out, obj.class.0.into());
            put_list(out, &obj.slots, put_value);
        });
        let body = MAGIC.len() + 4;
        let crc = crc32c(&out[body..]);
        out[MAGIC.len()..body].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Write to a file atomically and durably: write a temp file beside
    /// it, sync it, rename it over `path`, then sync the directory.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        let io = |e: std::io::Error| storage_err(path, e);
        let mut file = File::create(&tmp).map_err(io)?;
        file.write_all(&self.encode()).map_err(io)?;
        file.sync_all().map_err(io)?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(io)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            File::open(dir).and_then(|d| d.sync_all()).map_err(io)?;
        }
        Ok(())
    }

    /// Load a snapshot from a file. A missing file yields an empty
    /// snapshot (fresh database); a damaged one, or one in another
    /// format, is an error.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let data = match std::fs::read(path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Snapshot::default()),
            Err(e) => return Err(storage_err(path, e)),
        };
        let Some(rest) = data.strip_prefix(MAGIC) else {
            return Err(storage_err(
                path,
                if looks_like_json(&data) {
                    "JSON snapshot from an older version; this version reads only the binary \
                     snapshot format"
                } else {
                    "not a sentinel snapshot (bad header)"
                },
            ));
        };
        let Some((crc, body)) = rest.split_first_chunk::<4>() else {
            return Err(storage_err(path, "truncated header"));
        };
        if crc32c(body) != u32::from_le_bytes(*crc) {
            return Err(storage_err(path, "checksum mismatch"));
        }
        Self::decode(body).map_err(|e| storage_err(path, e))
    }

    fn decode(body: &[u8]) -> Result<Self> {
        let mut r = Reader::new(body);
        let snapshot = Snapshot {
            clock: r.varint()?,
            extra: r.string()?,
            classes: r.list(Reader::class_decl)?,
            objects: r.list(|r| {
                Ok(ObjectSnapshot {
                    oid: Oid(r.varint()?),
                    class: ClassId(r.u32()?),
                    slots: r.list(|r| r.value(0))?,
                })
            })?,
        };
        r.finish()?;
        Ok(snapshot)
    }

    /// Rebuild a registry + store pair from this snapshot, moving the
    /// objects' slots into the store.
    pub fn restore(self) -> Result<(ClassRegistry, ObjectStore)> {
        let mut registry = ClassRegistry::new();
        for decl in self.classes {
            registry.define(decl)?;
        }
        let store = ObjectStore::new();
        for obj in self.objects {
            let fits = (obj.class.0 as usize) < registry.len()
                && registry.get(obj.class).layout.len() == obj.slots.len();
            if !fits {
                return Err(ObjectError::Storage(format!(
                    "snapshot object {} does not fit class {}",
                    obj.oid, obj.class
                )));
            }
            store.insert_raw(
                obj.oid,
                sentinel_object::ObjectState {
                    class: obj.class,
                    slots: obj.slots,
                },
            );
        }
        Ok((registry, store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_object::{ClassDecl, TypeTag};

    fn build() -> (ClassRegistry, ObjectStore) {
        let mut reg = ClassRegistry::new();
        let emp = reg
            .define(
                ClassDecl::reactive("Employee")
                    .attr("salary", TypeTag::Float)
                    .attr("name", TypeTag::Str),
            )
            .unwrap();
        reg.define(ClassDecl::new("Manager").parent("Employee"))
            .unwrap();
        let store = ObjectStore::new();
        let fred = store.create(&reg, emp);
        store
            .set_attr(&reg, fred, "salary", Value::Float(90.0))
            .unwrap();
        store
            .set_attr(&reg, fred, "name", Value::Str("Fred".into()))
            .unwrap();
        (reg, store)
    }

    #[test]
    fn capture_restore_round_trip() {
        let (reg, store) = build();
        let snap = Snapshot::capture(&reg, &store, 17, "catalog".into());
        assert_eq!(snap.clock, 17);
        assert_eq!(snap.extra, "catalog");
        let fred = snap.objects[0].oid;
        let (reg2, store2) = snap.restore().unwrap();
        assert_eq!(reg2.len(), 2);
        assert_eq!(store2.len(), 1);
        assert_eq!(
            store2.get_attr(&reg2, fred, "salary").unwrap(),
            Value::Float(90.0)
        );
        // Subclass relationship survives.
        let emp = reg2.id_of("Employee").unwrap();
        let mgr = reg2.id_of("Manager").unwrap();
        assert!(reg2.is_subclass(mgr, emp));
    }

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sentinel-snap-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let dir = tmpdir();
        let p = dir.join("snap.json");
        let (reg, store) = build();
        let mut snap = Snapshot::capture(&reg, &store, 5, "{\"catalog\":1}".into());
        snap.objects[0].slots[0] = Value::Float(f64::NAN);
        snap.write(&p).unwrap();
        let loaded = Snapshot::load(&p).unwrap();
        assert_eq!(loaded.classes, snap.classes);
        assert_eq!(loaded.clock, 5);
        assert_eq!(loaded.extra, snap.extra);
        let Value::Float(f) = loaded.objects[0].slots[0] else {
            panic!("slot 0 is not a float");
        };
        assert_eq!(f.to_bits(), f64::NAN.to_bits());
        assert_eq!(loaded.objects[0].slots[1..], snap.objects[0].slots[1..]);
        assert!(
            !p.with_extension("tmp").exists(),
            "the temp file was renamed"
        );
        // Missing file → empty snapshot.
        let missing = Snapshot::load(dir.join("nope.json")).unwrap();
        assert!(missing.classes.is_empty());
        assert!(missing.objects.is_empty());
    }

    #[test]
    fn damaged_or_foreign_files_are_errors() {
        let dir = tmpdir();
        let p = dir.join("damaged.json");
        let (reg, store) = build();
        Snapshot::capture(&reg, &store, 5, String::new())
            .write(&p)
            .unwrap();
        let good = std::fs::read(&p).unwrap();
        let load = |bytes: &[u8]| {
            std::fs::write(&p, bytes).unwrap();
            match Snapshot::load(&p) {
                Ok(_) => panic!("loaded a damaged snapshot"),
                Err(e) => e.to_string(),
            }
        };
        for bit in 0..good.len() * 8 {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            load(&bad);
        }
        for len in 0..good.len() {
            load(&good[..len]);
        }
        assert!(load(b"{\n  \"classes\": []\n}").contains("JSON snapshot from an older version"));
    }

    #[test]
    fn restored_store_does_not_reuse_oids() {
        let (reg, store) = build();
        let snap = Snapshot::capture(&reg, &store, 0, String::new());
        let max = snap.objects.iter().map(|o| o.oid).max().unwrap();
        let (reg2, store2) = snap.restore().unwrap();
        let emp = reg2.id_of("Employee").unwrap();
        assert!(store2.create(&reg2, emp) > max);
    }

    #[test]
    fn an_object_that_does_not_fit_its_class_is_an_error() {
        let (reg, store) = build();
        let mut snap = Snapshot::capture(&reg, &store, 0, String::new());
        snap.objects[0].slots.pop();
        assert!(snap.clone().restore().is_err());
        snap.objects[0].class = ClassId(9);
        assert!(snap.restore().is_err());
    }
}
