//! The four named workloads. Later issues cite them by name.

pub mod cep_shared;
pub mod durable_ingest;
pub mod firing_cpu;
pub mod fraud_mixed;

use crate::harness::{remove_dir, Res};
use crate::stats;
use sentinel_db::prelude::*;
use sentinel_db::Database;
use std::path::Path;
use std::time::{Duration, Instant};

/// Names, in the order `run all` runs them.
pub const NAMES: [&str; 4] = ["fraud_mixed", "cep_shared", "durable_ingest", "firing_cpu"];

/// The sync policy of both durable workloads. A group four times the
/// size the issue first named (64 commits, 1 ms): at that size a third
/// of a durable run was spent inside `fsync`, whose latency on this
/// host's disk drifts by a factor of two and more within the hour, and
/// the end-to-end numbers drifted with it.
pub const GROUPED: SyncPolicy = SyncPolicy::Grouped {
    max_batch: 256,
    max_wait: Duration::from_millis(4),
};
pub const GROUPED_NAME: &str = "Grouped{max_batch:256,max_wait:4ms}";

/// Recoveries `recover_s` is the median of.
const RECOVERIES: usize = 3;

/// Run the static analysis gate; how long `analyze()` took, in ms.
pub fn timed_analyze(db: &Database) -> Res<f64> {
    let t0 = Instant::now();
    db.analyze().gate()?;
    Ok(t0.elapsed().as_secs_f64() * 1e3)
}

/// The named attributes of every object, for comparing whole states.
pub fn state_of(db: &Database, oids: &[Oid], attrs: &[&str]) -> Res<Vec<Vec<Value>>> {
    oids.iter()
        .map(|&o| attrs.iter().map(|a| Ok(db.get_attr(o, a)?)).collect())
        .collect()
}

/// After a drain: every commit must have been acknowledged durable.
pub fn check_all_durable(db: &Database) -> Res<()> {
    let (durable, commits) = (db.durable_commits(), db.stats().commits);
    if durable != commits {
        return Err(format!("after drain {durable} commits are durable of {commits}").into());
    }
    Ok(())
}

pub fn durable_config(dir: &Path) -> DbConfig {
    DbConfig::durable(dir).sync(GROUPED)
}

fn wal_len(dir: &Path) -> Res<u64> {
    Ok(std::fs::metadata(dir.join("wal.log"))?.len())
}

/// Force the staged group to disk and read the log's length: every byte
/// appended since the last checkpoint.
pub fn synced_wal_len(db: &mut Database, dir: &Path) -> Res<u64> {
    db.sync_wal()?;
    wal_len(dir)
}

/// Checkpoint, returning the bytes the log held before it was truncated.
pub fn checkpoint(db: &mut Database, dir: &Path) -> Res<u64> {
    let bytes = synced_wal_len(db, dir)?;
    db.checkpoint()?;
    Ok(bytes)
}

pub fn copy_data_dir(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to)?;
    for file in ["snapshot.json", "wal.log"] {
        if from.join(file).exists() {
            std::fs::copy(from.join(file), to.join(file))?;
        }
    }
    Ok(())
}

/// Median time to bring the database in `dir` back: `Database::recover`,
/// then `reopen` (re-registering code and sending the first message).
/// Each recovery runs on its own copy, since the first send appends.
pub fn timed_recovery(
    dir: &Path,
    config: impl Fn(&Path) -> DbConfig,
    reopen: impl Fn(&mut Database) -> sentinel_object::Result<()>,
) -> Res<f64> {
    let mut secs = Vec::new();
    for n in 0..RECOVERIES {
        let copy = dir.with_extension(format!("recover{n}"));
        copy_data_dir(dir, &copy)?;
        let t0 = Instant::now();
        let mut db = Database::recover(config(&copy))?;
        reopen(&mut db)?;
        secs.push(t0.elapsed().as_secs_f64());
        drop(db);
        remove_dir(&copy);
    }
    Ok(stats::median(&secs))
}
