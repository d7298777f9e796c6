//! Group commit behind a `Sentinel`: the background worker owns every
//! group fsync, and runs it without the core lock.
//!
//! * A producer's commit only stages its records; the committing thread
//!   never syncs, whatever `max_batch` and `max_wait` say.
//! * Because the worker writes while producers hold the core, a copy of
//!   the data directory taken under the core lock may end in a torn
//!   group. Recovery trims it, and what remains is a committed prefix
//!   holding at least every commit acknowledged before the copy.

use sentinel::prelude::*;
use sentinel_storage::{LogRecord, Wal};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sentinel-group-commit-worker-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &Path, max_batch: usize, max_wait: Duration) -> DbConfig {
    DbConfig::durable(dir).sync(SyncPolicy::Grouped {
        max_batch,
        max_wait,
    })
}

/// Counters bumped by `Inc`, and a detached rule that audits each bump
/// in a transaction of its own.
fn build(config: DbConfig) -> Database {
    let mut db = Database::with_config(config).unwrap();
    db.define_class(
        ClassDecl::reactive("Counter")
            .attr("n", TypeTag::Int)
            .attr("audits", TypeTag::Int)
            .event_method("Inc", &[], EventSpec::End),
    )
    .unwrap();
    db.register_method("Counter", "Inc", |w, this, _| {
        let n = w.get_attr(this, "n")?.as_int()?;
        w.set_attr(this, "n", Value::Int(n + 1))?;
        Ok(Value::Null)
    })
    .unwrap();
    db.register_action("audit", |w, f| {
        let o = f.occurrence.constituents[0].oid;
        let n = w.get_attr(o, "audits")?.as_int()?;
        w.set_attr(o, "audits", Value::Int(n + 1))
    });
    db.add_class_rule(
        "Counter",
        RuleDef::on(event("end Counter::Inc()").unwrap())
            .named("Audit")
            .then("audit")
            .coupling(CouplingMode::Detached),
    )
    .unwrap();
    db
}

fn commit_records(wal: &Path) -> u64 {
    Wal::read_all(wal)
        .unwrap()
        .iter()
        .filter(|r| matches!(r, LogRecord::Commit { .. }))
        .count() as u64
}

#[test]
fn a_client_commit_never_fsyncs() {
    let dir = tmpdir("no-client-fsync");
    // Both inline triggers fire on every commit: a full group of one,
    // due at once.
    let mut db = build(config(&dir, 1, Duration::ZERO));
    let c = db.create("Counter").unwrap();
    assert_eq!(db.wal_staged_commits(), 0, "a bare database syncs inline");
    let sentinel = Sentinel::open(db);
    // Nothing has signalled the worker yet, so it sleeps through this
    // whole hold of the core: anything synced here was synced by the
    // committing thread.
    sentinel.with(|db| {
        db.begin().unwrap();
        db.set_attr(c, "n", Value::Int(7)).unwrap();
        db.commit().unwrap();
        assert!(
            db.wal_staged_commits() >= 1,
            "the committing thread synced the group"
        );
    });
    sentinel.drain();
    sentinel.with(|db| {
        assert_eq!(db.wal_staged_commits(), 0);
        assert_eq!(db.durable_commits(), db.stats().commits);
    });
    let mut db = sentinel.shutdown().unwrap();
    db.send(c, "Inc", &[]).unwrap();
    assert_eq!(db.wal_staged_commits(), 0, "shutdown restores inline syncs");
    assert_eq!(db.durable_commits(), db.stats().commits);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A copy of the data directory and the durable frontier read just
/// before it, under the same hold of the core.
struct Copy {
    dir: PathBuf,
    durable: u64,
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

#[test]
fn copies_taken_under_load_recover_an_acknowledged_prefix() {
    const PRODUCERS: usize = 2;
    const INCS: i64 = 2000;
    const MAX_COPIES: usize = 24;
    let dir = tmpdir("prefix");
    let grouped = |dir: &Path| config(dir, 16, Duration::from_millis(1));
    let mut db = build(grouped(&dir));
    let counters: Vec<Oid> = (0..PRODUCERS)
        .map(|_| db.create("Counter").unwrap())
        .collect();
    db.sync_wal().unwrap();
    let base = commit_records(&dir.join("wal.log"));
    let sentinel = Sentinel::open(db);
    let done = Arc::new(AtomicBool::new(false));

    let producers: Vec<_> = counters
        .iter()
        .map(|&c| {
            let s = sentinel.clone();
            std::thread::spawn(move || {
                for _ in 0..INCS {
                    s.send(c, "Inc", &[]).unwrap();
                }
            })
        })
        .collect();
    let copier = {
        let s = sentinel.clone();
        let dir = dir.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            let mut copies = Vec::new();
            // At least one copy, then more at random points until the
            // producers finish.
            while copies.is_empty() || (!done.load(Ordering::Acquire) && copies.len() < MAX_COPIES)
            {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                std::thread::sleep(Duration::from_micros(rng % 500));
                let copy = dir.with_extension(format!("copy{}", copies.len()));
                let durable = s.with(|db| {
                    let durable = db.durable_commits();
                    copy_dir(&dir, &copy);
                    durable
                });
                copies.push(Copy { dir: copy, durable });
            }
            copies
        })
    };
    for p in producers {
        p.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let copies = copier.join().unwrap();
    sentinel.drain();
    let db = sentinel.shutdown().unwrap();
    for &c in &counters {
        assert_eq!(db.get_attr(c, "n").unwrap(), Value::Int(INCS));
        assert_eq!(db.get_attr(c, "audits").unwrap(), Value::Int(INCS));
    }
    assert_eq!(db.durable_commits(), db.stats().commits);
    drop(db);

    for copy in &copies {
        let in_log = commit_records(&copy.dir.join("wal.log"));
        assert!(
            in_log >= copy.durable,
            "copy holds {in_log} commits, {} were acknowledged durable",
            copy.durable
        );
        let rec = Database::recover(grouped(&copy.dir))
            .expect("recovery trims a torn tail instead of failing");
        let mut accounted = base;
        for &c in &counters {
            let n = rec.get_attr(c, "n").unwrap().as_int().unwrap();
            let audits = rec.get_attr(c, "audits").unwrap().as_int().unwrap();
            assert!((0..=INCS).contains(&n), "counter {n} out of range");
            assert!(audits <= n, "{audits} audits of {n} bumps");
            accounted += (n + audits) as u64;
        }
        // Every recovered commit is one bump or one audit: no commit
        // was half applied, none beyond the log's was invented.
        assert_eq!(accounted, in_log, "recovered state is not the log's prefix");
        drop(rec);
        let _ = std::fs::remove_dir_all(&copy.dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
