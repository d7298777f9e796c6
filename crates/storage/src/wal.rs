//! The write-ahead log.
//!
//! # Format
//!
//! A log is an 8-byte header (`SENTWAL` and a version byte) followed by
//! frames, one per append call (under [`SyncPolicy::Grouped`], one per
//! transaction):
//!
//! ```text
//! [len: u32 LE][crc32c(payload): u32 LE][payload: len bytes]
//! ```
//!
//! The payload is a record count and the records in the binary codec of
//! [`crate::records`]. The header goes out with the first frame after
//! open or truncation, so a log with nothing appended is 0 bytes.
//!
//! Reading tells a torn tail from corruption. A frame whose length runs
//! past the end of the file, or whose checksum fails, is *bad*. If no
//! valid frame starts anywhere after it, it is the torn tail of a write
//! a crash cut short: it is never replayed, and
//! [`Wal::read_all_repair`] trims it. If a valid frame follows, bytes in
//! the middle of the log changed: reading fails and names the offset.
//!
//! # Group commit
//!
//! Under [`SyncPolicy::Grouped`] appended records are *staged* in memory
//! rather than written through: nothing reaches the file until a group
//! sync runs, which writes every staged byte and covers the whole group
//! with a single fsync. A transaction's records are staged under one
//! lock acquisition, so a group always holds whole transactions.
//!
//! Who syncs depends on [`Wal::set_inline_sync`]. Inline (the default),
//! an append that fills the group to `max_batch` commits syncs it on the
//! spot, and callers are expected to check [`Wal::sync_due`] (age of the
//! oldest staged commit vs `max_wait`) or call [`Wal::sync_batch`] at a
//! group boundary. With inline syncs off, appends only stage, and a
//! background thread drives [`WalSyncer::sync_batch`] instead.
//!
//! The state is split three ways behind one `Arc`, so a syncer never
//! needs the lock that serialises the appending thread: the staged group
//! sits behind a small mutex, the file writer behind a second one, and
//! the durable frontier is an atomic published only after the fsync
//! returns. The lock order is file → staged. A syncer holds the file
//! lock for the whole write and fsync but the staged lock only to swap
//! the group out for a spare buffer, so appends keep staging while it
//! writes. [`Wal::sync_batch`], [`Wal::flush`] and [`Wal::truncate`]
//! take the file lock even when nothing is staged, and so wait out a
//! group another thread is still writing.
//!
//! Because staged bytes never touch the file before the sync, a crash
//! loses exactly the unacknowledged suffix, plus at most a torn tail of
//! the group being written, which recovery trims.

use crate::batch::WriteBatch;
use crate::records::{crc32c, looks_like_json, LogRecord};
use sentinel_object::{ObjectError, Result};
use sentinel_telemetry::{Stage, Telemetry, Timer};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Buffered writes, flushed at commit records only. Default: the
    /// durability/throughput point a single-user OODB of the paper's era
    /// would pick.
    #[default]
    OnCommit,
    /// Flush + fsync after every record (slowest, strongest).
    Always,
    /// Never explicitly flush; rely on process exit. For benchmarks that
    /// want to exclude I/O cost.
    Never,
    /// Group commit: stage records in memory and make a whole batch of
    /// committed transactions durable with one fsync. The batch syncs
    /// when it holds `max_batch` commits, or when the caller observes
    /// that the oldest staged commit is older than `max_wait` (see
    /// [`Wal::sync_due`]) and calls [`Wal::sync_batch`].
    Grouped {
        /// Commit records per batch before an automatic sync.
        max_batch: usize,
        /// Maximum age of a staged commit before a sync is due.
        max_wait: Duration,
    },
}

impl SyncPolicy {
    /// The group size that triggers a sync (`None` outside Grouped).
    fn max_batch(self) -> Option<u64> {
        match self {
            SyncPolicy::Grouped { max_batch, .. } => Some(max_batch.max(1) as u64),
            _ => None,
        }
    }
}

/// The first bytes of every log: a name and the format version.
const MAGIC: &[u8; 8] = b"SENTWAL\x01";

/// Length and checksum before each frame's payload.
const FRAME_HEADER: usize = 8;

/// Append one frame holding `records` to `out`, preceded by the log
/// header when `with_header`. Errors, leaving `out` as it was, when the
/// payload does not fit a frame.
fn encode_frame(out: &mut Vec<u8>, with_header: bool, records: &[LogRecord]) -> Result<()> {
    let start = out.len();
    if with_header {
        out.extend_from_slice(MAGIC);
    }
    let frame = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    LogRecord::encode_all(records, out);
    let payload = &out[frame + FRAME_HEADER..];
    let Ok(len) = u32::try_from(payload.len()) else {
        out.truncate(start);
        return Err(ObjectError::Storage(
            "a log frame holds at most 4 GiB".into(),
        ));
    };
    let crc = crc32c(payload);
    out[frame..frame + 4].copy_from_slice(&len.to_le_bytes());
    out[frame + 4..frame + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// The payload of the frame at `at`, if a whole frame with a matching
/// checksum starts there.
fn frame_at(data: &[u8], at: usize) -> Option<&[u8]> {
    let header = data.get(at..at.checked_add(FRAME_HEADER)?)?;
    let len = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().ok()?);
    let start = at + FRAME_HEADER;
    let payload = data.get(start..start.checked_add(len)?)?;
    // No append writes an empty frame, and zeroed bytes must not pass:
    // the checksum of nothing is 0.
    (len > 0 && crc32c(payload) == crc).then_some(payload)
}

/// Receipt for one group-commit fsync: how much work it made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchAck {
    /// Committed transactions covered by the fsync.
    pub commits: u64,
    /// Log records covered by the fsync.
    pub records: u64,
}

/// The staged group (Grouped mode): encoded records not yet written.
#[derive(Debug, Default)]
struct Staged {
    bytes: Vec<u8>,
    records: u64,
    commits: u64,
    /// When the oldest staged commit was appended.
    oldest: Option<Instant>,
}

impl Staged {
    /// The group's receipt; resets the counters, not the bytes.
    fn take_ack(&mut self) -> BatchAck {
        let ack = BatchAck {
            commits: self.commits,
            records: self.records,
        };
        self.records = 0;
        self.commits = 0;
        self.oldest = None;
        ack
    }
}

#[derive(Debug)]
struct LogFile {
    writer: BufWriter<File>,
    /// What an off-lock sync swaps into the staged group, so appends
    /// keep staging while the old group is written. Stays empty (no
    /// allocation) when every sync runs inline.
    spare: Vec<u8>,
}

/// What a [`Wal`] shares with its [`WalSyncer`]s. Lock order: `file`,
/// then `staged`.
#[derive(Debug)]
struct Shared {
    staged: Mutex<Staged>,
    file: Mutex<LogFile>,
    /// Commits covered by an fsync (or by a snapshot at truncation).
    durable_commits: AtomicU64,
}

/// Locks here never poison the log: a panic elsewhere leaves the bytes
/// and counters as consistent as the last completed step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    /// Write the staged group and cover it with one fsync.
    ///
    /// `off_lock` swaps the group out for the spare buffer and writes it
    /// with the staged lock released; otherwise the group is written in
    /// place, which is cheaper when no append can run concurrently.
    /// `after_swap` runs between the swap and the write (a test seam).
    fn sync_group(
        &self,
        off_lock: bool,
        telemetry: Option<&Telemetry>,
        after_swap: impl FnOnce(),
    ) -> Result<BatchAck> {
        // The file lock comes first even when nothing is staged: the
        // caller waits out a group another thread is still writing.
        let mut file = lock(&self.file);
        let file = &mut *file;
        let mut staged = lock(&self.staged);
        if staged.bytes.is_empty() {
            return Ok(BatchAck::default());
        }
        let ack = if off_lock {
            let ack = staged.take_ack();
            file.spare.clear();
            std::mem::swap(&mut staged.bytes, &mut file.spare);
            drop(staged);
            after_swap();
            file.writer.write_all(&file.spare).map_err(io_err)?;
            ack
        } else {
            file.writer.write_all(&staged.bytes).map_err(io_err)?;
            staged.bytes.clear();
            staged.take_ack()
        };
        fsync(&mut file.writer, telemetry, "batch")?;
        self.durable_commits
            .fetch_add(ack.commits, Ordering::Release);
        if let Some(tel) = telemetry {
            tel.observe(Stage::WalBatch, 0, ack.commits, || {
                format!("{} records", ack.records)
            });
        }
        Ok(ack)
    }
}

/// Flush buffered bytes and force them to disk, timing the wait.
fn fsync(
    writer: &mut BufWriter<File>,
    telemetry: Option<&Telemetry>,
    subject: &'static str,
) -> Result<()> {
    let timer = telemetry.map_or(Timer::off(), Telemetry::timer);
    writer.flush().map_err(io_err)?;
    writer.get_ref().sync_data().map_err(io_err)?;
    if let Some(tel) = telemetry {
        tel.observe_timer(Stage::WalFsync, 0, timer, || subject.to_string());
    }
    Ok(())
}

/// Append-only log writer.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    shared: Arc<Shared>,
    policy: SyncPolicy,
    /// Whether appends sync a full group themselves (see
    /// [`set_inline_sync`](Self::set_inline_sync)).
    inline_sync: bool,
    appended: u64,
    /// The file is empty: the next frame carries the log header.
    needs_header: bool,
    /// Reusable per-append frame scratch (non-Grouped modes): cleared
    /// between appends, capacity retained, so steady-state appends
    /// allocate nothing for the encoded frame.
    encode_buf: Vec<u8>,
    telemetry: Option<Arc<Telemetry>>,
}

/// A cloneable handle that syncs a [`Wal`]'s staged group from another
/// thread, without the lock that serialises the appending thread.
#[derive(Debug, Clone)]
pub struct WalSyncer {
    shared: Arc<Shared>,
    max_batch: Option<u64>,
    telemetry: Option<Arc<Telemetry>>,
}

impl WalSyncer {
    /// Swap the staged group out, write it and cover it with one fsync,
    /// then publish it in [`Wal::durable_commits`]. Appends keep staging
    /// into a spare buffer meanwhile. A zero ack when nothing is staged,
    /// returned only once any group in flight is durable.
    pub fn sync_batch(&self) -> Result<BatchAck> {
        self.shared
            .sync_group(true, self.telemetry.as_deref(), || {})
    }

    /// True once the staged group holds the policy's `max_batch`
    /// commits. Always false outside Grouped mode.
    pub fn batch_full(&self) -> bool {
        self.max_batch
            .is_some_and(|max| lock(&self.shared.staged).commits >= max)
    }
}

fn io_err(e: std::io::Error) -> ObjectError {
    ObjectError::Storage(e.to_string())
}

/// Why a log's first bytes are not a log header.
fn bad_header(path: &Path, data: &[u8]) -> ObjectError {
    ObjectError::Storage(if looks_like_json(data) {
        format!(
            "{} is a line-delimited JSON log from an older version; \
             this version reads only the binary log format",
            path.display()
        )
    } else {
        format!("{} is not a sentinel log (bad header)", path.display())
    })
}

impl Wal {
    /// Open (creating or appending to) the log at `path`. A non-empty
    /// file must start with the log header.
    pub fn open(path: impl AsRef<Path>, policy: SyncPolicy) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        let len = file.metadata().map_err(io_err)?.len();
        if len > 0 {
            let mut head = Vec::with_capacity(MAGIC.len());
            (&file)
                .take(MAGIC.len() as u64)
                .read_to_end(&mut head)
                .map_err(io_err)?;
            if head != MAGIC {
                return Err(bad_header(&path, &head));
            }
        }
        Ok(Wal {
            path,
            shared: Arc::new(Shared {
                staged: Mutex::default(),
                file: Mutex::new(LogFile {
                    writer: BufWriter::new(file),
                    spare: Vec::new(),
                }),
                durable_commits: AtomicU64::new(0),
            }),
            policy,
            inline_sync: true,
            appended: 0,
            needs_header: len == 0,
            encode_buf: Vec::new(),
            telemetry: None,
        })
    }

    /// Attach an observability handle: appends and fsyncs are timed into
    /// the `wal_append` / `wal_fsync` stages, and group-commit batch
    /// sizes are recorded under `wal_batch`. Syncers made afterwards
    /// report into it too.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// The active sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Turn the group syncs that appends run themselves on (the default)
    /// or off. Off, a full group stays staged until a [`WalSyncer`] (or
    /// [`sync_batch`](Self::sync_batch)) writes it; the owner of the
    /// syncer takes on the `max_batch` and `max_wait` bounds.
    pub fn set_inline_sync(&mut self, inline: bool) {
        self.inline_sync = inline;
    }

    /// Whether appends sync a full group themselves.
    pub fn inline_sync(&self) -> bool {
        self.inline_sync
    }

    /// A handle that syncs this log's staged group from another thread.
    pub fn syncer(&self) -> WalSyncer {
        WalSyncer {
            shared: Arc::clone(&self.shared),
            max_batch: self.policy.max_batch(),
            telemetry: self.telemetry.clone(),
        }
    }

    /// Append one record, honouring the sync policy.
    pub fn append(&mut self, record: &LogRecord) -> Result<()> {
        self.append_records(std::slice::from_ref(record))
    }

    /// Append every record of a transaction's [`WriteBatch`] as one
    /// frame.
    ///
    /// Under [`SyncPolicy::Grouped`] the frame is staged for the next
    /// group fsync under one lock acquisition, so no group splits it;
    /// under the other policies it is written at once, and fsynced
    /// (`Always`, or `OnCommit` when it holds a commit) before this
    /// returns.
    pub fn append_batch(&mut self, batch: &WriteBatch) -> Result<()> {
        self.append_records(batch.records())
    }

    fn append_records(&mut self, records: &[LogRecord]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let telemetry = self.telemetry.as_deref();
        let timer = telemetry.map_or(Timer::off(), Telemetry::timer);
        let commits = records
            .iter()
            .filter(|r| matches!(r, LogRecord::Commit { .. }))
            .count() as u64;
        let observe = |timer: Timer| {
            if let Some(tel) = telemetry {
                tel.observe_timer(Stage::WalAppend, 0, timer, || {
                    format!("{} records", records.len())
                });
            }
        };
        if let Some(max_batch) = self.policy.max_batch() {
            let staged_commits = {
                let mut staged = lock(&self.shared.staged);
                // Encode straight into the staging buffer: no per-append
                // allocation once it has grown to its working size.
                encode_frame(&mut staged.bytes, self.needs_header, records)?;
                staged.records += records.len() as u64;
                if commits > 0 {
                    staged.commits += commits;
                    staged.oldest.get_or_insert_with(Instant::now);
                }
                staged.commits
            };
            self.needs_header = false;
            self.appended += records.len() as u64;
            observe(timer);
            if self.inline_sync && staged_commits >= max_batch {
                self.sync_batch()?;
            }
            return Ok(());
        }
        self.encode_buf.clear();
        encode_frame(&mut self.encode_buf, self.needs_header, records)?;
        let mut file = lock(&self.shared.file);
        file.writer.write_all(&self.encode_buf).map_err(io_err)?;
        self.needs_header = false;
        self.appended += records.len() as u64;
        observe(timer);
        let sync = match self.policy {
            SyncPolicy::Always => true,
            SyncPolicy::OnCommit => commits > 0,
            _ => false,
        };
        if sync {
            fsync(&mut file.writer, telemetry, "append")?;
            self.shared
                .durable_commits
                .fetch_add(commits, Ordering::Release);
        }
        Ok(())
    }

    /// Write all staged records, cover them with a single fsync, and
    /// acknowledge the batch. The group is written in place: only the
    /// appending thread stages, and it is busy here. A zero ack when
    /// nothing is staged, returned only once a group a [`WalSyncer`]
    /// has in flight is durable.
    pub fn sync_batch(&mut self) -> Result<BatchAck> {
        self.shared
            .sync_group(false, self.telemetry.as_deref(), || {})
    }

    /// True when a staged batch has aged past the policy's `max_wait`
    /// (the caller should run [`Wal::sync_batch`]). Always false outside
    /// Grouped mode.
    pub fn sync_due(&self) -> bool {
        match self.policy {
            SyncPolicy::Grouped { max_wait, .. } => lock(&self.shared.staged)
                .oldest
                .is_some_and(|oldest| oldest.elapsed() >= max_wait),
            _ => false,
        }
    }

    /// Commit records staged but not yet covered by an fsync.
    pub fn staged_commits(&self) -> u64 {
        lock(&self.shared.staged).commits
    }

    /// Commit records acknowledged as durable (fsynced, or captured by a
    /// snapshot at truncation) through this handle or its syncers.
    pub fn durable_commits(&self) -> u64 {
        self.shared.durable_commits.load(Ordering::Acquire)
    }

    /// Flush buffered records (including any staged batch) to the OS,
    /// without forcing them to disk.
    pub fn flush(&mut self) -> Result<()> {
        let mut file = lock(&self.shared.file);
        let mut staged = lock(&self.shared.staged);
        if !staged.bytes.is_empty() {
            file.writer.write_all(&staged.bytes).map_err(io_err)?;
            staged.bytes.clear();
            let ack = staged.take_ack();
            self.shared
                .durable_commits
                .fetch_add(ack.commits, Ordering::Release);
        }
        file.writer.flush().map_err(io_err)
    }

    /// Number of records appended through this handle.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Truncate the log (after a snapshot has captured its effects).
    /// Staged records are dropped — the snapshot already made their
    /// transactions durable, so they count as acknowledged.
    pub fn truncate(&mut self) -> Result<()> {
        let mut file = lock(&self.shared.file);
        let mut staged = lock(&self.shared.staged);
        staged.bytes.clear();
        let ack = staged.take_ack();
        self.shared
            .durable_commits
            .fetch_add(ack.commits, Ordering::Release);
        file.writer.flush().map_err(io_err)?;
        let truncated = OpenOptions::new()
            .write(true)
            .truncate(true)
            .open(&self.path)
            .map_err(io_err)?;
        file.writer = BufWriter::new(
            OpenOptions::new()
                .append(true)
                .open(&self.path)
                .map_err(io_err)?,
        );
        drop(truncated);
        self.needs_header = true;
        Ok(())
    }

    /// Read every record in the log at `path`.
    ///
    /// A torn tail (a crash mid-write) is tolerated and ignored; a bad
    /// frame followed by a valid one is reported as corruption.
    pub fn read_all(path: impl AsRef<Path>) -> Result<Vec<LogRecord>> {
        Self::scan(path.as_ref()).map(|(records, _)| records)
    }

    /// Read every record and *repair* a torn tail: the bad suffix is
    /// truncated off the file so later appends cannot bury it mid-log.
    /// Returns the records and the number of bytes trimmed (0 when the
    /// log was clean).
    pub fn read_all_repair(path: impl AsRef<Path>) -> Result<(Vec<LogRecord>, u64)> {
        let path = path.as_ref();
        let (records, good_end) = Self::scan(path)?;
        let len = match std::fs::metadata(path) {
            Ok(m) => m.len(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((records, 0)),
            Err(e) => return Err(io_err(e)),
        };
        let trimmed = len.saturating_sub(good_end);
        if trimmed > 0 {
            let file = OpenOptions::new().write(true).open(path).map_err(io_err)?;
            file.set_len(good_end).map_err(io_err)?;
            file.sync_data().map_err(io_err)?;
        }
        Ok((records, trimmed))
    }

    /// Parse the log at `path`, returning the records and the byte
    /// offset just past the last valid frame.
    fn scan(path: &Path) -> Result<(Vec<LogRecord>, u64)> {
        let data = match std::fs::read(path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
            Err(e) => return Err(io_err(e)),
        };
        let mut records = Vec::new();
        if data.len() < MAGIC.len() && MAGIC.starts_with(&data) {
            // Empty, or a header the crash cut short.
            return Ok((records, 0));
        }
        if !data.starts_with(MAGIC) {
            return Err(bad_header(path, &data));
        }
        let mut pos = MAGIC.len();
        while pos < data.len() {
            let Some(payload) = frame_at(&data, pos) else {
                if let Some(next) = (pos + 1..data.len()).find(|&at| frame_at(&data, at).is_some())
                {
                    return Err(ObjectError::Storage(format!(
                        "corrupt log frame at byte {pos} of {} (a valid frame follows at byte {next})",
                        path.display()
                    )));
                }
                break; // torn tail
            };
            LogRecord::decode_all(payload, &mut records).map_err(|e| {
                ObjectError::Storage(format!(
                    "corrupt log frame at byte {pos} of {}: {e}",
                    path.display()
                ))
            })?;
            pos += FRAME_HEADER + payload.len();
        }
        Ok((records, pos as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_object::{ClassId, Oid, Value};

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "sentinel-wal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample(n: u64) -> LogRecord {
        LogRecord::SetSlot {
            txn: n,
            oid: Oid(n),
            class: ClassId(0),
            slot: 0,
            new: Value::Int(n as i64),
        }
    }

    fn grouped(max_batch: usize) -> SyncPolicy {
        SyncPolicy::Grouped {
            max_batch,
            max_wait: Duration::from_millis(5),
        }
    }

    #[test]
    fn append_then_read_round_trip() {
        let p = tmpdir().join("roundtrip.wal");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, SyncPolicy::Always).unwrap();
        for i in 0..10 {
            wal.append(&sample(i)).unwrap();
        }
        assert_eq!(wal.appended(), 10);
        drop(wal);
        let records = Wal::read_all(&p).unwrap();
        assert_eq!(records.len(), 10);
        assert_eq!(records[3], sample(3));
    }

    #[test]
    fn missing_log_reads_empty() {
        let p = tmpdir().join("never-created.wal");
        let _ = std::fs::remove_file(&p);
        assert!(Wal::read_all(&p).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let p = tmpdir().join("torn.wal");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, SyncPolicy::Always).unwrap();
        wal.append(&sample(1)).unwrap();
        wal.append(&sample(2)).unwrap();
        drop(wal);
        // Simulate a crash mid-append: part of a third frame at the tail.
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(&torn_frame(3)).unwrap();
        drop(f);
        let records = Wal::read_all(&p).unwrap();
        assert_eq!(records.len(), 2);
    }

    /// All but the last byte of a frame holding `sample(n)`.
    fn torn_frame(n: u64) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_frame(&mut frame, false, &[sample(n)]).unwrap();
        frame.pop();
        frame
    }

    #[test]
    fn a_torn_header_is_trimmed_to_an_empty_log() {
        let p = tmpdir().join("torn-header.wal");
        std::fs::write(&p, &MAGIC[..5]).unwrap();
        assert_eq!(Wal::read_all_repair(&p).unwrap(), (Vec::new(), 5));
        let mut wal = Wal::open(&p, SyncPolicy::Always).unwrap();
        wal.append(&sample(1)).unwrap();
        drop(wal);
        assert_eq!(Wal::read_all(&p).unwrap(), [sample(1)]);
        // Not a prefix of the header: not a log.
        std::fs::write(&p, b"SENTx").unwrap();
        assert!(Wal::read_all(&p).is_err());
        assert!(Wal::open(&p, SyncPolicy::Always).is_err());
    }

    #[test]
    fn repair_truncates_the_torn_tail() {
        let p = tmpdir().join("repair.wal");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, SyncPolicy::Always).unwrap();
        wal.append(&sample(1)).unwrap();
        wal.append(&sample(2)).unwrap();
        drop(wal);
        let clean_len = std::fs::metadata(&p).unwrap().len();
        let garbage = torn_frame(3);
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(&garbage).unwrap();
        drop(f);
        let (records, trimmed) = Wal::read_all_repair(&p).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(trimmed, garbage.len() as u64);
        assert_eq!(std::fs::metadata(&p).unwrap().len(), clean_len);
        // The file is clean again: appending after repair keeps the log
        // readable instead of burying garbage mid-file.
        let mut wal = Wal::open(&p, SyncPolicy::Always).unwrap();
        wal.append(&sample(3)).unwrap();
        drop(wal);
        assert_eq!(Wal::read_all(&p).unwrap().len(), 3);
    }

    #[test]
    fn corruption_in_the_middle_is_reported() {
        let p = tmpdir().join("corrupt.wal");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, SyncPolicy::Always).unwrap();
        wal.append(&sample(1)).unwrap();
        drop(wal);
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(b"garbage line\n").unwrap();
        drop(f);
        let mut wal = Wal::open(&p, SyncPolicy::Always).unwrap();
        wal.append(&sample(2)).unwrap();
        drop(wal);
        assert!(matches!(Wal::read_all(&p), Err(ObjectError::Storage(_))));
        assert!(matches!(
            Wal::read_all_repair(&p),
            Err(ObjectError::Storage(_))
        ));
    }

    #[test]
    fn truncate_empties_the_log_and_keeps_appending() {
        let p = tmpdir().join("truncate.wal");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, SyncPolicy::Always).unwrap();
        wal.append(&sample(1)).unwrap();
        wal.truncate().unwrap();
        wal.append(&sample(2)).unwrap();
        drop(wal);
        let records = Wal::read_all(&p).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0], sample(2));
    }

    #[test]
    fn grouped_stages_records_until_the_batch_syncs() {
        let p = tmpdir().join("grouped-stage.wal");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, grouped(8)).unwrap();
        for txn in 1..=3u64 {
            wal.append(&LogRecord::Begin { txn }).unwrap();
            wal.append(&sample(txn)).unwrap();
            wal.append(&LogRecord::Commit { txn }).unwrap();
        }
        // Nothing is on disk yet: the batch is staged in memory.
        assert_eq!(wal.staged_commits(), 3);
        assert_eq!(wal.durable_commits(), 0);
        assert_eq!(Wal::read_all(&p).unwrap().len(), 0);

        let ack = wal.sync_batch().unwrap();
        assert_eq!(ack.commits, 3);
        assert_eq!(ack.records, 9);
        assert_eq!(wal.staged_commits(), 0);
        assert_eq!(wal.durable_commits(), 3);
        assert_eq!(Wal::read_all(&p).unwrap().len(), 9);

        // An empty batch acks zero without touching the file.
        assert_eq!(wal.sync_batch().unwrap(), BatchAck::default());
    }

    #[test]
    fn grouped_syncs_automatically_at_max_batch() {
        let p = tmpdir().join("grouped-auto.wal");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, grouped(2)).unwrap();
        wal.append(&LogRecord::Commit { txn: 1 }).unwrap();
        assert_eq!(wal.durable_commits(), 0, "below max_batch: still staged");
        wal.append(&LogRecord::Commit { txn: 2 }).unwrap();
        assert_eq!(wal.durable_commits(), 2, "max_batch reached: auto-sync");
        assert_eq!(Wal::read_all(&p).unwrap().len(), 2);
    }

    #[test]
    fn grouped_drop_loses_exactly_the_unacknowledged_suffix() {
        let p = tmpdir().join("grouped-drop.wal");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, grouped(100)).unwrap();
        for txn in 1..=5u64 {
            wal.append(&LogRecord::Commit { txn }).unwrap();
        }
        wal.sync_batch().unwrap();
        for txn in 6..=8u64 {
            wal.append(&LogRecord::Commit { txn }).unwrap();
        }
        let durable = wal.durable_commits();
        drop(wal); // crash: staged commits 6..=8 were never written
        assert_eq!(durable, 5);
        let records = Wal::read_all(&p).unwrap();
        assert_eq!(records.len(), 5);
        assert!(matches!(records.last(), Some(LogRecord::Commit { txn: 5 })));
    }

    #[test]
    fn grouped_sync_due_tracks_oldest_staged_commit() {
        let p = tmpdir().join("grouped-due.wal");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(
            &p,
            SyncPolicy::Grouped {
                max_batch: 100,
                max_wait: Duration::ZERO,
            },
        )
        .unwrap();
        assert!(!wal.sync_due(), "empty batch is never due");
        wal.append(&sample(1)).unwrap();
        assert!(!wal.sync_due(), "non-commit records do not start the clock");
        wal.append(&LogRecord::Commit { txn: 1 }).unwrap();
        assert!(wal.sync_due(), "zero max_wait: due as soon as staged");
        wal.sync_batch().unwrap();
        assert!(!wal.sync_due());
    }

    #[test]
    fn grouped_truncate_drops_staged_records_as_acknowledged() {
        let p = tmpdir().join("grouped-trunc.wal");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, grouped(100)).unwrap();
        wal.append(&LogRecord::Commit { txn: 1 }).unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.staged_commits(), 0);
        assert_eq!(wal.durable_commits(), 1, "snapshot made the commit durable");
        assert_eq!(Wal::read_all(&p).unwrap().len(), 0);
    }

    fn txn_batch(batch: &mut WriteBatch, txn: u64) {
        batch.begin(txn);
        batch.push_record(LogRecord::Begin { txn });
        batch.push_record(sample(txn));
        batch.push_record(sample(txn + 1));
        batch.push_record(LogRecord::Commit { txn });
    }

    #[test]
    fn without_inline_syncs_a_full_group_waits_for_the_syncer() {
        let p = tmpdir().join("grouped-background.wal");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, grouped(2)).unwrap();
        wal.set_inline_sync(false);
        let syncer = wal.syncer();
        for txn in 1..=3u64 {
            wal.append(&LogRecord::Commit { txn }).unwrap();
        }
        assert_eq!(wal.staged_commits(), 3, "appends only stage");
        assert!(syncer.batch_full());
        let ack = syncer.sync_batch().unwrap();
        assert_eq!(ack.commits, 3);
        assert_eq!(wal.durable_commits(), 3);
        assert!(!syncer.batch_full());
        assert_eq!(Wal::read_all(&p).unwrap().len(), 3);
        // The spare buffer took the group's place: staging goes on.
        wal.append(&LogRecord::Commit { txn: 4 }).unwrap();
        assert_eq!(syncer.sync_batch().unwrap().commits, 1);
        assert_eq!(Wal::read_all(&p).unwrap().len(), 4);
    }

    #[test]
    fn an_empty_sync_waits_out_a_group_in_flight() {
        let p = tmpdir().join("grouped-in-flight.wal");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, grouped(100)).unwrap();
        wal.set_inline_sync(false);
        let mut batch = WriteBatch::new();
        for txn in 1..=3u64 {
            txn_batch(&mut batch, txn);
            wal.append_batch(&batch).unwrap();
        }
        let syncer = wal.syncer();
        let (swapped_tx, swapped_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            syncer
                .shared
                .sync_group(true, None, || {
                    swapped_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                    // Let the other thread reach the file lock before
                    // this group is written.
                    std::thread::sleep(Duration::from_millis(30));
                })
                .unwrap()
        });
        swapped_rx.recv().unwrap();
        assert_eq!(wal.staged_commits(), 0, "the group left the staged buffer");
        assert_eq!(wal.durable_commits(), 0, "but is not durable yet");
        go_tx.send(()).unwrap();
        assert_eq!(wal.sync_batch().unwrap(), BatchAck::default());
        assert_eq!(wal.durable_commits(), 3, "the empty sync waited for it");
        assert_eq!(worker.join().unwrap().commits, 3);
        assert_eq!(Wal::read_all(&p).unwrap().len(), 12);
    }

    #[test]
    fn no_group_splits_a_transaction() {
        let p = tmpdir().join("grouped-whole-txns.wal");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, grouped(4)).unwrap();
        wal.set_inline_sync(false);
        let syncer = wal.syncer();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let worker = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut acks = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    acks.push(syncer.sync_batch().unwrap());
                }
                acks.push(syncer.sync_batch().unwrap());
                acks
            })
        };
        let mut batch = WriteBatch::new();
        for txn in 1..=400u64 {
            txn_batch(&mut batch, txn);
            wal.append_batch(&batch).unwrap();
            batch.commit();
        }
        stop.store(true, Ordering::Release);
        let acks = worker.join().unwrap();
        for ack in &acks {
            assert_eq!(ack.records, 4 * ack.commits, "a group split a txn: {ack:?}");
        }
        assert_eq!(acks.iter().map(|a| a.commits).sum::<u64>(), 400);
        assert_eq!(wal.durable_commits(), 400);
        let records = Wal::read_all(&p).unwrap();
        assert_eq!(records.len(), 1600);
        for (i, txn) in records.chunks(4).enumerate() {
            let id = i as u64 + 1;
            assert_eq!(txn[0], LogRecord::Begin { txn: id });
            assert_eq!(txn[3], LogRecord::Commit { txn: id });
        }
    }
}
