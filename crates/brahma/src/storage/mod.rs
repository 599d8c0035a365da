//! The durable file backend (DESIGN.md §14).
//!
//! The store's operational data structures — pages, allocator directories,
//! reference tables — are the same with and without it; the log holds no
//! record in memory. The default is no backend at all (the paper's
//! memory-resident configuration, unchanged). Attaching one makes
//! durability real:
//!
//! * every WAL append reserves its LSN, is encoded and written under the
//!   backend's one mutex — so the on-disk order is the LSN order and every
//!   LSN below `Wal::next_lsn` is in a segment file — into a segmented
//!   append-only log of CRC32-checksummed, length-prefixed records
//!   ([`codec::put_frame`]'s framing); the group-commit leader's force
//!   becomes a real `fsync`;
//! * segments rotate at [`crate::StoreConfig::wal_segment_bytes`] and are
//!   deleted, oldest first, once wholly older than the last checkpoint;
//!   creating one fsyncs `wal/`, so its directory entry is durable;
//! * checkpoints are written *shadow-style* — encode to
//!   `checkpoint.img.tmp`, fsync, atomically rename over `checkpoint.img`,
//!   fsync the directory — so a crash at any instant leaves exactly one
//!   valid checkpoint on disk.
//!
//! [`open`] is the one open path, for a fresh directory too: read the
//! checkpoint (the empty one if there is none), scan the segments from the
//! checkpoint LSN, truncate the torn tail (the first record whose length
//! prefix or CRC fails), run ARIES-style `recovery::recover` over the
//! surviving records, checkpoint if that replayed anything, and hand back
//! the partitions whose pass the crash interrupted, for the reorganizer to
//! restart from its floor.
//!
//! ## Crash model
//!
//! The fault sites (`file.pwrite`, `file.fsync`, `file.torn_write`,
//! `ckpt.rename`) model a *process kill*: when one fires, the backend marks
//! itself dead and stops touching the files — completed writes survive,
//! the record at the crash point is absent or torn, and the still-running
//! in-memory store writes to nowhere until the harness drops it (exactly
//! the window a real kill leaves between the last durable byte and process
//! exit). `fsync` is real and its cost measurable, but this model does not
//! simulate a device that *lies* about sync — lost-unsynced-page faults
//! would need a block-level mock, which is out of scope here.

pub mod codec;

use crate::addr::PartitionId;
use crate::config::StoreConfig;
use crate::db::Database;
use crate::error::{Error, Result};
use crate::fault::{site, FaultInjector, FaultPlan};
use crate::lockdep::{LockClass, Mutex};
use crate::recovery::{recover, Checkpoint, CrashImage};
use crate::txn::TxnId;
use crate::wal::{LogPayload, LogRecord, Lsn};
use codec::{Framed, Reader};
use obs::Counter;
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// File-format magics (8 bytes each, version baked into the last byte).
const SEG_MAGIC: &[u8; 8] = b"BRHMWAL4";
const CKPT_MAGIC: &[u8; 8] = b"BRHMCKP6";
/// Bytes of a segment file header: magic + start LSN.
const SEG_HEADER_BYTES: u64 = 16;

/// Counters on the file-backend I/O path (DESIGN.md §8).
#[derive(Debug, Default)]
pub(crate) struct FileStats {
    /// Real `fsync`/`fdatasync` calls issued.
    pub fsyncs: Counter,
    /// Bytes handed to the OS (segment records + checkpoint images).
    pub bytes_written: Counter,
    /// WAL segment rotations performed.
    pub segments_rotated: Counter,
    /// Torn segment tails truncated during restart scans.
    pub torn_tail_truncations: Counter,
}

impl FileStats {
    pub(crate) fn export(&self, snap: &mut obs::Snapshot) {
        snap.set("file.fsyncs", self.fsyncs.get());
        snap.set("file.bytes_written", self.bytes_written.get());
        snap.set("wal.segments_rotated", self.segments_rotated.get());
        snap.set(
            "recovery.torn_tail_truncations",
            self.torn_tail_truncations.get(),
        );
    }
}

/// The active segment writer.
struct SegWriter {
    file: File,
    bytes: u64,
    /// The record body and the frame being written; kept for their capacity.
    body: Vec<u8>,
    frame: Vec<u8>,
}

/// Durable pread/pwrite file backend. See the module docs for the formats
/// and crash model.
pub struct FileBackend {
    dir: PathBuf,
    fault: Arc<FaultInjector>,
    /// Latched once a `file.*`/`ckpt.*` crash fault fires (or a real I/O
    /// error occurs): the process is considered killed, every subsequent
    /// write silently lands nowhere, and [`FileBackend::healthy`] reports
    /// it.
    dead: AtomicBool,
    segment_bytes: u64,
    inner: Mutex<SegWriter>,
    pub(crate) stats: FileStats,
}

impl FileBackend {
    /// Create the backend over `dir` (laid out as `wal/` and
    /// `checkpoint.img`), opening a fresh active segment at `next_lsn`.
    pub(crate) fn new(
        dir: &Path,
        fault: Arc<FaultInjector>,
        segment_bytes: u64,
        next_lsn: Lsn,
    ) -> Result<Self> {
        fs::create_dir_all(dir.join("wal")).map_err(|e| eio("create wal dir", &e))?;
        let file = open_segment(dir, next_lsn)?;
        let stats = FileStats::default();
        stats.fsyncs.inc();
        Ok(FileBackend {
            dir: dir.to_path_buf(),
            fault,
            dead: AtomicBool::new(false),
            segment_bytes: segment_bytes.max(SEG_HEADER_BYTES),
            inner: Mutex::new(
                LockClass::FileBackend,
                0,
                SegWriter {
                    file,
                    bytes: SEG_HEADER_BYTES,
                    body: Vec::new(),
                    frame: Vec::new(),
                },
            ),
            stats,
        })
    }

    /// Observe `site` and report whether it fired a crash *at this call*
    /// (as opposed to a crash latched earlier at an unrelated site).
    /// Retryable/permanent actions at file sites fire into the counters but
    /// cannot unwind — the append path returns no `Result` (same contract
    /// as the `page.latch` site).
    fn site_kills(&self, s: &'static str) -> bool {
        if !self.fault.armed() {
            return false;
        }
        let pre = self.fault.crash_requested();
        self.fault.observe(s);
        !pre && self.fault.crash_requested()
    }

    fn die(&self) {
        // ordering: SeqCst kill switch; the fault must precede any later write
        self.dead.store(true, Ordering::SeqCst);
    }

    /// Write one record to the active segment and return its LSN, reserved
    /// from `next_lsn`. Reservation, encoding and write all happen under
    /// `inner`, so frames reach the segment in LSN order and every reserved
    /// LSN is in the file once the mutex is released. A dead backend still
    /// hands out LSNs.
    pub(crate) fn wal_append(&self, next_lsn: &AtomicU64, tid: TxnId, payload: &LogPayload) -> Lsn {
        let mut inner = self.inner.lock();
        // ordering: AcqRel keeps every reservation in the release sequence Wal::next_lsn's Acquire reads
        let lsn = next_lsn.fetch_add(1, Ordering::AcqRel);
        // ordering: an append's kill is ordered by `inner`; one racing `sync` is a race the disk could also lose
        if !self.dead.load(Ordering::Relaxed) {
            self.write_frame(&mut inner, lsn, tid, payload);
        }
        lsn
    }

    /// Encode and write one frame, rotating first if the segment is full.
    /// A fault or real I/O error kills the backend: completed earlier
    /// writes survive, this frame does not.
    fn write_frame(&self, inner: &mut SegWriter, lsn: Lsn, tid: TxnId, payload: &LogPayload) {
        inner.body.clear();
        codec::put_record_body(&mut inner.body, lsn, tid, payload);
        inner.frame.clear();
        codec::put_frame(&mut inner.frame, &inner.body);
        if inner.bytes >= self.segment_bytes {
            // Rotate: the finished segment keeps its records; the new one
            // starts at this record's LSN (its filename *is* its coverage).
            if inner.file.sync_data().is_err() {
                return self.die();
            }
            self.stats.fsyncs.inc();
            match open_segment(&self.dir, lsn) {
                Ok(file) => {
                    inner.file = file;
                    inner.bytes = SEG_HEADER_BYTES;
                    self.stats.fsyncs.inc();
                    self.stats.segments_rotated.inc();
                }
                Err(_) => return self.die(),
            }
        }
        let frame = &inner.frame;
        if self.site_kills(site::FILE_TORN_WRITE) {
            // The kill lands mid-pwrite: a prefix of the frame reaches the
            // file, then the process is gone.
            let torn = &frame[..frame.len() / 2];
            let _ = inner.file.write_all(torn);
            let _ = inner.file.flush();
            self.stats.bytes_written.add(torn.len() as u64);
            return self.die();
        }
        if self.site_kills(site::FILE_PWRITE) || inner.file.write_all(frame).is_err() {
            return self.die();
        }
        inner.bytes += frame.len() as u64;
        self.stats.bytes_written.add(frame.len() as u64);
    }

    /// Force the segment files to stable storage (the group-commit leader's
    /// force) and return the last LSN they hold, the force's target: every
    /// LSN is reserved under `inner`, so the last one read there is in a
    /// file. Segments before the active one were synced at rotation.
    pub(crate) fn sync(&self, next_lsn: &AtomicU64) -> Lsn {
        // ordering: Relaxed; read under `inner`, where every LSN is reserved
        let last = || next_lsn.load(Ordering::Relaxed).saturating_sub(1);
        // ordering: fast-path probe; a stale read is a race the disk could also lose
        if self.dead.load(Ordering::Relaxed) {
            return last();
        }
        if self.site_kills(site::FILE_FSYNC) {
            self.die();
            return last();
        }
        // Clone the active segment's fd under the lock, fsync outside it:
        // appenders keep writing into the (OS-side buffered) file while the
        // device write completes.
        let (file, target) = {
            let inner = self.inner.lock();
            (inner.file.try_clone(), last())
        };
        if file.is_ok_and(|f| f.sync_data().is_ok()) {
            self.stats.fsyncs.inc();
        } else {
            self.die();
        }
        target
    }

    /// Durably replace the checkpoint (shadow write + atomic rename +
    /// directory fsync), then delete the segments it supersedes.
    pub(crate) fn write_checkpoint(&self, checkpoint: &Checkpoint) -> Result<()> {
        // ordering: fast-path probe; a stale read is a race the disk could also lose
        if self.dead.load(Ordering::Relaxed) {
            // Process-kill fiction: a dead backend's writes land nowhere.
            return Ok(());
        }
        let bytes = encode_checkpoint_file(checkpoint);
        let tmp = self.dir.join("checkpoint.img.tmp");
        let live = self.dir.join("checkpoint.img");
        let write = || -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_data()?;
            Ok(())
        };
        if let Err(e) = write() {
            self.die();
            return Err(eio("write shadow checkpoint", &e));
        }
        self.stats.bytes_written.add(bytes.len() as u64);
        self.stats.fsyncs.inc();
        if self.site_kills(site::CKPT_RENAME) {
            // Crash between shadow write and rename: the previous
            // checkpoint stays the valid one; the orphan `.tmp` is
            // harmlessly overwritten by the next attempt.
            self.die();
            return Ok(());
        }
        if let Err(e) = fs::rename(&tmp, &live) {
            self.die();
            return Err(eio("rename checkpoint", &e));
        }
        // Until the directory is synced, a power loss can undo the rename
        // and bring back the old checkpoint, which replays from segments
        // the new one supersedes: none is deleted before the sync.
        if self.site_kills(site::FILE_FSYNC) {
            self.die();
            return Ok(());
        }
        if let Err(e) = File::open(&self.dir).and_then(|d| d.sync_all()) {
            self.die();
            return Err(eio("fsync data dir", &e));
        }
        self.stats.fsyncs.inc();
        self.delete_segments(checkpoint.lsn);
        Ok(())
    }

    /// Whether the backend can still write (false after a crash fault).
    pub fn healthy(&self) -> bool {
        // ordering: SeqCst health check; recovery decisions must see the latest kill
        !self.dead.load(Ordering::SeqCst)
    }

    /// Delete every segment wholly older than `ckpt_lsn`, oldest first. A
    /// segment's coverage ends where the next segment begins, so `seg[i]`
    /// is superseded iff `seg[i+1].start_lsn <= ckpt_lsn`; the last
    /// (active) segment never is. Deletion stops at the first segment that
    /// fails to go, so the survivors stay a gap-free suffix of the log.
    /// Holding `inner` serializes this against rotation.
    fn delete_segments(&self, ckpt_lsn: Lsn) {
        let _inner = self.inner.lock();
        let segs = match list_segments(&self.dir.join("wal")) {
            Ok(s) => s,
            Err(_) => return,
        };
        for pair in segs.windows(2) {
            let (ref path, _) = pair[0];
            let (_, next_start) = pair[1];
            if next_start > ckpt_lsn || fs::remove_file(path).is_err() {
                break;
            }
        }
    }
}

/// What [`open`] hands back.
pub struct OpenOutcome {
    pub db: Database,
    /// Whether the directory held a checkpoint or a log segment.
    pub recovered: bool,
    /// Transactions rolled back as losers.
    pub losers: Vec<TxnId>,
    /// Partitions whose pass the crash interrupted: still open, at its
    /// floor, for `ira::Reorg` to restart.
    pub interrupted_reorgs: Vec<PartitionId>,
    /// Torn segment tails truncated during the scan.
    pub torn_tail_truncations: u64,
}

/// Open a durable store at `config.data_dir`, recovering whatever the
/// directory holds. See the module docs; the one-liner is
/// `let out = brahma::storage::open(config)?;` — `out.db` is ready, and
/// `out.interrupted_reorgs` lists reorganizations to restart.
pub fn open(config: StoreConfig) -> Result<OpenOutcome> {
    open_with_faults(config, None)
}

/// [`open`] with a fault plan armed *before* recovery runs, so crash sites
/// can fire during recovery itself (the double-crash chaos cells).
pub fn open_with_faults(config: StoreConfig, plan: Option<FaultPlan>) -> Result<OpenOutcome> {
    let dir = config
        .data_dir
        .clone()
        .ok_or_else(|| Error::RecoveryCorrupt("storage::open requires config.data_dir".into()))?;
    fs::create_dir_all(&dir).map_err(|e| eio("create data dir", &e))?;

    // ---- Restart: checkpoint + segment scan -> CrashImage -> recover ----
    // A directory that was never checkpointed restarts from the empty
    // checkpoint (id 0, LSN 0); a missing `wal/` is an empty log.
    let (checkpoint, had_checkpoint) = match fs::read(dir.join("checkpoint.img")) {
        Ok(file) => (decode_checkpoint(&file)?, true),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Checkpoint::default(), false),
        Err(e) => return Err(eio("read checkpoint", &e)),
    };
    let (scanned, segments, torn_truncations) = scan_segments(&dir.join("wal"), checkpoint.lsn)?;
    let replay = !scanned.is_empty();
    let ckpt_id = checkpoint.id;
    let image = CrashImage {
        checkpoint,
        log: scanned,
    };
    let outcome = recover(image, config.clone())?;
    let db = outcome.db;
    if let Some(plan) = plan {
        db.fault.arm(plan);
    }
    // With nothing replayed, `next_lsn` may be the last segment's start
    // LSN; that segment then holds no record, and `open_segment` truncates
    // it.
    let backend = Arc::new(FileBackend::new(
        &dir,
        Arc::clone(&db.fault),
        config.wal_segment_bytes,
        db.wal.next_lsn(),
    )?);
    backend.stats.torn_tail_truncations.add(torn_truncations);
    db.attach_backend(Arc::clone(&backend));

    // ---- Recovery checkpoint: bound the next restart's replay ----
    // Written before returning so a crash *after* open never re-runs undo
    // over the old log. An interrupted pass is open in its partition's
    // snapshot, floor and all. With no surviving record the recovered
    // store is the checkpoint, and rewriting it would change nothing.
    if replay {
        backend.write_checkpoint(&db.checkpoint(ckpt_id + 1))?;
    }

    Ok(OpenOutcome {
        db,
        recovered: had_checkpoint || segments > 0,
        losers: outcome.losers,
        interrupted_reorgs: outcome.interrupted_reorgs,
        torn_tail_truncations: torn_truncations,
    })
}

impl Database {
    /// Take a checkpoint and, when a backend is attached, write it durably
    /// (shadow protocol) and delete the segments it supersedes. Must be
    /// called at a quiescent point (no active transactions).
    pub fn checkpoint_durable(&self, id: u64) -> Result<Checkpoint> {
        let ckpt = self.checkpoint(id);
        if let Some(backend) = self.backend() {
            backend.write_checkpoint(&ckpt)?;
        }
        Ok(ckpt)
    }
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

/// Create the segment of `dir` that starts at `start_lsn`, write its
/// header, and fsync `wal/` so the new file's entry is durable: a commit
/// forced into a segment whose entry a power loss can drop is not durable.
/// The directory sync is one `file.fsyncs` for the caller to count.
fn open_segment(dir: &Path, start_lsn: Lsn) -> Result<File> {
    let wal = dir.join("wal");
    let mut f = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(wal.join(format!("seg-{start_lsn:020}.wal")))
        .map_err(|e| eio("create segment", &e))?;
    let mut header = Vec::with_capacity(SEG_HEADER_BYTES as usize);
    header.extend_from_slice(SEG_MAGIC);
    codec::put_u64(&mut header, start_lsn);
    f.write_all(&header)
        .map_err(|e| eio("write segment header", &e))?;
    File::open(&wal)
        .and_then(|d| d.sync_all())
        .map_err(|e| eio("fsync wal dir", &e))?;
    Ok(f)
}

/// `(path, start_lsn)` of every live segment, ordered by start LSN (the
/// zero-padded filename makes lexicographic == numeric order, but we parse
/// and sort numerically anyway).
fn list_segments(wal_dir: &Path) -> Result<Vec<(PathBuf, Lsn)>> {
    let mut out = Vec::new();
    let entries = fs::read_dir(wal_dir).map_err(|e| eio("read wal dir", &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| eio("read wal dir entry", &e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(lsn) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".wal"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((entry.path(), lsn));
        }
    }
    out.sort_by_key(|(_, lsn)| *lsn);
    Ok(out)
}

/// Scan one segment file: verify the header, decode every CRC-valid frame,
/// and stop at the first torn record. With `truncate`, the file is
/// truncated at the tear so later scans (and appends, were this the active
/// segment) see a clean tail. Returns the decoded records and the tear
/// offset, if any.
pub fn scan_segment_file(path: &Path, truncate: bool) -> Result<(Vec<LogRecord>, Option<u64>)> {
    let mut buf = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(|e| eio("read segment", &e))?;
    let mut r = Reader::new(&buf, 0);
    let magic = r.take(8)?;
    if magic != SEG_MAGIC {
        return Err(Error::Corrupt {
            offset: 0,
            reason: "bad segment magic".into(),
        });
    }
    let _start_lsn = r.u64()?;
    let mut pos = SEG_HEADER_BYTES as usize;
    let mut records = Vec::new();
    let mut tear: Option<u64> = None;
    loop {
        match codec::next_frame(&buf, pos, 0) {
            Framed::End => break,
            Framed::Torn { at, .. } => {
                tear = Some(at);
                break;
            }
            Framed::Body { body, at } => {
                // CRC-valid but undecodable is hard corruption, not a tear.
                records.push(codec::decode_record_body(body, at)?);
                pos += codec::RECORD_HEADER_BYTES + body.len();
            }
        }
    }
    if let (Some(at), true) = (tear, truncate) {
        OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|f| f.set_len(at))
            .map_err(|e| eio("truncate torn segment", &e))?;
    }
    Ok((records, tear))
}

/// Scan the live segments in LSN order, truncating torn tails. Returns
/// the surviving records at or above `from` (ascending LSN), the number of
/// segments and the number of truncations. A segment whose successor
/// starts at or below `from` holds no such record (`delete_segments`'s
/// rule), so it is not read. A missing `wal/` holds no segment.
fn scan_segments(wal_dir: &Path, from: Lsn) -> Result<(Vec<LogRecord>, usize, u64)> {
    if !wal_dir.exists() {
        return Ok((Vec::new(), 0, 0));
    }
    let segments = list_segments(wal_dir)?;
    let mut records = Vec::new();
    let mut truncations = 0;
    for (i, (path, _)) in segments.iter().enumerate() {
        if segments.get(i + 1).is_some_and(|&(_, next)| next <= from) {
            continue;
        }
        let (mut recs, tear) = scan_segment_file(path, true)?;
        records.append(&mut recs);
        if tear.is_some() {
            truncations += 1;
        }
    }
    records.retain(|r| r.lsn >= from);
    Ok((records, segments.len(), truncations))
}

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

/// Encode the whole checkpoint file: `magic | crc32(body) | body`.
fn encode_checkpoint_file(checkpoint: &Checkpoint) -> Vec<u8> {
    use codec::*;
    let mut body = Vec::new();
    put_u64(&mut body, checkpoint.id);
    put_u64(&mut body, checkpoint.lsn);
    put_u32(&mut body, checkpoint.roots.len() as u32);
    for root in &checkpoint.roots {
        put_addr(&mut body, *root);
    }
    put_u16(&mut body, checkpoint.partitions.len() as u16);
    for snap in &checkpoint.partitions {
        put_partition(&mut body, snap);
    }
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(CKPT_MAGIC);
    put_u32(&mut out, crc32(&body));
    out.append(&mut body);
    out
}

/// Decode the bytes of a checkpoint file. Every malformed byte degrades to
/// [`Error::Corrupt`] — a half-written shadow file (which the rename
/// protocol should make impossible to observe under `checkpoint.img`)
/// fails loudly rather than installing garbage state — and no count
/// reserves more than the remaining bytes could hold.
pub fn decode_checkpoint(buf: &[u8]) -> Result<Checkpoint> {
    let mut r = Reader::new(buf, 0);
    let magic = r.take(8)?;
    if magic != CKPT_MAGIC {
        return Err(Error::Corrupt {
            offset: 0,
            reason: "bad checkpoint magic".into(),
        });
    }
    let crc = r.u32()?;
    let body = &buf[12..];
    if codec::crc32(body) != crc {
        return Err(Error::Corrupt {
            offset: 8,
            reason: "checkpoint crc mismatch".into(),
        });
    }
    let mut r = Reader::new(body, 12);
    let id = r.u64()?;
    let lsn = r.u64()?;
    let nroots = r.u32()? as usize;
    let mut roots = Vec::with_capacity(r.fits(nroots, 8)?);
    for _ in 0..nroots {
        roots.push(r.addr()?);
    }
    let nparts = r.u16()? as usize;
    // id, base, floor flag and page count: 11 bytes at the least.
    let mut partitions = Vec::with_capacity(r.fits(nparts, 11)?);
    for _ in 0..nparts {
        partitions.push(codec::read_partition(&mut r)?);
    }
    r.expect_end("checkpoint file")?;
    Ok(Checkpoint {
        id,
        lsn,
        partitions,
        roots,
    })
}

/// Map an I/O failure on the open/recovery path into a store error.
fn eio(what: &str, e: &std::io::Error) -> Error {
    Error::RecoveryCorrupt(format!("{what}: {e}"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::addr::PhysAddr;
    use crate::handle::NewObject;

    /// An empty scratch directory for one test's store.
    pub(crate) fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("brahma-storage-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    pub(crate) fn file_config(dir: &Path) -> StoreConfig {
        StoreConfig {
            data_dir: Some(dir.to_path_buf()),
            wal_segment_bytes: 4096,
            ..StoreConfig::default()
        }
    }

    /// What thread `t` appends as its `i`-th record.
    fn nth_of(t: u32, i: u16) -> LogPayload {
        LogPayload::Migrate {
            old: PhysAddr::new(PartitionId(0), t, i),
            new: PhysAddr::new(PartitionId(1), t, i),
        }
    }

    /// Four threads × 500 `Wal::append`s through a `FileBackend` sink over
    /// 4 KiB segments, a force, a drop — optionally with a `file.pwrite`
    /// kill armed at hit `kill_at`. Returns what a reopened scan of the
    /// segments finds, after checking it is the LSNs from 0 up, gap-free,
    /// and each thread's records a prefix of what it appended, in order.
    fn concurrent_appends(tag: &str, kill_at: Option<u64>) -> Vec<LogRecord> {
        use crate::fault::{FaultAction, FaultRule};
        use crate::wal::Wal;
        let dir = tmpdir(tag);
        fs::create_dir_all(&dir).unwrap();
        let fault = Arc::new(FaultInjector::new());
        if let Some(n) = kill_at {
            let kill = FaultRule::nth(site::FILE_PWRITE, n, FaultAction::Crash);
            fault.arm(FaultPlan::new(0).with(kill));
        }
        let backend = Arc::new(FileBackend::new(&dir, fault, 4096, 0).unwrap());
        let wal = Wal::new(true, std::time::Duration::ZERO);
        wal.set_sink(Arc::clone(&backend));
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let (wal, start) = (&wal, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..500u16 {
                        wal.append(TxnId(u64::from(t)), nth_of(t, i));
                    }
                });
            }
        });
        wal.flush(wal.next_lsn() - 1);
        assert_eq!(wal.next_lsn(), 2000, "a dead backend still hands out LSNs");
        assert_eq!(backend.healthy(), kill_at.is_none());
        assert!(kill_at.is_some() || backend.stats.segments_rotated.get() >= 2);
        drop((wal, backend));
        let (scanned, _, torn) = scan_segments(&dir.join("wal"), 0).unwrap();
        assert_eq!(torn, 0);
        fs::remove_dir_all(&dir).unwrap();
        assert!(scanned.iter().map(|r| r.lsn).eq(0..scanned.len() as Lsn));
        for t in 0..4u32 {
            let own = scanned.iter().filter(|r| r.tid == TxnId(u64::from(t)));
            assert!(own.zip(0..).all(|(r, i)| r.payload == nth_of(t, i)));
        }
        scanned
    }

    #[test]
    fn concurrent_appends_reach_the_segments_in_lsn_order() {
        let scanned = concurrent_appends("lsn-order", None);
        assert_eq!(scanned.len(), 2000, "the segments hold every record");
    }

    #[test]
    fn a_pwrite_kill_leaves_a_gap_free_prefix() {
        // Hit n of `file.pwrite` is frame n: frames 1..n landed, nothing
        // from the kill on did, whichever threads were appending.
        let scanned = concurrent_appends("kill-prefix", Some(700));
        assert_eq!(scanned.len(), 699);
    }

    #[test]
    fn fresh_open_then_reopen_restores_committed_state() {
        let dir = tmpdir("fresh");
        let out = open(file_config(&dir)).unwrap();
        assert!(!out.recovered);
        let db = out.db;
        let p = db.create_partition();
        let mut t = db.begin();
        let a = t
            .create_object(p, NewObject::exact(1, vec![], b"durable".to_vec()))
            .unwrap();
        t.commit().unwrap();
        db.add_root(a);
        drop(db); // process kill: nothing flushed beyond the commit force

        let out = open(file_config(&dir)).unwrap();
        assert!(out.recovered);
        assert_eq!(out.db.raw_read(a).unwrap().payload, b"durable".to_vec());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Enough committed churn in `p` to rotate past several 4 KiB segments.
    fn churn(db: &Database, p: PartitionId) {
        for i in 0..200u32 {
            let mut t = db.begin();
            let a = t
                .create_object(p, NewObject::exact(1, vec![], vec![0u8; 64]))
                .unwrap();
            t.lock(a, crate::lock::LockMode::Exclusive).unwrap();
            t.set_payload(a, &i.to_le_bytes()).unwrap();
            t.commit().unwrap();
        }
    }

    #[test]
    fn checkpoint_deletes_superseded_segments() {
        let dir = tmpdir("supersede");
        let out = open(file_config(&dir)).unwrap();
        let db = out.db;
        let p = db.create_partition();
        churn(&db, p);
        let rotated = db.obs_snapshot().get("wal.segments_rotated");
        assert!(rotated >= 2, "expected rotations, got {rotated}");
        db.checkpoint_durable(7).unwrap();
        let live = list_segments(&dir.join("wal")).unwrap();
        assert_eq!(live.len(), 1, "all but the active segment are deleted");
        assert!(!dir.join("archive").exists(), "nothing is archived");
        // And the store still reopens cleanly from checkpoint + tail.
        drop(db);
        let out = open(file_config(&dir)).unwrap();
        assert!(out.recovered);
        assert_eq!(out.db.partition_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A superseded segment that fails to delete stops the deletion there,
    /// so the segments left are a gap-free suffix of the log.
    #[test]
    fn a_segment_that_fails_to_delete_keeps_every_later_one() {
        let dir = tmpdir("undeletable");
        let db = open(file_config(&dir)).unwrap().db;
        let p = db.create_partition();
        churn(&db, p);
        let segs = list_segments(&dir.join("wal")).unwrap();
        assert!(segs.len() >= 3, "expected rotations, got {segs:?}");

        // A directory in the second segment's place makes its unlink fail.
        let (ref stuck, _) = segs[1];
        let bytes = fs::read(stuck).unwrap();
        fs::remove_file(stuck).unwrap();
        fs::create_dir(stuck).unwrap();
        db.checkpoint_durable(7).unwrap();
        let live = list_segments(&dir.join("wal")).unwrap();
        assert!(
            live.starts_with(&segs[1..]),
            "deletion stops at the stuck segment"
        );

        // Put the segment back as the file that failed to go: the store
        // reopens with every committed object.
        fs::remove_dir(stuck).unwrap();
        fs::write(stuck, bytes).unwrap();
        drop(db);
        let out = open(file_config(&dir)).unwrap();
        assert_eq!(out.db.partition(p).unwrap().object_count(), 200);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A kill at the directory fsync after the rename deletes no segment.
    /// Should the rename be lost with the kill, the old checkpoint comes
    /// back and replays every committed transaction from them.
    #[test]
    fn a_kill_at_the_directory_fsync_keeps_every_segment() {
        use crate::fault::{FaultAction, FaultRule};
        let dir = tmpdir("dir-fsync");
        let db = open(file_config(&dir)).unwrap().db;
        let p = db.create_partition();
        churn(&db, p);
        let segs = list_segments(&dir.join("wal")).unwrap();
        assert!(segs.len() >= 3, "expected rotations, got {segs:?}");
        assert!(
            !dir.join("checkpoint.img").exists(),
            "a fresh open writes none"
        );

        // Armed after the commits' forces: the next fsync site is the
        // checkpoint's directory sync.
        let kill = FaultRule::nth(site::FILE_FSYNC, 1, FaultAction::Crash);
        db.fault.arm(FaultPlan::new(0).with(kill));
        db.checkpoint_durable(7).unwrap();
        assert_eq!(db.fault.fired(site::FILE_FSYNC), 1);
        assert!(db.backend().is_some_and(|b| !b.healthy()));
        let live = list_segments(&dir.join("wal")).unwrap();
        assert!(live.starts_with(&segs), "every superseded segment stays");
        drop(db);

        // The power loss undid the rename: the store has no checkpoint, and
        // every segment replays from LSN 0.
        fs::remove_file(dir.join("checkpoint.img")).unwrap();
        let out = open(file_config(&dir)).unwrap();
        let part = out.db.partition(p).unwrap();
        assert_eq!(part.object_count(), 200);
        let last = part.live_objects().into_iter().max().unwrap();
        assert_eq!(out.db.raw_read(last).unwrap().payload, 199u32.to_le_bytes());
        fs::remove_dir_all(&dir).unwrap();
    }
}
