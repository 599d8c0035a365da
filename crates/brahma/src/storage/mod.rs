//! The durable file backend (DESIGN.md §14).
//!
//! The store's operational data structures — pages, allocator directories,
//! reference tables, the in-memory log — are the same with and without it;
//! a [`FileBackend`] is a *durability mirror* behind them. The default is
//! none at all (the paper's memory-resident configuration, unchanged).
//! Attaching one makes durability real:
//!
//! * every WAL append is mirrored — under the log mutex, so the on-disk
//!   order is the LSN order and every LSN below `Wal::next_lsn` is in a
//!   segment file — into a segmented append-only log of
//!   CRC32-checksummed, length-prefixed records
//!   ([`codec::put_frame`] around the body the log already encoded); the
//!   group-commit leader's force becomes a real `fsync`;
//! * segments rotate at [`crate::StoreConfig::wal_segment_bytes`] and are
//!   archived (moved to `archive/`) once wholly older than the last
//!   checkpoint;
//! * checkpoints are written *shadow-style* — encode to
//!   `checkpoint.img.tmp`, fsync, atomically rename over `checkpoint.img`,
//!   fsync the directory — so a crash at any instant leaves exactly one
//!   valid checkpoint on disk.
//!
//! [`open`] is the restart path: read the checkpoint, scan the segments
//! from the checkpoint LSN, truncate the torn tail (the first record whose
//! length prefix or CRC fails), run ARIES-style [`crate::recovery::recover`]
//! over the surviving records, and hand back interrupted reorganizations
//! with their latest on-disk progress checkpoints for resumption.
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
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// File-format magics (8 bytes each, version baked into the last byte).
const SEG_MAGIC: &[u8; 8] = b"BRHMWAL1";
const CKPT_MAGIC: &[u8; 8] = b"BRHMCKP2";
/// Bytes of a segment file header: magic + start LSN.
const SEG_HEADER_BYTES: u64 = 16;

/// Everything one durable checkpoint carries, borrowed from the caller.
pub struct CheckpointData<'a> {
    pub checkpoint: &'a Checkpoint,
    /// Latest reorganizer progress blob per partition under reorganization.
    pub reorg_blobs: &'a [(PartitionId, Vec<u8>)],
    /// Pre-checkpoint log records still needed after segments older than
    /// this checkpoint are archived: the window from the earliest active
    /// reorganization's `ReorgStart`, kept for TRT reconstruction
    /// (Section 4.4). Empty when no reorganization is in flight.
    pub carry_log: &'a [LogRecord],
}

/// Counters on the file-backend I/O path (DESIGN.md §8).
#[derive(Debug, Default)]
pub struct FileStats {
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
    pub fn export(&self, snap: &mut obs::Snapshot) {
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
    /// The frame being written; kept for its capacity.
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
    pub stats: FileStats,
}

impl FileBackend {
    /// Create the backend over `dir` (laid out as `wal/`, `archive/`,
    /// `checkpoint.img`), opening a fresh active segment at `next_lsn`.
    pub fn new(
        dir: &Path,
        fault: Arc<FaultInjector>,
        segment_bytes: u64,
        next_lsn: Lsn,
    ) -> Result<Self> {
        fs::create_dir_all(dir.join("wal")).map_err(|e| eio("create wal dir", &e))?;
        fs::create_dir_all(dir.join("archive")).map_err(|e| eio("create archive dir", &e))?;
        let file = open_segment(&segment_path(dir, next_lsn), next_lsn)?;
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
                    frame: Vec::new(),
                },
            ),
            stats: FileStats::default(),
        })
    }

    /// Observe `site` and report whether it fired a crash *at this call*
    /// (as opposed to a crash latched earlier at an unrelated site).
    /// Retryable/permanent actions at file sites fire into the counters but
    /// cannot unwind — the mirror path returns no `Result` (same contract
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

    /// Mirror one appended record, given as the body the log encoded for
    /// itself; the length and CRC are added here, and the segment rotates
    /// first if it is full. [`crate::wal::Wal::append`] calls this inside
    /// the log mutex, so frames reach the segment in LSN order and the WAL
    /// publishes an LSN only after its frame is in the file. A fault or
    /// real I/O error kills the backend: completed earlier writes survive,
    /// this frame does not.
    pub fn wal_append(&self, lsn: Lsn, body: &[u8]) {
        // ordering: the log mutex orders an earlier append's kill; one racing `sync` is a race the disk could also lose
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.frame.clear();
        codec::put_frame(&mut inner.frame, body);
        if inner.bytes >= self.segment_bytes {
            // Rotate: the finished segment keeps its records; the new one
            // starts at this record's LSN (its filename *is* its coverage).
            if inner.file.sync_data().is_err() {
                return self.die();
            }
            self.stats.fsyncs.inc();
            match open_segment(&segment_path(&self.dir, lsn), lsn) {
                Ok(file) => {
                    inner.file = file;
                    inner.bytes = SEG_HEADER_BYTES;
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

    /// Force the mirrored log to stable storage (the group-commit leader's
    /// force). Every frame the leader's target covers is already in a
    /// segment file; those in earlier segments were synced at rotation.
    pub fn sync(&self) {
        // ordering: fast-path probe; a stale read is a race the disk could also lose
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        if self.site_kills(site::FILE_FSYNC) {
            return self.die();
        }
        // Clone the active segment's fd under the lock, fsync outside it:
        // appenders keep writing into the (OS-side buffered) file while the
        // device write completes.
        let file = self.inner.lock().file.try_clone();
        if !file.is_ok_and(|f| f.sync_data().is_ok()) {
            return self.die();
        }
        self.stats.fsyncs.inc();
    }

    /// Durably replace the checkpoint (shadow write + atomic rename).
    pub fn write_checkpoint(&self, data: &CheckpointData<'_>) -> Result<()> {
        // ordering: fast-path probe; a stale read is a race the disk could also lose
        if self.dead.load(Ordering::Relaxed) {
            // Process-kill fiction: a dead backend's writes land nowhere.
            return Ok(());
        }
        let bytes = encode_checkpoint_file(data);
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
        if let Ok(d) = File::open(&self.dir) {
            if d.sync_all().is_ok() {
                self.stats.fsyncs.inc();
            }
        }
        self.archive_segments(data.checkpoint.lsn);
        Ok(())
    }

    /// Whether the backend can still write (false after a crash fault).
    pub fn healthy(&self) -> bool {
        // ordering: SeqCst health check; recovery decisions must see the latest kill
        !self.dead.load(Ordering::SeqCst)
    }

    /// Move every segment wholly older than `ckpt_lsn` to `archive/`. A
    /// segment's coverage ends where the next segment begins, so `seg[i]`
    /// is archivable iff `seg[i+1].start_lsn <= ckpt_lsn`; the last
    /// (active) segment never archives. Holding `inner` serializes this
    /// against rotation.
    fn archive_segments(&self, ckpt_lsn: Lsn) {
        let _inner = self.inner.lock();
        let segs = match list_segments(&self.dir.join("wal")) {
            Ok(s) => s,
            Err(_) => return,
        };
        for pair in segs.windows(2) {
            let (ref path, _) = pair[0];
            let (_, next_start) = pair[1];
            if next_start <= ckpt_lsn {
                if let Some(name) = path.file_name() {
                    let _ = fs::rename(path, self.dir.join("archive").join(name));
                }
            }
        }
    }
}

/// What [`open`] hands back.
pub struct OpenOutcome {
    pub db: Database,
    /// False for a freshly initialized directory.
    pub recovered: bool,
    /// Transactions rolled back as losers.
    pub losers: Vec<TxnId>,
    /// Partitions whose reorganization the crash interrupted.
    pub interrupted_reorgs: Vec<PartitionId>,
    /// Latest surviving reorganizer checkpoint per interrupted partition.
    pub reorg_checkpoints: Vec<(PartitionId, Vec<u8>)>,
    /// The surviving pre-crash log in LSN order (checkpoint carry window +
    /// scanned segments), as needed by TRT reconstruction and resumption.
    pub pre_crash_log: Vec<LogRecord>,
    /// Torn segment tails truncated during the scan.
    pub torn_tail_truncations: u64,
}

/// Open (or initialize) a durable store at `config.data_dir`. See the
/// module docs; the one-liner is
/// `let out = brahma::storage::open(config)?;` — `out.db` is ready, and
/// `out.interrupted_reorgs` lists reorganizations to resume.
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
    let ckpt_path = dir.join("checkpoint.img");
    if !ckpt_path.exists() {
        return init_fresh(&dir, config, plan);
    }

    // ---- Restart: checkpoint + segment scan -> CrashImage -> recover ----
    let decoded = read_checkpoint_file(&ckpt_path)?;
    let (scanned, torn_truncations) = scan_segments(&dir.join("wal"))?;
    let mut by_lsn: BTreeMap<Lsn, LogRecord> = decoded
        .carry_log
        .into_iter()
        .map(|r| (r.lsn, r))
        .collect();
    for rec in scanned {
        by_lsn.insert(rec.lsn, rec);
    }
    let pre_crash_log: Vec<LogRecord> = by_lsn.into_values().collect();
    let ckpt_lsn = decoded.checkpoint.lsn;
    let replay: Vec<LogRecord> = pre_crash_log
        .iter()
        .filter(|r| r.lsn >= ckpt_lsn)
        .cloned()
        .collect();
    let ckpt_id = decoded.checkpoint.id;
    let image = CrashImage {
        checkpoint: decoded.checkpoint,
        log: replay,
        reorg_checkpoints: decoded.reorg_blobs,
    };
    let outcome = recover(image, config.clone())?;
    let db = outcome.db;
    if let Some(plan) = plan {
        db.fault.arm(plan);
    }
    let backend = Arc::new(FileBackend::new(
        &dir,
        Arc::clone(&db.fault),
        config.wal_segment_bytes,
        db.wal.next_lsn(),
    )?);
    backend.stats.torn_tail_truncations.add(torn_truncations);
    db.attach_backend(Arc::clone(&backend));
    // Re-save the surviving reorganizer checkpoints: the side table dies
    // with every process, and the append mirror makes them durable again
    // in the new segment immediately.
    for (p, blob) in &outcome.reorg_checkpoints {
        db.save_reorg_checkpoint(*p, blob.clone());
    }

    // ---- Recovery checkpoint: bound the next restart's replay ----
    // Written before returning so a crash *after* open never re-runs undo
    // over the old log. Interrupted reorganizations are not yet re-opened
    // (resumption is the utility's job), so carry them explicitly.
    let mut ckpt = db.checkpoint(ckpt_id + 1);
    ckpt.active_reorgs = outcome.interrupted_reorgs.clone();
    let carry = carry_window(&pre_crash_log, &ckpt.active_reorgs);
    let blobs = db.reorg_checkpoint_snapshot();
    backend.write_checkpoint(&CheckpointData {
        checkpoint: &ckpt,
        reorg_blobs: &blobs,
        carry_log: &carry,
    })?;

    Ok(OpenOutcome {
        db,
        recovered: true,
        losers: outcome.losers,
        interrupted_reorgs: outcome.interrupted_reorgs,
        reorg_checkpoints: outcome.reorg_checkpoints,
        pre_crash_log,
        torn_tail_truncations: torn_truncations,
    })
}

/// Initialize an empty durable store: empty database, one empty segment,
/// one empty checkpoint — so every later open takes the restart path.
fn init_fresh(dir: &Path, config: StoreConfig, plan: Option<FaultPlan>) -> Result<OpenOutcome> {
    let db = Database::new(config.clone());
    if let Some(plan) = plan {
        db.fault.arm(plan);
    }
    let backend = Arc::new(FileBackend::new(
        dir,
        Arc::clone(&db.fault),
        config.wal_segment_bytes,
        db.wal.next_lsn(),
    )?);
    db.attach_backend(Arc::clone(&backend));
    db.checkpoint_durable(0)?;
    Ok(OpenOutcome {
        db,
        recovered: false,
        losers: Vec::new(),
        interrupted_reorgs: Vec::new(),
        reorg_checkpoints: Vec::new(),
        pre_crash_log: Vec::new(),
        torn_tail_truncations: 0,
    })
}

impl Database {
    /// Take a checkpoint and, when a backend is attached, write it durably
    /// (shadow protocol) and archive the segments it supersedes. The
    /// in-memory behavior is identical to [`Database::checkpoint`].
    pub fn checkpoint_durable(&self, id: u64) -> Result<Checkpoint> {
        let ckpt = self.checkpoint(id);
        if let Some(backend) = self.backend() {
            let blobs = self.reorg_checkpoint_snapshot();
            // With no reorganization running there is no window to carry,
            // and no reason to decode the retained log looking for one.
            let quiet = ckpt.active_reorgs.is_empty();
            let retained = if quiet { Vec::new() } else { self.wal.records_from(0) };
            let carry = carry_window(&retained, &ckpt.active_reorgs);
            backend.write_checkpoint(&CheckpointData {
                checkpoint: &ckpt,
                reorg_blobs: &blobs,
                carry_log: &carry,
            })?;
        }
        Ok(ckpt)
    }
}

/// The log window a checkpoint must carry across segment archiving: all
/// records from the earliest `ReorgStart` of a still-active reorganization
/// (TRT reconstruction replays from there, Section 4.4). Empty when no
/// reorganization is active; everything (conservative) if the start marker
/// is no longer in the retained log.
fn carry_window(records: &[LogRecord], active: &[PartitionId]) -> Vec<LogRecord> {
    if active.is_empty() {
        return Vec::new();
    }
    let start = records
        .iter()
        .filter(|r| {
            matches!(&r.payload, LogPayload::ReorgStart { partition } if active.contains(partition))
        })
        .map(|r| r.lsn)
        .min();
    match start {
        Some(lsn) => records.iter().filter(|r| r.lsn >= lsn).cloned().collect(),
        None => records.to_vec(),
    }
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

fn segment_path(dir: &Path, start_lsn: Lsn) -> PathBuf {
    dir.join("wal").join(format!("seg-{start_lsn:020}.wal"))
}

fn open_segment(path: &Path, start_lsn: Lsn) -> Result<File> {
    let mut f = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(path)
        .map_err(|e| eio("create segment", &e))?;
    let mut header = Vec::with_capacity(SEG_HEADER_BYTES as usize);
    header.extend_from_slice(SEG_MAGIC);
    codec::put_u64(&mut header, start_lsn);
    f.write_all(&header).map_err(|e| eio("write segment header", &e))?;
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

/// Scan every live segment in LSN order, truncating torn tails. Returns
/// all surviving records (ascending LSN) and the number of truncations.
fn scan_segments(wal_dir: &Path) -> Result<(Vec<LogRecord>, u64)> {
    let mut records = Vec::new();
    let mut truncations = 0;
    for (path, _) in list_segments(wal_dir)? {
        let (mut recs, tear) = scan_segment_file(&path, true)?;
        records.append(&mut recs);
        if tear.is_some() {
            truncations += 1;
        }
    }
    Ok((records, truncations))
}

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

/// An owned, decoded checkpoint file.
pub struct DecodedCheckpoint {
    pub checkpoint: Checkpoint,
    pub reorg_blobs: Vec<(PartitionId, Vec<u8>)>,
    pub carry_log: Vec<LogRecord>,
}

/// Encode the whole checkpoint file: `magic | crc32(body) | body`.
fn encode_checkpoint_file(data: &CheckpointData<'_>) -> Vec<u8> {
    use codec::*;
    let mut body = Vec::new();
    put_u64(&mut body, data.checkpoint.id);
    put_u64(&mut body, data.checkpoint.lsn);
    put_u32(&mut body, data.checkpoint.roots.len() as u32);
    for root in &data.checkpoint.roots {
        put_addr(&mut body, *root);
    }
    put_u16(&mut body, data.checkpoint.active_reorgs.len() as u16);
    for p in &data.checkpoint.active_reorgs {
        put_u16(&mut body, p.0);
    }
    put_u16(&mut body, data.checkpoint.partitions.len() as u16);
    for snap in &data.checkpoint.partitions {
        snap.encode(&mut body);
    }
    put_u16(&mut body, data.reorg_blobs.len() as u16);
    for (p, blob) in data.reorg_blobs {
        put_u16(&mut body, p.0);
        put_bytes(&mut body, blob);
    }
    put_u32(&mut body, data.carry_log.len() as u32);
    for rec in data.carry_log {
        put_bytes(&mut body, &encode_record_body(rec));
    }
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(CKPT_MAGIC);
    put_u32(&mut out, crc32(&body));
    out.append(&mut body);
    out
}

/// Decode a checkpoint file. Every malformed byte degrades to
/// [`Error::Corrupt`] — a half-written shadow file (which the rename
/// protocol should make impossible to observe under `checkpoint.img`)
/// fails loudly rather than installing garbage state.
pub fn read_checkpoint_file(path: &Path) -> Result<DecodedCheckpoint> {
    let mut buf = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(|e| eio("read checkpoint", &e))?;
    let mut r = Reader::new(&buf, 0);
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
    let mut roots = Vec::with_capacity(nroots.min(1 << 16));
    for _ in 0..nroots {
        roots.push(r.addr()?);
    }
    let nactive = r.u16()? as usize;
    let mut active_reorgs = Vec::with_capacity(nactive);
    for _ in 0..nactive {
        active_reorgs.push(PartitionId(r.u16()?));
    }
    let nparts = r.u16()? as usize;
    let mut partitions = Vec::with_capacity(nparts);
    for _ in 0..nparts {
        partitions.push(crate::partition::PartitionSnapshot::decode(&mut r)?);
    }
    let nblobs = r.u16()? as usize;
    let mut reorg_blobs = Vec::with_capacity(nblobs);
    for _ in 0..nblobs {
        let p = PartitionId(r.u16()?);
        reorg_blobs.push((p, r.bytes()?));
    }
    let nrecs = r.u32()? as usize;
    let mut carry_log = Vec::with_capacity(nrecs.min(1 << 20));
    for _ in 0..nrecs {
        let at = r.offset() + 4;
        let body = r.bytes()?;
        carry_log.push(codec::decode_record_body(&body, at)?);
    }
    r.expect_end("checkpoint file")?;
    Ok(DecodedCheckpoint {
        checkpoint: Checkpoint {
            id,
            lsn,
            partitions,
            roots,
            active_reorgs,
        },
        reorg_blobs,
        carry_log,
    })
}

/// Map an I/O failure on the open/recovery path into a store error.
fn eio(what: &str, e: &std::io::Error) -> Error {
    Error::RecoveryCorrupt(format!("{what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::NewObject;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "brahma-storage-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn file_config(dir: &Path) -> StoreConfig {
        StoreConfig {
            data_dir: Some(dir.to_path_buf()),
            wal_segment_bytes: 4096,
            ..StoreConfig::default()
        }
    }

    /// Four threads × 500 `Wal::append`s through a `FileBackend` sink over
    /// 4 KiB segments, a force, a drop — optionally with a `file.pwrite`
    /// kill armed at hit `kill_at`. Returns what the in-memory log holds
    /// and what a reopened scan of the segments finds.
    fn concurrent_appends(tag: &str, kill_at: Option<u64>) -> (Vec<LogRecord>, Vec<LogRecord>) {
        use crate::addr::PhysAddr;
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
                        let payload = LogPayload::Migrate {
                            old: PhysAddr::new(PartitionId(0), t, i),
                            new: PhysAddr::new(PartitionId(1), t, i),
                        };
                        wal.append(TxnId(u64::from(t)), payload);
                    }
                });
            }
        });
        wal.flush(wal.next_lsn() - 1);
        assert_eq!(backend.healthy(), kill_at.is_none());
        assert!(kill_at.is_some() || backend.stats.segments_rotated.get() >= 2);
        let logged = wal.records_from(0);
        drop((wal, backend));
        let (scanned, torn) = scan_segments(&dir.join("wal")).unwrap();
        assert_eq!(torn, 0);
        fs::remove_dir_all(&dir).unwrap();
        (logged, scanned)
    }

    #[test]
    fn concurrent_appends_reach_the_segments_in_lsn_order() {
        let (logged, scanned) = concurrent_appends("lsn-order", None);
        assert_eq!(logged.len(), 2000);
        assert!(logged.iter().enumerate().all(|(i, r)| r.lsn == i as Lsn));
        assert_eq!(scanned, logged, "the segments hold the log, in LSN order");
    }

    #[test]
    fn a_pwrite_kill_leaves_a_gap_free_prefix() {
        // Hit n of `file.pwrite` is frame n: frames 1..n landed, nothing
        // from the kill on did, whichever threads were appending.
        let (logged, scanned) = concurrent_appends("kill-prefix", Some(700));
        assert_eq!(scanned.len(), 699);
        assert_eq!(scanned, logged[..699]);
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

    #[test]
    fn checkpoint_archives_old_segments() {
        let dir = tmpdir("archive");
        let out = open(file_config(&dir)).unwrap();
        let db = out.db;
        let p = db.create_partition();
        // Enough churn to rotate past several 4 KiB segments.
        for i in 0..200u32 {
            let mut t = db.begin();
            let a = t
                .create_object(p, NewObject::exact(1, vec![], vec![0u8; 64]))
                .unwrap();
            t.lock(a, crate::lock::LockMode::Exclusive).unwrap();
            t.set_payload(a, &i.to_le_bytes()).unwrap();
            t.commit().unwrap();
        }
        let rotated = db.obs_snapshot().get("wal.segments_rotated");
        assert!(rotated >= 2, "expected rotations, got {rotated}");
        db.checkpoint_durable(7).unwrap();
        let live = list_segments(&dir.join("wal")).unwrap();
        assert_eq!(live.len(), 1, "all but the active segment archive");
        let archived = fs::read_dir(dir.join("archive")).unwrap().count();
        assert!(archived >= 2);
        // And the store still reopens cleanly from checkpoint + tail.
        drop(db);
        let out = open(file_config(&dir)).unwrap();
        assert!(out.recovered);
        assert_eq!(out.db.partition_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
