//! The five workloads: set-up, phases, output checks.
//!
//! Every workload runs at most [`THREADS`] load threads on the fixed
//! configuration below; nothing here is a command-line option. A run is a
//! sequence of *phases* over one store. Client phases are closed loops of
//! the benchmark's own walker ([`crate::client`]); the reorganizer is a
//! thread running `Reorg::on(db, p).plan(CompactInPlace).run()` round-robin
//! over the data partitions.

use crate::client::{Client, ClientMix, ClientOut, Load, PhaseClock};
use crate::stats::{fnv_fold, FNV_OFFSET};
use crate::trace::{SpanBuf, SpanName};
use brahma::{Database, PartitionId, StoreConfig, PAGE_SIZE};
use ira::{RelocationPlan, Reorg};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workload::{build_graph, GraphInfo, WorkloadParams};

/// Load threads per workload, clients and reorganizer workers together:
/// the reference box has two cores.
pub const THREADS: usize = 2;
/// Lock-wait timeout. Section 5's 1 s suited ~100 ms transactions; a raw
/// transaction takes ~10 µs, and at 1 s the throughput of any affordable
/// window is a Poisson count of one-second stalls. `lock.timeouts` and
/// `client.stall_share` keep the stalls visible.
pub const LOCK_TIMEOUT: Duration = Duration::from_millis(10);
/// Unmeasured client warm-up before the first measured phase (no longer
/// than `--seconds`, which only a smoke run undercuts).
pub const WARMUP_S: f64 = 2.0;
/// Client-alone phase of the mix workloads: the base of `walk_tps_ratio`
/// (same cap).
pub const BASELINE_S: f64 = 3.0;
/// Throughput is the median over slices this long.
pub const SLICE_US: u64 = 500_000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;
/// Parallel phase of `reorg_idle`.
pub const WAVE_WORKERS: usize = 2;
pub const WAVE_BATCH: usize = 8;
/// Spans one client may record in a traced phase (64 MB of address space;
/// only the part written is ever resident).
const SPAN_CAPACITY: usize = 1 << 21;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WalkRead,
    WalkUpdate,
    MixIra,
    ReorgIdle,
    /// Runs in the suite but is not in BENCHMARK.json's list, and so not
    /// gated: its wall-clock numbers are the sandbox disk's fsync latency,
    /// which drifts by a quarter and more between runs (README, "Noise").
    MixDurable,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WalkRead,
        Workload::WalkUpdate,
        Workload::MixIra,
        Workload::ReorgIdle,
        Workload::MixDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WalkRead => "walk_read",
            Workload::WalkUpdate => "walk_update",
            Workload::MixIra => "mix_ira",
            Workload::ReorgIdle => "reorg_idle",
            Workload::MixDurable => "mix_durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn clients(self) -> usize {
        match self {
            Workload::WalkRead | Workload::WalkUpdate => 2,
            Workload::MixIra | Workload::MixDurable => 1,
            Workload::ReorgIdle => 0,
        }
    }

    /// Whether a reorganizer thread runs beside the clients.
    pub fn mixes_reorg(self) -> bool {
        matches!(self, Workload::MixIra | Workload::MixDurable)
    }

    pub fn durable(self) -> bool {
        self == Workload::MixDurable
    }

    pub fn mix(self) -> ClientMix {
        let (update_prob, ref_update_prob) = match self {
            Workload::WalkRead | Workload::ReorgIdle => (0.0, 0.0),
            Workload::WalkUpdate => (1.0, 0.1),
            Workload::MixIra | Workload::MixDurable => (0.5, 0.1),
        };
        let table1 = WorkloadParams::default();
        ClientMix {
            update_prob,
            ref_update_prob,
            ops_per_txn: table1.ops_per_trans,
            payload_size: table1.payload_size,
        }
    }
}

/// Rounds over the ten partitions in each half (serial, then parallel) of
/// `reorg_idle`'s fixed work: two per second of `--seconds` — 30 + 30 at
/// BENCHMARK.json's `run_seconds`, 2 + 2 in a smoke run — so the work is a
/// constant of the benchmark and `db.migrations` is exact.
pub fn idle_rounds(seconds: f64) -> usize {
    ((seconds * 2.0).round() as usize).max(2)
}

/// Table 1 dataset, seeded from `--seed`.
fn dataset(seed: u64) -> WorkloadParams {
    WorkloadParams {
        seed,
        ..WorkloadParams::default()
    }
}

pub fn store_config(data_dir: Option<&Path>) -> StoreConfig {
    StoreConfig {
        lock_timeout: LOCK_TIMEOUT,
        commit_flush_latency: Duration::ZERO,
        wal_retain: false,
        data_dir: data_dir.map(Path::to_path_buf),
        ..StoreConfig::default()
    }
}

/// A directory removed when the guard drops — on success, on a failed
/// check and on a panic alike.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Open or create the store and build the dataset: what `setup_s` times.
/// A durable store also takes a checkpoint, which is where the persistent
/// roots reach the disk.
pub fn setup_once(seed: u64, data_dir: Option<&Path>) -> Result<(Database, GraphInfo), String> {
    let config = store_config(data_dir);
    let db = match data_dir {
        Some(_) => {
            brahma::storage::open(config)
                .map_err(|e| format!("open: {e}"))?
                .db
        }
        None => Database::new(config),
    };
    let info = build_graph(&db, &dataset(seed)).map_err(|e| format!("build_graph: {e}"))?;
    if data_dir.is_some() {
        db.checkpoint_durable(1)
            .map_err(|e| format!("checkpoint: {e}"))?;
    }
    Ok((db, info))
}

/// One phase of client load.
pub struct Phase {
    pub secs: f64,
    /// When the phase ended, from the run's epoch.
    pub end_ns: u64,
    pub clients: Vec<ClientOut>,
    /// Counter deltas over the phase.
    pub obs: obs::Snapshot,
}

impl Phase {
    pub fn committed(&self) -> u64 {
        self.clients.iter().map(|c| c.committed).sum()
    }

    pub fn aborted_attempts(&self) -> u64 {
        self.clients.iter().map(|c| c.aborted_attempts).sum()
    }
}

/// Run the clients for `secs` seconds (or until each committed `max_txns`,
/// whichever is first) and collect what they did.
pub fn run_phase<const TRACE: bool>(
    load: &Load,
    clients: &mut [Client],
    secs: f64,
    max_txns: u64,
    epoch: Instant,
) -> Phase {
    let db = load.db;
    let stop = AtomicBool::new(false);
    let slices = (secs * 1e6) as u64 / SLICE_US;
    let expected_txns = if max_txns == u64::MAX {
        (secs * 400_000.0) as usize
    } else {
        max_txns as usize
    };
    let before = db.obs_snapshot();
    let start = Instant::now();
    let clock = PhaseClock {
        stop: &stop,
        max_txns,
        start,
        slice_ns: SLICE_US * 1000,
    };
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let clock = &clock;
                s.spawn(move || {
                    let mut out = ClientOut::new(slices as usize, expected_txns);
                    client.run::<TRACE>(load, clock, &mut out);
                    out
                })
            })
            .collect();
        if max_txns == u64::MAX {
            std::thread::sleep(Duration::from_secs_f64(secs).saturating_sub(start.elapsed()));
            // ordering: stop flag publishes nothing; the join below is the sync point
            stop.store(true, Ordering::Relaxed);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = Instant::now();
    Phase {
        secs,
        end_ns: end.duration_since(epoch).as_nanos() as u64,
        clients,
        obs: db.obs_snapshot().diff(&before),
    }
}

/// One `Reorg::run()` over one partition, as seen from outside.
#[derive(Debug, Clone)]
pub struct PassRec {
    pub start_ns: u64,
    pub end_ns: u64,
    pub workers: usize,
    pub batch: usize,
    pub migrated: u64,
    pub retries: u64,
    pub deferred: u64,
    pub external_parent_locks: u64,
    pub trt_notes: u64,
    pub trt_purged: u64,
    pub phases: ira::driver::IraPhases,
    pub pages_before: u32,
    pub pages_after: u32,
}

impl PassRec {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Reorganize `partition` once and record the pass as a `reorg.pass` span.
pub fn run_pass(
    db: &Database,
    partition: PartitionId,
    workers: usize,
    batch: usize,
    spans: &mut SpanBuf,
    pass_no: u64,
) -> Result<PassRec, String> {
    let part = db.partition(partition).map_err(|e| e.to_string())?;
    let pages_before = part.space_stats().pages;
    let start_ns = spans.now();
    let outcome = Reorg::on(db, partition)
        .plan(RelocationPlan::CompactInPlace)
        .workers(workers)
        .batch(batch)
        .run()
        .map_err(|e| format!("reorganizing {partition}: {e}"))?;
    let end_ns = spans.now();
    if let Some(root) = spans.open_root(SpanName::ReorgPass, pass_no, start_ns) {
        spans.close_root(root, end_ns);
    }
    let report = outcome
        .ira()
        .ok_or("incremental run without an IRA report")?;
    Ok(PassRec {
        start_ns,
        end_ns,
        workers,
        batch,
        migrated: report.migrated() as u64,
        retries: report.retries as u64,
        deferred: report.deferred as u64,
        external_parent_locks: report.external_parent_locks as u64,
        trt_notes: report.trt_notes,
        trt_purged: report.trt_purged,
        phases: report.phases.clone(),
        pages_before,
        pages_after: part.space_stats().pages,
    })
}

/// Serial passes round-robin over the data partitions until `stop`.
fn reorganize_until(
    db: &Database,
    info: &GraphInfo,
    stop: &AtomicBool,
    spans: &mut SpanBuf,
) -> Result<Vec<PassRec>, String> {
    let mut passes = Vec::new();
    // ordering: stop flag publishes nothing; the join is the sync point
    while !stop.load(Ordering::Relaxed) {
        let p = info.data_partitions[passes.len() % info.data_partitions.len()];
        passes.push(run_pass(db, p, 1, 1, spans, passes.len() as u64)?);
    }
    Ok(passes)
}

/// What the cold reopen of `mix_durable` found.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    pub open_s: f64,
    pub wal_bytes: u64,
    pub losers: usize,
}

/// Space accounting over the data partitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Space {
    pub pages: u64,
    pub used_bytes: u64,
}

impl Space {
    pub fn of(db: &Database, info: &GraphInfo) -> Space {
        let mut space = Space::default();
        for &p in &info.data_partitions {
            let st = db
                .partition(p)
                .expect("data partition exists")
                .space_stats();
            space.pages += u64::from(st.pages);
            space.used_bytes += st.used_bytes;
        }
        space
    }

    pub fn amplification(&self) -> f64 {
        (self.pages * PAGE_SIZE as u64) as f64 / self.used_bytes as f64
    }
}

/// Everything one run measured; [`crate::metrics`] turns it into numbers.
pub struct Measured {
    pub setup_s: f64,
    /// Client-alone phase (mix workloads).
    pub baseline: Option<Phase>,
    /// The untraced measured phase: all of `--seconds` when `--trace 0`,
    /// the first half of it when `--trace 1`.
    pub main: Option<Phase>,
    /// The traced second half (`--trace 1`).
    pub traced: Option<Phase>,
    pub client_spans: Vec<SpanBuf>,
    pub reorg_spans: SpanBuf,
    /// Passes that ended while the measured phases ran (mix workloads), or
    /// all passes of the fixed work (`reorg_idle`).
    pub passes: Vec<PassRec>,
    /// Counter deltas over the measured phases.
    pub obs: obs::Snapshot,
    pub space_end: Space,
    pub recovery: Option<Recovery>,
    pub rss_peak_mb: f64,
}

/// `VmHWM` of this process, in MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn live_counts(db: &Database) -> Vec<usize> {
    db.partition_ids()
        .into_iter()
        .map(|p| {
            db.partition(p)
                .expect("listed partition exists")
                .object_count()
        })
        .collect()
}

/// Order-sensitive digest of the logical graph reachable from the roots.
fn fingerprint(db: &Database) -> u64 {
    ira::verify::logical_fingerprint(db, &db.roots())
        .iter()
        .flat_map(|line| line.bytes().chain([b'\n']))
        .fold(FNV_OFFSET, |h, b| fnv_fold(h, u64::from(b)))
}

fn wal_bytes_on_disk(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir.join("wal")) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// `mix_durable`'s ending: drop the store without a clean close, reopen its
/// directory cold, and check that what was acknowledged is what comes back.
fn reopen_cold(db: Database, dir: &Path, counts_before: &[usize]) -> Result<Recovery, String> {
    let fp_at_stop = fingerprint(&db);
    drop(db);
    let wal_bytes = wal_bytes_on_disk(dir);
    let started = Instant::now();
    let reopened =
        brahma::storage::open(store_config(Some(dir))).map_err(|e| format!("cold reopen: {e}"))?;
    let open_s = started.elapsed().as_secs_f64();
    if !reopened.recovered {
        return Err("cold reopen found no store to recover".into());
    }
    if !reopened.interrupted_reorgs.is_empty() {
        return Err(format!(
            "reopen reports interrupted reorganizations {:?} though none was in flight",
            reopened.interrupted_reorgs
        ));
    }
    if fingerprint(&reopened.db) != fp_at_stop {
        return Err(
            "an acknowledged commit did not survive the reopen: fingerprints differ".into(),
        );
    }
    brahma::sweep::assert_database_consistent(&reopened.db);
    if live_counts(&reopened.db) != counts_before {
        return Err("live objects per partition changed across the reopen".into());
    }
    Ok(Recovery {
        open_s,
        wal_bytes,
        losers: reopened.losers.len(),
    })
}

/// Run one workload and check its outputs. `Err` means a check failed and
/// no metric may be reported.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> Result<Measured, String> {
    // ---- set-up, several times over; the last store is the one used ----
    // `dir` is declared before the store so that it is dropped after it.
    let mut dir: Option<ScratchDir> = None;
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut store = None;
    for rep in 0..SETUP_REPEATS {
        drop(store.take());
        if workload.durable() {
            let path = scratch.join(format!("data-{}-{rep}", std::process::id()));
            dir = Some(ScratchDir::create(path)?);
        }
        let started = Instant::now();
        store = Some(setup_once(seed, dir.as_ref().map(|d| d.0.as_path()))?);
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let (db, info) = store.expect("SETUP_REPEATS > 0");
    let setup_s = crate::stats::median(&setup_times);

    let counts_before = live_counts(&db);
    let epoch = Instant::now();
    let mix = workload.mix();
    let n_clients = workload.clients();
    let mut clients: Vec<Client> = (0..n_clients)
        .map(|t| {
            let spans = SpanBuf::new(epoch, if trace { SPAN_CAPACITY } else { 0 });
            let seed = seed ^ (t as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
            Client::new(seed, spans, &mix)
        })
        .collect();
    let load = Load {
        db: &db,
        info: &info,
        mix,
    };
    let mut reorg_spans = SpanBuf::new(epoch, 1 << 12);

    let (baseline, main, traced, passes, obs_delta) = if n_clients == 0 {
        // ---- reorg_idle: fixed work, serial rounds then parallel rounds ----
        let rounds = idle_rounds(seconds);
        let fp_before = fingerprint(&db);
        let before = db.obs_snapshot();
        let mut all = Vec::new();
        for (workers, batch) in [(1, 1), (WAVE_WORKERS, WAVE_BATCH)] {
            for _ in 0..rounds {
                for &p in &info.data_partitions {
                    all.push(run_pass(
                        &db,
                        p,
                        workers,
                        batch,
                        &mut reorg_spans,
                        all.len() as u64,
                    )?);
                }
            }
        }
        let obs_delta = db.obs_snapshot().diff(&before);
        let expected = (2 * rounds * info.total_objects) as u64;
        if obs_delta.get("db.migrations") != expected {
            return Err(format!(
                "db.migrations = {}, expected {expected} (2 x {rounds} rounds x {} objects)",
                obs_delta.get("db.migrations"),
                info.total_objects
            ));
        }
        if fingerprint(&db) != fp_before {
            return Err("logical fingerprint changed across the reorganization".into());
        }
        (None, None, None, all, obs_delta)
    } else {
        let (warmup_s, baseline_s) = (WARMUP_S.min(seconds), BASELINE_S.min(seconds));
        run_phase::<false>(&load, &mut clients, warmup_s, u64::MAX, epoch);
        let baseline = workload
            .mixes_reorg()
            .then(|| run_phase::<false>(&load, &mut clients, baseline_s, u64::MAX, epoch));
        let reorg_stop = AtomicBool::new(false);
        let (m, t, all) = std::thread::scope(|s| {
            let reorganizer = workload.mixes_reorg().then(|| {
                let (db, info, stop, spans) = (&db, &info, &reorg_stop, &mut reorg_spans);
                s.spawn(move || reorganize_until(db, info, stop, spans))
            });
            let main_secs = if trace { seconds / 2.0 } else { seconds };
            let m = run_phase::<false>(&load, &mut clients, main_secs, u64::MAX, epoch);
            let t = trace
                .then(|| run_phase::<true>(&load, &mut clients, seconds / 2.0, u64::MAX, epoch));
            // ordering: stop flag publishes nothing; the join below is the sync point
            reorg_stop.store(true, Ordering::Relaxed);
            let all = reorganizer.map(|h| h.join().expect("reorganizer thread panicked"));
            (m, t, all)
        });
        let mut obs_delta = m.obs.clone();
        if let Some(t) = &t {
            obs_delta.merge(&t.obs);
        }
        let window_end = t.as_ref().map_or(m.end_ns, |t| t.end_ns);
        // The last pass finishes after the clients stopped: it ran partly
        // unloaded, so it is not a sample of the mixed load — unless the
        // window was shorter than one pass (a smoke run), where it is the
        // only sample there is.
        let mut all = all.transpose()?.unwrap_or_default();
        let under_load = all.iter().filter(|p| p.end_ns <= window_end).count();
        all.truncate(under_load.max(1));
        (baseline, Some(m), t, all, obs_delta)
    };
    let rss_peak_mb = rss_peak_mb();
    let space_end = Space::of(&db, &info);

    // ---- output checks ----
    for phase in [&baseline, &main, &traced].into_iter().flatten() {
        if let Some(e) = phase.clients.iter().flat_map(|c| &c.errors).next() {
            return Err(format!("client error: {e}"));
        }
        if phase.committed() == 0 {
            return Err("a client phase committed nothing".into());
        }
    }
    if workload.mixes_reorg() && passes.is_empty() {
        return Err("no reorganization pass completed under load".into());
    }
    brahma::sweep::assert_database_consistent(&db);
    if live_counts(&db) != counts_before {
        return Err(format!(
            "live objects per partition changed: {counts_before:?} -> {:?}",
            live_counts(&db)
        ));
    }

    let recovery = match &dir {
        Some(dir) => Some(reopen_cold(db, &dir.0, &counts_before)?),
        None => None,
    };

    Ok(Measured {
        setup_s,
        baseline,
        main,
        traced,
        client_spans: clients.into_iter().map(|c| c.spans).collect(),
        reorg_spans,
        passes,
        obs: obs_delta,
        space_end,
        recovery,
        rss_peak_mb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use std::collections::BTreeMap;

    /// One traced client, no reorganizer, a fixed number of transactions.
    fn single_client(seed: u64) -> (u64, u64, u64) {
        let (db, info) = setup_once(7, None).unwrap();
        let epoch = Instant::now();
        let mix = Workload::MixIra.mix();
        let mut clients = [Client::new(seed, SpanBuf::new(epoch, 1 << 16), &mix)];
        let load = Load {
            db: &db,
            info: &info,
            mix,
        };
        let phase = run_phase::<true>(&load, &mut clients, 0.0, 500, epoch);
        assert_eq!(phase.committed(), 500);
        assert!(phase.clients[0].errors.is_empty());
        (
            phase.clients[0].op_hash,
            phase.obs.get("lock.acquisitions"),
            phase.obs.get("wal.records"),
        )
    }

    #[test]
    fn same_seed_same_op_sequence_and_counters() {
        let first = single_client(11);
        assert_eq!(
            first,
            single_client(11),
            "homes, modes, child choices and counters repeat"
        );
        assert_ne!(first.0, single_client(12).0, "another seed walks elsewhere");
        // 500 transactions of 9 locks each, none retried.
        assert_eq!(first.1, 500 * 9);
    }

    fn smoke(workload: Workload) -> (Measured, BTreeMap<String, f64>) {
        // Mem workloads never touch the scratch directory.
        let m = run(workload, 3, 1.0, true, Path::new("scratch-unused")).unwrap();
        let values = metrics::compute(&m, &BTreeMap::new());
        (m, values)
    }

    #[test]
    fn walk_read_bypasses_writers_log_and_reorganizer() {
        let (m, v) = smoke(Workload::WalkRead);
        assert!(v["trace.sampled_txns"] > 0.0);
        assert!(v["handle.read_refs.share"] > 0.0);
        for absent in [
            "handle.set_payload",
            "handle.set_ref",
            "lock.acquire_x",
            "handle.abort",
        ] {
            assert_eq!(
                v[&format!("{absent}.share")],
                0.0,
                "{absent} spans on walk_read"
            );
            assert_eq!(v[&format!("{absent}.ns_p50")], 0.0);
        }
        assert_eq!(v["trt.notes_per_pass"], 0.0);
        assert_eq!(v["ert.updates_per_ktxn"], 0.0);
        assert_eq!(v["db.migrations"], 0.0);
        assert_eq!(
            m.obs.get("file.fsyncs"),
            0,
            "a mem workload never syncs a file"
        );
        assert_eq!(v["storage.fsyncs_per_commit"], 0.0);
        assert_eq!(v["lock.acquisitions_per_txn"], 9.0);
        // Begin + Commit and nothing else.
        assert_eq!(v["wal.records_per_txn"], 2.0);
        // Self times, `client.self` included, account for all client time.
        let shares: f64 = metrics::span_layers()
            .map(|n| v[&format!("{}.share", n.metric_prefix())])
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "span shares sum to {shares}");
    }

    #[test]
    fn reorg_idle_has_no_client_and_exact_work() {
        let (m, v) = smoke(Workload::ReorgIdle);
        assert!(m.client_spans.is_empty());
        assert_eq!(v["trace.sampled_txns"], 0.0);
        assert_eq!(v["walk_tps"], 0.0);
        let rounds = idle_rounds(1.0) as f64;
        assert_eq!(v["db.migrations"], 2.0 * rounds * 40_800.0);
        assert_eq!(m.reorg_spans.spans.len(), 2 * idle_rounds(1.0) * 10);
        assert_eq!(m.obs.get("file.fsyncs"), 0);
        assert_eq!(v["trt.notes_per_pass"], 0.0);
        assert!(v["throughput"] > 0.0 && v["ira.wave2_objs_per_s"] > 0.0);
        let phases: f64 = [
            "quiesce",
            "traversal",
            "exact_parents",
            "migrate",
            "gc",
            "other",
        ]
        .iter()
        .map(|p| v[&format!("ira.{p}_share")])
        .sum();
        assert!((phases - 1.0).abs() < 1e-9, "phase shares sum to {phases}");
    }
}
