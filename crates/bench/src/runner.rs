//! One experiment cell: a database + graph + MPL workload, with one of the
//! three systems of the paper's Section 5 running underneath:
//!
//! * **NR** — no reorganization (the workload runs undisturbed for a fixed
//!   window);
//! * **IRA** — the Incremental Reorganization Algorithm reorganizes one
//!   partition while the workload runs; the measurement window is the
//!   reorganization;
//! * **PQR** — the Partition Quiesce Reorganization baseline, same window.
//!
//! `measure_window` extends a cell past the reorganization's end — used for
//! the Section 5.3.4 equal-duration comparison, where PQR's metrics are
//! measured over the duration IRA needed.

use brahma::{Database, StoreConfig};
use ira::{IraConfig, RelocationPlan, Reorg, Strategy};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{build_graph, start_workload, CpuModel, Summary, WorkloadParams};

/// Which system runs under the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Nr,
    Ira,
    Pqr,
}

impl Algo {
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Nr => "NR",
            Algo::Ira => "IRA",
            Algo::Pqr => "PQR",
        }
    }
}

/// Full configuration of one cell.
#[derive(Clone)]
pub struct CellConfig {
    pub algo: Algo,
    pub params: WorkloadParams,
    pub store: StoreConfig,
    pub ira: IraConfig,
    pub plan: RelocationPlan,
    /// Per-access work on the one virtual CPU (see [`CpuModel`]).
    pub cpu_work: Duration,
    /// Measurement window for NR (reorganizing systems run until the
    /// reorganization completes instead).
    pub nr_window: Duration,
    /// Keep measuring for this long even after the reorganization finished
    /// (Section 5.3.4 equal-duration comparison).
    pub measure_window: Option<Duration>,
    /// Index into the data partitions of the partition to reorganize.
    pub reorg_partition: usize,
}

impl CellConfig {
    /// The paper's default cell: Table 1 workload, 1 s lock timeout,
    /// commit-flush latency for CPU/I-O overlap, one virtual CPU.
    pub fn paper(algo: Algo) -> Self {
        CellConfig {
            algo,
            params: WorkloadParams::default(),
            store: StoreConfig::paper_experiment(),
            ira: IraConfig::default(),
            plan: RelocationPlan::CompactInPlace,
            cpu_work: Duration::from_micros(40),
            nr_window: Duration::from_secs(5),
            measure_window: None,
            reorg_partition: 0,
        }
    }
}

/// Result of one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub algo: Algo,
    pub summary: Summary,
    /// How long the reorganization itself took (None for NR).
    pub reorg_secs: Option<f64>,
    pub migrated: usize,
    /// Lock timeouts observed store-wide during the cell.
    pub lock_timeouts: u64,
    /// Substrate counter deltas over the cell window: `db.*`, `lock.*`,
    /// `wal.*`, `ert.*`, `trt.*` from [`Database::obs_snapshot`], plus the
    /// reorganizer's `ira.*` / `pqr.*` keys and the workload's
    /// `workload.*` aggregates.
    pub counters: obs::Snapshot,
}

/// Run one cell to completion.
pub fn run_cell(cfg: &CellConfig) -> CellResult {
    let db = Arc::new(Database::new(cfg.store.clone()));
    let info = Arc::new(build_graph(&db, &cfg.params).expect("graph builds"));
    // Install the CPU model only after the graph is built (construction is
    // not part of the measured system).
    db.set_cpu_model(Some(Arc::new(CpuModel::new(1, cfg.cpu_work))));
    // Baseline snapshot: the cell's counters are the delta over its window,
    // so graph construction does not pollute them.
    let before = db.obs_snapshot();
    let handle = start_workload(Arc::clone(&db), Arc::clone(&info), &cfg.params);

    let target = info.data_partitions[cfg.reorg_partition.min(info.data_partitions.len() - 1)];
    let started = Instant::now();
    let mut reorg_counters = obs::Snapshot::new();
    let strategy = match cfg.algo {
        Algo::Nr => None,
        Algo::Ira => Some(Strategy::Incremental),
        Algo::Pqr => Some(Strategy::PartitionQuiesce),
    };
    let (reorg_secs, migrated) = match strategy {
        None => {
            #[expect(
                clippy::disallowed_methods,
                reason = "paces the no-reorganization cell's window"
            )]
            std::thread::sleep(cfg.nr_window);
            (None, 0)
        }
        Some(strategy) => {
            // One builder for both reorganizers: the cell's full IRA
            // configuration (variant, batch, ...) rides along; PQR
            // ignores it.
            let outcome = Reorg::with_config(&db, target, cfg.ira.clone())
                .plan(cfg.plan)
                .strategy(strategy)
                .run()
                .expect("reorganization completes");
            let report = outcome.report.as_ref().expect("IRA and PQR report");
            report.export(&mut reorg_counters);
            (Some(outcome.duration.as_secs_f64()), outcome.migrated())
        }
    };
    if let Some(window) = cfg.measure_window {
        let elapsed = started.elapsed();
        if elapsed < window {
            #[expect(
                clippy::disallowed_methods,
                reason = "paces the fixed measurement window"
            )]
            std::thread::sleep(window - elapsed);
        }
    }
    let metrics = handle.stop_and_join();
    let mut counters = db.obs_snapshot().diff(&before);
    counters.merge(&reorg_counters);
    metrics.export(&mut counters);
    let lock_timeouts = counters.get("lock.timeouts");
    CellResult {
        algo: cfg.algo,
        summary: metrics.summarize(),
        reorg_secs,
        migrated,
        lock_timeouts,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(algo: Algo) -> CellConfig {
        let mut cfg = CellConfig::paper(algo);
        cfg.params = WorkloadParams {
            num_partitions: 3,
            objs_per_partition: 170,
            mpl: 4,
            ..WorkloadParams::default()
        };
        cfg.store.commit_flush_latency = Duration::from_micros(50);
        cfg.cpu_work = Duration::from_micros(20);
        cfg.nr_window = Duration::from_millis(300);
        cfg
    }

    #[test]
    fn nr_cell_measures_throughput() {
        let r = run_cell(&tiny(Algo::Nr));
        assert!(r.summary.committed > 0);
        assert!(r.reorg_secs.is_none());
    }

    #[test]
    fn ira_cell_reorganizes_under_load() {
        let r = run_cell(&tiny(Algo::Ira));
        assert_eq!(r.migrated, 170);
        assert!(r.reorg_secs.unwrap() > 0.0);
        assert!(r.summary.committed > 0, "walkers made progress during IRA");
    }

    #[test]
    fn pqr_cell_reorganizes_under_load() {
        let r = run_cell(&tiny(Algo::Pqr));
        assert_eq!(r.migrated, 170);
        assert!(r.reorg_secs.unwrap() > 0.0);
    }

    #[test]
    fn equal_duration_window_extends_measurement() {
        let mut cfg = tiny(Algo::Pqr);
        cfg.measure_window = Some(Duration::from_millis(500));
        let start = Instant::now();
        let r = run_cell(&cfg);
        assert!(start.elapsed() >= Duration::from_millis(500));
        assert!(r.summary.window_s >= 0.45);
    }
}
