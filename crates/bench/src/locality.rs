//! The closed clustering loop, measured end to end:
//! observe → plan → reorganize → measure (DESIGN §15).
//!
//! The other harnesses measure how fast reorganization runs; this cell
//! proves "traffic got faster *because of where objects landed*". It runs
//! the Section 5.2 walkers over a deliberately fragmented placement under
//! a page-grained buffer cache ([`workload::PagedCpuModel`]), collects
//! per-edge co-access counts ([`workload::TraversalStats`]), reorganizes
//! every data partition from those stats
//! (`Reorg::on(..).order(StatsGreedy::new(&edges).plan(..))`), then re-runs the
//! *same* seeded walker mix and reports the before/after difference:
//! throughput, p99, cache hit rate, and the placement cost of the observed
//! edges (identity → achieved).
//!
//! Fragmentation is honest about what it models: a long-lived store whose
//! creation-order clustering decayed under churn. The scramble phase uses
//! the reorganizer itself with a seeded random migration order
//! ([`Reorg::order`]) — the same machinery, pointed backwards.

use brahma::{Database, PhysAddr, StoreConfig};
use ira::{EdgeCount, Reorg, StatsGreedy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use workload::stats::EdgeObserver;
use workload::{
    build_graph, start_workload, start_workload_observed, CpuModel, PagedCpuModel, TraversalStats,
    WorkloadParams,
};

#[derive(Debug, Clone, Copy)]
pub struct LocalityOptions {
    /// Shrink windows and object counts for the CI smoke run.
    pub quick: bool,
}

/// One measurement window of the walker mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityWindow {
    pub ops_per_sec: f64,
    pub p99_us: u64,
    pub committed: u64,
    /// Buffer-cache hit rate over the window, in [0, 1].
    pub hit_rate: f64,
}

/// The whole loop's result, as `paper_figures locality` prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalityResult {
    /// Walkers over the fragmented placement (this window also feeds the
    /// statistics collector).
    pub pre: LocalityWindow,
    /// The same seeded walker mix after the stats-driven reorganization.
    pub post: LocalityWindow,
    /// Cost of the observed edges under the fragmented placement, in
    /// page fetches per traversal (`placement_cost`).
    pub identity_cost: f64,
    /// Cost of the same edges under the placement the reorganization
    /// actually produced.
    pub achieved_cost: f64,
    /// Objects migrated by the stats-driven reorganizations.
    pub migrated: u64,
    /// Collector health over the observation window.
    pub edges_recorded: u64,
    pub edges_distinct: u64,
}

impl LocalityResult {
    /// Achieved relative cost improvement, in [0, 1] when clustering helped.
    pub fn achieved_improvement(&self) -> f64 {
        if self.identity_cost <= 0.0 {
            0.0
        } else {
            1.0 - self.achieved_cost / self.identity_cost
        }
    }
}

/// Cost of a hop that crosses pages within one partition.
const CROSS_PAGE: f64 = 1.0;
/// Cost of a hop that crosses partitions: a different working set
/// entirely, in the paper's setting likely a different disk region.
const CROSS_PARTITION: f64 = 4.0;

/// Page fetches the observed `edges` cost when `locate` gives each
/// object's address: a same-page hop is free (it hits the page the
/// parent's access just pulled in), any other pays its crossing weight.
fn placement_cost(edges: &[EdgeCount], locate: impl Fn(PhysAddr) -> PhysAddr) -> f64 {
    edges
        .iter()
        .map(|e| {
            let (parent, child) = (locate(e.parent), locate(e.child));
            let unit = if parent.partition() != child.partition() {
                CROSS_PARTITION
            } else if parent.page() != child.page() {
                CROSS_PAGE
            } else {
                0.0
            };
            unit * e.count as f64
        })
        .sum()
}

fn params(opts: &LocalityOptions) -> WorkloadParams {
    WorkloadParams {
        num_partitions: 2,
        objs_per_partition: if opts.quick { 340 } else { 1020 },
        mpl: 4,
        // Read-mostly: the loop measures placement, not write contention.
        update_prob: 0.1,
        // Large payloads so a cluster spans several pages and placement
        // has something to win (40-byte objects pack a whole cluster into
        // a fraction of one 16 KiB page).
        payload_size: 400,
        ..WorkloadParams::default()
    }
}

fn window(opts: &LocalityOptions) -> Duration {
    if opts.quick {
        Duration::from_millis(600)
    } else {
        Duration::from_secs(3)
    }
}

/// Deterministically scramble every data partition's placement: migrate in
/// seeded-random order so creation-order clustering is destroyed, the way
/// years of churn would.
fn fragment(db: &Database, partitions: &[brahma::PartitionId], seed: u64) {
    let mut rng = StdRng::seed_from_u64(
        brahma::SeedTree::new(seed)
            .child("locality.scramble")
            .seed(),
    );
    for &p in partitions {
        let mut objs: Vec<PhysAddr> = db
            .partition(p)
            .map(|part| part.live_objects())
            .unwrap_or_default();
        // Fisher-Yates under the pinned stream.
        for i in (1..objs.len()).rev() {
            objs.swap(i, rng.gen_range(0..i + 1));
        }
        Reorg::on(db, p)
            .order(objs)
            .run()
            .expect("scramble reorganization completes");
    }
}

/// Run the loop. Every stage is deterministic given the params seed except
/// the wall-clock windows themselves.
pub fn run_locality(opts: &LocalityOptions) -> LocalityResult {
    let params = params(opts);
    let db = Arc::new(Database::new(StoreConfig::paper_experiment()));
    let info = Arc::new(build_graph(&db, &params).expect("graph builds"));

    // Decay the fresh creation-order placement before anything is measured.
    fragment(&db, &info.data_partitions, params.seed);

    // Page-grained cache: a handful of frames, so walks that hop across
    // many pages thrash and walks within a packed cluster do not. Misses
    // pay a device penalty serialized on one permit, like a disk arm.
    let model = Arc::new(PagedCpuModel::new(
        CpuModel::new(4, Duration::from_micros(5)),
        8,
        Duration::from_micros(150),
    ));
    db.set_cpu_model(Some(Arc::clone(&model) as Arc<dyn brahma::CpuCharge>));

    // --- Observe (and pre-measure): the same window does both. ---
    let stats = Arc::new(TraversalStats::new());
    let handle = start_workload_observed(
        Arc::clone(&db),
        Arc::clone(&info),
        &params,
        Some(Arc::clone(&stats) as Arc<dyn EdgeObserver + Send + Sync>),
    );
    #[expect(clippy::disallowed_methods, reason = "paces the observe window")]
    std::thread::sleep(window(opts));
    let pre_metrics = handle.stop_and_join();
    let pre = LocalityWindow {
        ops_per_sec: pre_metrics.summarize().throughput_tps,
        p99_us: p99(&pre_metrics),
        committed: pre_metrics.summarize().committed,
        hit_rate: model.hit_rate(),
    };
    let edges = stats.edges();

    // --- Plan + reorganize: stats-driven, one partition at a time. ---
    // The reorganization itself runs outside the CPU model — it is the
    // maintenance action, not the traffic being priced.
    db.set_cpu_model(None);
    let mut mapping: HashMap<PhysAddr, PhysAddr> = HashMap::new();
    let mut migrated = 0u64;
    let greedy = StatsGreedy::new(&edges);
    for &p in &info.data_partitions {
        let outcome = Reorg::on(&db, p)
            .order(greedy.plan(&db, p))
            .run()
            .expect("stats-driven reorganization completes");
        migrated += outcome.migrated() as u64;
        mapping.extend(outcome.mapping);
    }

    // Score the observed edges under the old and the actually-achieved
    // placement. Cross-partition edges cost the same on both sides (the
    // relocation compacts in place), so the delta is pure clustering.
    let identity_cost = placement_cost(&edges, |a| a);
    let achieved_cost = placement_cost(&edges, |a| mapping.get(&a).copied().unwrap_or(a));

    // --- Measure: same seeded mix, cold cache, new placement. ---
    model.reset();
    db.set_cpu_model(Some(Arc::clone(&model) as Arc<dyn brahma::CpuCharge>));
    let handle = start_workload(Arc::clone(&db), Arc::clone(&info), &params);
    #[expect(clippy::disallowed_methods, reason = "paces the measure window")]
    std::thread::sleep(window(opts));
    let post_metrics = handle.stop_and_join();
    let post = LocalityWindow {
        ops_per_sec: post_metrics.summarize().throughput_tps,
        p99_us: p99(&post_metrics),
        committed: post_metrics.summarize().committed,
        hit_rate: model.hit_rate(),
    };

    LocalityResult {
        pre,
        post,
        identity_cost,
        achieved_cost,
        migrated,
        edges_recorded: stats.recorded(),
        edges_distinct: edges.len() as u64,
    }
}

fn p99(metrics: &workload::Metrics) -> u64 {
    let h = obs::Histogram::new();
    for &us in &metrics.response_us {
        h.record_us(us);
    }
    h.quantile_us(0.99)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brahma::PartitionId;

    #[test]
    fn cost_model_weighs_page_and_partition_crossings() {
        let addr = |p, page, off| PhysAddr::new(PartitionId(p), page, off);
        let edge = |parent, child, count| EdgeCount {
            parent,
            child,
            count,
        };
        let same = addr(1, 0, 0);
        let edges = [
            edge(same, addr(1, 0, 64), 10), // free
            edge(same, addr(1, 7, 0), 3),   // 3 * CROSS_PAGE
            edge(same, addr(2, 0, 0), 2),   // 2 * CROSS_PARTITION
        ];
        assert_eq!(placement_cost(&edges, |a| a), 3.0 + 8.0);
    }

    #[test]
    fn closed_loop_improves_placement_cost() {
        let r = run_locality(&LocalityOptions { quick: true });
        assert!(r.pre.committed > 0 && r.post.committed > 0);
        assert!(r.edges_recorded > 0, "observation window saw no edges");
        assert!(
            r.migrated > 0,
            "stats-driven reorganizations migrated nothing"
        );
        assert!(
            r.achieved_cost < r.identity_cost,
            "achieved {} must beat fragmented {}",
            r.achieved_cost,
            r.identity_cost
        );
        assert!(r.achieved_improvement() > 0.0);
    }
}
