//! Metric names, units and definitions: turns a [`Measured`] run into the
//! numbers BENCHMARK.json lists.
//!
//! The two gated performance metrics are generic over the workload's
//! *unit of work* — a client transaction where clients run, a serial
//! reorganization pass on `reorg_idle` — because the benchmark contract
//! wants every end-to-end metric from every workload, never zero. The
//! workload-specific names the README tables use (`walk_tps`,
//! `walk_p99_us`, `reorg_objs_per_s`, `walk_tps_ratio`, ...) are reported
//! beside them as ungated per-layer metrics, zero where they do not apply.

use crate::stats::{highest_supported_percentile, median, percentile_sorted, slice_rates};
use crate::trace::{self, SpanName};
use crate::workloads::{Measured, PassRec, Phase, SLICE_US};
use std::collections::BTreeMap;

pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput", "1/s"),
    ("latency_p50_us", "us"),
    ("rss_peak_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics that are not derived from a span name or a probe.
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    // Workload-specific end-to-end values, ungated (see module docs).
    ("walk_tps", "txn/s"),
    ("walk_p50_us", "us"),
    ("walk_p99_us", "us"),
    ("walk_tps_ratio", "ratio"),
    ("reorg_objs_per_s", "obj/s"),
    ("reorg_pass_p90_ms", "ms"),
    ("space_amp", "ratio"),
    ("recover_mb_per_s", "MB/s"),
    ("fail_share", "ratio"),
    ("db.migrations", "count"),
    // Client diagnostics.
    ("client.samples", "count"),
    ("client.tps_mean", "txn/s"),
    ("client.stall_share", "ratio"),
    ("client.p999_us", "us"),
    ("client.pmax_supported_us", "us"),
    ("client.max_us", "us"),
    ("client.retry_attempts", "count"),
    ("trace.overhead", "ratio"),
    ("trace.sampled_txns", "count"),
    // Counter deltas over the measured window.
    ("lock.acquisitions_per_txn", "count"),
    ("lock.fastpath_share", "ratio"),
    ("lock.waits_per_ktxn", "count"),
    ("lock.wait_us_per_txn", "us"),
    ("lock.timeouts", "count"),
    ("lock.upgrade_conflicts", "count"),
    ("wal.records_per_txn", "count"),
    ("wal.bytes_per_txn", "B"),
    ("wal.flushes", "count"),
    ("wal.group_commit_share", "ratio"),
    ("wal.flush_us_mean", "us"),
    ("wal.segments_rotated", "count"),
    ("storage.fsyncs_per_commit", "count"),
    ("storage.write_amp", "ratio"),
    ("storage.pipeline_overlap_us", "us"),
    ("trt.notes_per_pass", "count"),
    ("trt.purged_share", "ratio"),
    ("ert.updates_per_ktxn", "count"),
    // The reorganizer, from the `reorg.pass` span and the `IraReport`.
    ("ira.quiesce_share", "ratio"),
    ("ira.traversal_share", "ratio"),
    ("ira.exact_parents_share", "ratio"),
    ("ira.migrate_share", "ratio"),
    ("ira.gc_share", "ratio"),
    ("ira.other_share", "ratio"),
    ("ira.us_per_object", "us"),
    ("ira.retries_per_pass", "count"),
    ("ira.external_parent_locks_per_obj", "count"),
    ("ira.deferred", "count"),
    ("ira.steals", "count"),
    ("ira.wave2_objs_per_s", "obj/s"),
    ("partition.pages_per_pass", "count"),
    ("partition.pages_end", "count"),
    ("recovery.open_s", "s"),
    ("recovery.wal_mb", "MB"),
    ("recovery.losers", "count"),
];

/// Span names that become `<prefix>.ns_p50` and `<prefix>.share`.
pub fn span_layers() -> impl Iterator<Item = SpanName> {
    SpanName::CLIENT_CALLS
        .into_iter()
        .chain([SpanName::ClientTxn])
}

/// One metric of BENCHMARK.json.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    /// Measured only by a traced run: spans, the traced half's cost, probes.
    pub traced_only: bool,
}

/// Every per-layer metric, in output order.
pub fn per_layer() -> Vec<Spec> {
    let spec = |name: String, unit, traced_only| Spec {
        name,
        unit,
        traced_only,
    };
    let mut v: Vec<Spec> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| spec(n.to_string(), u, n.starts_with("trace.")))
        .collect();
    for name in span_layers() {
        v.push(spec(format!("{}.ns_p50", name.metric_prefix()), "ns", true));
        v.push(spec(
            format!("{}.share", name.metric_prefix()),
            "ratio",
            true,
        ));
    }
    v.extend(
        crate::probes::PROBES
            .iter()
            .map(|&(n, u)| spec(n.to_string(), u, true)),
    );
    v
}

pub fn end_to_end() -> Vec<Spec> {
    END_TO_END
        .iter()
        .map(|&(n, unit)| Spec {
            name: n.to_string(),
            unit,
            traced_only: false,
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Client-side numbers of one phase.
struct ClientStats {
    tps_median: f64,
    tps_mean: f64,
    /// Ascending sampled response times, ns.
    lat_sorted: Vec<u32>,
    max_us: f64,
    stall_share: f64,
}

fn client_stats(phase: &Phase) -> ClientStats {
    let slices = phase
        .clients
        .iter()
        .map(|c| c.slice_commits.len())
        .max()
        .unwrap_or(0);
    let per_slice = (0..slices).map(|i| {
        phase
            .clients
            .iter()
            .map(|c| u64::from(c.slice_commits.get(i).copied().unwrap_or(0)))
            .sum()
    });
    let mut lat_sorted: Vec<u32> = phase
        .clients
        .iter()
        .flat_map(|c| c.lat_ns.iter().copied())
        .collect();
    lat_sorted.sort_unstable();
    let sum =
        |f: fn(&crate::client::ClientOut) -> u64| phase.clients.iter().map(f).sum::<u64>() as f64;
    ClientStats {
        tps_median: median(&slice_rates(per_slice, SLICE_US)),
        tps_mean: ratio(phase.committed() as f64, phase.secs),
        lat_sorted,
        max_us: phase
            .clients
            .iter()
            .map(|c| c.max_lat_ns)
            .max()
            .unwrap_or(0) as f64
            / 1e3,
        stall_share: ratio(
            sum(|c| c.stalled_ns),
            phase.secs * 1e9 * phase.clients.len() as f64,
        ),
    }
}

fn objs_per_s(passes: &[&PassRec]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| ratio(p.migrated as f64, p.secs()))
            .collect::<Vec<_>>(),
    )
}

/// Every metric of both kinds, by name.
pub fn compute(m: &Measured, probes: &BTreeMap<&'static str, f64>) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };

    // ---- clients ----
    let main = m.main.as_ref().map(client_stats);
    let window = || [&m.main, &m.traced].into_iter().flatten();
    let client_txns: u64 = window().map(Phase::committed).sum();
    let retry_attempts: u64 = window().map(Phase::aborted_attempts).sum();
    if let Some(c) = &main {
        let us = |q: f64| percentile_sorted(&c.lat_sorted, q) / 1e3;
        set("walk_tps", c.tps_median);
        set("walk_p50_us", us(0.5));
        set("walk_p99_us", us(0.99));
        set("client.samples", c.lat_sorted.len() as f64);
        set("client.tps_mean", c.tps_mean);
        set("client.stall_share", c.stall_share);
        set("client.p999_us", us(0.999));
        set(
            "client.pmax_supported_us",
            highest_supported_percentile(&c.lat_sorted).map_or(0.0, |(_, v)| v / 1e3),
        );
        set("client.max_us", c.max_us);
        if let Some(base) = &m.baseline {
            set(
                "walk_tps_ratio",
                ratio(c.tps_median, client_stats(base).tps_median),
            );
        }
        if let Some(traced) = &m.traced {
            set(
                "trace.overhead",
                1.0 - ratio(client_stats(traced).tps_median, c.tps_median),
            );
        }
    }
    set("client.retry_attempts", retry_attempts as f64);

    // ---- reorganizer ----
    let serial: Vec<&PassRec> = m.passes.iter().filter(|p| p.workers == 1).collect();
    let parallel: Vec<&PassRec> = m.passes.iter().filter(|p| p.workers > 1).collect();
    let mut pass_us: Vec<f64> = serial.iter().map(|p| p.secs() * 1e6).collect();
    pass_us.sort_by(f64::total_cmp);
    if !serial.is_empty() {
        let wall: f64 = serial.iter().map(|p| p.secs()).sum();
        let migrated: f64 = serial.iter().map(|p| p.migrated as f64).sum();
        let share = |f: fn(&PassRec) -> std::time::Duration| {
            ratio(serial.iter().map(|p| f(p).as_secs_f64()).sum(), wall)
        };
        set("reorg_objs_per_s", objs_per_s(&serial));
        set("reorg_pass_p90_ms", percentile_sorted(&pass_us, 0.9) / 1e3);
        set("ira.quiesce_share", share(|p| p.phases.quiesce));
        set("ira.traversal_share", share(|p| p.phases.traversal));
        set("ira.exact_parents_share", share(|p| p.phases.exact_parents));
        set("ira.migrate_share", share(|p| p.phases.migrate));
        set("ira.gc_share", share(|p| p.phases.gc));
        // What `IraPhases` does not time: starting and ending the
        // reorganization, ordering the queue, building the outcome.
        set(
            "ira.other_share",
            1.0 - share(|p| {
                let ph = &p.phases;
                ph.quiesce + ph.traversal + ph.exact_parents + ph.migrate + ph.gc
            }),
        );
        set("ira.us_per_object", ratio(wall * 1e6, migrated));
        set(
            "ira.external_parent_locks_per_obj",
            ratio(
                serial.iter().map(|p| p.external_parent_locks as f64).sum(),
                migrated,
            ),
        );
    }
    let n_passes = m.passes.len() as f64;
    let sum = |f: fn(&PassRec) -> u64| m.passes.iter().map(|p| f(p) as f64).fold(0.0, |a, b| a + b);
    let trt_notes = sum(|p| p.trt_notes);
    set("ira.retries_per_pass", ratio(sum(|p| p.retries), n_passes));
    set("ira.deferred", sum(|p| p.deferred));
    set("ira.steals", m.obs.get("db.reorg_wave_steals") as f64);
    set("ira.wave2_objs_per_s", objs_per_s(&parallel));
    set("trt.notes_per_pass", ratio(trt_notes, n_passes));
    set("trt.purged_share", ratio(sum(|p| p.trt_purged), trt_notes));
    set(
        "partition.pages_per_pass",
        ratio(
            m.passes
                .iter()
                .map(|p| f64::from(p.pages_after) - f64::from(p.pages_before))
                .sum(),
            n_passes,
        ),
    );
    set("partition.pages_end", m.space_end.pages as f64);
    set("space_amp", m.space_end.amplification());
    set("db.migrations", m.obs.get("db.migrations") as f64);

    // ---- counters, per unit of work ----
    // Per client transaction where clients run, per migrated object on
    // `reorg_idle`.
    let g = |key: &str| m.obs.get(key) as f64;
    let work = if client_txns > 0 {
        client_txns as f64
    } else {
        g("db.migrations")
    };
    set(
        "lock.acquisitions_per_txn",
        ratio(g("lock.acquisitions"), work),
    );
    // The counter ticks for an acquire and for a release.
    set(
        "lock.fastpath_share",
        ratio(g("lock.fastpath_hits"), 2.0 * g("lock.acquisitions")),
    );
    set("lock.waits_per_ktxn", ratio(g("lock.waits") * 1e3, work));
    set("lock.wait_us_per_txn", ratio(g("lock.wait_us_sum"), work));
    set("lock.timeouts", g("lock.timeouts"));
    set("lock.upgrade_conflicts", g("lock.upgrade_conflicts"));
    set("wal.records_per_txn", ratio(g("wal.records"), work));
    set("wal.bytes_per_txn", ratio(g("wal.bytes"), work));
    set("wal.flushes", g("wal.flushes"));
    set(
        "wal.group_commit_share",
        ratio(
            g("wal.group_commits"),
            g("wal.group_commits") + g("wal.flushes"),
        ),
    );
    set(
        "wal.flush_us_mean",
        ratio(g("wal.flush_us_sum"), g("wal.flushes")),
    );
    set("wal.segments_rotated", g("wal.segments_rotated"));
    set(
        "storage.fsyncs_per_commit",
        ratio(g("file.fsyncs"), g("db.commits")),
    );
    set(
        "storage.write_amp",
        ratio(g("file.bytes_written"), g("wal.bytes")),
    );
    set("storage.pipeline_overlap_us", g("wal.pipeline_overlap_us"));
    set(
        "ert.updates_per_ktxn",
        ratio(
            (g("ert.inserts") + g("ert.removes")) * 1e3,
            client_txns as f64,
        ),
    );

    // ---- failures: attempts that had to be redone, over attempts made ----
    let batches: f64 = m
        .passes
        .iter()
        .map(|p| (p.migrated as f64 / p.batch as f64).ceil() + p.retries as f64)
        .sum();
    set(
        "fail_share",
        ratio(
            retry_attempts as f64 + sum(|p| p.retries) + sum(|p| p.deferred),
            (client_txns + retry_attempts) as f64 + batches,
        ),
    );

    // ---- recovery ----
    if let Some(r) = &m.recovery {
        let mb = r.wal_bytes as f64 / 1e6;
        set("recover_mb_per_s", ratio(mb, r.open_s));
        set("recovery.open_s", r.open_s);
        set("recovery.wal_mb", mb);
        set("recovery.losers", r.losers as f64);
    }

    // ---- spans ----
    let layers = trace::summarize(m.client_spans.iter());
    let txn_ns: f64 = layers.values().map(|t| t.self_ns as f64).sum();
    for name in span_layers() {
        let t = layers.get(&name).cloned().unwrap_or_default();
        set(&format!("{}.ns_p50", name.metric_prefix()), t.ns_p50);
        set(
            &format!("{}.share", name.metric_prefix()),
            ratio(t.self_ns as f64, txn_ns),
        );
    }
    set(
        "trace.sampled_txns",
        layers
            .get(&SpanName::ClientTxn)
            .map_or(0.0, |t| t.count as f64),
    );
    for (&name, &value) in probes {
        set(name, value);
    }

    // ---- the gated four ----
    set("setup_s", m.setup_s);
    set("rss_peak_mb", m.rss_peak_mb);
    match &main {
        Some(c) => {
            set("throughput", c.tps_median);
            set(
                "latency_p50_us",
                percentile_sorted(&c.lat_sorted, 0.5) / 1e3,
            );
        }
        None => {
            set("throughput", objs_per_s(&serial));
            set("latency_p50_us", percentile_sorted(&pass_us, 0.5));
        }
    }

    // A metric that does not apply to this workload reads zero.
    for spec in per_layer() {
        out.entry(spec.name).or_insert(0.0);
    }
    out
}

/// Logical operations tried and failed: client transactions and
/// reorganization passes. A run only gets here with every one completed —
/// an operation that cannot complete fails the output checks instead.
pub fn attempted(m: &Measured) -> u64 {
    let txns: u64 = [&m.baseline, &m.main, &m.traced]
        .into_iter()
        .flatten()
        .map(Phase::committed)
        .sum();
    txns + m.passes.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// BENCHMARK.json and the tables above name the same metrics, units
    /// and workloads; the driver reads the file, the program the tables.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |specs: Vec<Spec>| -> Vec<(String, String)> {
            specs
                .into_iter()
                .map(|s| (s.name, s.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(end_to_end()));
        assert_eq!(listed("per_layer"), ours(per_layer()));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let gated: Vec<&str> = crate::workloads::Workload::ALL
            .into_iter()
            .filter(|w| !w.durable())
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, gated);
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
    }
}
