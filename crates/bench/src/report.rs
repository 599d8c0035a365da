//! Table/CSV rendering for the paper-figure harness.

use crate::runner::{Algo, CellResult};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use workload::Summary;

/// One row of an experiment: a swept x-value plus the three systems'
/// results.
pub struct Row {
    pub x_label: String,
    pub cells: Vec<CellResult>,
}

/// A completed experiment, printable as the paper's figure series.
pub struct Experiment {
    /// e.g. "Figure 6/7: MPL scaleup".
    pub title: String,
    /// Name of the swept parameter, e.g. "MPL".
    pub x_name: String,
    pub rows: Vec<Row>,
}

// Table 2's shape at MPL 30 (paper §5.3). Constants, not options: each sits
// at roughly half the gap 29 `table2 --quick` release runs showed.
/// IRA keeps up with NR; observed IRA/NR tps 0.90-1.25.
const IRA_TPS_MIN_OF_NR: f64 = 0.8;
/// PQR's throughput collapses; observed PQR/IRA tps 0.46-0.71.
const PQR_TPS_MAX_OF_IRA: f64 = 0.85;
/// PQR's response-time spread explodes; observed PQR/IRA stddev 5.7-13.0.
const PQR_STDDEV_MIN_OF_IRA: f64 = 3.0;

/// The NR, IRA and PQR summaries of a row, if it has all three.
fn trio(row: &Row) -> Option<[&Summary; 3]> {
    let by = |a| row.cells.iter().find(|c| c.algo == a).map(|c| &c.summary);
    Some([by(Algo::Nr)?, by(Algo::Ira)?, by(Algo::Pqr)?])
}

impl Experiment {
    /// What keeps this experiment from being paper-shaped; empty when it
    /// is. Every cell must be healthy — no walker errors, some commits,
    /// reorganizing cells migrated something — and every row must hold
    /// Table 2's three inequalities (a row missing a system cannot).
    /// `paper_figures table2` turns a non-empty answer into a nonzero exit.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for row in &self.rows {
            let at = format!("{}={}", self.x_name, row.x_label);
            for c in &row.cells {
                let name = c.algo.name();
                if c.summary.errors > 0 {
                    out.push(format!("{at} {name}: {} walker errors", c.summary.errors));
                }
                if c.summary.committed == 0 {
                    out.push(format!("{at} {name}: no committed transactions"));
                }
                if c.algo != Algo::Nr && c.migrated == 0 {
                    out.push(format!("{at} {name}: reorganization migrated nothing"));
                }
            }
            let Some([nr, ira, pqr]) = trio(row) else {
                out.push(format!("{at}: needs NR, IRA and PQR cells"));
                continue;
            };
            let (nr_tps, ira_tps, pqr_tps) =
                (nr.throughput_tps, ira.throughput_tps, pqr.throughput_tps);
            if ira_tps < IRA_TPS_MIN_OF_NR * nr_tps {
                out.push(format!(
                    "{at}: IRA tps {ira_tps:.1} < {IRA_TPS_MIN_OF_NR} x NR tps {nr_tps:.1}"
                ));
            }
            if pqr_tps > PQR_TPS_MAX_OF_IRA * ira_tps {
                out.push(format!(
                    "{at}: PQR tps {pqr_tps:.1} > {PQR_TPS_MAX_OF_IRA} x IRA tps {ira_tps:.1}"
                ));
            }
            if pqr.stddev_ms < PQR_STDDEV_MIN_OF_IRA * ira.stddev_ms {
                out.push(format!(
                    "{at}: PQR stddev_ms {:.1} < {PQR_STDDEV_MIN_OF_IRA} x IRA stddev_ms {:.1}",
                    pqr.stddev_ms, ira.stddev_ms
                ));
            }
        }
        out
    }

    /// Render the throughput and average-response-time series (the two
    /// metrics the paper's figures plot), plus reorg durations.
    ///
    /// The algo column set is the union over *all* rows, and each row's
    /// cells are looked up by algo name — a ragged row (e.g. a cell
    /// skipped after a `SimulatedCrash`) renders `-` in its gaps instead
    /// of silently shifting later columns.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut algos: Vec<&str> = Vec::new();
        for row in &self.rows {
            for c in &row.cells {
                if !algos.contains(&c.algo.name()) {
                    algos.push(c.algo.name());
                }
            }
        }
        let _ = write!(out, "{:>10}", self.x_name);
        for a in &algos {
            let _ = write!(out, " {:>9}", format!("{a}.tps"));
        }
        for a in &algos {
            let _ = write!(out, " {:>10}", format!("{a}.art_ms"));
        }
        for a in &algos {
            let _ = write!(out, " {:>10}", format!("{a}.reorg_s"));
        }
        let _ = writeln!(out);
        for row in &self.rows {
            let by_name = |a: &str| row.cells.iter().find(|c| c.algo.name() == a);
            let _ = write!(out, "{:>10}", row.x_label);
            for a in &algos {
                match by_name(a) {
                    Some(c) => {
                        let _ = write!(out, " {:>9.1}", c.summary.throughput_tps);
                    }
                    None => {
                        let _ = write!(out, " {:>9}", "-");
                    }
                }
            }
            for a in &algos {
                match by_name(a) {
                    Some(c) => {
                        let _ = write!(out, " {:>10.1}", c.summary.avg_ms);
                    }
                    None => {
                        let _ = write!(out, " {:>10}", "-");
                    }
                }
            }
            for a in &algos {
                match by_name(a).and_then(|c| c.reorg_secs) {
                    Some(s) => {
                        let _ = write!(out, " {:>10.2}", s);
                    }
                    None => {
                        let _ = write!(out, " {:>10}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out.push_str(&self.render_counters());
        out
    }

    /// Render the substrate counter deltas of every cell: one line per
    /// cell with the non-zero `lock.*` / `wal.*` / `ira.*` / `pqr.*` /
    /// `db.*` / `workload.*` keys. This is the observability companion to
    /// the figures — the *why* behind the throughput numbers (e.g. PQR's
    /// quiesce locks and the walkers' lock waits during it).
    pub fn render_counters(&self) -> String {
        let mut out = String::new();
        let any = self
            .rows
            .iter()
            .any(|r| r.cells.iter().any(|c| !c.counters.is_empty()));
        if !any {
            return out;
        }
        let _ = writeln!(out, "-- substrate counters --");
        for row in &self.rows {
            for c in &row.cells {
                let compact = c.counters.render_compact("");
                if compact.is_empty() {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{}={} {}: {}",
                    self.x_name,
                    row.x_label,
                    c.algo.name(),
                    compact
                );
            }
        }
        out
    }

    /// Render the Table 2 style analysis (throughput, avg/max/stddev of
    /// response times) for a single-row experiment.
    pub fn render_table2(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>12} {:>12} {:>14} {:>9}",
            "Algo", "Throughput", "AvgResp(ms)", "MaxResp(ms)", "StdDevResp(ms)", "Aborts"
        );
        for row in &self.rows {
            for c in &row.cells {
                let _ = writeln!(
                    out,
                    "{:>6} {:>10.1} {:>12.1} {:>12.1} {:>14.1} {:>9}",
                    c.algo.name(),
                    c.summary.throughput_tps,
                    c.summary.avg_ms,
                    c.summary.max_ms,
                    c.summary.stddev_ms,
                    c.summary.aborted_attempts,
                );
            }
            // The ratios `shape_violations` gates, next to their bounds.
            if let Some([nr, ira, pqr]) = trio(row) {
                let _ = writeln!(
                    out,
                    "shape: IRA/NR tps {:.2} (>= {IRA_TPS_MIN_OF_NR}), PQR/IRA tps {:.2} \
                     (<= {PQR_TPS_MAX_OF_IRA}), PQR/IRA stddev {:.2} (>= {PQR_STDDEV_MIN_OF_IRA})",
                    ira.throughput_tps / nr.throughput_tps,
                    pqr.throughput_tps / ira.throughput_tps,
                    pqr.stddev_ms / ira.stddev_ms,
                );
            }
        }
        out
    }

    /// Write the experiment as CSV (one line per cell).
    pub fn write_csv(&self, dir: &Path, slug: &str) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let mut out = String::from(
            "x,algo,throughput_tps,avg_ms,max_ms,stddev_ms,p95_ms,p99_ms,\
             committed,aborted_attempts,window_s,reorg_s,migrated,lock_timeouts\n",
        );
        for row in &self.rows {
            for c in &row.cells {
                let _ = writeln!(
                    out,
                    "{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{:.3},{},{},{}",
                    row.x_label,
                    c.algo.name(),
                    c.summary.throughput_tps,
                    c.summary.avg_ms,
                    c.summary.max_ms,
                    c.summary.stddev_ms,
                    c.summary.p95_ms,
                    c.summary.p99_ms,
                    c.summary.committed,
                    c.summary.aborted_attempts,
                    c.summary.window_s,
                    c.reorg_secs.map(|s| format!("{s:.3}")).unwrap_or_default(),
                    c.migrated,
                    c.lock_timeouts,
                );
            }
        }
        fs::write(dir.join(format!("{slug}.csv")), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(algo: Algo, tps: f64) -> CellResult {
        let mut counters = obs::Snapshot::new();
        counters.set("lock.waits", 7);
        counters.set("wal.flushes", 100);
        CellResult {
            algo,
            summary: Summary {
                committed: 100,
                aborted_attempts: 2,
                errors: 0,
                throughput_tps: tps,
                avg_ms: 10.0,
                max_ms: 50.0,
                stddev_ms: 5.0,
                p95_ms: 20.0,
                p99_ms: 40.0,
                window_s: 1.0,
            },
            reorg_secs: Some(1.5),
            migrated: 42,
            lock_timeouts: 3,
            counters,
        }
    }

    fn experiment() -> Experiment {
        Experiment {
            title: "Test".into(),
            x_name: "MPL".into(),
            rows: vec![Row {
                x_label: "30".into(),
                cells: vec![cell(Algo::Nr, 35.0), cell(Algo::Ira, 33.7)],
            }],
        }
    }

    #[test]
    fn render_contains_series() {
        let s = experiment().render();
        assert!(s.contains("NR.tps"));
        assert!(s.contains("IRA.art_ms"));
        assert!(s.contains("35.0"));
    }

    #[test]
    fn render_ragged_rows_key_cells_by_algo() {
        // Second row lost its NR cell (e.g. skipped after a crash) and
        // gained a PQR cell; columns must stay attributed by name, with
        // `-` in the gaps.
        let e = Experiment {
            title: "Ragged".into(),
            x_name: "MPL".into(),
            rows: vec![
                Row {
                    x_label: "8".into(),
                    cells: vec![cell(Algo::Nr, 35.0), cell(Algo::Ira, 33.7)],
                },
                Row {
                    x_label: "30".into(),
                    cells: vec![cell(Algo::Ira, 28.1), cell(Algo::Pqr, 9.9)],
                },
            ],
        };
        let s = e.render();
        // Union of algos across rows, in first-seen order.
        let header = s.lines().nth(1).unwrap();
        assert!(
            header.contains("NR.tps") && header.contains("IRA.tps") && header.contains("PQR.tps")
        );
        // Row 30 has no NR cell: its NR.tps column must render `-`, and
        // IRA's throughput must land under IRA, not shifted into NR.
        let row30 = s
            .lines()
            .find(|l| l.trim_start().starts_with("30"))
            .unwrap();
        let fields: Vec<&str> = row30.split_whitespace().collect();
        assert_eq!(fields[1], "-", "NR gap: {row30}");
        assert_eq!(fields[2], "28.1", "IRA tps stays in its column: {row30}");
        assert_eq!(fields[3], "9.9", "PQR tps: {row30}");
        // Row 8 has no PQR cell: trailing `-`.
        let row8 = s.lines().find(|l| l.trim_start().starts_with("8")).unwrap();
        let fields: Vec<&str> = row8.split_whitespace().collect();
        assert_eq!(fields[3], "-", "PQR gap: {row8}");
    }

    #[test]
    fn render_includes_substrate_counters() {
        let s = experiment().render();
        assert!(s.contains("substrate counters"));
        assert!(s.contains("lock.waits=7"));
        assert!(s.contains("wal.flushes=100"));
    }

    #[test]
    fn table2_contains_stddev() {
        let s = experiment().render_table2();
        assert!(s.contains("StdDevResp"));
        assert!(s.contains("5.0"));
    }

    #[test]
    fn shape_violations_name_the_broken_cell_or_inequality() {
        // Paper-shaped trio: IRA/NR tps 0.96, PQR/IRA tps 0.59, stddev x8.
        const IRA: usize = 1;
        const PQR: usize = 2;
        type Break = fn(&mut Vec<CellResult>);
        let cases: [(Break, &[&str]); 8] = [
            (|_| {}, &[]),
            (
                |c| c[IRA].summary.throughput_tps = 27.0,
                &["MPL=30: IRA tps 27.0 < 0.8 x NR tps 35.0"],
            ),
            (
                |c| c[PQR].summary.throughput_tps = 30.0,
                &["MPL=30: PQR tps 30.0 > 0.85 x IRA tps 33.7"],
            ),
            (
                |c| c[PQR].summary.stddev_ms = 10.0,
                &["MPL=30: PQR stddev_ms 10.0 < 3 x IRA stddev_ms 5.0"],
            ),
            (
                |c| c[IRA].summary.errors = 2,
                &["MPL=30 IRA: 2 walker errors"],
            ),
            (
                |c| c[PQR].summary.committed = 0,
                &["MPL=30 PQR: no committed transactions"],
            ),
            (
                |c| c[IRA].migrated = 0,
                &["MPL=30 IRA: reorganization migrated nothing"],
            ),
            // Ragged row: the NR cell was lost. A violation, not a panic.
            (
                |c| drop(c.remove(0)),
                &["MPL=30: needs NR, IRA and PQR cells"],
            ),
        ];
        for (i, (break_it, want)) in cases.into_iter().enumerate() {
            let mut e = experiment();
            let cells = &mut e.rows[0].cells;
            cells[0].migrated = 0; // NR reorganizes nothing, and that is fine
            cells.push(cell(Algo::Pqr, 20.0));
            cells[PQR].summary.stddev_ms = 40.0;
            break_it(cells);
            assert_eq!(e.shape_violations(), want, "case {i}");
        }
    }

    #[test]
    fn table2_prints_the_gated_ratios() {
        let mut e = experiment();
        assert!(!e.render_table2().contains("shape:"), "no PQR, no ratios");
        e.rows[0].cells.push(cell(Algo::Pqr, 20.0));
        let s = e.render_table2();
        let want = "shape: IRA/NR tps 0.96 (>= 0.8), PQR/IRA tps 0.59 (<= 0.85), \
                    PQR/IRA stddev 1.00 (>= 3)";
        assert!(s.contains(want), "{s}");
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("odb-bench-test");
        experiment().write_csv(&dir, "test").unwrap();
        let text = std::fs::read_to_string(dir.join("test.csv")).unwrap();
        assert!(text.lines().count() == 3);
        assert!(text.contains("NR"));
    }
}
