//! The paper's experiments (Section 5.3), one function per figure/table,
//! plus the full-version Section 5.3.4 sweeps and the design-choice
//! ablations called out in DESIGN.md.

use crate::report::{Experiment, Row};
use crate::runner::{run_cell, Algo, CellConfig};
use ira::IraVariant;
use std::time::Duration;
use workload::WorkloadParams;

/// Global harness options.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Shrink the workload and the sweeps for a fast smoke run.
    pub quick: bool,
}

impl HarnessOptions {
    fn base_params(&self) -> WorkloadParams {
        if self.quick {
            WorkloadParams {
                objs_per_partition: 1020,
                ..WorkloadParams::default()
            }
        } else {
            WorkloadParams::default()
        }
    }

    fn nr_window(&self) -> Duration {
        if self.quick {
            Duration::from_secs(2)
        } else {
            Duration::from_secs(5)
        }
    }

    fn cell(&self, algo: Algo) -> CellConfig {
        let mut cfg = CellConfig::paper(algo);
        cfg.params = self.base_params();
        cfg.nr_window = self.nr_window();
        cfg
    }
}

const ALGOS: [Algo; 3] = [Algo::Nr, Algo::Ira, Algo::Pqr];

/// One swept configuration tweak.
type Tweak = Box<dyn Fn(&mut CellConfig)>;

fn sweep(opts: &HarnessOptions, title: &str, x_name: &str, xs: Vec<(String, Tweak)>) -> Experiment {
    let mut rows = Vec::new();
    for (label, tweak) in xs {
        eprintln!("  [{x_name}={label}]");
        let mut cells = Vec::new();
        for algo in ALGOS {
            let mut cfg = opts.cell(algo);
            tweak(&mut cfg);
            cells.push(run_cell(&cfg));
        }
        rows.push(Row {
            x_label: label,
            cells,
        });
    }
    Experiment {
        title: title.into(),
        x_name: x_name.into(),
        rows,
    }
}

/// Figures 6 and 7: throughput and average response time as MPL varies.
pub fn exp_mpl(opts: &HarnessOptions) -> Experiment {
    let mpls: Vec<usize> = if opts.quick {
        vec![1, 5, 15, 30]
    } else {
        vec![1, 2, 5, 10, 20, 30, 40, 50, 60]
    };
    sweep(
        opts,
        "Figures 6/7: MPL scaleup (throughput, avg response time)",
        "MPL",
        mpls.into_iter()
            .map(|m| {
                let f: Box<dyn Fn(&mut CellConfig)> =
                    Box::new(move |cfg: &mut CellConfig| cfg.params.mpl = m);
                (m.to_string(), f)
            })
            .collect(),
    )
}

/// Table 2: analysis of response times at MPL 30.
pub fn exp_table2(opts: &HarnessOptions) -> Experiment {
    let mut cells = Vec::new();
    for algo in ALGOS {
        eprintln!("  [table2 {}]", algo.name());
        let cfg = opts.cell(algo);
        cells.push(run_cell(&cfg));
    }
    Experiment {
        title: "Table 2: Analysis of Response Times (MPL 30)".into(),
        x_name: "MPL".into(),
        rows: vec![Row {
            x_label: "30".into(),
            cells,
        }],
    }
}

/// Figures 8 and 9: throughput and average response time as the partition
/// size (NUMOBJS) varies.
pub fn exp_partition_size(opts: &HarnessOptions) -> Experiment {
    let sizes: Vec<usize> = if opts.quick {
        vec![510, 1020, 2040]
    } else {
        // Whole clusters nearest the paper's 1000..9000 sweep.
        vec![1020, 2040, 4080, 6120, 8160]
    };
    sweep(
        opts,
        "Figures 8/9: partition size scaleup",
        "NUMOBJS",
        sizes
            .into_iter()
            .map(|n| {
                let f: Box<dyn Fn(&mut CellConfig)> =
                    Box::new(move |cfg: &mut CellConfig| cfg.params.objs_per_partition = n);
                (n.to_string(), f)
            })
            .collect(),
    )
}

/// Figures 10 and 11: throughput and average response time as the update
/// probability varies.
pub fn exp_update_prob(opts: &HarnessOptions) -> Experiment {
    let probs: Vec<f64> = if opts.quick {
        vec![0.0, 0.5, 1.0]
    } else {
        vec![0.0, 0.2, 0.5, 0.8, 1.0]
    };
    sweep(
        opts,
        "Figures 10/11: update probability",
        "UPDPROB",
        probs
            .into_iter()
            .map(|p| {
                let f: Box<dyn Fn(&mut CellConfig)> =
                    Box::new(move |cfg: &mut CellConfig| cfg.params.update_prob = p);
                (format!("{p:.1}"), f)
            })
            .collect(),
    )
}

/// Section 5.3.4: GLUEFACTOR sweep (full version of the paper).
pub fn exp_glue(opts: &HarnessOptions) -> Experiment {
    // Three points cover the paper's spread; cheap enough for --quick too.
    let glues: Vec<f64> = vec![0.01, 0.05, 0.2];
    sweep(
        opts,
        "Section 5.3.4: glue factor (inter-partition references)",
        "GLUE",
        glues
            .into_iter()
            .map(|g| {
                let f: Box<dyn Fn(&mut CellConfig)> =
                    Box::new(move |cfg: &mut CellConfig| cfg.params.glue_factor = g);
                (format!("{g:.2}"), f)
            })
            .collect(),
    )
}

/// Section 5.3.4: transaction path length (OPSPERTRANS) sweep.
pub fn exp_ops_per_trans(opts: &HarnessOptions) -> Experiment {
    // Three points cover the paper's spread; cheap enough for --quick too.
    let opss: Vec<usize> = vec![2, 8, 32];
    sweep(
        opts,
        "Section 5.3.4: transaction path length",
        "OPS",
        opss.into_iter()
            .map(|o| {
                let f: Box<dyn Fn(&mut CellConfig)> =
                    Box::new(move |cfg: &mut CellConfig| cfg.params.ops_per_trans = o);
                (o.to_string(), f)
            })
            .collect(),
    )
}

/// Section 5.3.4: number of partitions sweep.
pub fn exp_num_partitions(opts: &HarnessOptions) -> Experiment {
    let ns: Vec<usize> = if opts.quick {
        vec![2, 10, 20]
    } else {
        vec![5, 10, 20]
    };
    sweep(
        opts,
        "Section 5.3.4: number of partitions",
        "NPARTS",
        ns.into_iter()
            .map(|n| {
                let f: Box<dyn Fn(&mut CellConfig)> =
                    Box::new(move |cfg: &mut CellConfig| cfg.params.num_partitions = n);
                (n.to_string(), f)
            })
            .collect(),
    )
}

/// Section 5.3.4: PQR measured over the duration IRA needs. The paper found
/// the throughput difference never exceeded 3%.
pub fn exp_equal_duration(opts: &HarnessOptions) -> Experiment {
    // First measure IRA's duration at the defaults.
    eprintln!("  [eqdur IRA]");
    let ira = run_cell(&opts.cell(Algo::Ira));
    let window = Duration::from_secs_f64(ira.reorg_secs.unwrap_or(1.0));
    // Then PQR and NR measured over the same window.
    eprintln!("  [eqdur PQR over IRA window]");
    let mut pqr_cfg = opts.cell(Algo::Pqr);
    pqr_cfg.measure_window = Some(window);
    let pqr = run_cell(&pqr_cfg);
    eprintln!("  [eqdur NR over IRA window]");
    let mut nr_cfg = opts.cell(Algo::Nr);
    nr_cfg.nr_window = window;
    let nr = run_cell(&nr_cfg);
    Experiment {
        title: "Section 5.3.4: equal-duration comparison (window = IRA's duration)".into(),
        x_name: "window".into(),
        rows: vec![Row {
            x_label: format!("{:.1}s", window.as_secs_f64()),
            cells: vec![nr, ira, pqr],
        }],
    }
}

/// Ablations over the design choices DESIGN.md calls out. Each row is one
/// IRA configuration at the workload defaults.
pub fn exp_ablation(opts: &HarnessOptions) -> Experiment {
    let mut rows = Vec::new();
    let variants: Vec<(&str, Tweak)> = vec![
        ("basic", Box::new(|_cfg: &mut CellConfig| {})),
        (
            "two-lock",
            Box::new(|cfg: &mut CellConfig| cfg.variant = IraVariant::TwoLock),
        ),
        ("batch=32", Box::new(|cfg: &mut CellConfig| cfg.batch = 32)),
        (
            "no-trt-purge",
            Box::new(|cfg: &mut CellConfig| cfg.store.trt_purge = false),
        ),
        (
            "relaxed-2pl",
            Box::new(|cfg: &mut CellConfig| cfg.store.strict_2pl = false),
        ),
    ];
    for (name, tweak) in variants {
        eprintln!("  [ablation {name}]");
        let mut cfg = opts.cell(Algo::Ira);
        tweak(&mut cfg);
        rows.push(Row {
            x_label: name.into(),
            cells: vec![run_cell(&cfg)],
        });
    }
    Experiment {
        title: "Ablations: IRA design choices (Sections 4.1-4.5)".into(),
        x_name: "variant".into(),
        rows,
    }
}

/// Builds and runs one experiment.
pub type ExperimentFn = fn(&HarnessOptions) -> Experiment;

/// Every experiment by CLI slug, in the paper's order: the one list behind
/// `paper_figures all`, name dispatch and the usage line.
pub const EXPERIMENTS: [(&str, ExperimentFn); 9] = [
    ("mpl", exp_mpl),
    ("table2", exp_table2),
    ("partsize", exp_partition_size),
    ("updprob", exp_update_prob),
    ("glue", exp_glue),
    ("ops", exp_ops_per_trans),
    ("nparts", exp_num_partitions),
    ("eqdur", exp_equal_duration),
    ("ablation", exp_ablation),
];
