//! # Workload — the paper's Section 5.2 synthetic benchmark
//!
//! The object graph (clusters of 85 objects arranged as complete 4-ary
//! trees, one extra edge per node, `GLUEFACTOR` inter-partition references),
//! the random-walk transactions (`OPSPERTRANS` hops, `UPDATEPROB` exclusive
//! accesses), the MPL thread driver, response-time/throughput metrics, and
//! a fixed-capacity CPU model that reproduces the paper's single-CPU
//! saturation behaviour on modern many-core hosts.
//!
//! ```
//! use std::sync::Arc;
//! use brahma::{Database, StoreConfig};
//! use workload::{build_graph, start_workload, CpuModel, WorkloadParams};
//!
//! let db = Arc::new(Database::new(StoreConfig::default()));
//! let params = WorkloadParams { num_partitions: 2, objs_per_partition: 85,
//!                               mpl: 2, ..WorkloadParams::default() };
//! let info = Arc::new(build_graph(&db, &params).unwrap());
//! let handle = start_workload(Arc::clone(&db), info, &params);
//! std::thread::sleep(std::time::Duration::from_millis(50));
//! let summary = handle.stop_and_join().summarize();
//! assert!(summary.committed > 0);
//! ```

pub mod cost;
mod driver;
mod graph;
mod metrics;
mod params;
pub mod stats;
mod walker;

pub use cost::{CpuModel, PagedCpuModel};
pub use driver::{start_workload, start_workload_observed, WorkloadHandle};
pub use graph::{build_graph, GraphInfo};
pub use metrics::{Metrics, Summary};
pub use params::WorkloadParams;
pub use stats::{EdgeObserver, TraversalStats};
pub use walker::{walk_once, walk_once_observed, WalkAttempt};
