//! Workload parameters (Table 1 of the paper).

use brahma::RetryPolicy;
use std::time::Duration;

/// The parameters of the Section 5.2 workload, with the paper's defaults.
///
/// | Parameter        | Meaning                                   | Default |
/// |------------------|-------------------------------------------|---------|
/// | `NUMPARTITIONS`  | partitions in the database                | 10      |
/// | `NUMOBJS`        | objects per partition                     | 4080    |
/// | `MPL`            | multi programming level                   | 30      |
/// | `OPSPERTRANS`    | length of random walk per transaction     | 8       |
/// | `UPDATEPROB`     | probability of exclusive access           | 0.5     |
/// | `GLUEFACTOR`     | fraction of inter-partition references    | 0.05    |
///
/// Objects are organized into clusters of 85 objects, each cluster a tree
/// (85 = 1 + 4 + 16 + 64: a complete 4-ary tree of depth 3); the cluster
/// roots are the persistent roots. One extra edge from each node refers to a
/// node in another cluster, crossing partitions with probability
/// `GLUEFACTOR`.
#[derive(Debug, Clone)]
pub struct WorkloadParams {
    /// NUMPARTITIONS: number of *data* partitions (the persistent roots
    /// live in one additional root partition, as in Section 2).
    pub num_partitions: usize,
    /// NUMOBJS: objects per partition (rounded down to whole clusters).
    pub objs_per_partition: usize,
    /// MPL: concurrent workload threads.
    pub mpl: usize,
    /// OPSPERTRANS: objects accessed per random walk.
    pub ops_per_trans: usize,
    /// UPDATEPROB: probability an access locks exclusively and updates.
    pub update_prob: f64,
    /// GLUEFACTOR: probability a cluster's extra edge crosses partitions.
    pub glue_factor: f64,
    /// Objects per cluster (the paper uses 85).
    pub cluster_size: usize,
    /// Payload bytes per object (the paper's average object size is about
    /// 100 bytes including bookkeeping).
    pub payload_size: usize,
    /// Probability that an update access also rewires the object's extra
    /// edge (a pointer delete + insert). The paper's measured workload
    /// updates payloads; reference churn is exercised by the correctness
    /// stress tests with this knob above zero.
    pub ref_update_prob: f64,
    /// RNG seed for graph construction and walks.
    pub seed: u64,
    /// Resubmission policy for a logical transaction whose attempt aborted
    /// on a retryable conflict (lock timeout, upgrade conflict, injected
    /// transient fault). The MPL model resubmits immediately, so the
    /// default adds no delay and a bound high enough to never give up in
    /// practice; tests tighten it to observe `retry.giveups`.
    pub retry: RetryPolicy,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            num_partitions: 10,
            objs_per_partition: 4080,
            mpl: 30,
            ops_per_trans: 8,
            update_prob: 0.5,
            glue_factor: 0.05,
            cluster_size: 85,
            payload_size: 40,
            ref_update_prob: 0.0,
            seed: 0xB_0BA,
            retry: RetryPolicy::fixed(1_000_000, Duration::ZERO),
        }
    }
}

impl WorkloadParams {
    /// Clusters per partition.
    pub(crate) fn clusters_per_partition(&self) -> usize {
        (self.objs_per_partition / self.cluster_size).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let p = WorkloadParams::default();
        assert_eq!(p.num_partitions, 10);
        assert_eq!(p.objs_per_partition, 4080);
        assert_eq!(p.mpl, 30);
        assert_eq!(p.ops_per_trans, 8);
        assert_eq!(p.update_prob, 0.5);
        assert_eq!(p.glue_factor, 0.05);
        assert_eq!(p.cluster_size, 85);
        // 4080 / 85 = 48 whole clusters.
        assert_eq!(p.clusters_per_partition(), 48);
        assert_eq!(p.clusters_per_partition() * p.cluster_size, 4080);
    }
}
