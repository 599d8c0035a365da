//! Object-graph construction (Section 5.2, "Object Graph Structure").
//!
//! The database has `NUMPARTITIONS` data partitions of `NUMOBJS` objects
//! each, organized into clusters: each cluster is a complete 4-ary tree of
//! 85 objects whose root is a persistent root. One extra edge from each node
//! refers to a node in another cluster, chosen in another partition with
//! probability `GLUEFACTOR` (these are the edges that populate the ERTs).
//!
//! The persistent roots live in a dedicated root partition (partition 0):
//! one root object per data partition holding references to that
//! partition's cluster roots — so a walk entering a data partition always
//! comes through an external parent, as the paper's PQR analysis assumes.

use crate::params::WorkloadParams;
use brahma::{Database, LockMode, NewObject, PartitionId, PhysAddr, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Handle to the generated graph.
#[derive(Debug, Clone)]
pub struct GraphInfo {
    /// The root partition (holds the per-partition root objects).
    pub root_partition: PartitionId,
    /// The data partitions, in order.
    pub data_partitions: Vec<PartitionId>,
    /// `roots()[root_index[i]]` is the root object for `data_partitions[i]`.
    pub root_index: Vec<usize>,
    /// Cluster roots per data partition (initial addresses; they migrate).
    pub cluster_roots: Vec<Vec<PhysAddr>>,
    /// Total objects created in data partitions.
    pub total_objects: usize,
}

/// Tag values used by the generator (handy when debugging page dumps).
pub(crate) const TAG_NODE: u8 = 1;
pub(crate) const TAG_ROOT_OBJECT: u8 = 2;

/// Build the Section 5.2 object graph in `db` (which must be freshly
/// created). Returns the graph handle.
pub fn build_graph(db: &Database, params: &WorkloadParams) -> Result<GraphInfo> {
    // Generator stream off the SeedTree root, decorrelated from the walker
    // streams that share `params.seed`.
    let mut rng = StdRng::seed_from_u64(
        brahma::SeedTree::new(params.seed)
            .child("workload.graph")
            .seed(),
    );
    let root_partition = db.create_partition();
    let data_partitions: Vec<PartitionId> = (0..params.num_partitions)
        .map(|_| db.create_partition())
        .collect();

    let clusters = params.clusters_per_partition();
    let mut cluster_roots: Vec<Vec<PhysAddr>> = Vec::with_capacity(data_partitions.len());
    let mut all_nodes: Vec<Vec<PhysAddr>> = Vec::with_capacity(data_partitions.len());
    // Which cluster each node belongs to, parallel to all_nodes.
    let mut node_cluster: Vec<Vec<usize>> = Vec::with_capacity(data_partitions.len());

    for &pid in &data_partitions {
        let mut roots_here = Vec::with_capacity(clusters);
        let mut nodes_here = Vec::new();
        let mut clusters_here = Vec::new();
        for c in 0..clusters {
            let root = build_cluster(
                db,
                pid,
                params,
                &mut rng,
                &mut nodes_here,
                &mut clusters_here,
                c,
            )?;
            roots_here.push(root);
        }
        cluster_roots.push(roots_here);
        all_nodes.push(nodes_here);
        node_cluster.push(clusters_here);
    }

    // Extra edges: one per node, to a node in another cluster; the target
    // is in another partition with probability GLUEFACTOR.
    for (pi, nodes) in all_nodes.iter().enumerate() {
        let mut txn = db.begin();
        for (ni, &node) in nodes.iter().enumerate() {
            let mut tries = 0;
            let target = loop {
                let cross =
                    rng.gen_bool(params.glue_factor.clamp(0.0, 1.0)) && data_partitions.len() > 1;
                let tp = if cross {
                    // Another partition.
                    let mut t = rng.gen_range(0..all_nodes.len());
                    while t == pi {
                        t = rng.gen_range(0..all_nodes.len());
                    }
                    t
                } else {
                    pi
                };
                let cand_idx = rng.gen_range(0..all_nodes[tp].len());
                // "a node in another cluster C": reject same-cluster targets
                // (unless the partition has a single cluster, where only
                // self-edges are rejected).
                tries += 1;
                if tp == pi
                    && node_cluster[tp][cand_idx] == node_cluster[pi][ni]
                    && (tries < 16 || all_nodes[tp][cand_idx] == node)
                {
                    continue;
                }
                break all_nodes[tp][cand_idx];
            };
            txn.lock(node, LockMode::Exclusive)?;
            txn.insert_ref(node, target)?;
        }
        txn.commit()?;
    }

    // Root objects: one per data partition, in the root partition.
    let mut root_index = Vec::with_capacity(data_partitions.len());
    for roots_here in &cluster_roots {
        let mut txn = db.begin();
        let root_obj = txn.create_object(
            root_partition,
            NewObject {
                tag: TAG_ROOT_OBJECT,
                refs: roots_here.clone(),
                ref_cap: roots_here.len() as u16,
                payload: Vec::new(),
                payload_cap: 0,
            },
        )?;
        txn.commit()?;
        root_index.push(db.roots().len());
        db.add_root(root_obj);
    }

    Ok(GraphInfo {
        root_partition,
        data_partitions,
        root_index,
        cluster_roots,
        total_objects: all_nodes.iter().map(|v| v.len()).sum(),
    })
}

/// Build one complete 4-ary tree of `cluster_size` objects bottom-up
/// (children are created before their parent so references exist at
/// creation time). Returns the cluster root.
fn build_cluster(
    db: &Database,
    pid: PartitionId,
    params: &WorkloadParams,
    rng: &mut StdRng,
    nodes_out: &mut Vec<PhysAddr>,
    clusters_out: &mut Vec<usize>,
    cluster_idx: usize,
) -> Result<PhysAddr> {
    // Level sizes of a complete 4-ary tree covering cluster_size nodes.
    let mut levels: Vec<usize> = Vec::new();
    let mut remaining = params.cluster_size;
    let mut width = 1;
    while remaining > 0 {
        let take = width.min(remaining);
        levels.push(take);
        remaining -= take;
        width *= 4;
    }

    let mut txn = db.begin();
    // Build bottom-up: previous level's nodes become children.
    let mut below: Vec<PhysAddr> = Vec::new();
    for &count in levels.iter().rev() {
        let mut this_level = Vec::with_capacity(count);
        for i in 0..count {
            // Distribute the level below across this level's nodes.
            let lo = below.len() * i / count;
            let hi = below.len() * (i + 1) / count;
            let children = below[lo..hi].to_vec();
            let payload: Vec<u8> = (0..params.payload_size).map(|_| rng.gen()).collect();
            let node = txn.create_object(
                pid,
                NewObject {
                    tag: TAG_NODE,
                    refs: children,
                    // Tree children (<= 4) + the extra edge + one slack slot
                    // for reference rewiring.
                    ref_cap: 6,
                    payload,
                    payload_cap: params.payload_size as u16,
                },
            )?;
            nodes_out.push(node);
            clusters_out.push(cluster_idx);
            this_level.push(node);
        }
        below = this_level;
    }
    txn.commit()?;
    debug_assert_eq!(below.len(), 1);
    Ok(below[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use brahma::StoreConfig;

    #[test]
    fn builds_the_table_1_graph() {
        let db = Database::new(StoreConfig::default());
        let params = WorkloadParams {
            num_partitions: 3,
            objs_per_partition: 255, // 3 clusters
            ..WorkloadParams::default()
        };
        let info = build_graph(&db, &params).unwrap();
        assert_eq!(info.data_partitions.len(), 3);
        assert_eq!(info.total_objects, 3 * 255);
        for &pid in &info.data_partitions {
            assert_eq!(db.partition(pid).unwrap().object_count(), 255);
        }
        // One root object per data partition.
        assert_eq!(db.roots().len(), 3);
        assert_eq!(db.partition(info.root_partition).unwrap().object_count(), 3);
        // Every node has at least the extra edge; tree roots have 4 + 1.
        let root0 = info.cluster_roots[0][0];
        let refs = db.raw_read(root0).unwrap().refs;
        assert_eq!(refs.len(), 5);
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn glue_factor_controls_cross_partition_edges() {
        let db = Database::new(StoreConfig::default());
        let params = WorkloadParams {
            num_partitions: 4,
            objs_per_partition: 170,
            glue_factor: 1.0,
            ..WorkloadParams::default()
        };
        let info = build_graph(&db, &params).unwrap();
        // With glue 1.0 every extra edge crosses partitions: each data
        // partition's ERT has one incoming edge per node elsewhere pointing
        // here, plus the root-object edges. Just check ERTs are non-trivial.
        for (i, &pid) in info.data_partitions.iter().enumerate() {
            let edges = db.partition(pid).unwrap().ert.edge_count();
            // Root object contributes cluster_roots edges.
            assert!(
                edges > info.cluster_roots[i].len(),
                "partition {pid} ERT has only {edges} edges"
            );
        }

        // With glue 0.0, ERTs hold only the root-object edges.
        let db = Database::new(StoreConfig::default());
        let params = WorkloadParams {
            num_partitions: 4,
            objs_per_partition: 170,
            glue_factor: 0.0,
            ..WorkloadParams::default()
        };
        let info = build_graph(&db, &params).unwrap();
        for (i, &pid) in info.data_partitions.iter().enumerate() {
            assert_eq!(
                db.partition(pid).unwrap().ert.edge_count(),
                info.cluster_roots[i].len()
            );
        }
    }

    #[test]
    fn whole_graph_is_reachable() {
        let db = Database::new(StoreConfig::default());
        let params = WorkloadParams {
            num_partitions: 2,
            objs_per_partition: 170,
            ..WorkloadParams::default()
        };
        let info = build_graph(&db, &params).unwrap();
        for &pid in &info.data_partitions {
            let reach = brahma::sweep::reachable_in_partition(&db, pid);
            assert_eq!(reach.len(), 170, "no garbage in a fresh graph");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let build = |seed| {
            let db = Database::new(StoreConfig::default());
            let params = WorkloadParams {
                num_partitions: 2,
                objs_per_partition: 85,
                seed,
                ..WorkloadParams::default()
            };
            let info = build_graph(&db, &params).unwrap();
            let mut edges = Vec::new();
            for &pid in &info.data_partitions {
                for (a, v) in brahma::sweep::sweep_objects(&db, pid) {
                    for c in v.refs {
                        edges.push((a, c));
                    }
                }
            }
            edges
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }
}
