//! Relocation plans: where migrated objects go.
//!
//! The paper deliberately leaves *where* objects move as an orthogonal
//! decision made by the driving operation ("the driving operation (e.g.,
//! compaction, clustering) makes these decisions", Section 2). A
//! [`RelocationPlan`] captures that decision:
//!
//! * [`RelocationPlan::CompactInPlace`] — compaction: each object is
//!   re-allocated inside its own partition, on fresh pages above the pass's
//!   page floor in migration order; the pass ends by dropping the pages
//!   the copies vacated.
//! * [`RelocationPlan::EvacuateTo`] — clustering and copying garbage
//!   collection: every live object moves to the target partition, allocated
//!   in migration order, so objects adjacent in the traversal become
//!   adjacent in storage (the reclustering benefit of Yong et al.'s copying
//!   collector, which the paper's Section 4.6 inherits).

use brahma::{PartitionId, PhysAddr};

/// Where the objects of a partition under reorganization are migrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelocationPlan {
    /// Re-allocate each object within its own partition (compaction).
    CompactInPlace,
    /// Move every object to the given partition (clustering / copying GC).
    EvacuateTo(PartitionId),
}

impl RelocationPlan {
    /// The partition the new copy of `old` is allocated in.
    pub fn target_partition(&self, old: PhysAddr) -> PartitionId {
        match self {
            RelocationPlan::CompactInPlace => old.partition(),
            RelocationPlan::EvacuateTo(p) => *p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets() {
        let a = PhysAddr::new(PartitionId(3), 0, 0);
        assert_eq!(
            RelocationPlan::CompactInPlace.target_partition(a),
            PartitionId(3)
        );
        assert_eq!(
            RelocationPlan::EvacuateTo(PartitionId(7)).target_partition(a),
            PartitionId(7)
        );
    }
}
