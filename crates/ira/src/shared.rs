//! The migration mapping: old address → new address of every object whose
//! migration transaction has committed. The one migrator asks it "already
//! migrated?" to skip an object on a retried batch or a resumed run, and
//! inserts into it only after the batch transaction commits — so there is
//! never anything to release, and a checkpoint of it is always consistent.

use brahma::PhysAddr;
use std::collections::HashMap;

/// Old → new address of every committed migration (see module docs).
#[derive(Debug, Default)]
pub struct MigrationMap {
    map: HashMap<PhysAddr, PhysAddr>,
}

impl MigrationMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild from a checkpoint's committed pairs (crash-restart).
    pub fn from_committed(pairs: impl IntoIterator<Item = (PhysAddr, PhysAddr)>) -> Self {
        MigrationMap {
            map: pairs.into_iter().collect(),
        }
    }

    /// The migration transaction of `oold` committed: it now lives at `onew`.
    pub fn commit(&mut self, oold: PhysAddr, onew: PhysAddr) {
        self.map.insert(oold, onew);
    }

    /// The new address of `oold`, if it has migrated.
    pub fn committed(&self, oold: PhysAddr) -> Option<PhysAddr> {
        self.map.get(&oold).copied()
    }

    /// Number of committed migrations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no migration has committed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// (old, new) pairs sorted by old address — the checkpoint's
    /// deterministic form.
    pub fn sorted_committed(&self) -> Vec<(PhysAddr, PhysAddr)> {
        let mut out: Vec<(PhysAddr, PhysAddr)> = self.map.iter().map(|(&o, &n)| (o, n)).collect();
        out.sort_unstable();
        out
    }

    /// The pairs as the report's plain `HashMap`.
    pub fn into_hashmap(self) -> HashMap<PhysAddr, PhysAddr> {
        self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brahma::PartitionId;

    fn a(off: u16) -> PhysAddr {
        PhysAddr::new(PartitionId(1), 0, off)
    }

    #[test]
    fn commit_records_the_new_address() {
        let mut m = MigrationMap::new();
        assert!(m.is_empty());
        assert_eq!(m.committed(a(0)), None);
        m.commit(a(0), a(64));
        assert_eq!(m.committed(a(0)), Some(a(64)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn sorted_committed_is_deterministic() {
        let m = MigrationMap::from_committed([(a(128), a(192)), (a(0), a(64))]);
        assert_eq!(m.sorted_committed(), vec![(a(0), a(64)), (a(128), a(192))]);
        assert_eq!(m.into_hashmap().len(), 2);
    }
}
