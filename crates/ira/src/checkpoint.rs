//! Checkpointing and crash-restart of a reorganization (Section 4.4).
//!
//! The paper offers two options after a failure during IRA: restart from
//! scratch, or checkpoint the step-one data structures (`Traversed_Objects`
//! and `Parent_Lists`) and, after recovery, rebuild the TRT from the log and
//! continue step two with the objects not yet migrated.
//!
//! [`IraCheckpoint`] is that checkpoint; [`crate::Reorg::resume_from`] is the
//! continue path. The TRT is reconstructed by the log analyzer from the
//! surviving pre-crash log plus the records recovery itself generated
//! (loser rollbacks log compensation records, whose reference effects
//! belong in the TRT like any other).

use crate::approx::{merge_ert_parents, trt_unvisited_loop};
use crate::driver::{IraConfig, IraError, IraPhases, IraReport, ReorgRun, Tally};
use crate::plan::RelocationPlan;
use crate::traversal::TraversalState;
use brahma::storage::codec::{put_addr, put_u64, Reader};
use brahma::wal::analyzer::rebuild_trt_seeded;
use brahma::{
    AddrMap, Database, Error as StoreError, LogRecord, Lsn, PartitionId, PhysAddr, RefAction,
    TrtTuple, TxnId,
};
use std::time::Instant;

/// A resumable snapshot of an in-flight reorganization.
#[derive(Debug, Clone)]
pub struct IraCheckpoint {
    pub partition: PartitionId,
    pub plan: RelocationPlan,
    /// Step-one state: traversed objects and parent lists; `state.order`
    /// is the step-two work list.
    pub state: TraversalState,
    /// Migrations already committed (old -> new).
    pub mapping: Vec<(PhysAddr, PhysAddr)>,
    /// Step-two progress cursor into `state.order`.
    pub pos: usize,
    /// Fuzzy TRT checkpoint (Section 4.5's optional optimization): tuples at
    /// checkpoint time plus the LSN reconstruction must replay from.
    pub trt_snapshot: Vec<TrtTuple>,
    pub trt_lsn: Lsn,
}

/// Version tag leading every encoded checkpoint. Version 1 also carried a
/// copy of `state.order` as a separate queue.
const CODEC_VERSION: u8 = 2;

impl IraCheckpoint {
    /// Serialize to a self-contained byte record — the durable form the
    /// driver hands to [`Database::save_reorg_checkpoint`], which logs it so
    /// [`brahma::storage::open`] hands it back after a crash. Hash
    /// containers are emitted in sorted order, so encoding is deterministic:
    /// the same checkpoint always produces the same bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![CODEC_VERSION];
        out.extend_from_slice(&self.partition.0.to_le_bytes());
        match self.plan {
            RelocationPlan::CompactInPlace => out.push(0),
            RelocationPlan::EvacuateTo(target) => {
                out.push(1);
                out.extend_from_slice(&target.0.to_le_bytes());
            }
        }
        put_u64(&mut out, self.pos as u64);
        put_u64(&mut out, self.trt_lsn);
        put_u64(&mut out, self.mapping.len() as u64);
        for (old, new) in &self.mapping {
            put_addr(&mut out, *old);
            put_addr(&mut out, *new);
        }
        put_addrs(&mut out, self.state.order.iter().copied());
        let mut visited: Vec<PhysAddr> = self.state.visited.iter().copied().collect();
        visited.sort_unstable();
        put_addrs(&mut out, visited.into_iter());
        let mut children: Vec<PhysAddr> = self.state.parents.keys().copied().collect();
        children.sort_unstable();
        put_u64(&mut out, children.len() as u64);
        for child in children {
            put_addr(&mut out, child);
            put_addrs(&mut out, self.state.parents_of(child).into_iter());
        }
        put_u64(&mut out, self.trt_snapshot.len() as u64);
        for t in &self.trt_snapshot {
            put_addr(&mut out, t.child);
            put_addr(&mut out, t.parent);
            put_u64(&mut out, t.tid.0);
            out.push(match t.action {
                RefAction::Insert => 0,
                RefAction::Delete => 1,
            });
        }
        out
    }

    /// Inverse of [`IraCheckpoint::encode`]. Truncated or malformed input
    /// yields [`brahma::Error::Corrupt`] — with a file backend the bytes
    /// come straight from disk, so a bad record must degrade to a recovery
    /// error, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = Reader::new(bytes, 0);
        let version = r.u8()?;
        if version != CODEC_VERSION {
            return Err(corrupt(
                0,
                format!("unknown IRA checkpoint version {version}"),
            ));
        }
        let partition = PartitionId(r.u16()?);
        let at = r.offset();
        let plan = match r.u8()? {
            0 => RelocationPlan::CompactInPlace,
            1 => RelocationPlan::EvacuateTo(PartitionId(r.u16()?)),
            tag => return Err(corrupt(at, format!("unknown relocation plan tag {tag}"))),
        };
        let pos = r.u64()? as usize;
        let trt_lsn = r.u64()?;
        let mut mapping = Vec::new();
        for _ in 0..r.u64()? {
            mapping.push((r.addr()?, r.addr()?));
        }
        let order = read_addrs(&mut r)?;
        let visited = read_addrs(&mut r)?.into_iter().collect();
        let mut parents = AddrMap::default();
        for _ in 0..r.u64()? {
            let child = r.addr()?;
            parents.insert(child, read_addrs(&mut r)?.into_iter().collect());
        }
        let mut trt_snapshot = Vec::new();
        for _ in 0..r.u64()? {
            let child = r.addr()?;
            let parent = r.addr()?;
            let tid = TxnId(r.u64()?);
            let at = r.offset();
            let action = match r.u8()? {
                0 => RefAction::Insert,
                1 => RefAction::Delete,
                tag => return Err(corrupt(at, format!("unknown TRT action tag {tag}"))),
            };
            trt_snapshot.push(TrtTuple {
                child,
                parent,
                tid,
                action,
            });
        }
        r.expect_end("IRA checkpoint")?;
        Ok(IraCheckpoint {
            partition,
            plan,
            state: TraversalState {
                order,
                visited,
                parents,
            },
            mapping,
            pos,
            trt_snapshot,
            trt_lsn,
        })
    }
}

fn corrupt(offset: u64, reason: String) -> StoreError {
    StoreError::Corrupt { offset, reason }
}

fn put_addrs(out: &mut Vec<u8>, addrs: impl ExactSizeIterator<Item = PhysAddr>) {
    put_u64(out, addrs.len() as u64);
    for a in addrs {
        put_addr(out, a);
    }
}

/// Inverse of [`put_addrs`].
fn read_addrs(r: &mut Reader<'_>) -> Result<Vec<PhysAddr>, StoreError> {
    let n = r.u64()? as usize;
    // Guard against a corrupt length overcommitting memory: each address
    // takes 8 bytes, so `n` can never exceed the remaining input.
    if n > r.remaining() / 8 {
        return Err(r.corrupt("truncated IRA checkpoint"));
    }
    (0..n).map(|_| r.addr()).collect()
}

/// Resume an interrupted reorganization on a *recovered* database:
/// crate-internal entry point behind `Reorg::resume_from`.
///
/// `pre_crash_log` is the surviving log of the crashed instance
/// ([`brahma::OpenOutcome::pre_crash_log`]); together with the recovered
/// database's own log it reconstructs the TRT window since the
/// reorganization started.
pub(crate) fn run_resume(
    db: &Database,
    ckpt: IraCheckpoint,
    pre_crash_log: &[LogRecord],
    config: &IraConfig,
) -> Result<IraReport, IraError> {
    let started = Instant::now();
    let partition = ckpt.partition;

    // Rebuild the TRT from its checkpoint plus the log since the checkpoint
    // (Section 4.4), including recovery's compensation records.
    let mut window: Vec<LogRecord> = pre_crash_log
        .iter()
        .filter(|r| r.lsn >= ckpt.trt_lsn)
        .cloned()
        .collect();
    window.extend(db.wal.records_from(0));
    let rebuilt = rebuild_trt_seeded(
        &window,
        partition,
        db.trt_purge_enabled(),
        &ckpt.trt_snapshot,
    );

    // Reopen the reorganization and seed its TRT with the reconstruction.
    let trt = db.start_reorg(partition)?;
    for tuple in rebuilt.dump() {
        trt.note(tuple.child, tuple.parent, tuple.tid, tuple.action);
    }

    let mut phases = IraPhases::default();
    let phase_start = Instant::now();
    let active = db.txns.active_snapshot();
    db.txns.wait_for_all(&active, config.quiesce_wait);
    phases.quiesce = phase_start.elapsed();

    // Extend step one: objects whose only reference was cut around the
    // crash may still need traversal (L2 loop), and newly discovered
    // objects need their ERT parents merged and a place in the queue.
    let phase_start = Instant::now();
    let mut state = ckpt.state;
    let mut mapping: AddrMap<PhysAddr> = ckpt.mapping.into_iter().collect();
    // Migrations committed *after* this checkpoint was saved are invisible
    // to it — a durable blob can be up to one batch stale — yet restart
    // recovery redid them: their new copies are live and their parents are
    // already repointed. Harvest them from the log window (a `Migrate`
    // whose old address is gone and whose new copy exists — a loser's
    // migration was undone, so its new copy fails the liveness check) and
    // fold them into the mapping, or the end-of-run sweep would free those
    // new copies as unvisited garbage, leaving dangling references.
    {
        let redone: Vec<(PhysAddr, PhysAddr)> = window
            .iter()
            .filter_map(|r| match r.payload {
                brahma::LogPayload::Migrate { old, new }
                    if old.partition() == partition && !mapping.contains_key(&old) =>
                {
                    Some((old, new))
                }
                _ => None,
            })
            .filter(|&(old, new)| {
                let old_gone = db
                    .partition(old.partition())
                    .map(|p| !p.contains_object(old))
                    .unwrap_or(true);
                let new_live = db
                    .partition(new.partition())
                    .map(|p| p.contains_object(new))
                    .unwrap_or(false);
                old_gone && new_live
            })
            .collect();
        // A live migration also rewires the parent bookkeeping of its
        // still-unmigrated children (`state.replace_parent` in
        // `move_object`) — volatile state the kill discarded. Redo that
        // fixup for the harvested migrations, or `find_exact_parents` for
        // such a child would look only at the parent's dead old address,
        // conclude the child is unreferenced, and let the end-of-run sweep
        // free a live object.
        for &(old, new) in &redone {
            if let Ok(view) = db.raw_read(new) {
                for child in view.refs {
                    if child.partition() == partition && child != new {
                        state.replace_parent(child, old, new);
                    }
                }
            }
        }
        mapping.extend(redone);
    }
    // The crashed run's new copies already sit at their final locations,
    // but concurrent pointer rewrites touching them (e.g. a walker's
    // same-value `set_ref` on a rewritten parent) land in the rebuilt TRT.
    // Mark them visited, or the L2 loop would re-discover them as fresh
    // objects and migrate them a second time.
    state.visited.extend(mapping.values().copied());
    // Newly discovered objects join the end of the queue, `state.order`.
    let before = state.order.len();
    trt_unvisited_loop(db, partition, &mut state);
    merge_ert_parents(db, partition, &mut state, before);
    phases.traversal = phase_start.elapsed();

    let run = ReorgRun {
        db,
        partition,
        plan: ckpt.plan,
        config,
        state,
        pos: ckpt.pos,
        mapping,
        tally: Tally::default(),
        phases,
        started,
    };
    run.execute()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Reorg;
    use crate::site;
    use brahma::{FaultAction, FaultPlan, FaultRule, NewObject, StoreConfig};
    use std::path::PathBuf;

    /// A fresh file-backed store in its own scratch directory; dropping the
    /// database is the crash, `brahma::storage::open(config)` the restart.
    fn fresh_store(tag: &str) -> (Database, StoreConfig, PathBuf) {
        let dir = std::env::temp_dir().join(format!("ira-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig {
            data_dir: Some(dir.clone()),
            ..StoreConfig::default()
        };
        let db = brahma::storage::open(config.clone()).unwrap().db;
        (db, config, dir)
    }

    /// Arm a crash at the `n`-th batch boundary of the next run.
    fn crash_at_batch(db: &Database, n: u64) {
        db.fault
            .arm(FaultPlan::new(n).with(FaultRule::nth(site::BATCH, n, FaultAction::Crash)));
    }

    /// Full crash/recover/resume cycle: reorganize with fault injection,
    /// crash the database, recover from the checkpoint+log, resume, and
    /// verify the result is a complete, consistent reorganization.
    #[test]
    fn crash_mid_reorg_then_resume_completes() {
        let (db, config, dir) = fresh_store("resume");
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        // Build a chain of 10 objects in p1 anchored from p0.
        let mut prev: Option<PhysAddr> = None;
        let mut chain = Vec::new();
        for _ in 0..10 {
            let mut t = db.begin();
            let refs = prev.map(|p| vec![p]).unwrap_or_default();
            let a = t
                .create_object(
                    p1,
                    NewObject {
                        tag: 1,
                        refs,
                        ref_cap: 4,
                        payload: b"link".to_vec(),
                        payload_cap: 8,
                    },
                )
                .unwrap();
            t.commit().unwrap();
            chain.push(a);
            prev = Some(a);
        }
        let mut t = db.begin();
        let anchor = t
            .create_object(p0, NewObject::exact(0, vec![prev.unwrap()], vec![]))
            .unwrap();
        t.commit().unwrap();

        // Brahma-level checkpoint before the reorganization.
        db.checkpoint_durable(1).unwrap();

        // Run IRA with a crash after 4 migrations (batches of one).
        crash_at_batch(&db, 4);
        let err = Reorg::on(&db, p1).run().unwrap_err();
        let IraError::SimulatedCrash(ira_ckpt) = err else {
            panic!("expected simulated crash")
        };
        assert_eq!(ira_ckpt.mapping.len(), 4);

        // Crash the database and reopen it. The log carries the driver's
        // durable checkpoint record, and the open hands it back with the
        // interrupted partition.
        drop(db);
        let out = brahma::storage::open(config).unwrap();
        assert_eq!(out.interrupted_reorgs, vec![p1]);
        assert_eq!(out.reorg_checkpoints.len(), 1);
        assert_eq!(out.reorg_checkpoints[0].0, p1);
        assert_eq!(
            out.reorg_checkpoints[0].1,
            ira_ckpt.encode(),
            "the durable record is the returned checkpoint"
        );
        let recovered = IraCheckpoint::decode(&out.reorg_checkpoints[0].1).unwrap();
        let db = &out.db;

        // Resume from the recovered (deserialized) IRA checkpoint.
        let outcome = Reorg::on(db, p1)
            .resume_from(recovered, &out.pre_crash_log)
            .run()
            .unwrap();
        // The mapping accumulates the 4 pre-crash migrations plus the 6
        // performed on resume; none of the survivors migrate twice.
        assert_eq!(outcome.migrated(), 10);

        // Every chain object moved, the anchor points at a live object, and
        // the database is fully consistent.
        for old in &chain {
            assert!(db.raw_read(*old).is_err(), "old copy {old} must be gone");
        }
        assert_eq!(db.partition(p1).unwrap().object_count(), 10);
        let _ = anchor;
        brahma::sweep::assert_database_consistent(db);
        drop(out);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The byte codec is deterministic and lossless, and rejects malformed
    /// input instead of panicking: every truncation and every one-byte
    /// change of an encoded checkpoint is tried.
    #[test]
    fn checkpoint_encoding_roundtrips() {
        let p1 = PartitionId(1);
        let a = |page, off| PhysAddr::new(p1, page, off);
        let mut state = TraversalState::default();
        state.order = vec![a(0, 0), a(0, 64), a(1, 0)];
        state.visited = state.order.iter().copied().collect();
        state.visited.insert(a(7, 0)); // stale seed, never ordered
        state.add_parent(a(0, 64), a(0, 0));
        state.add_parent(a(1, 0), a(0, 0));
        state.add_parent(a(1, 0), a(0, 64));
        let ckpt = IraCheckpoint {
            partition: p1,
            plan: RelocationPlan::EvacuateTo(PartitionId(2)),
            state,
            mapping: vec![(a(0, 0), PhysAddr::new(PartitionId(2), 0, 0))],
            pos: 1,
            trt_snapshot: vec![TrtTuple {
                child: a(0, 64),
                parent: PhysAddr::new(PartitionId(0), 3, 128),
                tid: TxnId(42),
                action: RefAction::Delete,
            }],
            trt_lsn: 99,
        };
        let bytes = ckpt.encode();
        let back = IraCheckpoint::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes, "canonical roundtrip");
        assert_eq!(back.partition, ckpt.partition);
        assert_eq!(back.plan, ckpt.plan);
        assert_eq!(back.mapping, ckpt.mapping);
        assert_eq!(back.pos, ckpt.pos);
        assert_eq!(back.trt_lsn, ckpt.trt_lsn);
        assert_eq!(back.trt_snapshot.len(), 1);
        assert_eq!(back.state.order, ckpt.state.order);
        assert_eq!(back.state.visited, ckpt.state.visited);
        assert_eq!(back.state.parents, ckpt.state.parents);

        // Every strict prefix, the empty one included, is a truncated
        // record; every one-byte change decodes or fails, never panics.
        for len in 0..bytes.len() {
            assert!(
                matches!(IraCheckpoint::decode(&bytes[..len]), Err(StoreError::Corrupt { .. })),
                "prefix of {len} bytes"
            );
        }
        for at in 0..bytes.len() {
            for mask in 1..=u8::MAX {
                let mut flipped = bytes.clone();
                flipped[at] ^= mask;
                let _ = IraCheckpoint::decode(&flipped);
            }
        }
        let mut bad_version = bytes.clone();
        bad_version[0] = 0xFF;
        assert!(IraCheckpoint::decode(&bad_version).is_err());
        // A version-1 blob — the same fields plus a second copy of the queue
        // after `trt_lsn` — is corrupt input, not a silently misread layout.
        let head = 1 + 2 + 3 + 8 + 8; // version, partition, EvacuateTo(p2), pos, trt_lsn
        let mut v1 = vec![1];
        v1.extend_from_slice(&bytes[1..head]);
        put_addrs(&mut v1, ckpt.state.order.iter().copied());
        v1.extend_from_slice(&bytes[head..]);
        assert!(matches!(
            IraCheckpoint::decode(&v1),
            Err(StoreError::Corrupt { .. })
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(IraCheckpoint::decode(&trailing).is_err());
    }

    /// Restarting from scratch (the paper's simple option) also works: the
    /// recovered database simply runs a fresh reorganization.
    #[test]
    fn restart_from_scratch_after_crash() {
        let (db, config, dir) = fresh_store("scratch");
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let mut t = db.begin();
        let o = t
            .create_object(p1, NewObject::exact(1, vec![], b"x".to_vec()))
            .unwrap();
        t.commit().unwrap();
        let mut t = db.begin();
        let _anchor = t
            .create_object(p0, NewObject::exact(0, vec![o], vec![]))
            .unwrap();
        t.commit().unwrap();

        db.checkpoint_durable(1).unwrap();
        // Crash after the single migration committed.
        crash_at_batch(&db, 1);
        let _ = Reorg::on(&db, p1).run().unwrap_err();
        drop(db);
        let db = brahma::storage::open(config).unwrap().db;

        // Fresh run on the recovered database.
        let outcome = Reorg::on(&db, p1).run().unwrap();
        // The surviving (already migrated) object migrates again; that is
        // allowed — migration is idempotent at the graph level.
        assert_eq!(outcome.migrated(), 1);
        brahma::sweep::assert_database_consistent(&db);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
