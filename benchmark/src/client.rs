//! The benchmark's own load generator: a closed-loop Section 5.2
//! random-walk client written against `brahma`'s public `Database`/`Txn`
//! API, so the load is fixed here and every call into a layer is a place
//! to hang a span.
//!
//! One transaction: pick a home partition, enter through its root object
//! (S lock + `read_refs`), then take `ops_per_txn` hops — lock the current
//! object (X with `update_prob`, else S), read its references, on an X hop
//! overwrite the payload and with `ref_update_prob` repoint the extra edge
//! at an object visited earlier — and commit. A retryable conflict aborts
//! the attempt and the transaction is retried at once; its response time
//! spans all attempts.

use crate::stats::{fnv_fold, FNV_OFFSET};
use crate::trace::{SpanBuf, SpanName};
use brahma::{Database, Error, LockMode, PhysAddr};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use workload::GraphInfo;

/// xorshift64* — the benchmark's only source of randomness, so a seed
/// fixes the op sequence independently of any library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // splitmix64 step: decorrelates small consecutive seeds and never
        // yields the all-zero state xorshift cannot leave.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// The client mix of one workload.
#[derive(Debug, Clone, Copy)]
pub struct ClientMix {
    pub update_prob: f64,
    pub ref_update_prob: f64,
    pub ops_per_txn: usize,
    pub payload_size: usize,
}

/// Response times are kept for every this-many-th transaction, so that the
/// benchmark's own memory stays small beside the store's and does not grow
/// with the throughput it measures. Counts, the maximum and the stall time
/// cover every transaction.
pub const LATENCY_EVERY: u64 = 4;
/// A transaction slower than this counts as a stall.
pub const STALL_NS: u64 = 5_000_000;

/// What one client thread did in one phase.
pub struct ClientOut {
    pub committed: u64,
    /// Commits in each whole slice of the phase.
    pub slice_commits: Vec<u32>,
    /// Response time over all attempts of every [`LATENCY_EVERY`]-th
    /// transaction, ns (saturating at ~4.29 s).
    pub lat_ns: Vec<u32>,
    pub max_lat_ns: u64,
    /// Time spent inside transactions slower than [`STALL_NS`].
    pub stalled_ns: u64,
    pub aborted_attempts: u64,
    pub errors: Vec<String>,
    /// Digest of the op sequence (homes, modes, child choices, repoint
    /// targets); folded only in traced runs, which is where the
    /// determinism test reads it.
    pub op_hash: u64,
}

impl ClientOut {
    pub fn new(slices: usize, expected_txns: usize) -> Self {
        ClientOut {
            committed: 0,
            slice_commits: vec![0; slices],
            lat_ns: Vec::with_capacity(expected_txns / LATENCY_EVERY as usize + 1),
            max_lat_ns: 0,
            stalled_ns: 0,
            aborted_attempts: 0,
            errors: Vec::new(),
            op_hash: FNV_OFFSET,
        }
    }

    #[inline]
    fn fold(&mut self, v: u64) {
        self.op_hash = fnv_fold(self.op_hash, v);
    }
}

/// Trace every this-many-th transaction of a traced run.
pub const TRACE_EVERY: u64 = 16;

/// What the clients run against.
pub struct Load<'a> {
    pub db: &'a Database,
    pub info: &'a GraphInfo,
    pub mix: ClientMix,
}

/// When a phase's clients stop, and how its slices are counted.
pub struct PhaseClock<'a> {
    pub stop: &'a AtomicBool,
    /// Stop after this many commits even if `stop` is never set.
    pub max_txns: u64,
    pub start: Instant,
    pub slice_ns: u64,
}

/// Outcome of one attempt.
enum Attempt {
    Committed,
    Conflict,
}

/// One client: the state that lives across the phases of a run.
pub struct Client {
    rng: Rng,
    pub spans: SpanBuf,
    /// The open transaction span of a sampled transaction.
    root: Option<u32>,
    payload: Vec<u8>,
    visited: Vec<PhysAddr>,
}

/// Run `f`, recorded as a child span of the open transaction span when this
/// transaction is sampled. With `TRACE == false` this is `f()`.
#[inline(always)]
fn call<const TRACE: bool, R>(
    spans: &mut SpanBuf,
    root: Option<u32>,
    name: SpanName,
    f: impl FnOnce() -> R,
) -> R {
    if TRACE {
        if let Some(root) = root {
            let start = spans.now();
            let r = f();
            let end = spans.now();
            spans.child(root, name, start, end);
            return r;
        }
    }
    f()
}

impl Client {
    pub fn new(seed: u64, spans: SpanBuf, mix: &ClientMix) -> Self {
        Client {
            rng: Rng::new(seed),
            spans,
            root: None,
            payload: vec![0; mix.payload_size],
            visited: Vec::with_capacity(mix.ops_per_txn),
        }
    }

    fn attempt<const TRACE: bool>(
        &mut self,
        load: &Load,
        out: &mut ClientOut,
    ) -> Result<Attempt, Error> {
        let Client {
            rng,
            spans,
            root,
            payload,
            visited,
        } = self;
        let (db, info, mix, root) = (load.db, load.info, &load.mix, *root);
        // Abort and report a conflict on a retryable error; pass others up.
        macro_rules! or_conflict {
            ($txn:ident, $e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) if e.is_retryable_conflict() => {
                        call::<TRACE, _>(spans, root, SpanName::Abort, || $txn.abort());
                        return Ok(Attempt::Conflict);
                    }
                    Err(e) => return Err(e),
                }
            };
        }

        let mut txn = call::<TRACE, _>(spans, root, SpanName::Begin, || db.begin());
        // The root object's address is re-read every transaction, as a
        // client that keeps no state between transactions would.
        let roots = call::<TRACE, _>(spans, root, SpanName::Roots, || db.roots());
        let home = rng.below(info.data_partitions.len());
        let root_obj = roots[info.root_index[home]];
        or_conflict!(
            txn,
            call::<TRACE, _>(spans, root, SpanName::LockS, || txn
                .lock(root_obj, LockMode::Shared))
        );
        let cluster_roots =
            call::<TRACE, _>(spans, root, SpanName::ReadRefs, || txn.read_refs(root_obj))?;
        let pick = rng.below(cluster_roots.len());
        let mut current = cluster_roots[pick];
        if TRACE {
            out.fold(home as u64);
            out.fold(pick as u64);
        }

        visited.clear();
        for _ in 0..mix.ops_per_txn {
            let exclusive = rng.chance(mix.update_prob);
            let (mode, lock_span) = if exclusive {
                (LockMode::Exclusive, SpanName::LockX)
            } else {
                (LockMode::Shared, SpanName::LockS)
            };
            or_conflict!(
                txn,
                call::<TRACE, _>(spans, root, lock_span, || txn.lock(current, mode))
            );
            let refs =
                call::<TRACE, _>(spans, root, SpanName::ReadRefs, || txn.read_refs(current))?;
            if TRACE {
                out.fold(u64::from(exclusive));
            }
            if exclusive {
                rng.fill(payload);
                or_conflict!(
                    txn,
                    call::<TRACE, _>(spans, root, SpanName::SetPayload, || txn
                        .set_payload(current, payload))
                );
                // Reference churn: repoint the extra edge (the last
                // reference) at an object already in local memory — the
                // pointer delete + insert the TRT exists for. Tree edges are
                // never touched, so every object stays reachable.
                if !visited.is_empty() && !refs.is_empty() && rng.chance(mix.ref_update_prob) {
                    let target = rng.below(visited.len());
                    if TRACE {
                        out.fold(target as u64);
                    }
                    or_conflict!(
                        txn,
                        call::<TRACE, _>(spans, root, SpanName::SetRef, || txn.set_ref(
                            current,
                            refs.len() - 1,
                            visited[target]
                        ))
                    );
                }
            }
            visited.push(current);
            if refs.is_empty() {
                break;
            }
            let next = rng.below(refs.len());
            if TRACE {
                out.fold(next as u64);
            }
            current = refs[next];
        }
        match call::<TRACE, _>(spans, root, SpanName::Commit, || txn.commit()) {
            Ok(()) => Ok(Attempt::Committed),
            Err(e) if e.is_retryable_conflict() => Ok(Attempt::Conflict),
            Err(e) => Err(e),
        }
    }

    /// Submit transactions back to back until the clock stops the phase.
    pub fn run<const TRACE: bool>(&mut self, load: &Load, clock: &PhaseClock, out: &mut ClientOut) {
        let mut txn_no = 0u64;
        // ordering: stop flag publishes nothing; the join is the sync point
        while txn_no < clock.max_txns && !clock.stop.load(Ordering::Relaxed) {
            let t0 = Instant::now();
            if TRACE && txn_no.is_multiple_of(TRACE_EVERY) {
                let start = t0.duration_since(self.spans.epoch).as_nanos() as u64;
                self.root = self.spans.open_root(SpanName::ClientTxn, txn_no, start);
            }
            loop {
                match self.attempt::<TRACE>(load, out) {
                    Ok(Attempt::Committed) => break,
                    Ok(Attempt::Conflict) => out.aborted_attempts += 1,
                    Err(e) => {
                        out.errors.push(e.to_string());
                        return;
                    }
                }
            }
            let t1 = Instant::now();
            if let Some(root) = self.root.take() {
                let end = t1.duration_since(self.spans.epoch).as_nanos() as u64;
                self.spans.close_root(root, end);
            }
            let lat_ns = t1.duration_since(t0).as_nanos() as u64;
            out.committed += 1;
            let slice = t1.duration_since(clock.start).as_nanos() as u64 / clock.slice_ns;
            if let Some(count) = out.slice_commits.get_mut(slice as usize) {
                *count += 1;
            }
            out.max_lat_ns = out.max_lat_ns.max(lat_ns);
            if lat_ns > STALL_NS {
                out.stalled_ns += lat_ns;
            }
            if txn_no.is_multiple_of(LATENCY_EVERY) {
                out.lat_ns.push(lat_ns.min(u64::from(u32::MAX)) as u32);
            }
            txn_no += 1;
        }
    }
}
