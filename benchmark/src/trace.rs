//! Outside-in spans: one record per call the benchmark makes into a layer.
//!
//! Spans live in a pre-allocated per-thread buffer and are written out as
//! JSON lines when the run ends. A span's *self time* is its duration minus
//! the part its child spans cover; summed over a transaction's spans the
//! self times equal the transaction's wall time, which is what lets the
//! per-layer shares add up to the end-to-end number.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanName {
    /// One logical client transaction, all attempts included. Its self
    /// time is `client.self`: what the call spans below do not cover.
    ClientTxn,
    Begin,
    Roots,
    LockS,
    LockX,
    ReadRefs,
    SetPayload,
    SetRef,
    Commit,
    Abort,
    /// One `Reorg::run()` over one partition.
    ReorgPass,
}

impl SpanName {
    pub const CLIENT_CALLS: [SpanName; 9] = [
        SpanName::Begin,
        SpanName::Roots,
        SpanName::LockS,
        SpanName::LockX,
        SpanName::ReadRefs,
        SpanName::SetPayload,
        SpanName::SetRef,
        SpanName::Commit,
        SpanName::Abort,
    ];

    /// The span's name in the trace file.
    pub fn label(self) -> &'static str {
        match self {
            SpanName::ClientTxn => "client.txn",
            SpanName::Begin => "handle.begin",
            SpanName::Roots => "db.roots",
            SpanName::LockS => "lock.acquire_s",
            SpanName::LockX => "lock.acquire_x",
            SpanName::ReadRefs => "handle.read_refs",
            SpanName::SetPayload => "handle.set_payload",
            SpanName::SetRef => "handle.set_ref",
            SpanName::Commit => "handle.commit",
            SpanName::Abort => "handle.abort",
            SpanName::ReorgPass => "reorg.pass",
        }
    }

    /// The per-layer metric prefix (`handle.commit.share`, ...): the span's
    /// name, except that a transaction's self time is reported as
    /// `client.self`.
    pub fn metric_prefix(self) -> &'static str {
        match self {
            SpanName::ClientTxn => "client.self",
            other => other.label(),
        }
    }
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same buffer) of the span that caused this one.
    pub parent: u32,
    /// Transaction number for client spans, pass number for `reorg.pass`;
    /// spans of one request share it.
    pub txn: u64,
}

/// A fixed-capacity span buffer owned by one thread. Recording never
/// allocates: once the buffer cannot hold another whole transaction,
/// further transactions are not recorded.
pub struct SpanBuf {
    pub spans: Vec<Span>,
    pub epoch: Instant,
}

/// Room a client transaction may need: the root span, 3 entry spans,
/// 8 hops of up to 4 spans, a commit, and retried attempts on top.
const TXN_HEADROOM: usize = 128;

impl SpanBuf {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        SpanBuf {
            spans: Vec::with_capacity(capacity),
            epoch,
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a root span; `None` when the buffer is too full to take a whole
    /// transaction.
    pub fn open_root(&mut self, name: SpanName, txn: u64, start_ns: u64) -> Option<u32> {
        if self.spans.len() + TXN_HEADROOM > self.spans.capacity() {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: NO_PARENT,
            txn,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn close_root(&mut self, root: u32, end_ns: u64) {
        self.spans[root as usize].end_ns = end_ns;
    }

    #[inline]
    pub fn child(&mut self, root: u32, name: SpanName, start_ns: u64, end_ns: u64) {
        if self.spans.len() < self.spans.capacity() {
            let txn = self.spans[root as usize].txn;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: root,
                txn,
            });
        }
    }
}

/// Self time of every span: duration minus the summed duration of its
/// direct children (children never overlap — one thread records them in
/// sequence).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub self_ns: u64,
    /// Median self time of one span.
    pub ns_p50: f64,
}

/// Per-name totals over any number of thread buffers.
pub fn summarize<'a>(bufs: impl Iterator<Item = &'a SpanBuf>) -> BTreeMap<SpanName, LayerTime> {
    let mut samples: BTreeMap<SpanName, Vec<u32>> = BTreeMap::new();
    let mut out: BTreeMap<SpanName, LayerTime> = BTreeMap::new();
    for buf in bufs {
        for (span, own) in buf.spans.iter().zip(self_times(&buf.spans)) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.self_ns += own;
            samples
                .entry(span.name)
                .or_default()
                .push(own.min(u64::from(u32::MAX)) as u32);
        }
    }
    for (name, mut v) in samples {
        v.sort_unstable();
        out.get_mut(&name).expect("same keys").ns_p50 = stats::percentile_sorted(&v, 0.5);
    }
    out
}

/// Spans of one thread that reach the trace file: the metrics use every
/// span recorded, the file keeps a readable prefix.
pub const FILE_SPANS_PER_THREAD: usize = 1 << 16;

/// Write the first [`FILE_SPANS_PER_THREAD`] spans of each thread, one JSON
/// object per line.
pub fn write_jsonl(path: &std::path::Path, threads: &[(&str, &SpanBuf)]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, buf) in threads {
        for (i, s) in buf.spans.iter().take(FILE_SPANS_PER_THREAD).enumerate() {
            write!(
                w,
                "{{\"thread\":\"{thread}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name.label(),
                s.start_ns,
                s.end_ns
            )?;
            if s.parent == NO_PARENT {
                write!(w, "null")?;
            } else {
                write!(w, "{}", s.parent)?;
            }
            writeln!(w, ",\"txn\":{}}}", s.txn)?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            txn: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 with siblings 10..30 and 40..70; the second sibling
        // has a nested child 50..60.
        let spans = [
            span(SpanName::ClientTxn, 0, 100, NO_PARENT),
            span(SpanName::LockS, 10, 30, 0),
            span(SpanName::Commit, 40, 70, 0),
            span(SpanName::ReadRefs, 50, 60, 2),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![50, 20, 20, 10]);
        // Self times of one request add up to its wall time.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn summary_totals_by_name_across_buffers() {
        let epoch = Instant::now();
        let mut a = SpanBuf::new(epoch, 1024);
        let mut b = SpanBuf::new(epoch, 1024);
        for (buf, lock_ns) in [(&mut a, 10), (&mut b, 30)] {
            let root = buf.open_root(SpanName::ClientTxn, 7, 0).unwrap();
            buf.child(root, SpanName::LockS, 0, lock_ns);
            buf.child(root, SpanName::LockS, 50, 50 + lock_ns);
            buf.close_root(root, 100);
        }
        let sum = summarize([&a, &b].into_iter());
        assert_eq!(sum[&SpanName::LockS].count, 4);
        assert_eq!(sum[&SpanName::LockS].self_ns, 80);
        assert_eq!(sum[&SpanName::LockS].ns_p50, 10.0);
        assert_eq!(sum[&SpanName::ClientTxn].self_ns, 200 - 80);
        assert_eq!(a.spans[1].txn, 7, "children carry the root's request id");
    }

    #[test]
    fn full_buffer_drops_whole_transactions() {
        let mut buf = SpanBuf::new(Instant::now(), TXN_HEADROOM + 1);
        assert!(buf.open_root(SpanName::ClientTxn, 0, 0).is_some());
        buf.child(0, SpanName::Begin, 0, 1);
        assert!(buf.open_root(SpanName::ClientTxn, 1, 2).is_none());
        assert_eq!(buf.spans.len(), 2);
    }
}
