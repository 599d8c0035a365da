//! Pages and page latches.
//!
//! A partition's storage is an array of fixed-size pages. The per-page
//! `RwLock` is the *latch* of the paper: a short-term, physical-consistency
//! primitive held only while an object's bytes are read or written — never
//! across a blocking lock acquisition. The fuzzy traversal of Section 3.4
//! reads objects under these latches and under nothing else.

use crate::config::PAGE_SIZE;
use crate::lockdep::{LockClass, RwLock};
use std::sync::Arc;

/// A fixed-size page of object storage.
pub(crate) struct Page {
    data: Box<[u8]>,
}

impl Page {
    /// Allocate a zeroed page.
    pub(crate) fn new() -> Self {
        Page {
            data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
        }
    }

    /// Immutable view of the page bytes.
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the page bytes.
    #[inline]
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Deep copy of the page contents (checkpointing).
    pub(crate) fn snapshot(&self) -> Vec<u8> {
        self.data.to_vec()
    }

    /// Overwrite the page contents (restart recovery).
    pub(crate) fn restore(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), PAGE_SIZE, "snapshot page size mismatch");
        self.data.copy_from_slice(bytes);
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

/// A latch-protected page handle, cloneable across threads.
pub(crate) type PageRef = Arc<RwLock<Page>>;

/// Create a fresh latch-protected page.
pub(crate) fn new_page() -> PageRef {
    Arc::new(RwLock::new(LockClass::PageLatch, 0, Page::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_is_zeroed() {
        let p = Page::new();
        assert_eq!(p.bytes().len(), PAGE_SIZE);
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut p = Page::new();
        p.bytes_mut()[10] = 42;
        let snap = p.snapshot();
        let mut q = Page::new();
        q.restore(&snap);
        assert_eq!(q.bytes()[10], 42);
    }

    #[test]
    fn latch_allows_concurrent_readers() {
        let p = new_page();
        let r1 = p.read();
        let (tx, rx) = std::sync::mpsc::channel();
        let second_read = std::thread::scope(|s| {
            s.spawn(|| {
                let _r2 = p.read();
                tx.send(()).unwrap();
            });
            let got = rx.recv_timeout(std::time::Duration::from_secs(10));
            drop(r1);
            got
        });
        assert!(second_read.is_ok(), "a second reader waited on the first");
        drop(p.write());
    }
}
