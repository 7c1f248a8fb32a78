//! `ByteView`: a cheaply cloneable, zero-copy view into a shared byte
//! buffer (the role `bytes::Bytes` plays in networked Rust services).
//!
//! The object store hands out `ByteView`s instead of copied `Vec<u8>`s.
//! Over an in-memory object the view borrows the stored bytes, so a
//! loader reading a multi-megabyte record prefix never duplicates them;
//! over a file-backed object it owns the buffer the positional read
//! filled, and that buffer goes back to the store's free list when
//! the last clone or slice of the view drops — a steady-state epoch
//! allocates no read buffers at all.

use parking_lot::Mutex;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Read buffers an `ObjectStore`'s free list keeps parked at most, which
/// bounds `ObjectStore::resident_bytes` for registered files at
/// `POOL_CAP` × the largest read. An epoch holds about
/// `prefetch_records` + decode-worker buffers at once (8 + a few by
/// default); beyond the cap a returning buffer is simply freed.
pub const POOL_CAP: usize = 16;

/// A capped free list of read buffers, shared between an `ObjectStore`
/// and the [`ByteView`]s over its file-backed reads.
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
}

impl BufferPool {
    /// A zero-filled buffer of exactly `len` bytes: a parked one when
    /// there is any, a fresh allocation otherwise. `reserve_exact` keeps
    /// a recycled buffer's capacity at the largest length it ever
    /// served, so parked bytes are bounded by `POOL_CAP` × largest read.
    pub(crate) fn take(&self, len: usize) -> Vec<u8> {
        let mut buf = self.free.lock().pop().unwrap_or_default();
        buf.clear();
        buf.reserve_exact(len);
        buf.resize(len, 0);
        buf
    }

    fn give_back(&self, buf: Vec<u8>) {
        let mut free = self.free.lock();
        if free.len() < POOL_CAP {
            free.push(buf);
        }
    }

    /// Bytes held by parked buffers (their capacities).
    pub(crate) fn parked_bytes(&self) -> u64 {
        self.free.lock().iter().map(|b| b.capacity() as u64).sum()
    }
}

/// The allocation behind one or more [`ByteView`]s: the bytes, and the
/// pool they return to when the last view drops (`None` for stored
/// in-memory objects and caller-owned vectors, which are just freed).
#[derive(Debug)]
pub(crate) struct Buffer {
    bytes: Vec<u8>,
    home: Option<Arc<BufferPool>>,
}

impl Buffer {
    /// A buffer that is freed, not recycled, when its last view drops.
    pub(crate) fn owned(bytes: Vec<u8>) -> Self {
        Self { bytes, home: None }
    }

    /// A buffer taken from `home` that returns there on drop.
    pub(crate) fn pooled(bytes: Vec<u8>, home: Arc<BufferPool>) -> Self {
        Self { bytes, home: Some(home) }
    }

    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            home.give_back(std::mem::take(&mut self.bytes));
        }
    }
}

/// An immutable, reference-counted view of a byte range.
///
/// Cloning is O(1) (an `Arc` bump); slicing narrows the window without
/// touching the underlying buffer. Dereferences to `&[u8]` so it can be
/// passed anywhere a byte slice is expected. A view keeps its buffer
/// alive — and out of the store's free list — for as long as it, or any
/// clone or slice of it, exists.
///
/// ```
/// use pcr_storage::ByteView;
///
/// let view = ByteView::from_vec(vec![1, 2, 3, 4, 5]);
/// let tail = view.slice(2, 5);
/// assert_eq!(&tail[..], &[3, 4, 5]);
/// assert_eq!(view.len(), 5); // original window unchanged
/// ```
#[derive(Clone)]
pub struct ByteView {
    buf: Arc<Buffer>,
    start: usize,
    end: usize,
}

impl ByteView {
    /// Wraps an owned buffer (single allocation; no copy).
    pub fn from_vec(v: Vec<u8>) -> Self {
        Self::whole(Buffer::owned(v))
    }

    /// Views all of `buf`.
    pub(crate) fn whole(buf: Buffer) -> Self {
        let end = buf.len();
        Self { buf: Arc::new(buf), start: 0, end }
    }

    /// Views `[start, end)` of an already shared buffer (no copy).
    ///
    /// The range is clamped to the buffer length.
    pub(crate) fn from_shared(buf: Arc<Buffer>, start: usize, end: usize) -> Self {
        let end = end.min(buf.len());
        let start = start.min(end);
        Self { buf, start, end }
    }

    /// The viewed bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf.bytes[self.start..self.end]
    }

    /// Length of the view in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A narrower view of `[start, end)` *relative to this view* (clamped).
    /// Shares the same underlying buffer; no bytes move.
    pub fn slice(&self, start: usize, end: usize) -> Self {
        let abs_end = (self.start + end).min(self.end);
        let abs_start = (self.start + start).min(abs_end);
        Self { buf: Arc::clone(&self.buf), start: abs_start, end: abs_end }
    }

    /// Copies the viewed bytes into a fresh `Vec` (the one deliberate copy,
    /// for callers that need ownership).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for ByteView {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for ByteView {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for ByteView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ByteView({} bytes @ {}..{})", self.len(), self.start, self.end)
    }
}

impl PartialEq for ByteView {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ByteView {}

impl PartialEq<[u8]> for ByteView {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for ByteView {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for ByteView {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl From<Vec<u8>> for ByteView {
    fn from(v: Vec<u8>) -> Self {
        Self::from_vec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_and_slice_share_storage() {
        let backing = Arc::new(Buffer::owned((0u8..=99).collect()));
        let v = ByteView::from_shared(Arc::clone(&backing), 10, 20);
        assert_eq!(v.len(), 10);
        assert_eq!(v[0], 10);
        let s = v.slice(3, 7);
        assert_eq!(s, vec![13, 14, 15, 16]);
        // No copies: everything points at the same allocation.
        assert_eq!(Arc::strong_count(&backing), 3);
    }

    #[test]
    fn clamping_out_of_range() {
        let v = ByteView::from_vec(vec![1, 2, 3]);
        assert_eq!(v.slice(2, 100), vec![3]);
        assert!(v.slice(5, 9).is_empty());
        let b = Arc::new(Buffer::owned(vec![9u8; 4]));
        assert_eq!(ByteView::from_shared(b, 6, 8).len(), 0);
    }

    #[test]
    fn deref_and_eq() {
        let v = ByteView::from_vec(vec![5, 6, 7]);
        let as_slice: &[u8] = &v;
        assert_eq!(as_slice, &[5, 6, 7]);
        assert_eq!(v, [5u8, 6, 7]);
        assert_eq!(v.to_vec(), vec![5, 6, 7]);
    }

    #[test]
    fn pooled_buffer_returns_only_when_the_last_view_drops() {
        let pool = Arc::new(BufferPool::default());
        let mut bytes = pool.take(8);
        bytes.copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let view = ByteView::whole(Buffer::pooled(bytes, Arc::clone(&pool)));
        let tail = view.slice(4, 8);
        let copy = view.clone();
        drop(view);
        drop(copy);
        // A slice is still alive: nothing parked, and a later take gets
        // other memory, so the slice keeps reading its own bytes.
        assert_eq!(pool.parked_bytes(), 0);
        let mut other = pool.take(8);
        other.fill(0xEE);
        assert_eq!(tail, [5u8, 6, 7, 8]);
        drop(tail);
        assert_eq!(pool.parked_bytes(), 8);
        // The parked buffer is the one handed out next, zeroed.
        assert_eq!(pool.take(4), vec![0u8; 4]);
        assert_eq!(pool.parked_bytes(), 0);
    }

    #[test]
    fn pool_parks_at_most_its_cap() {
        let pool = Arc::new(BufferPool::default());
        let views: Vec<ByteView> = (0..POOL_CAP + 5)
            .map(|_| ByteView::whole(Buffer::pooled(pool.take(32), Arc::clone(&pool))))
            .collect();
        drop(views);
        assert_eq!(pool.parked_bytes(), (POOL_CAP * 32) as u64);
    }
}
