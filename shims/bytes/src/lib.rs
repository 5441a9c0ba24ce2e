//! Minimal API-compatible subset of the `bytes` crate for offline builds.
//!
//! [`Bytes`] is an immutable, cheaply clonable byte buffer backed by `Arc<Vec<u8>>` plus a
//! `[start, end)` window. Cloning bumps a refcount; no byte data is copied. [`Bytes::slice`]
//! returns a narrowed view sharing the same allocation. This mirrors the two properties the
//! workspace relies on: the quorum protocols hand one `Bytes` handle per replica / per
//! codeword symbol without duplicating the payload, and the erasure encoder carves all `n`
//! codeword symbols out of a single contiguous encode buffer without copying.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer (a view into a shared allocation).
///
/// The storage is `Arc<Vec<u8>>` rather than `Arc<[u8]>` so that `Bytes::from(Vec<u8>)`
/// is zero-copy (mirroring the real crate): adopting a `Vec` allocates only the small Arc
/// header instead of copying the payload into a fresh slice allocation — which, for
/// buffers past the allocator's mmap threshold, also costs a page-fault storm per call.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

/// Shared empty storage so [`Bytes::new`] never allocates.
static EMPTY: std::sync::OnceLock<Arc<Vec<u8>>> = std::sync::OnceLock::new();

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        let data = Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())));
        Bytes { data, start: 0, end: 0 }
    }

    /// Copies `src` into a freshly allocated buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes::from(src.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copies the contents into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Returns a sub-view of `self` for the given range **without copying**: the returned
    /// `Bytes` shares the same allocation. Panics if the range is out of bounds, matching
    /// the real crate's behavior.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "range start must not be greater than end");
        assert!(end <= len, "range end out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes { data: Arc::new(v), start: 0, end }
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Bytes::from(v.into_vec())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == &other[..]
    }
}

impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.data, &b.data));
    }

    #[test]
    fn conversions_and_eq() {
        let s = Bytes::from("hi");
        assert_eq!(s, *b"hi".as_slice());
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::copy_from_slice(b"xy").to_vec(), vec![b'x', b'y']);
    }

    #[test]
    fn debug_escapes() {
        assert_eq!(format!("{:?}", Bytes::from(vec![b'a', 0x00])), "b\"a\\x00\"");
    }

    #[test]
    fn slice_shares_allocation_and_narrows() {
        let a = Bytes::from((0u8..32).collect::<Vec<u8>>());
        let mid = a.slice(8..24);
        assert!(Arc::ptr_eq(&a.data, &mid.data));
        assert_eq!(mid.len(), 16);
        assert_eq!(&mid[..], &(8u8..24).collect::<Vec<u8>>()[..]);
        // Slicing a slice composes the offsets.
        let inner = mid.slice(4..=7);
        assert!(Arc::ptr_eq(&a.data, &inner.data));
        assert_eq!(&inner[..], &[12, 13, 14, 15]);
        // Degenerate and unbounded ranges.
        assert!(a.slice(5..5).is_empty());
        assert_eq!(a.slice(..).len(), 32);
        assert_eq!(a.slice(30..).len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let _ = Bytes::from(vec![0u8; 4]).slice(2..9);
    }

    #[test]
    fn equality_respects_the_window() {
        let a = Bytes::from(vec![9u8, 1, 2, 9]);
        let b = a.slice(1..3);
        assert_eq!(b, *[1u8, 2].as_slice());
        assert_eq!(format!("{b:?}"), "b\"\\x01\\x02\"");
        assert_eq!(b.to_vec(), vec![1, 2]);
        assert_eq!(b.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }
}
