//! An inline-capacity list of [`MemOp`]s for allocation-free outcome
//! assembly.
//!
//! Nearly every [`SchemeOutcome`](crate::SchemeOutcome) holds a handful of
//! operations: a demand access, one or two metadata fetches, and a couple of
//! swap transfers. [`OpList`] stores the first [`INLINE_OPS`] operations in
//! the struct itself and spills to the heap only beyond that, so the access
//! hot path performs no allocation for ordinary misses. Paired with the
//! outcome-reuse protocol (the caller clears and refills one outcome per
//! miss), even spilled capacity is allocated once and reused: [`clear`]
//! keeps the spill buffer.
//!
//! [`clear`]: OpList::clear

use core::fmt;
use core::ops::Index;

use crate::mem::{MemKind, MemOp};

/// Operations stored inline before spilling to the heap. Sized for the
/// common case: demand + metadata + one subblock swap fit inline; only
/// whole-block migrations (locks, epoch moves) spill.
pub const INLINE_OPS: usize = 8;

/// Placeholder occupying unused inline slots; never observable.
const UNUSED: MemOp = MemOp::demand_read(MemKind::Near, crate::addr::PhysAddr::new(0), 0);

/// A `Vec<MemOp>`-like list with inline capacity for [`INLINE_OPS`]
/// operations.
#[derive(Clone)]
pub struct OpList {
    len: usize,
    inline: [MemOp; INLINE_OPS],
    /// Operations past the inline capacity; invariant:
    /// `spill.len() == len.saturating_sub(INLINE_OPS)`.
    spill: Vec<MemOp>,
}

impl OpList {
    /// An empty list. Allocation-free.
    pub const fn new() -> Self {
        Self {
            len: 0,
            inline: [UNUSED; INLINE_OPS],
            // silcfm-lint: allow(A1) -- const Vec::new is capacity 0 and does not allocate
            spill: Vec::new(),
        }
    }

    /// Number of operations held.
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether the list holds no operations.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an operation, spilling to the heap past [`INLINE_OPS`].
    pub fn push(&mut self, op: MemOp) {
        // `get_mut` misses exactly when the inline array is full (the spill
        // invariant keeps `len` in step), so the two arms are exhaustive.
        if let Some(slot) = self.inline.get_mut(self.len) {
            *slot = op;
        } else {
            self.spill.push(op);
        }
        self.len += 1;
    }

    /// Empties the list, retaining any spill capacity for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// The operation at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<&MemOp> {
        if index >= self.len {
            return None;
        }
        // The inline probe misses only for `index >= INLINE_OPS`, so the
        // subtraction in the spill probe cannot underflow.
        self.inline
            .get(index)
            .or_else(|| self.spill.get(index - INLINE_OPS))
    }

    /// The most recently pushed operation.
    pub fn last(&self) -> Option<&MemOp> {
        self.len.checked_sub(1).and_then(|i| self.get(i))
    }

    /// Iterates the operations in push order.
    pub fn iter(&self) -> impl Iterator<Item = &MemOp> + '_ {
        self.inline.iter().take(self.len).chain(self.spill.iter())
    }

    /// Whether any operation spilled to the heap.
    pub const fn spilled(&self) -> bool {
        self.len > INLINE_OPS
    }
}

impl Default for OpList {
    fn default() -> Self {
        Self::new()
    }
}

impl Index<usize> for OpList {
    type Output = MemOp;

    fn index(&self, index: usize) -> &MemOp {
        self.get(index)
            // silcfm-lint: allow(P1) -- the Index trait's contract *is* panic-on-out-of-bounds; hot-path code uses get()/iter(), indexing is a test convenience
            .unwrap_or_else(|| panic!("index {index} out of bounds (len {})", self.len))
    }
}

impl Extend<MemOp> for OpList {
    fn extend<T: IntoIterator<Item = MemOp>>(&mut self, iter: T) {
        for op in iter {
            self.push(op);
        }
    }
}

impl FromIterator<MemOp> for OpList {
    fn from_iter<T: IntoIterator<Item = MemOp>>(iter: T) -> Self {
        let mut list = Self::new();
        list.extend(iter);
        list
    }
}

impl From<Vec<MemOp>> for OpList {
    fn from(ops: Vec<MemOp>) -> Self {
        ops.into_iter().collect()
    }
}

impl<'a> IntoIterator for &'a OpList {
    type Item = &'a MemOp;
    type IntoIter = core::iter::Chain<
        core::iter::Take<core::slice::Iter<'a, MemOp>>,
        core::slice::Iter<'a, MemOp>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.inline.iter().take(self.len).chain(self.spill.iter())
    }
}

impl PartialEq for OpList {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for OpList {}

impl PartialEq<[MemOp]> for OpList {
    fn eq(&self, other: &[MemOp]) -> bool {
        self.len == other.len() && self.iter().eq(other.iter())
    }
}

impl PartialEq<Vec<MemOp>> for OpList {
    fn eq(&self, other: &Vec<MemOp>) -> bool {
        self == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[MemOp; N]> for OpList {
    fn eq(&self, other: &[MemOp; N]) -> bool {
        self == other.as_slice()
    }
}

impl fmt::Debug for OpList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;
    use crate::check::forall;
    use crate::rng::Rng;

    fn op(i: u64) -> MemOp {
        MemOp::demand_read(
            if i.is_multiple_of(2) {
                MemKind::Near
            } else {
                MemKind::Far
            },
            PhysAddr::new(i * 64),
            64,
        )
    }

    #[test]
    fn empty_list() {
        let list = OpList::new();
        assert_eq!(list.len(), 0);
        assert!(list.is_empty());
        assert!(list.last().is_none());
        assert!(list.get(0).is_none());
        assert_eq!(list.iter().count(), 0);
        assert!(!list.spilled());
    }

    #[test]
    fn push_across_the_spill_boundary() {
        let mut list = OpList::new();
        for i in 0..(INLINE_OPS as u64 + 3) {
            list.push(op(i));
            assert_eq!(list.len(), i as usize + 1);
            assert_eq!(list.last(), Some(&op(i)));
        }
        assert!(list.spilled());
        for i in 0..list.len() {
            assert_eq!(list[i], op(i as u64));
        }
    }

    #[test]
    fn equality_with_vec_model() {
        forall("oplist_matches_vec_model", |rng| {
            let n = rng.gen_range(0..(3 * INLINE_OPS as u64 + 1)) as usize;
            let model: Vec<MemOp> = (0..n)
                .map(|i| op(rng.gen_range(0..64u64) + i as u64))
                .collect();
            let list: OpList = model.clone().into();
            assert_eq!(list, model, "OpList must mirror the Vec model");
            assert_eq!(list.len(), model.len());
            assert!(list.iter().eq(model.iter()));
            assert_eq!(list.last(), model.last());
            assert_eq!(format!("{list:?}"), format!("{model:?}"));
        });
    }

    #[test]
    fn clear_and_reuse_preserves_semantics() {
        forall("oplist_clear_and_reuse", |rng| {
            let mut list = OpList::new();
            // Several rounds of fill/clear through one buffer (the reuse
            // protocol) must behave exactly like a fresh list each round.
            for _ in 0..4 {
                list.clear();
                assert!(list.is_empty());
                let n = rng.gen_range(0..(2 * INLINE_OPS as u64 + 4)) as usize;
                let model: Vec<MemOp> = (0..n).map(|i| op(i as u64)).collect();
                list.extend(model.iter().copied());
                assert_eq!(list, model);
            }
        });
    }

    #[test]
    fn inequality_on_content_and_length() {
        let a: OpList = (0..4).map(op).collect();
        let b: OpList = (0..5).map(op).collect();
        let c: OpList = (1..5).map(op).collect();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(b, (0..5).map(op).collect::<OpList>());
    }

    #[test]
    fn index_panics_out_of_bounds() {
        let list: OpList = (0..2).map(op).collect();
        let caught = std::panic::catch_unwind(|| list[5]);
        assert!(caught.is_err());
    }
}
