//! The flat physical address space: NM at low addresses, FM above it.
//!
//! The paper (§III) assumes "NM uses the lower addresses in the physical
//! address space and FM uses the higher addresses". [`AddressSpace`] encodes
//! that split and converts between global physical addresses and
//! device-local addresses handed to the DRAM models.

use core::fmt;

use crate::addr::{BlockIndex, PhysAddr};
use crate::geometry::Geometry;
use crate::mem::MemKind;

/// The flat NM+FM physical address space.
///
/// # Example
///
/// ```
/// use silcfm_types::{AddressSpace, MemKind, PhysAddr};
/// let space = AddressSpace::new(1 << 20, 4 << 20);
/// assert_eq!(space.total_bytes(), 5 << 20);
/// assert_eq!(space.kind_of(PhysAddr::new((1 << 20) - 1)), MemKind::Near);
/// assert_eq!(space.kind_of(PhysAddr::new(1 << 20)), MemKind::Far);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddressSpace {
    nm_bytes: u64,
    fm_bytes: u64,
}

impl AddressSpace {
    /// Creates an address space with `nm_bytes` of near memory followed by
    /// `fm_bytes` of far memory.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new(nm_bytes: u64, fm_bytes: u64) -> Self {
        assert!(nm_bytes > 0, "near memory must be non-empty");
        assert!(fm_bytes > 0, "far memory must be non-empty");
        Self { nm_bytes, fm_bytes }
    }

    /// Bytes of near memory.
    pub const fn nm_bytes(self) -> u64 {
        self.nm_bytes
    }

    /// Bytes of far memory.
    pub const fn fm_bytes(self) -> u64 {
        self.fm_bytes
    }

    /// Total OS-visible capacity (the sum of both memories — this is a flat
    /// organization, not a cache).
    pub const fn total_bytes(self) -> u64 {
        self.nm_bytes + self.fm_bytes
    }

    /// Which memory a physical address belongs to.
    pub fn kind_of(self, addr: PhysAddr) -> MemKind {
        if addr.value() < self.nm_bytes {
            MemKind::Near
        } else {
            MemKind::Far
        }
    }

    /// The device-local byte address within the owning memory.
    ///
    /// NM addresses map to themselves; FM addresses have the NM capacity
    /// subtracted so each DRAM model sees a zero-based range.
    pub fn device_addr(self, addr: PhysAddr) -> u64 {
        match self.kind_of(addr) {
            MemKind::Near => addr.value(),
            MemKind::Far => addr.value() - self.nm_bytes,
        }
    }

    /// Number of large blocks in near memory.
    pub fn nm_blocks(self, geom: Geometry) -> u64 {
        self.nm_bytes / geom.block_bytes()
    }

    /// Number of large blocks in far memory.
    pub fn fm_blocks(self, geom: Geometry) -> u64 {
        self.fm_bytes / geom.block_bytes()
    }

    /// Number of large blocks in the whole space.
    pub fn total_blocks(self, geom: Geometry) -> u64 {
        self.total_bytes() / geom.block_bytes()
    }

    /// Whether a block index is an NM block.
    pub fn block_is_near(self, block: BlockIndex, geom: Geometry) -> bool {
        block.value() < self.nm_blocks(geom)
    }

    /// The first FM block index.
    pub fn first_fm_block(self, geom: Geometry) -> BlockIndex {
        BlockIndex::new(self.nm_blocks(geom))
    }

    /// Builds an address space from an FM size and an `fm:nm` capacity ratio,
    /// as in the paper's capacity sweep (Fig. 9 uses NM = FM/16 … FM/4).
    ///
    /// # Panics
    ///
    /// Panics if `fm_to_nm_ratio` is zero or does not divide `fm_bytes`.
    pub fn with_ratio(fm_bytes: u64, fm_to_nm_ratio: u64) -> Self {
        assert!(fm_to_nm_ratio > 0, "ratio must be positive");
        assert_eq!(
            fm_bytes % fm_to_nm_ratio,
            0,
            "FM size must be divisible by the ratio"
        );
        Self::new(fm_bytes / fm_to_nm_ratio, fm_bytes)
    }
}

impl fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NM {} MiB + FM {} MiB",
            self.nm_bytes >> 20,
            self.fm_bytes >> 20
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_and_device_addr() {
        let s = AddressSpace::new(4096, 8192);
        assert_eq!(s.kind_of(PhysAddr::new(0)), MemKind::Near);
        assert_eq!(s.kind_of(PhysAddr::new(4095)), MemKind::Near);
        assert_eq!(s.kind_of(PhysAddr::new(4096)), MemKind::Far);
        assert_eq!(s.device_addr(PhysAddr::new(4095)), 4095);
        assert_eq!(s.device_addr(PhysAddr::new(4096)), 0);
        assert_eq!(s.device_addr(PhysAddr::new(5000)), 904);
    }

    #[test]
    fn block_counts() {
        let s = AddressSpace::new(4 * 2048, 16 * 2048);
        let g = Geometry::paper();
        assert_eq!(s.nm_blocks(g), 4);
        assert_eq!(s.fm_blocks(g), 16);
        assert_eq!(s.total_blocks(g), 20);
        assert!(s.block_is_near(BlockIndex::new(3), g));
        assert!(!s.block_is_near(BlockIndex::new(4), g));
        assert_eq!(s.first_fm_block(g), BlockIndex::new(4));
    }

    #[test]
    fn ratio_constructor() {
        let s = AddressSpace::with_ratio(1 << 30, 4);
        assert_eq!(s.nm_bytes(), 256 << 20);
        assert_eq!(s.fm_bytes(), 1 << 30);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn ratio_must_divide() {
        let _ = AddressSpace::with_ratio(100, 3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn nm_must_be_nonempty() {
        let _ = AddressSpace::new(0, 100);
    }

    #[test]
    fn display_form() {
        let s = AddressSpace::new(256 << 20, 1 << 30);
        assert_eq!(s.to_string(), "NM 256 MiB + FM 1024 MiB");
    }
}
