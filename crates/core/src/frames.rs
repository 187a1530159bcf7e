//! SVA-internal frame metadata.
//!
//! The SVA VM tracks, for every physical frame, what role it plays and how
//! many virtual mappings reference it. This metadata is what makes the MMU
//! checks decidable: "Virtual Ghost does not permit the operating system to
//! map physical page frames used by ghost memory into any virtual address"
//! (§4.3.2) requires knowing which frames those are.

use vg_machine::{IntMap, Pfn};

/// The role a physical frame currently plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameKind {
    /// Ordinary OS-managed memory (default).
    #[default]
    Regular,
    /// Part of a page table (must stay unwritable by the OS; updates go
    /// through SVA-OS operations).
    PageTable,
    /// Backs ghost memory (must never be mapped by the OS, never DMA'd).
    Ghost,
    /// SVA VM internal memory.
    SvaInternal,
    /// Native code (must never be mapped writable or remapped).
    Code,
}

/// Per-frame metadata: kind plus mapping reference count.
///
/// Kinds are a dense table indexed by pfn (frames past its end are
/// `Regular`), so the kernel's direct-map check on every access is one
/// index. It grows only up to [`MAX_FRAMES`].
#[derive(Debug, Default)]
pub struct FrameTable {
    kinds: Vec<FrameKind>,
    map_counts: IntMap<u64, u32>,
}

/// More frames than any simulated machine has: `PhysMem`'s own per-frame
/// table would take gigabytes of host memory. A pfn at or past it is no
/// frame, so marking it records nothing (and a hostile pfn cannot make the
/// table huge).
pub const MAX_FRAMES: u64 = 1 << 26;

impl FrameTable {
    /// An empty table (all frames Regular, unmapped).
    pub fn new() -> Self {
        FrameTable::default()
    }

    /// The kind of `pfn`.
    #[inline]
    pub fn kind(&self, pfn: Pfn) -> FrameKind {
        let i = usize::try_from(pfn.0).unwrap_or(usize::MAX);
        self.kinds.get(i).copied().unwrap_or_default()
    }

    /// Sets the kind of `pfn` (see [`MAX_FRAMES`]).
    pub fn set_kind(&mut self, pfn: Pfn, kind: FrameKind) {
        let i = usize::try_from(pfn.0).unwrap_or(usize::MAX);
        if i >= self.kinds.len() {
            if kind == FrameKind::Regular || pfn.0 >= MAX_FRAMES {
                return;
            }
            self.kinds.resize(i + 1, FrameKind::Regular);
        }
        self.kinds[i] = kind;
    }

    /// Number of virtual mappings currently referencing `pfn` (as tracked
    /// through checked MMU updates).
    pub fn map_count(&self, pfn: Pfn) -> u32 {
        self.map_counts.get(&pfn.0).copied().unwrap_or(0)
    }

    /// Records a new mapping of `pfn`.
    pub fn inc_map(&mut self, pfn: Pfn) {
        *self.map_counts.entry(pfn.0).or_insert(0) += 1;
    }

    /// Records removal of a mapping of `pfn`.
    pub fn dec_map(&mut self, pfn: Pfn) {
        if let Some(c) = self.map_counts.get_mut(&pfn.0) {
            *c = c.saturating_sub(1);
            if *c == 0 {
                self.map_counts.remove(&pfn.0);
            }
        }
    }

    /// Whether the OS may hand this frame to `allocgm` (regular and
    /// currently unmapped — the §3.2 requirement that "the OS has removed
    /// all virtual to physical mappings for the frames").
    pub fn transferable_to_ghost(&self, pfn: Pfn) -> bool {
        self.kind(pfn) == FrameKind::Regular && self.map_count(pfn) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_kind_is_regular() {
        let t = FrameTable::new();
        assert_eq!(t.kind(Pfn(5)), FrameKind::Regular);
        assert_eq!(t.map_count(Pfn(5)), 0);
    }

    #[test]
    fn kind_roundtrip() {
        let mut t = FrameTable::new();
        t.set_kind(Pfn(1), FrameKind::Ghost);
        assert_eq!(t.kind(Pfn(1)), FrameKind::Ghost);
        t.set_kind(Pfn(1), FrameKind::Regular);
        assert_eq!(t.kind(Pfn(1)), FrameKind::Regular);
    }

    #[test]
    fn pfns_past_any_machine_are_never_marked() {
        let mut t = FrameTable::new();
        t.set_kind(Pfn(MAX_FRAMES), FrameKind::Code);
        t.set_kind(Pfn(u64::MAX), FrameKind::Ghost);
        assert_eq!(t.kind(Pfn(MAX_FRAMES)), FrameKind::Regular);
        assert_eq!(t.kind(Pfn(u64::MAX)), FrameKind::Regular);
        assert!(t.kinds.is_empty());
    }

    #[test]
    fn map_counting() {
        let mut t = FrameTable::new();
        t.inc_map(Pfn(2));
        t.inc_map(Pfn(2));
        assert_eq!(t.map_count(Pfn(2)), 2);
        t.dec_map(Pfn(2));
        assert_eq!(t.map_count(Pfn(2)), 1);
        t.dec_map(Pfn(2));
        t.dec_map(Pfn(2)); // extra dec is safe
        assert_eq!(t.map_count(Pfn(2)), 0);
    }

    #[test]
    fn ghost_transfer_requires_unmapped_regular() {
        let mut t = FrameTable::new();
        assert!(t.transferable_to_ghost(Pfn(3)));
        t.inc_map(Pfn(3));
        assert!(!t.transferable_to_ghost(Pfn(3)));
        t.dec_map(Pfn(3));
        t.set_kind(Pfn(3), FrameKind::Code);
        assert!(!t.transferable_to_ghost(Pfn(3)));
    }
}
