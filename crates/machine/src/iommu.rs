//! The I/O MMU.
//!
//! Devices cannot address physical memory directly: every DMA goes through
//! the IOMMU, which only permits frames present in its mapping table. SVA
//! "requires an IOMMU and configures it to prevent I/O devices from writing
//! into the SVA VM memory" (paper §4.3.3); Virtual Ghost additionally keeps
//! ghost frames out of the table. The *enforcement* of which frames may be
//! added lives in `vg-core`; this module is the hardware: a table and a
//! checker.
//!
//! The table is a dense bitmap with one bit per physical frame, so the ring
//! doorbell's transient map/unmap per descriptor is a bit set and clear,
//! not a hash insert and remove. A pfn past the end of physical memory
//! names no frame a device could reach: mapping it changes nothing, and it
//! never reads as mapped.

use crate::layout::Pfn;

/// Direction of a DMA transfer, from the device's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDirection {
    /// Device writes into memory.
    ToMemory,
    /// Device reads from memory.
    FromMemory,
}

/// Error raised when a device touches a frame the IOMMU does not map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaFault {
    /// The offending frame.
    pub pfn: Pfn,
    /// Transfer direction.
    pub direction: DmaDirection,
}

impl std::fmt::Display for DmaFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IOMMU fault: {:?} DMA to unmapped {}",
            self.direction, self.pfn
        )
    }
}

impl std::error::Error for DmaFault {}

/// The IOMMU: the set of frames DMA may touch.
#[derive(Debug)]
pub struct Iommu {
    /// Bit `pfn % 64` of word `pfn / 64` is set while `pfn` is mapped.
    bits: Vec<u64>,
    /// Number of physical frames the table covers.
    frames: u64,
    /// Number of set bits.
    mapped: usize,
}

impl Iommu {
    /// An IOMMU over `total_frames` physical frames with an empty table
    /// (all DMA faults).
    pub fn new(total_frames: usize) -> Self {
        Iommu {
            bits: vec![0; total_frames.div_ceil(64)],
            frames: total_frames as u64,
            mapped: 0,
        }
    }

    /// The index of the word holding `pfn`'s bit and the bit's mask, or
    /// `None` past the end of physical memory.
    #[inline]
    fn slot(&self, pfn: Pfn) -> Option<(usize, u64)> {
        (pfn.0 < self.frames).then(|| ((pfn.0 / 64) as usize, 1 << (pfn.0 % 64)))
    }

    /// Adds `pfn` to the DMA-visible set. This is the raw hardware
    /// operation — Virtual Ghost interposes checks before calling it.
    #[inline]
    pub fn map(&mut self, pfn: Pfn) {
        if let Some((w, bit)) = self.slot(pfn) {
            self.mapped += usize::from(self.bits[w] & bit == 0);
            self.bits[w] |= bit;
        }
    }

    /// Removes `pfn` from the DMA-visible set.
    #[inline]
    pub fn unmap(&mut self, pfn: Pfn) {
        if let Some((w, bit)) = self.slot(pfn) {
            self.mapped -= usize::from(self.bits[w] & bit != 0);
            self.bits[w] &= !bit;
        }
    }

    /// Whether DMA may touch `pfn`.
    #[inline]
    pub fn is_mapped(&self, pfn: Pfn) -> bool {
        self.slot(pfn)
            .is_some_and(|(w, bit)| self.bits[w] & bit != 0)
    }

    /// Validates a transfer touching `pfn`.
    ///
    /// # Errors
    ///
    /// Returns a [`DmaFault`] if the frame is not mapped for DMA.
    pub fn check(&self, pfn: Pfn, direction: DmaDirection) -> Result<(), DmaFault> {
        if self.is_mapped(pfn) {
            Ok(())
        } else {
            Err(DmaFault { pfn, direction })
        }
    }

    /// Number of frames currently DMA-visible.
    pub fn mapped_count(&self) -> usize {
        self.mapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inthash::IntSet;
    use proptest::prelude::*;

    /// The replaced hash-set table, kept as the bitmap's oracle. It maps
    /// only pfns inside physical memory, where the bitmap has a bit.
    struct SetIommu {
        total_frames: u64,
        allowed: IntSet<u64>,
    }

    impl SetIommu {
        fn map(&mut self, pfn: Pfn) {
            if pfn.0 < self.total_frames {
                self.allowed.insert(pfn.0);
            }
        }
    }

    proptest! {
        /// The bitmap answers `is_mapped`, `check` and `mapped_count`
        /// exactly like the hash set over random map / unmap / query
        /// sequences, including repeated maps, unmaps of never-mapped
        /// pfns and pfns past the end of memory (up to `u64::MAX`).
        #[test]
        fn bitmap_matches_set_oracle(
            total in 1usize..300,
            ops in proptest::collection::vec((0u8..3, 0u64..340, any::<bool>()), 1..300),
        ) {
            let mut bitmap = Iommu::new(total);
            let mut set = SetIommu { total_frames: total as u64, allowed: IntSet::default() };
            for (op, n, huge) in ops {
                let pfn = Pfn(if huge { u64::MAX - n } else { n });
                match op {
                    0 => {
                        bitmap.map(pfn);
                        set.map(pfn);
                    }
                    1 => {
                        bitmap.unmap(pfn);
                        set.allowed.remove(&pfn.0);
                    }
                    _ => {}
                }
                prop_assert_eq!(bitmap.is_mapped(pfn), set.allowed.contains(&pfn.0));
                prop_assert_eq!(
                    bitmap.check(pfn, DmaDirection::ToMemory).is_ok(),
                    set.allowed.contains(&pfn.0)
                );
                prop_assert_eq!(bitmap.mapped_count(), set.allowed.len());
            }
            for p in 0..total as u64 + 70 {
                prop_assert_eq!(bitmap.is_mapped(Pfn(p)), set.allowed.contains(&p));
            }
        }
    }

    #[test]
    fn pfns_past_physical_memory_never_map() {
        let mut iommu = Iommu::new(64);
        for pfn in [Pfn(64), Pfn(1 << 40), Pfn(u64::MAX)] {
            iommu.map(pfn);
            assert!(!iommu.is_mapped(pfn));
            iommu.unmap(pfn);
        }
        assert_eq!(iommu.mapped_count(), 0);
        iommu.map(Pfn(63));
        iommu.map(Pfn(63));
        assert_eq!(iommu.mapped_count(), 1, "a repeated map counts once");
    }

    #[test]
    fn unmapped_faults() {
        let iommu = Iommu::new(8);
        assert_eq!(
            iommu.check(Pfn(3), DmaDirection::ToMemory),
            Err(DmaFault {
                pfn: Pfn(3),
                direction: DmaDirection::ToMemory
            })
        );
    }

    #[test]
    fn map_unmap_cycle() {
        let mut iommu = Iommu::new(8);
        iommu.map(Pfn(3));
        assert!(iommu.check(Pfn(3), DmaDirection::FromMemory).is_ok());
        assert_eq!(iommu.mapped_count(), 1);
        iommu.unmap(Pfn(3));
        assert!(iommu.check(Pfn(3), DmaDirection::FromMemory).is_err());
        assert_eq!(iommu.mapped_count(), 0);
    }

    #[test]
    fn mapping_is_per_frame() {
        let mut iommu = Iommu::new(8);
        iommu.map(Pfn(1));
        assert!(!iommu.is_mapped(Pfn(2)));
    }
}
