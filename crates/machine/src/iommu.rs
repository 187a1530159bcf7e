//! The I/O MMU.
//!
//! Devices cannot address physical memory directly: every DMA goes through
//! the IOMMU, which only permits frames present in its mapping table. SVA
//! "requires an IOMMU and configures it to prevent I/O devices from writing
//! into the SVA VM memory" (paper §4.3.3); Virtual Ghost additionally keeps
//! ghost frames out of the table. The *enforcement* of which frames may be
//! added lives in `vg-core`; this module is the hardware: a table and a
//! checker.

use crate::inthash::IntSet;
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
#[derive(Debug, Default)]
pub struct Iommu {
    allowed: IntSet<u64>,
}

impl Iommu {
    /// An IOMMU with an empty table (all DMA faults).
    pub fn new() -> Self {
        Iommu {
            allowed: IntSet::default(),
        }
    }

    /// Adds `pfn` to the DMA-visible set. This is the raw hardware
    /// operation — Virtual Ghost interposes checks before calling it.
    pub fn map(&mut self, pfn: Pfn) {
        self.allowed.insert(pfn.0);
    }

    /// Removes `pfn` from the DMA-visible set.
    pub fn unmap(&mut self, pfn: Pfn) {
        self.allowed.remove(&pfn.0);
    }

    /// Whether DMA may touch `pfn`.
    pub fn is_mapped(&self, pfn: Pfn) -> bool {
        self.allowed.contains(&pfn.0)
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
        self.allowed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_faults() {
        let iommu = Iommu::new();
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
        let mut iommu = Iommu::new();
        iommu.map(Pfn(3));
        assert!(iommu.check(Pfn(3), DmaDirection::FromMemory).is_ok());
        assert_eq!(iommu.mapped_count(), 1);
        iommu.unmap(Pfn(3));
        assert!(iommu.check(Pfn(3), DmaDirection::FromMemory).is_err());
        assert_eq!(iommu.mapped_count(), 0);
    }

    #[test]
    fn mapping_is_per_frame() {
        let mut iommu = Iommu::new();
        iommu.map(Pfn(1));
        assert!(!iommu.is_mapped(Pfn(2)));
    }
}
