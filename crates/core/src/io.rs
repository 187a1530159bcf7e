//! Checked I/O operations: IOMMU configuration and I/O ports (paper §4.3.3).
//!
//! "SVA requires an IOMMU and configures it to prevent I/O devices from
//! writing into the SVA VM memory… Both SVA and Virtual Ghost must prevent
//! the OS from reconfiguring the IOMMU to expose ghost memory to DMA
//! transfers." The kernel asks the VM to add frames to the DMA-visible set;
//! the VM refuses ghost, SVA-internal and page-table frames. Raw port access
//! to the IOMMU's configuration port is likewise intercepted.

use crate::frames::FrameKind;
use crate::{SvaError, SvaVm};
use vg_machine::{DenialKind, Domain, Machine, Pfn};

/// The I/O port through which the (simulated) IOMMU is configured. Writing
/// a frame number here maps that frame for DMA — the attack path a hostile
/// native kernel uses; under Virtual Ghost the port is protected.
pub const IOMMU_CONFIG_PORT: u16 = 0xE0;

impl SvaVm {
    /// Registers the IOMMU's memory-mapped configuration frames (§4.3.3's
    /// second case: "if the hardware uses memory-mapped I/O, then SVA and
    /// Virtual Ghost simply use the MMU checks … to prevent the
    /// memory-mapped physical pages of the IOMMU device from being mapped
    /// into the kernel or user-space virtual memory"). The frames become
    /// SVA-internal, so every subsequent `sva_map_page` of them is refused.
    pub fn sva_declare_iommu_mmio(&mut self, frames: &[Pfn]) {
        for &f in frames {
            self.frames
                .set_kind(f, crate::frames::FrameKind::SvaInternal);
        }
    }
}

impl SvaVm {
    /// Adds `pfn` to the set of DMA-visible frames.
    ///
    /// # Errors
    ///
    /// [`SvaError::DmaProtected`] under Virtual Ghost if the frame backs
    /// ghost memory, SVA-internal memory, or a page table.
    pub fn sva_iommu_map(&mut self, machine: &mut Machine, pfn: Pfn) -> Result<(), SvaError> {
        machine.prof_push(Domain::Sva, "sva.iommu_map");
        machine.charge(machine.costs.io_check + 30);
        machine.prof_pop();
        if self.protections.enforced {
            match self.frames.kind(pfn) {
                FrameKind::Ghost | FrameKind::SvaInternal | FrameKind::PageTable => {
                    machine.record_denial(
                        DenialKind::DmaViolation,
                        pfn.0,
                        "iommu map targets a protected frame",
                    );
                    return Err(SvaError::DmaProtected);
                }
                FrameKind::Regular | FrameKind::Code => {}
            }
        }
        machine.iommu.map(pfn);
        Ok(())
    }

    /// Removes `pfn` from the DMA-visible set (always permitted —
    /// tightening DMA exposure cannot violate confidentiality).
    pub fn sva_iommu_unmap(&mut self, machine: &mut Machine, pfn: Pfn) {
        machine.prof_push(Domain::Sva, "sva.iommu_unmap");
        machine.charge(machine.costs.io_check + 30);
        machine.prof_pop();
        machine.iommu.unmap(pfn);
    }

    /// Raw I/O port write — the SVA instruction the kernel must use instead
    /// of `out`. Writes to the IOMMU configuration port are validated:
    /// under Virtual Ghost they are denied outright (the kernel must use
    /// [`sva_iommu_map`](Self::sva_iommu_map)); on a native system the write
    /// programs the IOMMU directly, no questions asked.
    ///
    /// # Errors
    ///
    /// [`SvaError::PortProtected`] for protected ports under Virtual Ghost.
    pub fn sva_port_write(
        &mut self,
        machine: &mut Machine,
        port: u16,
        value: u64,
    ) -> Result<(), SvaError> {
        machine.prof_push(Domain::Sva, "sva.port_write");
        machine.charge(machine.costs.io_check + 20);
        machine.prof_pop();
        if port == IOMMU_CONFIG_PORT {
            if self.protections.enforced {
                return Err(SvaError::PortProtected);
            }
            machine.iommu.map(Pfn(value));
            return Ok(());
        }
        // Other ports: a console-ish debug port, else ignored.
        if port == 0x3F8 {
            machine.console.write(&[value as u8]);
        }
        Ok(())
    }

    /// Raw I/O port read.
    ///
    /// # Errors
    ///
    /// [`SvaError::PortProtected`] for protected ports under Virtual Ghost.
    pub fn sva_port_read(&mut self, machine: &mut Machine, port: u16) -> Result<u64, SvaError> {
        machine.prof_push(Domain::Sva, "sva.port_read");
        machine.charge(machine.costs.io_check + 20);
        machine.prof_pop();
        if port == IOMMU_CONFIG_PORT && self.protections.enforced {
            return Err(SvaError::PortProtected);
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protections;
    use vg_crypto::Tpm;
    use vg_machine::layout::GHOST_BASE;
    use vg_machine::VAddr;

    fn setup(p: Protections) -> (SvaVm, Machine) {
        let tpm = Tpm::new(1);
        (SvaVm::boot(p, &tpm, 8), Machine::new(Default::default()))
    }

    #[test]
    fn regular_frames_can_dma() {
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        let f = machine.phys.alloc_frame().unwrap();
        vm.sva_iommu_map(&mut machine, f).unwrap();
        assert!(machine.iommu.is_mapped(f));
        vm.sva_iommu_unmap(&mut machine, f);
        assert!(!machine.iommu.is_mapped(f));
    }

    #[test]
    fn ghost_frames_blocked_from_dma_under_vg() {
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        let root = vm.sva_create_root(&mut machine).unwrap();
        let f = machine.phys.alloc_frame().unwrap();
        vm.sva_allocgm(
            &mut machine,
            crate::ProcId(1),
            root,
            VAddr(GHOST_BASE),
            &[f],
        )
        .unwrap();
        assert_eq!(
            vm.sva_iommu_map(&mut machine, f),
            Err(SvaError::DmaProtected)
        );
        assert!(!machine.iommu.is_mapped(f));
        // Page tables also refused.
        assert_eq!(
            vm.sva_iommu_map(&mut machine, root),
            Err(SvaError::DmaProtected)
        );
    }

    #[test]
    fn native_kernel_can_dma_anything() {
        let (mut vm, mut machine) = setup(Protections::native());
        let f = machine.phys.alloc_frame().unwrap();
        vm.frames.set_kind(f, FrameKind::Ghost);
        vm.sva_iommu_map(&mut machine, f).unwrap();
        assert!(machine.iommu.is_mapped(f));
    }

    #[test]
    fn iommu_port_protected_under_vg() {
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        assert_eq!(
            vm.sva_port_write(&mut machine, IOMMU_CONFIG_PORT, 5),
            Err(SvaError::PortProtected)
        );
        assert_eq!(
            vm.sva_port_read(&mut machine, IOMMU_CONFIG_PORT),
            Err(SvaError::PortProtected)
        );
        // Ordinary ports pass through.
        vm.sva_port_write(&mut machine, 0x3F8, b'x' as u64).unwrap();
        assert_eq!(machine.console.contents(), "x");
    }

    #[test]
    fn mmio_iommu_frames_unmappable_under_vg() {
        use vg_machine::pte::PteFlags;
        use vg_machine::VAddr;
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        let root = vm.sva_create_root(&mut machine).unwrap();
        let mmio = machine.phys.alloc_frame().unwrap();
        vm.sva_declare_iommu_mmio(&[mmio]);
        // The OS cannot map the IOMMU's MMIO page anywhere it can touch.
        let err = vm.sva_map_page(
            &mut machine,
            root,
            VAddr(0x4000),
            mmio,
            PteFlags::kernel_rw(),
        );
        assert_eq!(err, Err(SvaError::Mmu(crate::MmuCheckError::SvaFrame)));
        // Nor expose it to DMA.
        assert_eq!(
            vm.sva_iommu_map(&mut machine, mmio),
            Err(SvaError::DmaProtected)
        );
    }

    #[test]
    fn iommu_port_works_natively() {
        let (mut vm, mut machine) = setup(Protections::native());
        vm.sva_port_write(&mut machine, IOMMU_CONFIG_PORT, 9)
            .unwrap();
        assert!(machine.iommu.is_mapped(Pfn(9)));
    }
}
