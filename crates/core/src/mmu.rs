//! Checked MMU operations (paper §4.3.2 and §5 "Memory Management").
//!
//! The kernel never writes page-table memory itself: page-table frames are
//! declared to the SVA VM and all updates flow through the operations here,
//! which enforce:
//!
//! 1. the OS may not create *any* mapping at a ghost-partition or
//!    SVA-internal virtual address;
//! 2. the OS may not map a frame that backs ghost memory, SVA-internal
//!    memory, or a page table;
//! 3. native-code frames may not be mapped writable, and virtual addresses
//!    currently mapping code may not be remapped or unmapped by the OS.
//!
//! In native mode the same operations execute without checks (and without
//! the check cost), modeling the baseline kernel's direct page-table writes.

use crate::frames::FrameKind;
use crate::{SvaError, SvaVm};
use vg_machine::layout::Region;
use vg_machine::mmu::{read_pte, write_pte};
use vg_machine::pte::{PageTableLevel, Pte, PteFlags};
use vg_machine::{DenialKind, Domain, Machine, Pfn, TraceEvent, VAddr};

/// Why an MMU update was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmuCheckError {
    /// The virtual address lies in the ghost partition.
    GhostVa,
    /// The virtual address lies in SVA-internal memory.
    SvaVa,
    /// The frame backs ghost memory.
    GhostFrame,
    /// The frame backs SVA-internal memory.
    SvaFrame,
    /// The frame is a page table.
    PageTableFrame,
    /// Attempt to map a code frame writable.
    CodeWritable,
    /// Attempt to change a mapping currently pointing at code.
    CodeRemap,
    /// The root passed is not a declared page-table frame.
    BadRoot,
}

impl MmuCheckError {
    /// Static description of the rejection reason (also the `Display`
    /// output); used verbatim as the trace / flight-recorder reason.
    pub fn as_str(&self) -> &'static str {
        match self {
            MmuCheckError::GhostVa => "mapping targets the ghost partition",
            MmuCheckError::SvaVa => "mapping targets SVA-internal memory",
            MmuCheckError::GhostFrame => "frame backs ghost memory",
            MmuCheckError::SvaFrame => "frame backs SVA-internal memory",
            MmuCheckError::PageTableFrame => "frame is a page table",
            MmuCheckError::CodeWritable => "code frame cannot be writable",
            MmuCheckError::CodeRemap => "virtual address maps native code",
            MmuCheckError::BadRoot => "root is not a declared page table",
        }
    }
}

impl std::fmt::Display for MmuCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::error::Error for MmuCheckError {}

impl SvaVm {
    /// Creates a new address-space root (PML4) — the frame becomes a
    /// declared page table.
    ///
    /// # Errors
    ///
    /// [`SvaError::OutOfFrames`] if physical memory is exhausted.
    pub fn sva_create_root(&mut self, machine: &mut Machine) -> Result<Pfn, SvaError> {
        machine.prof_push(Domain::Mmu, "create_root");
        machine.charge(machine.costs.mmu_update);
        machine.prof_pop();
        let root = machine.phys.alloc_frame().ok_or(SvaError::OutOfFrames)?;
        self.claim_page_table(machine, root);
        Ok(root)
    }

    /// Declares a freshly allocated frame a page table. Under Virtual
    /// Ghost, a frame the OS left DMA-visible (mapped through
    /// `sva_iommu_map`, then freed and reallocated) loses that mapping
    /// here, and the stale mapping is recorded as a
    /// [`DenialKind::DmaViolation`]. Revoking charges nothing, so a benign
    /// claim costs what it always did.
    fn claim_page_table(&mut self, machine: &mut Machine, pfn: Pfn) {
        if self.protections.enforced && machine.iommu.is_mapped(pfn) {
            machine.iommu.unmap(pfn);
            machine.record_denial(
                DenialKind::DmaViolation,
                pfn.0,
                "page-table frame was still DMA-visible",
            );
        }
        self.frames.set_kind(pfn, FrameKind::PageTable);
    }

    /// Destroys an address-space root and every page-table frame reachable
    /// from it, returning the frames to the OS pool. Leaf data frames are
    /// *not* freed (the kernel owns those); their map counts are released.
    pub fn sva_destroy_root(&mut self, machine: &mut Machine, root: Pfn) {
        self.free_table_recursive(machine, root, PageTableLevel::L4);
    }

    fn free_table_recursive(&mut self, machine: &mut Machine, table: Pfn, level: PageTableLevel) {
        for idx in 0..512 {
            let pte = read_pte(&machine.phys, table, idx);
            if !pte.present() {
                continue;
            }
            match level.next() {
                Some(next) => self.free_table_recursive(machine, pte.pfn(), next),
                None => self.frames.dec_map(pte.pfn()),
            }
        }
        self.frames.set_kind(table, FrameKind::Regular);
        machine.phys.free_frame(table);
    }

    /// Loads `root` as the active address space (CR3 write).
    ///
    /// # Errors
    ///
    /// [`MmuCheckError::BadRoot`] if `root` was not created by
    /// [`sva_create_root`](Self::sva_create_root) (checked mode only).
    pub fn sva_load_root(&mut self, machine: &mut Machine, root: Pfn) -> Result<(), SvaError> {
        if self.protections.enforced && self.frames.kind(root) != FrameKind::PageTable {
            return Err(MmuCheckError::BadRoot.into());
        }
        machine.mmu.set_root(root);
        Ok(())
    }

    /// Maps `pfn` at `va` with `flags` in the address space `root`,
    /// enforcing the Virtual Ghost rules.
    ///
    /// # Errors
    ///
    /// An [`MmuCheckError`] (wrapped in [`SvaError::Mmu`]) when a rule is
    /// violated, or [`SvaError::OutOfFrames`].
    pub fn sva_map_page(
        &mut self,
        machine: &mut Machine,
        root: Pfn,
        va: VAddr,
        pfn: Pfn,
        flags: PteFlags,
    ) -> Result<(), SvaError> {
        machine.prof_push(Domain::Mmu, "map_page");
        machine.charge(machine.costs.mmu_update + machine.costs.mmu_check);
        machine.prof_pop();
        machine.counters.pte_updates += 1;
        if self.protections.enforced {
            if let Err(e) = self.check_update(machine, root, va, Some((pfn, flags))) {
                machine.counters.mmu_rejections += 1;
                self.trace_mmu_rejection(machine, va, e);
                return Err(e.into());
            }
        }
        self.map_page_unchecked(machine, root, va, Pte::new(pfn, flags))?;
        self.frames.inc_map(pfn);
        machine.tlb_flush_page(va.vpn());
        machine.trace_emit(TraceEvent::PteUpdate {
            va: va.0,
            accepted: true,
        });
        Ok(())
    }

    /// Removes the mapping at `va`, returning the frame it mapped (if any).
    ///
    /// # Errors
    ///
    /// [`MmuCheckError::GhostVa`]/[`MmuCheckError::CodeRemap`] under
    /// Virtual Ghost for protected addresses.
    pub fn sva_unmap_page(
        &mut self,
        machine: &mut Machine,
        root: Pfn,
        va: VAddr,
    ) -> Result<Option<Pfn>, SvaError> {
        machine.prof_push(Domain::Mmu, "unmap_page");
        machine.charge(machine.costs.mmu_update + machine.costs.mmu_check);
        machine.prof_pop();
        machine.counters.pte_updates += 1;
        if self.protections.enforced {
            if let Err(e) = self.check_update(machine, root, va, None) {
                machine.counters.mmu_rejections += 1;
                self.trace_mmu_rejection(machine, va, e);
                return Err(e.into());
            }
        }
        let old = self.unmap_page_unchecked(machine, root, va);
        if let Some(pfn) = old {
            self.frames.dec_map(pfn);
        }
        machine.tlb_flush_page(va.vpn());
        machine.trace_emit(TraceEvent::PteUpdate {
            va: va.0,
            accepted: true,
        });
        Ok(old)
    }

    /// Records a denied MMU update in the trace and the security flight
    /// recorder with the full denied-operation context.
    fn trace_mmu_rejection(&self, machine: &mut Machine, va: VAddr, e: MmuCheckError) {
        machine.record_denial(DenialKind::MmuRejection, va.0, e.as_str());
        machine.trace_emit(TraceEvent::MmuRejection {
            va: va.0,
            reason: e.as_str(),
        });
        machine.trace_emit(TraceEvent::PteUpdate {
            va: va.0,
            accepted: false,
        });
    }

    /// Maps an application code page: user-readable, executable,
    /// non-writable; the frame is marked [`FrameKind::Code`] so later
    /// attempts to remap or alias it writable are rejected.
    ///
    /// # Errors
    ///
    /// Same classes as [`sva_map_page`](Self::sva_map_page).
    pub fn sva_map_code_page(
        &mut self,
        machine: &mut Machine,
        root: Pfn,
        va: VAddr,
        pfn: Pfn,
    ) -> Result<(), SvaError> {
        self.sva_map_page(machine, root, va, pfn, PteFlags::user_code())?;
        self.frames.set_kind(pfn, FrameKind::Code);
        Ok(())
    }

    fn check_update(
        &self,
        machine: &Machine,
        root: Pfn,
        va: VAddr,
        new: Option<(Pfn, PteFlags)>,
    ) -> Result<(), MmuCheckError> {
        if self.frames.kind(root) != FrameKind::PageTable {
            return Err(MmuCheckError::BadRoot);
        }
        match Region::of(va) {
            Region::Ghost => return Err(MmuCheckError::GhostVa),
            Region::SvaInternal => return Err(MmuCheckError::SvaVa),
            _ => {}
        }
        if let Some((pfn, flags)) = new {
            match self.frames.kind(pfn) {
                FrameKind::Ghost => return Err(MmuCheckError::GhostFrame),
                FrameKind::SvaInternal => return Err(MmuCheckError::SvaFrame),
                FrameKind::PageTable => return Err(MmuCheckError::PageTableFrame),
                FrameKind::Code if flags.0 & PteFlags::WRITE != 0 => {
                    return Err(MmuCheckError::CodeWritable)
                }
                _ => {}
            }
        }
        // Changing an existing translation that points at code is forbidden
        // ("it also ensures that the OS does not map new physical pages into
        // virtual page frames that are in use for OS, SVA-OS, or application
        // code segments", §4.5).
        if let Some(existing) = self.leaf_at(machine, root, va) {
            if existing.present() && self.frames.kind(existing.pfn()) == FrameKind::Code {
                return Err(MmuCheckError::CodeRemap);
            }
        }
        Ok(())
    }

    fn leaf_at(&self, machine: &Machine, root: Pfn, va: VAddr) -> Option<Pte> {
        let mut table = root;
        for level in PageTableLevel::WALK {
            let pte = read_pte(&machine.phys, table, level.index(va.0));
            if !pte.present() {
                return None;
            }
            if level == PageTableLevel::L1 {
                return Some(pte);
            }
            table = pte.pfn();
        }
        None
    }

    /// The internal mapping engine, also used by the ghost manager (ghost
    /// mappings are installed by the VM itself, never by the OS).
    pub(crate) fn map_page_unchecked(
        &mut self,
        machine: &mut Machine,
        root: Pfn,
        va: VAddr,
        leaf: Pte,
    ) -> Result<(), SvaError> {
        let mut table = root;
        for level in [PageTableLevel::L4, PageTableLevel::L3, PageTableLevel::L2] {
            let idx = level.index(va.0);
            let pte = read_pte(&machine.phys, table, idx);
            table = if pte.present() {
                pte.pfn()
            } else {
                let frame = machine.alloc_frame_checked().ok_or(SvaError::OutOfFrames)?;
                self.claim_page_table(machine, frame);
                write_pte(
                    &mut machine.phys,
                    table,
                    idx,
                    Pte::new(frame, PteFlags::table()),
                );
                frame
            };
        }
        write_pte(
            &mut machine.phys,
            table,
            PageTableLevel::L1.index(va.0),
            leaf,
        );
        Ok(())
    }

    pub(crate) fn unmap_page_unchecked(
        &mut self,
        machine: &mut Machine,
        root: Pfn,
        va: VAddr,
    ) -> Option<Pfn> {
        let mut table = root;
        for level in [PageTableLevel::L4, PageTableLevel::L3, PageTableLevel::L2] {
            let pte = read_pte(&machine.phys, table, level.index(va.0));
            if !pte.present() {
                return None;
            }
            table = pte.pfn();
        }
        let idx = PageTableLevel::L1.index(va.0);
        let old = read_pte(&machine.phys, table, idx);
        write_pte(&mut machine.phys, table, idx, Pte::absent());
        old.present().then(|| old.pfn())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protections;
    use vg_crypto::Tpm;
    use vg_machine::layout::{GHOST_BASE, SVA_INTERNAL_BASE};
    use vg_machine::mmu::AccessKind;

    fn setup(p: Protections) -> (SvaVm, Machine, Pfn) {
        let tpm = Tpm::new(1);
        let mut vm = SvaVm::boot(p, &tpm, 9);
        let mut machine = Machine::new(Default::default());
        let root = vm.sva_create_root(&mut machine).unwrap();
        (vm, machine, root)
    }

    #[test]
    fn map_and_translate() {
        let (mut vm, mut machine, root) = setup(Protections::virtual_ghost());
        let frame = machine.phys.alloc_frame().unwrap();
        vm.sva_map_page(
            &mut machine,
            root,
            VAddr(0x4000),
            frame,
            PteFlags::user_rw(),
        )
        .unwrap();
        vm.sva_load_root(&mut machine, root).unwrap();
        let pa = machine
            .mmu
            .translate(&machine.phys, VAddr(0x4008), AccessKind::Write, true)
            .unwrap();
        assert_eq!(pa.pfn(), frame);
        assert_eq!(vm.frames.map_count(frame), 1);
    }

    #[test]
    fn ghost_va_rejected_under_vg() {
        let (mut vm, mut machine, root) = setup(Protections::virtual_ghost());
        let frame = machine.phys.alloc_frame().unwrap();
        let err = vm
            .sva_map_page(
                &mut machine,
                root,
                VAddr(GHOST_BASE + 0x1000),
                frame,
                PteFlags::kernel_rw(),
            )
            .unwrap_err();
        assert_eq!(err, SvaError::Mmu(MmuCheckError::GhostVa));
        assert_eq!(machine.counters.mmu_rejections, 1);
    }

    #[test]
    fn sva_va_rejected_under_vg() {
        let (mut vm, mut machine, root) = setup(Protections::virtual_ghost());
        let frame = machine.phys.alloc_frame().unwrap();
        let err = vm
            .sva_map_page(
                &mut machine,
                root,
                VAddr(SVA_INTERNAL_BASE),
                frame,
                PteFlags::kernel_rw(),
            )
            .unwrap_err();
        assert_eq!(err, SvaError::Mmu(MmuCheckError::SvaVa));
    }

    #[test]
    fn ghost_frame_rejected_under_vg() {
        let (mut vm, mut machine, root) = setup(Protections::virtual_ghost());
        let frame = machine.phys.alloc_frame().unwrap();
        vm.frames.set_kind(frame, FrameKind::Ghost);
        let err = vm
            .sva_map_page(
                &mut machine,
                root,
                VAddr(0x4000),
                frame,
                PteFlags::user_rw(),
            )
            .unwrap_err();
        assert_eq!(err, SvaError::Mmu(MmuCheckError::GhostFrame));
    }

    #[test]
    fn page_table_frame_rejected_under_vg() {
        let (mut vm, mut machine, root) = setup(Protections::virtual_ghost());
        let err = vm
            .sva_map_page(&mut machine, root, VAddr(0x4000), root, PteFlags::user_rw())
            .unwrap_err();
        assert_eq!(err, SvaError::Mmu(MmuCheckError::PageTableFrame));
    }

    #[test]
    fn code_page_rules() {
        let (mut vm, mut machine, root) = setup(Protections::virtual_ghost());
        let code = machine.phys.alloc_frame().unwrap();
        vm.sva_map_code_page(&mut machine, root, VAddr(0x400000), code)
            .unwrap();
        // Cannot alias the code frame writable elsewhere.
        let err = vm
            .sva_map_page(
                &mut machine,
                root,
                VAddr(0x500000),
                code,
                PteFlags::user_rw(),
            )
            .unwrap_err();
        assert_eq!(err, SvaError::Mmu(MmuCheckError::CodeWritable));
        // Cannot remap or unmap the code VA.
        let other = machine.phys.alloc_frame().unwrap();
        let err = vm
            .sva_map_page(
                &mut machine,
                root,
                VAddr(0x400000),
                other,
                PteFlags::user_rw(),
            )
            .unwrap_err();
        assert_eq!(err, SvaError::Mmu(MmuCheckError::CodeRemap));
        let err = vm
            .sva_unmap_page(&mut machine, root, VAddr(0x400000))
            .unwrap_err();
        assert_eq!(err, SvaError::Mmu(MmuCheckError::CodeRemap));
        // Read-only aliasing is fine (shared text).
        vm.sva_map_code_page(&mut machine, root, VAddr(0x600000), code)
            .unwrap();
    }

    #[test]
    fn native_mode_allows_everything() {
        let (mut vm, mut machine, root) = setup(Protections::native());
        let frame = machine.phys.alloc_frame().unwrap();
        vm.frames.set_kind(frame, FrameKind::Ghost);
        // The hostile MMU attack the paper defends against: map a ghost
        // frame into a kernel-readable address. Native kernels can.
        vm.sva_map_page(
            &mut machine,
            root,
            VAddr(0x4000),
            frame,
            PteFlags::kernel_rw(),
        )
        .unwrap();
        assert_eq!(machine.counters.mmu_rejections, 0);
    }

    #[test]
    fn unmap_returns_frame_and_decrements() {
        let (mut vm, mut machine, root) = setup(Protections::virtual_ghost());
        let frame = machine.phys.alloc_frame().unwrap();
        vm.sva_map_page(
            &mut machine,
            root,
            VAddr(0x4000),
            frame,
            PteFlags::user_rw(),
        )
        .unwrap();
        let got = vm
            .sva_unmap_page(&mut machine, root, VAddr(0x4000))
            .unwrap();
        assert_eq!(got, Some(frame));
        assert_eq!(vm.frames.map_count(frame), 0);
        // Unmapping an absent page is a no-op.
        assert_eq!(
            vm.sva_unmap_page(&mut machine, root, VAddr(0x9000))
                .unwrap(),
            None
        );
    }

    #[test]
    fn bad_root_rejected() {
        let (mut vm, mut machine, _root) = setup(Protections::virtual_ghost());
        let fake = machine.phys.alloc_frame().unwrap();
        let frame = machine.phys.alloc_frame().unwrap();
        let err = vm
            .sva_map_page(
                &mut machine,
                fake,
                VAddr(0x4000),
                frame,
                PteFlags::user_rw(),
            )
            .unwrap_err();
        assert_eq!(err, SvaError::Mmu(MmuCheckError::BadRoot));
        assert_eq!(
            vm.sva_load_root(&mut machine, fake),
            Err(SvaError::Mmu(MmuCheckError::BadRoot))
        );
    }

    #[test]
    fn destroy_root_frees_tables() {
        let (mut vm, mut machine, root) = setup(Protections::virtual_ghost());
        let frame = machine.phys.alloc_frame().unwrap();
        vm.sva_map_page(
            &mut machine,
            root,
            VAddr(0x4000),
            frame,
            PteFlags::user_rw(),
        )
        .unwrap();
        let free_before = machine.phys.free_frames();
        vm.sva_destroy_root(&mut machine, root);
        // Root + 3 intermediate tables returned.
        assert_eq!(machine.phys.free_frames(), free_before + 4);
        assert_eq!(vm.frames.map_count(frame), 0);
        assert!(
            machine.phys.is_allocated(frame),
            "data frame stays with the OS"
        );
    }
}
