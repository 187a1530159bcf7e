//! Ghost memory management — `allocgm` / `freegm` (paper Table 1, §3.2).
//!
//! Ghost memory is the heart of Virtual Ghost: per-process memory the OS can
//! neither read nor write. The OS *donates* physical frames; the VM verifies
//! they carry no other mappings, zeroes them, maps them into the process's
//! ghost partition itself, and marks them [`FrameKind::Ghost`] so every
//! other checked operation (MMU updates, IOMMU configuration, swap-in)
//! refuses to expose them. On `freegm` the contents are zeroed before the
//! frames return to the OS, so nothing leaks in either direction.

use crate::frames::FrameKind;
use crate::{ProcId, SvaError, SvaVm};
use std::collections::{BTreeMap, HashMap};
use vg_machine::layout::{Region, PAGE_SIZE};
use vg_machine::pte::{Pte, PteFlags};
use vg_machine::{Domain, Machine, Pfn, TraceEvent, VAddr};

/// Tracks which ghost pages each process owns.
#[derive(Debug, Default)]
pub struct GhostManager {
    pub(crate) pages: HashMap<ProcId, BTreeMap<u64, Pfn>>, // vpn -> frame
}

impl GhostManager {
    /// An empty manager.
    pub fn new() -> Self {
        GhostManager::default()
    }

    /// Number of ghost pages held by `proc`.
    pub fn page_count(&self, proc: ProcId) -> usize {
        self.pages.get(&proc).map_or(0, |m| m.len())
    }

    /// The frame backing the ghost page at `vpn`, if any.
    pub fn frame_at(&self, proc: ProcId, vpn: u64) -> Option<Pfn> {
        self.pages.get(&proc).and_then(|m| m.get(&vpn)).copied()
    }

    /// The virtual page numbers of a process's resident ghost pages. The OS
    /// may see *which* pages exist (it donated the frames); only their
    /// contents are protected. Used by the kernel to pick swap victims.
    pub fn resident_vpns(&self, proc: ProcId) -> Vec<u64> {
        self.pages
            .get(&proc)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default()
    }
}

impl SvaVm {
    /// `allocgm(va, num)`: maps `frames` (donated by the OS) at `va` in the
    /// process's ghost partition.
    ///
    /// # Errors
    ///
    /// * [`SvaError::NotGhostRegion`] — `va..va+num*4096` is not entirely
    ///   inside the ghost partition or not page-aligned.
    /// * [`SvaError::FrameInUse`] — a donated frame is still mapped
    ///   somewhere or is not ordinary memory.
    /// * [`SvaError::OutOfFrames`] — page-table allocation failed.
    pub fn sva_allocgm(
        &mut self,
        machine: &mut Machine,
        proc: ProcId,
        root: Pfn,
        va: VAddr,
        frames: &[Pfn],
    ) -> Result<(), SvaError> {
        if va.page_offset() != 0 {
            return Err(SvaError::NotGhostRegion);
        }
        let len = frames.len() as u64 * PAGE_SIZE;
        if Region::of(va) != Region::Ghost || Region::of(VAddr(va.0 + len - 1)) != Region::Ghost {
            return Err(SvaError::NotGhostRegion);
        }
        // Verify the OS has removed all mappings for every donated frame
        // before touching anything — including DMA visibility: a frame left
        // in the IOMMU table would let a device read the ghost page later.
        // (Found by the randomized-operation property test.)
        let mut seen = std::collections::HashSet::with_capacity(frames.len());
        for &f in frames {
            if !self.frames.transferable_to_ghost(f)
                || !machine.phys.is_allocated(f)
                || machine.iommu.is_mapped(f)
                || !seen.insert(f)
            {
                return Err(SvaError::FrameInUse);
            }
        }
        let t0 = machine.clock.cycles();
        for (i, &f) in frames.iter().enumerate() {
            machine.prof_push(Domain::Sva, "sva.allocgm");
            machine.charge(machine.costs.ghost_page_op + machine.costs.frame_zero);
            machine.prof_pop();
            machine.counters.ghost_pages_allocated += 1;
            machine.phys.zero_frame(f);
            self.frames.set_kind(f, FrameKind::Ghost);
            let page_va = VAddr(va.0 + i as u64 * PAGE_SIZE);
            self.map_page_unchecked(machine, root, page_va, Pte::new(f, PteFlags::user_rw()))?;
            machine.tlb_flush_page(page_va.vpn());
            self.ghost
                .pages
                .entry(proc)
                .or_default()
                .insert(page_va.vpn().0, f);
            machine.trace_emit(TraceEvent::GhostAlloc {
                va: page_va.0,
                pfn: f.0,
            });
        }
        machine.trace_complete("sva", "sva.allocgm", t0);
        Ok(())
    }

    /// `freegm(va, num)`: unmaps `num` ghost pages starting at `va`, zeroes
    /// them, and returns the frames to the OS.
    ///
    /// # Errors
    ///
    /// [`SvaError::NotGhostMapped`] if any page in the range was not
    /// allocated to `proc` via `allocgm`.
    pub fn sva_freegm(
        &mut self,
        machine: &mut Machine,
        proc: ProcId,
        root: Pfn,
        va: VAddr,
        num: u64,
    ) -> Result<Vec<Pfn>, SvaError> {
        if va.page_offset() != 0 || Region::of(va) != Region::Ghost {
            return Err(SvaError::NotGhostRegion);
        }
        // Validate the whole range first (all-or-nothing).
        let proc_pages = self
            .ghost
            .pages
            .get(&proc)
            .ok_or(SvaError::NotGhostMapped)?;
        let base_vpn = va.vpn().0;
        for i in 0..num {
            if !proc_pages.contains_key(&(base_vpn + i)) {
                return Err(SvaError::NotGhostMapped);
            }
        }
        let t0 = machine.clock.cycles();
        let mut freed = Vec::with_capacity(num as usize);
        for i in 0..num {
            machine.prof_push(Domain::Sva, "sva.freegm");
            machine.charge(machine.costs.ghost_page_op + machine.costs.frame_zero);
            machine.prof_pop();
            machine.counters.ghost_pages_freed += 1;
            let vpn = base_vpn + i;
            let pfn = self
                .ghost
                .pages
                .get_mut(&proc)
                .unwrap()
                .remove(&vpn)
                .unwrap();
            self.unmap_page_unchecked(machine, root, VAddr(vpn * PAGE_SIZE));
            machine.tlb_flush_page(vg_machine::Vpn(vpn));
            machine.phys.zero_frame(pfn);
            self.frames.set_kind(pfn, FrameKind::Regular);
            machine.trace_emit(TraceEvent::GhostFree {
                va: vpn * PAGE_SIZE,
                pfn: pfn.0,
            });
            freed.push(pfn);
        }
        machine.trace_complete("sva", "sva.freegm", t0);
        Ok(freed)
    }

    /// Tears down all ghost memory of a process (exit, or `exec` per §4.6.2:
    /// "any ghost memory associated with the interrupted program is unmapped
    /// when the Interrupt Context is reinitialized"). Returns the zeroed
    /// frames to the OS.
    pub fn sva_release_ghost(
        &mut self,
        machine: &mut Machine,
        proc: ProcId,
        root: Pfn,
    ) -> Vec<Pfn> {
        let Some(pages) = self.ghost.pages.remove(&proc) else {
            return Vec::new();
        };
        let t0 = machine.clock.cycles();
        let mut freed = Vec::with_capacity(pages.len());
        for (vpn, pfn) in pages {
            machine.prof_push(Domain::Sva, "sva.release_ghost");
            machine.charge(machine.costs.ghost_page_op + machine.costs.frame_zero);
            machine.prof_pop();
            machine.counters.ghost_pages_freed += 1;
            self.unmap_page_unchecked(machine, root, VAddr(vpn * PAGE_SIZE));
            machine.tlb_flush_page(vg_machine::Vpn(vpn));
            machine.phys.zero_frame(pfn);
            self.frames.set_kind(pfn, FrameKind::Regular);
            machine.trace_emit(TraceEvent::GhostFree {
                va: vpn * PAGE_SIZE,
                pfn: pfn.0,
            });
            freed.push(pfn);
        }
        machine.trace_complete("sva", "sva.release_ghost", t0);
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protections;
    use vg_crypto::Tpm;
    use vg_machine::layout::GHOST_BASE;
    use vg_machine::mmu::AccessKind;

    const P: ProcId = ProcId(7);

    fn setup() -> (SvaVm, Machine, Pfn) {
        let tpm = Tpm::new(1);
        let mut vm = SvaVm::boot(Protections::virtual_ghost(), &tpm, 5);
        let mut machine = Machine::new(Default::default());
        let root = vm.sva_create_root(&mut machine).unwrap();
        (vm, machine, root)
    }

    fn donate(machine: &mut Machine, n: usize) -> Vec<Pfn> {
        (0..n)
            .map(|_| machine.phys.alloc_frame().unwrap())
            .collect()
    }

    #[test]
    fn allocgm_maps_zeroed_ghost_pages() {
        let (mut vm, mut machine, root) = setup();
        let frames = donate(&mut machine, 2);
        machine.phys.write_u64(frames[0], 0, 0x1badcafe); // stale OS data
        let va = VAddr(GHOST_BASE + 0x10_000);
        vm.sva_allocgm(&mut machine, P, root, va, &frames).unwrap();
        assert_eq!(vm.ghost.page_count(P), 2);
        assert_eq!(vm.frames.kind(frames[0]), FrameKind::Ghost);
        // Contents were zeroed (no leakage from prior OS use).
        assert_eq!(machine.phys.read_u64(frames[0], 0), 0);
        // The mapping is live for the application.
        vm.sva_load_root(&mut machine, root).unwrap();
        let pa = machine
            .mmu
            .translate(&machine.phys, va, AccessKind::Write, true)
            .unwrap();
        assert_eq!(pa.pfn(), frames[0]);
    }

    #[test]
    fn allocgm_rejects_non_ghost_va() {
        let (mut vm, mut machine, root) = setup();
        let frames = donate(&mut machine, 1);
        assert_eq!(
            vm.sva_allocgm(&mut machine, P, root, VAddr(0x4000), &frames),
            Err(SvaError::NotGhostRegion)
        );
        // Unaligned ghost address also rejected.
        assert_eq!(
            vm.sva_allocgm(&mut machine, P, root, VAddr(GHOST_BASE + 12), &frames),
            Err(SvaError::NotGhostRegion)
        );
    }

    #[test]
    fn allocgm_rejects_mapped_frames() {
        let (mut vm, mut machine, root) = setup();
        let frames = donate(&mut machine, 1);
        // The OS "forgot" to unmap the frame first.
        vm.sva_map_page(
            &mut machine,
            root,
            VAddr(0x4000),
            frames[0],
            PteFlags::user_rw(),
        )
        .unwrap();
        assert_eq!(
            vm.sva_allocgm(&mut machine, P, root, VAddr(GHOST_BASE), &frames),
            Err(SvaError::FrameInUse)
        );
    }

    #[test]
    fn ghost_frames_cannot_be_mapped_by_os_afterwards() {
        let (mut vm, mut machine, root) = setup();
        let frames = donate(&mut machine, 1);
        vm.sva_allocgm(&mut machine, P, root, VAddr(GHOST_BASE), &frames)
            .unwrap();
        // The §2.2.1 MMU attack: map the ghost frame at an OS-readable VA.
        let err = vm
            .sva_map_page(
                &mut machine,
                root,
                VAddr(0x4000),
                frames[0],
                PteFlags::kernel_rw(),
            )
            .unwrap_err();
        assert_eq!(err, SvaError::Mmu(crate::MmuCheckError::GhostFrame));
    }

    #[test]
    fn freegm_zeroes_and_returns_frames() {
        let (mut vm, mut machine, root) = setup();
        let frames = donate(&mut machine, 2);
        let va = VAddr(GHOST_BASE);
        vm.sva_allocgm(&mut machine, P, root, va, &frames).unwrap();
        // The app writes a secret into ghost memory.
        machine.phys.write_u64(frames[0], 0, 0x5ec7e7);
        let freed = vm.sva_freegm(&mut machine, P, root, va, 2).unwrap();
        assert_eq!(freed, frames);
        assert_eq!(vm.ghost.page_count(P), 0);
        assert_eq!(vm.frames.kind(frames[0]), FrameKind::Regular);
        // Secret was scrubbed before the OS got the frame back.
        assert_eq!(machine.phys.read_u64(frames[0], 0), 0);
    }

    #[test]
    fn freegm_rejects_unallocated_range() {
        let (mut vm, mut machine, root) = setup();
        let frames = donate(&mut machine, 1);
        vm.sva_allocgm(&mut machine, P, root, VAddr(GHOST_BASE), &frames)
            .unwrap();
        // Range extends one page past the allocation: all-or-nothing reject.
        assert_eq!(
            vm.sva_freegm(&mut machine, P, root, VAddr(GHOST_BASE), 2),
            Err(SvaError::NotGhostMapped)
        );
        assert_eq!(vm.ghost.page_count(P), 1, "nothing was freed");
        // Wrong process: rejected.
        assert_eq!(
            vm.sva_freegm(&mut machine, ProcId(99), root, VAddr(GHOST_BASE), 1),
            Err(SvaError::NotGhostMapped)
        );
    }

    #[test]
    fn release_ghost_tears_down_everything() {
        let (mut vm, mut machine, root) = setup();
        let frames = donate(&mut machine, 3);
        vm.sva_allocgm(&mut machine, P, root, VAddr(GHOST_BASE), &frames)
            .unwrap();
        machine.phys.write_u64(frames[2], 8, 42);
        let freed = vm.sva_release_ghost(&mut machine, P, root);
        assert_eq!(freed.len(), 3);
        assert_eq!(vm.ghost.page_count(P), 0);
        assert_eq!(machine.phys.read_u64(frames[2], 8), 0);
        // Idempotent.
        assert!(vm.sva_release_ghost(&mut machine, P, root).is_empty());
    }

    #[test]
    fn ghost_pages_tracked_per_process() {
        let (mut vm, mut machine, root) = setup();
        let f1 = donate(&mut machine, 1);
        let f2 = donate(&mut machine, 1);
        vm.sva_allocgm(&mut machine, ProcId(1), root, VAddr(GHOST_BASE), &f1)
            .unwrap();
        vm.sva_allocgm(
            &mut machine,
            ProcId(2),
            root,
            VAddr(GHOST_BASE + 0x1000),
            &f2,
        )
        .unwrap();
        assert_eq!(vm.ghost.page_count(ProcId(1)), 1);
        assert_eq!(vm.ghost.page_count(ProcId(2)), 1);
        assert_eq!(
            vm.ghost.frame_at(ProcId(1), VAddr(GHOST_BASE).vpn().0),
            Some(f1[0])
        );
    }
}
