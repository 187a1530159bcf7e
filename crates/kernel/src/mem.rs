//! Kernel memory machinery: work and copyin/copyout charging, user address
//! spaces for demand paging, and the byte-wise memory buses handed to
//! executing code.
//!
//! The charging helpers are where the cost model meets the kernel: every
//! kernel path reports how many instrumentable memory accesses and
//! returns/indirect calls it performs; under the Virtual Ghost cost model
//! each access additionally pays the load/store mask and each branch the CFI
//! check (see `vg-machine::cost`).

use crate::dmap::DirectMap;
use std::collections::BTreeMap;
use vg_core::SvaVm;
use vg_ir::inst::Width;
use vg_ir::interp::{MemBus, MemFault};
use vg_machine::layout::{KERNEL_BASE, PAGE_SIZE, SVA_INTERNAL_BASE};
use vg_machine::mmu::AccessKind;
use vg_machine::{Machine, PAddr, Pfn, VAddr};

/// Charges one unit of kernel work: `accesses` instrumentable memory
/// accesses and `branches` returns/indirect calls.
#[inline]
pub fn kwork(machine: &mut Machine, accesses: u64, branches: u64) {
    machine.counters.kernel_accesses += accesses;
    machine.counters.kernel_branches += branches;
    let c = &machine.costs;
    let cycles =
        accesses * (c.kernel_access + c.mask_access) + branches * (c.kernel_branch + c.cfi_branch);
    machine.charge(cycles);
}

/// Charges a copyin/copyout of `bytes` bytes (one instrumented `memcpy`).
#[inline]
pub fn copy_cost(machine: &mut Machine, bytes: u64) {
    machine.counters.bytes_copied += bytes;
    let c = &machine.costs;
    let cycles = c.mask_memcpy + bytes * c.copy_per_byte;
    machine.charge(cycles);
}

/// Charges the cycles for work an interpreter run reported.
pub fn charge_interp(machine: &mut Machine, stats: &vg_ir::InterpStats) {
    let c = &machine.costs;
    let cycles = stats.insts
        + (stats.loads + stats.stores) * c.kernel_access
        + stats.masks * c.mask_access
        + stats.cfi_checks * c.cfi_branch
        + stats.returns * c.kernel_branch
        + stats.memcpy_bytes * c.copy_per_byte;
    machine.counters.kernel_accesses += stats.loads + stats.stores;
    machine.counters.kernel_branches += stats.returns;
    machine.charge(cycles);
}

/// A lazily-populated region of a user address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionKind {
    /// Anonymous zero-fill memory (heap, mmap MAP_ANON).
    Anon,
    /// Pages backed by a file (mmap of a file).
    File {
        /// Backing inode.
        ino: crate::fs::Ino,
        /// Offset of the region start within the file.
        offset: u64,
    },
}

/// A mapped region.
#[derive(Debug, Clone)]
pub struct Region {
    /// First address.
    pub start: u64,
    /// Length in bytes (page multiple).
    pub len: u64,
    /// Backing.
    pub kind: RegionKind,
}

/// Per-process user address-space bookkeeping. Actual translations live in
/// the hardware page tables; this records what *should* be mapped so the
/// page-fault handler can materialize pages on demand.
#[derive(Debug, Default)]
pub struct AddressSpace {
    /// Mapped regions, keyed by start.
    pub regions: BTreeMap<u64, Region>,
    /// Next address the mmap allocator hands out.
    pub mmap_cursor: u64,
    /// Current heap break.
    pub brk: u64,
    /// Pages currently materialized (va → pfn), for fork copies & teardown.
    pub pages: BTreeMap<u64, Pfn>,
}

/// Base of the mmap allocation area.
pub const MMAP_BASE: u64 = 0x0000_2000_0000;
/// Base of the heap (brk) area.
pub const HEAP_BASE: u64 = 0x0000_1000_0000;
/// Top of the initial user stack.
pub const STACK_TOP: u64 = 0x0000_7fff_f000;

impl AddressSpace {
    /// A fresh address space with empty heap and mmap areas.
    pub fn new() -> Self {
        AddressSpace {
            regions: BTreeMap::new(),
            mmap_cursor: MMAP_BASE,
            brk: HEAP_BASE,
            pages: BTreeMap::new(),
        }
    }

    /// The region containing `va`, if any.
    pub fn region_at(&self, va: u64) -> Option<&Region> {
        self.regions
            .range(..=va)
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| va < r.start + r.len)
    }

    /// Reserves `len` bytes (rounded up to pages) at the mmap cursor.
    pub fn reserve_mmap(&mut self, len: u64, kind: RegionKind) -> u64 {
        let len = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let start = self.mmap_cursor;
        self.mmap_cursor += len + PAGE_SIZE; // guard gap
        self.regions.insert(start, Region { start, len, kind });
        start
    }

    /// Removes the region starting at `va`; returns it if it existed.
    pub fn remove_region(&mut self, va: u64) -> Option<Region> {
        self.regions.remove(&va)
    }

    /// Grows or shrinks the heap; returns the new break and, on shrink, the
    /// materialized pages past the new (page-rounded) break. Those pages are
    /// already removed from the bookkeeping — the caller owns unmapping them
    /// from the page tables and freeing the frames (see `sys_brk`), so a
    /// regrown heap demand-faults fresh zero-filled pages instead of
    /// resurrecting stale contents.
    pub fn set_brk(&mut self, new_brk: u64) -> (u64, Vec<(u64, Pfn)>) {
        let new_brk = new_brk.max(HEAP_BASE);
        self.brk = new_brk;
        let old_len = self.regions.get(&HEAP_BASE).map_or(0, |r| r.len);
        // The heap is one anon region from HEAP_BASE to the rounded break.
        let len = (new_brk - HEAP_BASE).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        if len > 0 {
            self.regions.insert(
                HEAP_BASE,
                Region {
                    start: HEAP_BASE,
                    len,
                    kind: RegionKind::Anon,
                },
            );
        } else {
            self.regions.remove(&HEAP_BASE);
        }
        let torn = self.take_pages(HEAP_BASE + len..HEAP_BASE + old_len.max(len));
        (self.brk, torn)
    }

    /// Removes the materialized pages in `range` from the bookkeeping and
    /// returns them in address order; the caller unmaps and frees them.
    pub fn take_pages(&mut self, range: std::ops::Range<u64>) -> Vec<(u64, Pfn)> {
        let torn: Vec<(u64, Pfn)> = self
            .pages
            .range(range)
            .map(|(&va, &pfn)| (va, pfn))
            .collect();
        for (va, _) in &torn {
            self.pages.remove(va);
        }
        torn
    }
}

/// The memory bus kernel-mode code (including loaded kernel modules) sees.
///
/// * User-space addresses translate through the current page tables with
///   supervisor privilege — which, as on the paper's hardware, **includes
///   ghost pages**: nothing at the MMU level stops the kernel; only the
///   compiler instrumentation (executed by the module itself) does.
/// * Kernel-heap addresses hit the kernel data segment.
/// * Other kernel addresses read deterministic garbage and swallow writes —
///   matching the paper's observed behaviour where a masked ghost pointer
///   makes "the kernel simply read unknown data out of its own address
///   space" rather than crash.
///
/// Accesses move one byte per translation, so a wide access faults on the
/// exact byte the hardware would: loads probe high-to-low (a page-crossing
/// load into an unmapped page faults at `addr + n - 1`), stores low-to-high
/// (a page-crossing store writes its mapped prefix, then faults at the
/// boundary). `memcpy` is the trait's byte copy. See DESIGN.md §6.1.
///
/// Each user byte then goes through the kernel's direct map: under Virtual
/// Ghost a byte in a frame the kernel does not own faults too, with a
/// flight-recorder entry (`crate::dmap`).
#[derive(Debug)]
pub struct KernelMem<'a> {
    /// The machine (page tables + physical memory).
    pub machine: &'a mut Machine,
    /// The trusted layer, whose frame table the direct map checks.
    pub vm: &'a SvaVm,
    /// The kernel data segment, modeled as a flat buffer at `KERNEL_BASE`.
    pub kernel_heap: &'a mut Vec<u8>,
}

impl KernelMem<'_> {
    /// The user byte at `addr`, translated with supervisor privilege, then
    /// read or overwritten with `write` through the direct map.
    fn user_byte(&mut self, addr: u64, write: Option<u8>) -> Result<u8, MemFault> {
        let fault = MemFault {
            addr,
            write: write.is_some(),
        };
        let kind = if write.is_some() {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let pa = self
            .machine
            .translate(VAddr(addr), kind, false)
            .map_err(|_| fault)?;
        let mut dmap = DirectMap::new(self.machine, self.vm);
        let (pfn, off) = (pa.pfn(), pa.frame_offset());
        match write {
            Some(b) => dmap.write(pfn, off, &[b]).map(|()| b),
            None => dmap.bytes(pfn, off, 1).map(|b| b[0]),
        }
        .map_err(|_| fault)
    }

    /// One byte of the kernel segment: the heap where mapped, deterministic
    /// garbage elsewhere (a masked ghost pointer makes the kernel "read
    /// unknown data out of its own address space", never crash).
    #[inline]
    fn kernel_byte(&self, addr: u64) -> u8 {
        let off = addr.wrapping_sub(KERNEL_BASE) as usize;
        self.kernel_heap
            .get(off)
            .copied()
            .unwrap_or_else(|| (addr.wrapping_mul(0x9e3779b1) >> 16) as u8)
    }
}

impl MemBus for KernelMem<'_> {
    fn load(&mut self, addr: u64, width: Width) -> Result<u64, MemFault> {
        let mut v = 0u64;
        for i in (0..width.bytes()).rev() {
            let byte = if addr >= KERNEL_BASE {
                self.kernel_byte(addr.wrapping_add(i))
            } else {
                self.user_byte(addr + i, None)?
            };
            v = (v << 8) | byte as u64;
        }
        Ok(v)
    }

    fn store(&mut self, addr: u64, width: Width, value: u64) -> Result<(), MemFault> {
        let n = width.bytes();
        if (SVA_INTERNAL_BASE..vg_machine::layout::SVA_INTERNAL_END).contains(&addr) {
            // Writes into SVA internal memory silently vanish for native
            // kernels too — there is nothing mapped there for the OS.
            return Ok(());
        }
        if addr >= KERNEL_BASE {
            let off = addr.wrapping_sub(KERNEL_BASE) as usize;
            for i in 0..n as usize {
                if let Some(b) = self.kernel_heap.get_mut(off + i) {
                    *b = (value >> (8 * i)) as u8;
                }
                // Out-of-segment kernel writes are swallowed.
            }
            return Ok(());
        }
        for i in 0..n {
            self.user_byte(addr + i, Some((value >> (8 * i)) as u8))?;
        }
        Ok(())
    }
}

/// The memory bus user-mode code sees: translations require the USER bit.
/// Ghost pages *are* user pages, so code genuinely running as the
/// application (e.g. injected exploit code dispatched as a signal handler on
/// a native system) can read ghost memory — which is why Virtual Ghost must
/// stop the dispatch itself.
///
/// Byte-wise like [`KernelMem`] (see there for the fault-address
/// convention).
#[derive(Debug)]
pub struct UserMem<'a> {
    /// The machine (page tables + physical memory).
    pub machine: &'a mut Machine,
}

impl UserMem<'_> {
    fn pa(&mut self, addr: u64, write: bool) -> Result<PAddr, MemFault> {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.machine
            .translate(VAddr(addr), kind, true)
            .map_err(|_| MemFault { addr, write })
    }
}

impl MemBus for UserMem<'_> {
    fn load(&mut self, addr: u64, width: Width) -> Result<u64, MemFault> {
        let mut v = 0u64;
        for i in (0..width.bytes()).rev() {
            let pa = self.pa(addr + i, false)?;
            v = (v << 8) | self.machine.phys.bytes(pa.pfn(), pa.frame_offset(), 1)[0] as u64;
        }
        Ok(v)
    }

    fn store(&mut self, addr: u64, width: Width, value: u64) -> Result<(), MemFault> {
        for i in 0..width.bytes() {
            let pa = self.pa(addr + i, true)?;
            let byte = [(value >> (8 * i)) as u8];
            self.machine
                .phys
                .write_bytes(pa.pfn(), pa.frame_offset(), &byte);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_machine::cost::CostModel;
    use vg_machine::MachineConfig;

    /// A Virtual Ghost SVA VM: with nothing claimed in its frame table,
    /// every allocated frame passes the kernel bus's direct-map check.
    fn vm() -> SvaVm {
        vm_with(vg_core::Protections::virtual_ghost())
    }

    fn vm_with(protections: vg_core::Protections) -> SvaVm {
        SvaVm::boot_with_key_bits(protections, &vg_crypto::Tpm::new(1), 1, 64)
    }

    #[test]
    fn kwork_charges_more_under_vg() {
        let mut native = Machine::new(MachineConfig::default());
        let mut vg = Machine::new(MachineConfig {
            costs: CostModel::virtual_ghost(),
            ..Default::default()
        });
        kwork(&mut native, 1000, 100);
        kwork(&mut vg, 1000, 100);
        assert!(vg.clock.cycles() > native.clock.cycles() * 3);
        assert_eq!(native.counters.kernel_accesses, 1000);
    }

    #[test]
    fn copy_cost_scales_with_bytes() {
        let mut m = Machine::new(MachineConfig::default());
        copy_cost(&mut m, 4096);
        let c = m.clock.cycles();
        copy_cost(&mut m, 4096);
        assert_eq!(m.clock.cycles(), 2 * c);
        assert_eq!(m.counters.bytes_copied, 8192);
    }

    #[test]
    fn address_space_regions() {
        let mut a = AddressSpace::new();
        let va = a.reserve_mmap(5000, RegionKind::Anon);
        assert_eq!(va % PAGE_SIZE, 0);
        assert!(a.region_at(va).is_some());
        assert!(a.region_at(va + 8191).is_some(), "rounded up to two pages");
        assert!(a.region_at(va + 8192).is_none());
        let second = a.reserve_mmap(100, RegionKind::Anon);
        assert!(second >= va + 8192);
        assert!(a.remove_region(va).is_some());
        assert!(a.region_at(va).is_none());
    }

    #[test]
    fn brk_grows_heap_region() {
        let mut a = AddressSpace::new();
        assert!(a.region_at(HEAP_BASE).is_none());
        a.set_brk(HEAP_BASE + 10_000);
        assert!(a.region_at(HEAP_BASE + 9_999).is_some());
    }

    #[test]
    fn brk_shrink_tears_down_region_and_pages() {
        let mut a = AddressSpace::new();
        a.set_brk(HEAP_BASE + 3 * PAGE_SIZE);
        a.pages.insert(HEAP_BASE, Pfn(10));
        a.pages.insert(HEAP_BASE + PAGE_SIZE, Pfn(11));
        a.pages.insert(HEAP_BASE + 2 * PAGE_SIZE, Pfn(12));

        // Partial shrink: the region shrinks and only pages past the new
        // break come back for teardown.
        let (brk, torn) = a.set_brk(HEAP_BASE + PAGE_SIZE);
        assert_eq!(brk, HEAP_BASE + PAGE_SIZE);
        assert_eq!(
            torn,
            vec![
                (HEAP_BASE + PAGE_SIZE, Pfn(11)),
                (HEAP_BASE + 2 * PAGE_SIZE, Pfn(12))
            ]
        );
        assert!(a.region_at(HEAP_BASE).is_some());
        assert!(a.region_at(HEAP_BASE + PAGE_SIZE).is_none());
        assert!(a.pages.contains_key(&HEAP_BASE));

        // Shrink to zero: the region disappears entirely.
        let (brk, torn) = a.set_brk(0);
        assert_eq!(brk, HEAP_BASE);
        assert_eq!(torn, vec![(HEAP_BASE, Pfn(10))]);
        assert!(a.region_at(HEAP_BASE).is_none());
        assert!(a.pages.is_empty());
    }

    #[test]
    fn kernel_mem_garbage_reads_do_not_fault() {
        let mut machine = Machine::new(MachineConfig::default());
        let mut heap = vec![0u8; 4096];
        heap[8] = 0xab;
        let mut km = KernelMem {
            machine: &mut machine,
            vm: &vm(),
            kernel_heap: &mut heap,
        };
        // In-segment read.
        assert_eq!(km.load(KERNEL_BASE + 8, Width::W1).unwrap(), 0xab);
        // Out-of-segment kernel read: deterministic garbage, not a fault —
        // exactly what a masked ghost pointer produces.
        let g1 = km.load(KERNEL_BASE + 0x4000_0000, Width::W8).unwrap();
        let g2 = km.load(KERNEL_BASE + 0x4000_0000, Width::W8).unwrap();
        assert_eq!(g1, g2);
        // In-segment write sticks; out-of-segment write is swallowed.
        km.store(KERNEL_BASE + 16, Width::W4, 0x1234).unwrap();
        assert_eq!(km.load(KERNEL_BASE + 16, Width::W4).unwrap(), 0x1234);
        km.store(KERNEL_BASE + 0x4000_0000, Width::W8, 5).unwrap();
    }

    #[test]
    fn kernel_mem_faults_on_unmapped_user() {
        let mut machine = Machine::new(MachineConfig::default());
        let root = machine.phys.alloc_frame().unwrap();
        machine.mmu.set_root(root);
        let mut heap = Vec::new();
        let mut km = KernelMem {
            machine: &mut machine,
            vm: &vm(),
            kernel_heap: &mut heap,
        };
        assert!(km.load(0x4000, Width::W8).is_err());
    }

    /// Base of the user window [`bus_machine`] maps.
    const USER: u64 = 0x10_0000;

    /// A machine whose user window at [`USER`] is: page 0 read-write,
    /// page 1 unmapped, page 2 read-only, page 3 supervisor-only. Every
    /// mapped byte starts at `0x5a`.
    fn bus_machine() -> Machine {
        use vg_machine::mmu::map_page_raw;
        use vg_machine::pte::{Pte, PteFlags};
        let mut m = Machine::new(MachineConfig::default());
        let root = m.phys.alloc_frame().unwrap();
        m.mmu.set_root(root);
        let read_only = PteFlags(PteFlags::user_rw().0 & !PteFlags::WRITE);
        for (page, flags) in [
            (0, PteFlags::user_rw()),
            (2, read_only),
            (3, PteFlags::kernel_rw()),
        ] {
            let frame = m.phys.alloc_frame().unwrap();
            m.phys.write_bytes(frame, 0, &[0x5a; PAGE_SIZE as usize]);
            let va = VAddr(USER + page * PAGE_SIZE);
            map_page_raw(&mut m.phys, root, va, Pte::new(frame, flags)).unwrap();
        }
        m
    }

    fn read_fault(addr: u64) -> Result<u64, MemFault> {
        Err(MemFault { addr, write: false })
    }

    fn write_fault(addr: u64) -> Result<(), MemFault> {
        Err(MemFault { addr, write: true })
    }

    /// Runs `check` on a kernel bus, then on a user bus, each over a fresh
    /// [`bus_machine`].
    fn on_both_buses(check: impl Fn(&mut dyn MemBus)) {
        check(&mut KernelMem {
            machine: &mut bus_machine(),
            vm: &vm(),
            kernel_heap: &mut Vec::new(),
        });
        check(&mut UserMem {
            machine: &mut bus_machine(),
        });
    }

    /// Loads probe high-to-low, so a load running from a mapped page into
    /// an unmapped one faults at its last byte.
    #[test]
    fn page_crossing_load_into_unmapped_page_faults_at_its_last_byte() {
        on_both_buses(|bus| {
            let addr = USER + PAGE_SIZE - 3;
            assert_eq!(bus.load(addr, Width::W8), read_fault(addr + 7));
            assert_eq!(bus.load(addr, Width::W2).unwrap(), 0x5a5a);
        });
    }

    /// Stores go low-to-high: the mapped prefix lands, then the first byte
    /// of the unmapped page faults.
    #[test]
    fn page_crossing_store_writes_its_prefix_then_faults_at_the_boundary() {
        on_both_buses(|bus| {
            let addr = USER + PAGE_SIZE - 3;
            let r = bus.store(addr, Width::W8, 0x8877_6655_4433_2211);
            assert_eq!(r, write_fault(USER + PAGE_SIZE));
            assert_eq!(bus.load(addr - 1, Width::W4).unwrap(), 0x3322_115a);
        });
    }

    #[test]
    fn store_to_read_only_page_faults_as_a_write() {
        on_both_buses(|bus| {
            let addr = USER + 2 * PAGE_SIZE + 8;
            assert_eq!(bus.store(addr, Width::W4, 1), write_fault(addr));
            assert_eq!(bus.load(addr, Width::W4).unwrap(), 0x5a5a_5a5a);
        });
    }

    /// The kernel bus swallows stores into SVA-internal memory: nothing is
    /// mapped there for the OS, and what it reads there is unchanged.
    #[test]
    fn kernel_stores_to_sva_internal_memory_are_swallowed() {
        let mut m = bus_machine();
        let mut heap = vec![0u8; 64];
        let vm = vm();
        let km = &mut KernelMem {
            machine: &mut m,
            vm: &vm,
            kernel_heap: &mut heap,
        };
        let addr = SVA_INTERNAL_BASE + 0x40;
        let before = km.load(addr, Width::W8).unwrap();
        assert_eq!(km.store(addr, Width::W8, !before), Ok(()));
        assert_eq!(km.load(addr, Width::W8).unwrap(), before);
        assert_eq!(heap, vec![0u8; 64]);
    }

    /// The kernel bus reaches user bytes through the direct map: under
    /// Virtual Ghost a byte in a frame the kernel does not own faults, with
    /// one recorded denial per access; natively the bus reaches it.
    #[test]
    fn kernel_bus_faults_on_frames_the_kernel_does_not_own() {
        use vg_core::Protections;
        for (protections, refused) in [
            (Protections::virtual_ghost(), true),
            (Protections::native(), false),
        ] {
            let mut m = bus_machine();
            let mut vm = vm_with(protections);
            let pa = m.translate(VAddr(USER), AccessKind::Read, false).unwrap();
            vm.frames.set_kind(pa.pfn(), vg_core::FrameKind::Ghost);
            let km = &mut KernelMem {
                machine: &mut m,
                vm: &vm,
                kernel_heap: &mut Vec::new(),
            };
            let addr = USER + 8;
            let load = km.load(addr, Width::W1);
            let store = km.store(addr, Width::W1, 0);
            if refused {
                assert_eq!((load, store), (read_fault(addr), write_fault(addr)));
                assert_eq!(m.trace.flight.total(), 2);
            } else {
                assert_eq!((load, store), (Ok(0x5a), Ok(())));
                assert_eq!(m.trace.flight.total(), 0);
            }
        }
    }

    /// Only the kernel bus reaches a supervisor-only page or a kernel
    /// address; the user bus faults on both.
    #[test]
    fn user_bus_faults_on_supervisor_pages_and_kernel_addresses() {
        let sup = USER + 3 * PAGE_SIZE + 16;
        let mut m = bus_machine();
        let mut heap = vec![0x11u8; 64];
        let vm = vm();
        let km = &mut KernelMem {
            machine: &mut m,
            vm: &vm,
            kernel_heap: &mut heap,
        };
        assert_eq!(km.load(sup, Width::W1).unwrap(), 0x5a);
        assert_eq!(km.load(KERNEL_BASE, Width::W1).unwrap(), 0x11);
        let um = &mut UserMem { machine: &mut m };
        assert_eq!(um.load(sup, Width::W1), read_fault(sup));
        assert_eq!(um.store(sup, Width::W1, 0), write_fault(sup));
        assert_eq!(um.load(KERNEL_BASE, Width::W1), read_fault(KERNEL_BASE));
        assert_eq!(
            um.store(KERNEL_BASE, Width::W1, 0),
            write_fault(KERNEL_BASE)
        );
    }
}
