//! The cycle cost model and clock.
//!
//! The paper measures wall-clock time on an Intel Core i7-3770 at 3.4 GHz.
//! The simulation instead advances a deterministic cycle [`Clock`]; a
//! [`CostModel`] says how many cycles each primitive operation costs.
//!
//! Two calibration principles (DESIGN.md §6):
//!
//! 1. The **native** model is calibrated so the LMBench microbenchmarks land
//!    near the paper's native column (e.g. a null system call ≈ 0.09 µs ≈
//!    310 cycles).
//! 2. The **Virtual Ghost** model differs *only* in the fields that
//!    correspond to work Virtual Ghost actually adds — interrupt-context
//!    save/restore into SVA memory with register scrubbing, CFI checks on
//!    returns and indirect calls, load/store masking, and MMU-update checks.
//!    Those per-event costs are *effective* costs (they fold in icache/BTB
//!    pressure the real instrumentation causes) calibrated once against
//!    Table 2 and then reused unchanged for every other experiment, so the
//!    application-level shapes (thttpd ≈ 1×, Postmark ≈ 4.7×) are emergent.

/// Cycles per microsecond at the paper's 3.4 GHz clock.
pub const CYCLES_PER_US: f64 = 3400.0;

/// A monotonically advancing cycle counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Clock {
    cycles: u64,
}

impl Clock {
    /// A clock at zero.
    pub fn new() -> Self {
        Clock { cycles: 0 }
    }

    /// Advances by `cycles`.
    #[inline]
    pub fn advance(&mut self, cycles: u64) {
        self.cycles = self.cycles.wrapping_add(cycles);
    }

    /// Total cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Elapsed simulated time in microseconds.
    pub fn micros(&self) -> f64 {
        self.cycles as f64 / CYCLES_PER_US
    }

    /// Elapsed simulated time in seconds.
    pub fn seconds(&self) -> f64 {
        self.micros() / 1e6
    }
}

/// Per-primitive cycle costs.
///
/// Fields marked *(VG)* are zero in the native model and non-zero under
/// Virtual Ghost; everything else is identical between the two so measured
/// differences come only from Virtual Ghost's mechanisms.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Hardware trap entry (mode switch, IST stack switch).
    pub trap_entry: u64,
    /// Hardware trap return.
    pub trap_exit: u64,
    /// Kernel syscall dispatch (table lookup, bookkeeping).
    pub syscall_dispatch: u64,
    /// *(VG)* Saving the Interrupt Context into SVA memory and scrubbing
    /// registers on trap entry.
    pub ic_save: u64,
    /// *(VG)* Restoring/validating the Interrupt Context on trap return.
    pub ic_restore: u64,
    /// Base cost of a kernel "work unit" — one abstract instrumentable
    /// memory access in kernel C code.
    pub kernel_access: u64,
    /// *(VG)* Extra cost per kernel work unit from load/store masking.
    pub mask_access: u64,
    /// Base cost of a kernel return/indirect call.
    pub kernel_branch: u64,
    /// *(VG)* Extra cost per return/indirect call from the CFI label check.
    pub cfi_branch: u64,
    /// Copying one byte between user and kernel space (copyin/copyout).
    pub copy_per_byte: u64,
    /// *(VG)* Per-call masking of memcpy()/copy arguments.
    pub mask_memcpy: u64,
    /// Writing one page-table entry (the MMU-update primitive itself).
    pub mmu_update: u64,
    /// *(VG)* Validating one page-table update against the ghost/NX/code
    /// constraints.
    pub mmu_check: u64,
    /// Hardware page-fault delivery plus kernel fault path base cost.
    pub page_fault_base: u64,
    /// Allocating and zeroing a fresh frame.
    pub frame_zero: u64,
    /// Context switch base (address-space switch + TLB flush effects).
    pub context_switch: u64,
    /// *(VG)* Extra context-switch work: ghost partition unmap/remap and
    /// SVA thread-state handling.
    pub context_switch_vg: u64,
    /// Disk: per-operation latency (controller + queue).
    pub disk_per_op: u64,
    /// Disk: per 4 KiB block transferred (SSD-like).
    pub disk_per_block: u64,
    /// NIC: per packet overhead.
    pub nic_per_packet: u64,
    /// NIC: per byte on the wire (Gigabit Ethernet ≈ 8 ns/byte ≈ 27 cyc).
    pub nic_per_byte: u64,
    /// AES work per 16-byte block (used by VM swap and by applications).
    pub aes_per_block: u64,
    /// SHA-256 compression per 64-byte block.
    pub sha_per_block: u64,
    /// *(VG)* Validation when configuring the IOMMU / I/O port access.
    pub io_check: u64,
    /// *(VG)* Cost of `allocgm`/`freegm` checks per page (mapping checks,
    /// zeroing is charged separately via `frame_zero`).
    pub ghost_page_op: u64,
    /// Sending one inter-processor interrupt to one target core (APIC ICR
    /// write plus delivery wait). Hardware cost, identical in every model:
    /// TLB shootdown is work SMP itself demands, not Virtual Ghost
    /// instrumentation.
    pub ipi_send: u64,
    /// Handling one received IPI on the target core (interrupt delivery,
    /// `invlpg`, EOI). Hardware cost, identical in every model.
    pub ipi_receive: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::native()
    }
}

impl CostModel {
    /// The calibrated native-FreeBSD-like model (all VG fields zero).
    pub fn native() -> Self {
        CostModel {
            name: "native",
            trap_entry: 100,
            trap_exit: 100,
            syscall_dispatch: 110,
            ic_save: 0,
            ic_restore: 0,
            kernel_access: 2,
            mask_access: 0,
            kernel_branch: 5,
            cfi_branch: 0,
            copy_per_byte: 1,
            mask_memcpy: 0,
            mmu_update: 60,
            mmu_check: 0,
            page_fault_base: 1400,
            frame_zero: 700,
            context_switch: 1600,
            context_switch_vg: 0,
            disk_per_op: 8000,
            disk_per_block: 3600,
            nic_per_packet: 900,
            nic_per_byte: 27,
            aes_per_block: 20,
            sha_per_block: 60,
            io_check: 0,
            ghost_page_op: 0,
            ipi_send: 400,
            ipi_receive: 800,
        }
    }

    /// The full Virtual Ghost model: native plus the instrumentation and
    /// runtime-check costs.
    pub fn virtual_ghost() -> Self {
        CostModel {
            name: "virtual-ghost",
            ic_save: 490,
            ic_restore: 330,
            mask_access: 10,
            cfi_branch: 20,
            mask_memcpy: 12,
            mmu_check: 140,
            context_switch_vg: 900,
            io_check: 60,
            ghost_page_op: 260,
            ..CostModel::native()
        }
    }

    /// Ablation: only load/store sandboxing (no CFI, no IC protection).
    pub fn sandbox_only() -> Self {
        CostModel {
            name: "sandbox-only",
            mask_access: 10,
            mask_memcpy: 12,
            ..CostModel::native()
        }
    }

    /// Ablation: only CFI instrumentation.
    pub fn cfi_only() -> Self {
        CostModel {
            name: "cfi-only",
            cfi_branch: 20,
            ..CostModel::native()
        }
    }

    /// Ablation: only interrupt-context protection (IC save/restore in SVA
    /// memory, register scrubbing, MMU checks).
    pub fn ic_protection_only() -> Self {
        CostModel {
            name: "ic-protection-only",
            ic_save: 490,
            ic_restore: 330,
            mmu_check: 140,
            context_switch_vg: 900,
            ..CostModel::native()
        }
    }

    /// Whether this model carries any Virtual Ghost instrumentation costs.
    pub fn is_instrumented(&self) -> bool {
        self.mask_access > 0 || self.cfi_branch > 0 || self.ic_save > 0
    }
}

/// Event counters for reporting and for sanity-checking that both
/// configurations executed the same logical workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Traps taken (syscalls, faults, interrupts).
    pub traps: u64,
    /// System calls dispatched.
    pub syscalls: u64,
    /// Page faults serviced.
    pub page_faults: u64,
    /// Page-table entry updates submitted.
    pub pte_updates: u64,
    /// Kernel work units executed (instrumentable accesses).
    pub kernel_accesses: u64,
    /// Kernel returns / indirect calls executed.
    pub kernel_branches: u64,
    /// Bytes moved by copyin/copyout.
    pub bytes_copied: u64,
    /// Disk blocks transferred.
    pub disk_blocks: u64,
    /// Network packets transferred.
    pub packets: u64,
    /// Descriptor-ring doorbell writes (one per submitted batch).
    pub ring_doorbells: u64,
    /// Descriptors processed through ring doorbells.
    pub ring_descs: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Inter-processor interrupts delivered (one per target core per
    /// broadcast). Structurally zero on a single-core machine.
    pub ipis: u64,
    /// TLB-shootdown broadcasts performed (one per PTE-mutating operation
    /// that had at least one sibling core to invalidate).
    pub tlb_shootdowns: u64,
    /// Ready-queue steals: processes run on a core other than their home
    /// because the home queue had work and the running core's was empty.
    pub sched_steals: u64,
    /// Ghost pages allocated.
    pub ghost_pages_allocated: u64,
    /// Ghost pages freed.
    pub ghost_pages_freed: u64,
    /// MMU-check rejections (attempted illegal mappings).
    pub mmu_rejections: u64,
    /// CFI violations detected.
    pub cfi_violations: u64,
    /// TLB hits, per access kind (Read, Write, Execute), summed over every
    /// core's MMU — the MMUs own the statistics and the machine mirrors the
    /// total here on every charge and core switch. Performance-model
    /// statistics only: they never feed back into charged cycles.
    pub tlb_hits: [u64; 3],
    /// TLB misses (full walks), per access kind; mirrored like `tlb_hits`.
    pub tlb_misses: [u64; 3],
    /// TLB entries discarded by capacity eviction; mirrored like `tlb_hits`.
    pub tlb_evictions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_converts() {
        let mut c = Clock::new();
        c.advance(3400);
        assert_eq!(c.cycles(), 3400);
        assert!((c.micros() - 1.0).abs() < 1e-9);
        assert!((c.seconds() - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn native_has_no_vg_costs() {
        let n = CostModel::native();
        assert_eq!(n.ic_save, 0);
        assert_eq!(n.mask_access, 0);
        assert_eq!(n.cfi_branch, 0);
        assert_eq!(n.mmu_check, 0);
        assert!(!n.is_instrumented());
    }

    #[test]
    fn vg_differs_only_in_vg_fields() {
        let n = CostModel::native();
        let v = CostModel::virtual_ghost();
        assert_eq!(n.trap_entry, v.trap_entry);
        assert_eq!(n.kernel_access, v.kernel_access);
        assert_eq!(n.disk_per_block, v.disk_per_block);
        assert_eq!(n.nic_per_byte, v.nic_per_byte);
        // IPI / shootdown costs are hardware, not instrumentation: identical.
        assert_eq!(n.ipi_send, v.ipi_send);
        assert_eq!(n.ipi_receive, v.ipi_receive);
        assert!(v.is_instrumented());
        assert!(v.ic_save > 0 && v.mmu_check > 0);
    }

    #[test]
    fn ablations_are_partial() {
        assert!(CostModel::sandbox_only().mask_access > 0);
        assert_eq!(CostModel::sandbox_only().cfi_branch, 0);
        assert!(CostModel::cfi_only().cfi_branch > 0);
        assert_eq!(CostModel::cfi_only().mask_access, 0);
        assert!(CostModel::ic_protection_only().ic_save > 0);
        assert_eq!(CostModel::ic_protection_only().mask_access, 0);
    }

    #[test]
    fn null_syscall_native_near_paper() {
        // trap_entry + dispatch + trap_exit ≈ 310 cycles ≈ 0.091 µs.
        let n = CostModel::native();
        let cycles = n.trap_entry + n.syscall_dispatch + n.trap_exit;
        let us = cycles as f64 / CYCLES_PER_US;
        assert!((0.05..0.15).contains(&us), "null syscall {us} µs");
    }
}
