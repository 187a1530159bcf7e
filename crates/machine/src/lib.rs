//! # vg-machine
//!
//! The simulated hardware substrate for the Virtual Ghost reproduction: what
//! the paper's x86-64 test machine provides, re-built as a deterministic
//! state machine.
//!
//! * [`layout`] — the virtual address space partitioning from the paper:
//!   user space, the 512 GiB ghost partition at `0xffffff00_00000000`,
//!   kernel space at `0xffffff80_00000000`, the SVA-internal region, and the
//!   exact load/store masking rule the instrumentation inserts.
//! * [`phys`] — physical memory: a dense frame table indexed by page frame
//!   number.
//! * [`pte`] — 64-bit page table entries with present/write/user/NX bits.
//! * [`mmu`] — a 4-level page walker over page tables stored *in* simulated
//!   physical memory, with a small TLB model.
//! * [`inthash`] — the deterministic integer hasher behind every
//!   frame-number/vpn/flow-keyed map on the per-operation paths.
//! * [`cpu`] — general-purpose registers, privilege level, and the trap
//!   mechanism with an Interrupt Stack Table (IST) — the hardware feature
//!   Virtual Ghost uses to save interrupted state inside SVA memory (§5).
//! * [`iommu`] — the I/O MMU gating device DMA, and [`devices`] — disk,
//!   network interface and console models that DMA through it.
//! * [`cost`] — the cycle cost model and clock that stand in for wall-clock
//!   measurements on the paper's Core i7-3770 (see DESIGN.md §6).
//!
//! The machine is policy-free: it will happily map ghost frames or DMA over
//! the kernel if asked. Enforcing the Virtual Ghost rules is the job of
//! `vg-core`, exactly as in the paper where the hardware trusts whoever
//! programs it.

pub mod cost;
pub mod cpu;
pub mod devices;
pub mod inthash;
pub mod iommu;
pub mod layout;
pub mod mmu;
pub mod phys;
#[cfg(test)]
mod proptests;
pub mod pte;

pub use cost::{Clock, CostModel, Counters};
pub use cpu::{Cpu, IpiState, TrapFrame, TrapKind};
pub use inthash::{IntHasher, IntMap, IntSet};
pub use iommu::Iommu;
pub use layout::{mask_kernel_pointer, PAddr, Pfn, Region, VAddr, Vpn, PAGE_SIZE};
pub use mmu::{AccessKind, Mmu, TlbStats, TranslateError};
pub use phys::PhysMem;
pub use pte::{PageTableLevel, Pte, PteFlags};
pub use vg_faults::{
    FaultClass, FaultPlan, FaultSpec, FaultState, InjectedFault, Outcome, Trigger,
};
pub use vg_trace::{
    CycleProfiler, DenialKind, DeniedOp, Domain, MetricsRegistry, TraceEvent, Tracer,
};

use devices::{Console, Disk, Nic};
use iommu::DmaFault;

/// The whole simulated machine: CPU, memory, MMU, devices, and clock.
///
/// # Examples
///
/// ```
/// use vg_machine::Machine;
///
/// let mut m = Machine::new(Default::default());
/// let frame = m.phys.alloc_frame().expect("memory available");
/// m.phys.write_u64(frame, 0, 0xdead_beef);
/// assert_eq!(m.phys.read_u64(frame, 0), 0xdead_beef);
/// ```
#[derive(Debug)]
pub struct Machine {
    /// Physical memory.
    pub phys: PhysMem,
    /// The *active* core's CPU state. On a multi-core machine the other
    /// cores' register/interrupt state is parked inside the machine and
    /// swapped in by [`switch_cpu`](Self::switch_cpu); all existing
    /// single-core code keeps reading `machine.cpu` unchanged.
    pub cpu: Cpu,
    /// The *active* core's MMU state (root pointer, per-CPU TLB). Parked
    /// cores keep their own TLBs; PTE-mutating paths must invalidate them
    /// through [`tlb_flush_page`](Self::tlb_flush_page) (IPI shootdown),
    /// never `machine.mmu.flush_page` alone.
    pub mmu: Mmu,
    /// IOMMU gating device DMA.
    pub iommu: Iommu,
    /// Block device.
    pub disk: Disk,
    /// Network interface.
    pub nic: Nic,
    /// Console output device.
    pub console: Console,
    /// Cycle clock (CPU timeline).
    pub clock: Clock,
    /// Wire-occupancy timeline: the NIC/network runs concurrently with the
    /// CPU (DMA + a pipelined client). Network-bound benchmarks take
    /// `max(clock, nic_time)` deltas as elapsed time.
    pub nic_time: Clock,
    /// Cost model in effect.
    pub costs: CostModel,
    /// Event counters for reporting. The TLB fields mirror the sum of every
    /// core's [`Mmu::stats`] as of the last [`charge`](Self::charge),
    /// [`charge_on`](Self::charge_on) or [`switch_cpu`](Self::switch_cpu);
    /// the MMUs themselves are the source of truth.
    pub counters: Counters,
    /// Structured event tracer (off by default) with the always-on
    /// security flight recorder. Emitting events never advances the clock
    /// or touches [`Counters`] — see `vg-trace`'s no-perturbation
    /// invariant.
    pub trace: Tracer,
    /// Per-subsystem metrics registry (always on; deterministic). It holds
    /// no TLB statistics: [`metrics_report`](Self::metrics_report) renders
    /// those from the MMUs.
    pub metrics: MetricsRegistry,
    /// Exact cycle-attribution profiler (off by default). When enabled,
    /// every [`charge`](Self::charge) lands in the innermost attribution
    /// frame; Σ buckets == clock cycles (conservation, DESIGN.md §7).
    /// Attribution never advances the clock or touches [`Counters`].
    pub profiler: CycleProfiler,
    /// Deterministic fault-injection state (disarmed by default). While no
    /// plan is armed every hook site is one branch: no PRNG draws, no
    /// counters, no cycles — disarmed runs stay bit-identical to builds
    /// without the layer (see `vg-faults`).
    pub faults: FaultState,
    /// Index of the active core (the one `cpu`/`mmu` belong to).
    cur_cpu: usize,
    /// Per-core parked state, one slot per core; the active core's slot
    /// holds a reset placeholder while its real state lives in `cpu`/`mmu`.
    parked: Vec<(Cpu, Mmu)>,
    /// Σ [`Mmu::stats`] over the parked cores. Parked statistics only
    /// change while a core is active, so this is recomputed in
    /// [`switch_cpu`](Self::switch_cpu) alone and every charge mirrors the
    /// machine-wide total into [`Counters`] in constant time.
    parked_tlb: TlbStats,
    /// Cycles of work performed *on each core*. The global [`clock`]
    /// remains the single total-work timeline (Σ `cpu_clocks` == clock,
    /// every charge lands on exactly one core); SMP elapsed time for a
    /// parallel region is the *maximum* per-core delta, which is what the
    /// scheduler and the scaling benchmarks report. On a single-core
    /// machine `cpu_clocks[0] == clock` at all times.
    ///
    /// [`clock`]: Self::clock
    cpu_clocks: Vec<u64>,
}

/// Error from the checked disk-DMA helpers: either the fault layer injected
/// a device I/O error or the IOMMU refused the transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskIoError {
    /// The fault plan injected a device I/O error (transient from the
    /// device's point of view — callers may retry).
    Injected,
    /// The IOMMU refused the DMA (a real protection fault, not transient).
    Dma(DmaFault),
}

/// Configuration for machine construction.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of physical frames available (default 64 MiB worth).
    pub phys_frames: usize,
    /// Disk capacity in 4 KiB blocks.
    pub disk_blocks: usize,
    /// Cost model (defaults to the calibrated native model).
    pub costs: CostModel,
    /// Number of simulated cores (default 1). A `cpus: 1` machine is
    /// bit-identical to the historical single-core machine: the shootdown
    /// broadcast loop is empty, no core switches happen, and no IPI cycles
    /// or counters are charged.
    pub cpus: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            phys_frames: 16 * 1024, // 64 MiB
            disk_blocks: 64 * 1024, // 256 MiB
            costs: CostModel::native(),
            cpus: 1,
        }
    }
}

impl Machine {
    /// Builds a machine from `config`.
    pub fn new(config: MachineConfig) -> Self {
        let cpus = config.cpus.max(1);
        Machine {
            phys: PhysMem::new(config.phys_frames),
            cpu: Cpu::new(),
            mmu: Mmu::new(),
            iommu: Iommu::new(config.phys_frames),
            disk: Disk::new(config.disk_blocks),
            nic: Nic::new(),
            console: Console::new(),
            clock: Clock::new(),
            nic_time: Clock::new(),
            costs: config.costs,
            counters: Counters::default(),
            trace: Tracer::new(),
            metrics: MetricsRegistry::new(),
            profiler: CycleProfiler::new(),
            faults: FaultState::disarmed(),
            cur_cpu: 0,
            parked: (0..cpus).map(|_| (Cpu::new(), Mmu::new())).collect(),
            parked_tlb: TlbStats::default(),
            cpu_clocks: vec![0; cpus],
        }
    }

    /// Number of simulated cores.
    #[inline]
    pub fn num_cpus(&self) -> usize {
        self.parked.len()
    }

    /// Index of the active core — the one `self.cpu`/`self.mmu` belong to.
    #[inline]
    pub fn cur_cpu(&self) -> usize {
        self.cur_cpu
    }

    /// Cycles of work performed on core `cpu` so far.
    #[inline]
    pub fn cpu_clock(&self, cpu: usize) -> u64 {
        self.cpu_clocks[cpu]
    }

    /// Per-core work snapshot (Σ == [`clock`](Self::clock) cycles).
    pub fn cpu_clocks(&self) -> &[u64] {
        &self.cpu_clocks
    }

    /// Makes core `target` the active one, parking the current core's CPU
    /// and MMU state and installing the target's. No cycles are charged:
    /// the simulator interleaves cores at scheduling granularity, and the
    /// cost of *process* context switches is charged by the kernel as
    /// before. A no-op when `target` is already active (in particular,
    /// never reached on a `cpus: 1` machine).
    pub fn switch_cpu(&mut self, target: usize) {
        if target == self.cur_cpu {
            return;
        }
        assert!(target < self.parked.len(), "cpu {target} out of range");
        let cur = self.cur_cpu;
        std::mem::swap(&mut self.cpu, &mut self.parked[cur].0);
        std::mem::swap(&mut self.mmu, &mut self.parked[cur].1);
        std::mem::swap(&mut self.cpu, &mut self.parked[target].0);
        std::mem::swap(&mut self.mmu, &mut self.parked[target].1);
        self.cur_cpu = target;
        self.parked_tlb = self
            .parked
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != target)
            .map(|(_, (_, mmu))| mmu.stats())
            .sum();
        self.mirror_tlb();
    }

    /// Charges `cycles` to the active core. Together with
    /// [`charge_on`](Self::charge_on) these are the only sites that advance
    /// the CPU timeline, so attributing here gives the profiler its
    /// conservation invariant by construction.
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.clock.advance(cycles);
        self.cpu_clocks[self.cur_cpu] += cycles;
        self.profiler
            .on_charge(self.trace.cur_proc, self.cur_cpu, cycles);
        self.mirror_tlb();
    }

    /// Charges `cycles` of work performed *on core `cpu`* (e.g. the
    /// receiver half of an IPI) without switching to it. Advances the same
    /// global clock — total work is total work — but books the per-core
    /// share and the profiler attribution against `cpu`.
    #[inline]
    pub fn charge_on(&mut self, cpu: usize, cycles: u64) {
        self.clock.advance(cycles);
        self.cpu_clocks[cpu] += cycles;
        self.profiler.on_charge(self.trace.cur_proc, cpu, cycles);
        self.mirror_tlb();
    }

    /// Invalidates the translation for `vpn` on *every* core: locally via
    /// the active MMU, and on each sibling core via a simulated IPI whose
    /// send/receive costs are charged through the cost model. This is the
    /// primitive every PTE-mutating path must use; `machine.mmu.flush_page`
    /// alone would leave stale entries in sibling TLBs. On a single-core
    /// machine the broadcast loop body never runs, so cycles and counters
    /// are bit-identical to a plain local flush.
    pub fn tlb_flush_page(&mut self, vpn: Vpn) {
        self.mmu.flush_page(vpn);
        if self.parked.len() > 1 {
            self.tlb_shootdown(vpn);
        }
    }

    /// The broadcast half of [`tlb_flush_page`](Self::tlb_flush_page):
    /// sends one IPI per sibling core in ascending core order, flushing
    /// `vpn` from each sibling TLB. Sender cycles land on the active core,
    /// receiver cycles on each target.
    fn tlb_shootdown(&mut self, vpn: Vpn) {
        self.counters.tlb_shootdowns += 1;
        for target in 0..self.parked.len() {
            if target == self.cur_cpu {
                continue;
            }
            self.parked[target].1.flush_page(vpn);
            self.parked[target].0.ipi.received += 1;
            self.cpu.ipi.sent += 1;
            self.counters.ipis += 1;
            let (send, recv) = (self.costs.ipi_send, self.costs.ipi_receive);
            self.prof_push(Domain::Mmu, "ipi.shootdown");
            self.charge(send);
            self.charge_on(target, recv);
            self.prof_pop();
        }
    }

    /// Mirrors the machine-wide TLB statistics (parked cores plus the
    /// active MMU) into [`Counters`]. Constant work: no parked MMU is read.
    #[inline]
    fn mirror_tlb(&mut self) {
        let t = self.parked_tlb + self.mmu.stats();
        self.counters.tlb_hits = t.hits;
        self.counters.tlb_misses = t.misses;
        self.counters.tlb_evictions = t.evictions;
    }

    /// Each core's TLB statistics, indexed by core id, read from the MMUs.
    pub fn tlb_per_cpu(&self) -> Vec<TlbStats> {
        (0..self.parked.len())
            .map(|i| {
                if i == self.cur_cpu {
                    self.mmu.stats()
                } else {
                    self.parked[i].1.stats()
                }
            })
            .collect()
    }

    /// Renders the plain-text metrics report: the registry's histogram and
    /// counter sections, then the TLB section — the total over all cores
    /// and, on a multi-core machine, one line per core — from the MMUs.
    pub fn metrics_report(&self) -> String {
        use std::fmt::Write as _;
        fn line(out: &mut String, prefix: &str, t: &TlbStats) {
            let _ = writeln!(
                out,
                "{prefix}hits r/w/x {}/{}/{}  misses r/w/x {}/{}/{}  evictions {}",
                t.hits[0], t.hits[1], t.hits[2], t.misses[0], t.misses[1], t.misses[2], t.evictions
            );
        }
        let mut out = self.metrics.report();
        let per_cpu = self.tlb_per_cpu();
        let _ = writeln!(out, "== metrics: tlb ==");
        line(&mut out, "", &per_cpu.iter().copied().sum());
        if per_cpu.len() > 1 {
            for (i, t) in per_cpu.iter().enumerate() {
                line(&mut out, &format!("cpu{i}: "), t);
            }
        }
        out
    }

    /// Charges `cycles` of wire occupancy to the NIC timeline.
    #[inline]
    pub fn charge_wire(&mut self, cycles: u64) {
        self.nic_time.advance(cycles);
    }

    // ---- cycle attribution ------------------------------------------------
    //
    // Frame helpers around `CycleProfiler`. Like tracing, attribution reads
    // the clock but never advances it: profiler-on vs. off leaves the
    // simulation bit-identical.

    /// Enables cycle attribution from the current clock value onward.
    pub fn profile_enable(&mut self) {
        let now = self.clock.cycles();
        self.profiler.enable(now);
    }

    /// Pushes an attribution frame (no-op while the profiler is off).
    #[inline]
    pub fn prof_push(&mut self, domain: Domain, label: &'static str) {
        self.profiler.push(domain, label);
    }

    /// Pushes a leaf frame inheriting the enclosing frame's domain.
    #[inline]
    pub fn prof_leaf(&mut self, label: &'static str) {
        self.profiler.push_leaf(label);
    }

    /// Pops the innermost attribution frame.
    #[inline]
    pub fn prof_pop(&mut self) {
        self.profiler.pop();
    }

    // ---- tracing ----------------------------------------------------------
    //
    // The emit helpers read the clock but never advance it, and never touch
    // `counters`: tracing on vs. off leaves the simulation bit-identical.

    /// Emits an instant trace event stamped with the current cycle count.
    #[inline]
    pub fn trace_emit(&mut self, ev: TraceEvent) {
        if self.trace.is_enabled() {
            let at = self.clock.cycles();
            self.trace.emit(at, ev);
        }
    }

    /// Opens a hierarchical span (closed by [`trace_end`](Self::trace_end)).
    #[inline]
    pub fn trace_begin(&mut self, cat: &'static str, name: &'static str, arg: u64) {
        self.trace_emit(TraceEvent::Begin { cat, name, arg });
    }

    /// Closes the innermost open span with this category and name.
    #[inline]
    pub fn trace_end(&mut self, cat: &'static str, name: &'static str) {
        self.trace_emit(TraceEvent::End { cat, name });
    }

    /// Emits a self-contained span from `start` (a cycle count previously
    /// read from the clock) to now.
    #[inline]
    pub fn trace_complete(&mut self, cat: &'static str, name: &'static str, start: u64) {
        self.trace_emit(TraceEvent::Complete { cat, name, start });
    }

    // ---- fault injection --------------------------------------------------
    //
    // Hook helpers around `FaultState`, which counts every outcome. The
    // check is inert while no plan is armed.

    /// Consults the armed fault plan: should a fault of `class` inject at
    /// this hook, now? Counts the injection when it fires.
    #[inline]
    pub fn fault_check(&mut self, class: FaultClass) -> bool {
        let now = self.clock.cycles();
        self.faults.check(class, now)
    }

    /// Records that a consumer retried an operation after a `class` fault.
    #[inline]
    pub fn fault_retried(&mut self, class: FaultClass) {
        self.faults.note(class, Outcome::Retried);
    }

    /// Records that a consumer recovered from a `class` fault (a retry or
    /// fallback succeeded).
    #[inline]
    pub fn fault_recovered(&mut self, class: FaultClass) {
        self.faults.note(class, Outcome::Recovered);
    }

    /// Translates `va` through the current core's MMU (`user`: the USER
    /// bit is required).
    #[inline]
    pub fn translate(
        &mut self,
        va: VAddr,
        access: AccessKind,
        user: bool,
    ) -> Result<PAddr, TranslateError> {
        self.mmu.translate(&self.phys, va, access, user)
    }

    /// Frame allocation with a frame-pool-exhaustion injection point:
    /// callers that can tolerate `None` gracefully route through here so
    /// campaigns can exercise their rollback paths.
    #[inline]
    pub fn alloc_frame_checked(&mut self) -> Option<Pfn> {
        if self.fault_check(FaultClass::FrameExhaust) {
            return None;
        }
        self.phys.alloc_frame()
    }

    /// Disk DMA read with a device-I/O injection point. Identical to
    /// [`devices::Disk::dma_read`] when no fault fires.
    pub fn disk_dma_read(&mut self, block: u64, pfn: Pfn) -> Result<(), DiskIoError> {
        if self.fault_check(FaultClass::DeviceIo) {
            return Err(DiskIoError::Injected);
        }
        self.disk
            .dma_read(&self.iommu, &mut self.phys, block, pfn)
            .map_err(DiskIoError::Dma)
    }

    /// Disk DMA write with a device-I/O injection point. Identical to
    /// [`devices::Disk::dma_write`] when no fault fires.
    pub fn disk_dma_write(&mut self, block: u64, pfn: Pfn) -> Result<(), DiskIoError> {
        if self.fault_check(FaultClass::DeviceIo) {
            return Err(DiskIoError::Injected);
        }
        self.disk
            .dma_write(&self.iommu, &self.phys, block, pfn)
            .map_err(DiskIoError::Dma)
    }

    /// Records a denied operation in the always-on security flight
    /// recorder, tagged with the current cycle count and process.
    #[inline]
    pub fn record_denial(&mut self, kind: DenialKind, addr: u64, detail: &'static str) {
        let op = DeniedOp {
            at: self.clock.cycles(),
            proc_id: self.trace.cur_proc,
            kind,
            addr,
            detail,
        };
        self.trace.flight.record(op);
    }
}
