//! # vg-trace
//!
//! Deterministic event tracing and metrics for the Virtual Ghost
//! simulation.
//!
//! Three facilities, all driven by the simulated cycle clock (never
//! wall-clock time, so traces are bit-reproducible):
//!
//! * [`Tracer`] — a zero-when-disabled structured event ring buffer. Every
//!   [`Record`] carries the cycle timestamp and the current process id;
//!   [`TraceEvent`] covers traps, syscalls, page faults, PTE updates,
//!   SVA-OS operations, ghost-page lifecycle, swap, context switches and
//!   security denials, plus hierarchical spans (trap → syscall → kernel
//!   path → SVA op) from which per-mechanism cycle attribution falls out by
//!   subtraction.
//! * [`FlightRecorder`] — an always-on bounded ring of [`DeniedOp`]s: the
//!   security audit trail for MMU rejections, CFI violations, refused
//!   signal dispatches and swap-integrity failures, with full context
//!   (kind, process, address). Recording never touches the clock or the
//!   event counters, so it cannot perturb the model.
//! * [`MetricsRegistry`] ([`metrics`]) — per-subsystem histograms and
//!   counters (syscall latency in simulated cycles, swap-crypto bytes, TLB
//!   behaviour) superseding ad-hoc mirroring into flat counter structs.
//!
//! The load-bearing invariant (enforced by `tests/trace_determinism.rs` in
//! the workspace root): enabling tracing leaves simulated cycles and all
//! event counters bit-identical, and two traced runs of the same workload
//! export byte-identical trace files. This crate is dependency-free so the
//! machine layer can sit on top of it; all payloads are primitives.

pub mod export;
pub mod metrics;
pub mod profile;

pub use export::{chrome_trace_json, folded_stacks, profile_report, summary_top_n};
pub use metrics::{Histogram, MetricsRegistry};
pub use profile::{CycleProfiler, Domain};

use std::collections::VecDeque;

/// Default capacity of the trace ring buffer (records).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Default capacity of the security flight recorder (denials).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One structured trace event. Variants are either *instants* (a point in
/// time) or *span markers* ([`TraceEvent::Begin`]/[`TraceEvent::End`]/
/// [`TraceEvent::Complete`]) grouping the instants into a hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Trap taken (syscall, page fault, interrupt). `detail` is the
    /// syscall number or faulting address depending on `kind`.
    TrapEnter {
        /// Trap class name ("syscall", "pagefault", …).
        kind: &'static str,
        /// Class-specific payload (syscall number, faulting address).
        detail: u64,
    },
    /// Return from trap.
    TrapExit,
    /// Kernel syscall dispatch entered.
    SyscallDispatch {
        /// Syscall number.
        num: u32,
    },
    /// Syscall completed with a return value.
    SyscallReturn {
        /// Syscall number.
        num: u32,
        /// Return value as the kernel produced it.
        ret: i64,
    },
    /// Page fault serviced by the kernel.
    PageFault {
        /// Faulting virtual address.
        va: u64,
    },
    /// Page-table update submitted through the SVA VM.
    PteUpdate {
        /// Target virtual address.
        va: u64,
        /// Whether the MMU checks accepted it.
        accepted: bool,
    },
    /// Ghost page allocated (`sva.allocgm`).
    GhostAlloc {
        /// Ghost virtual address of the page.
        va: u64,
        /// Donated frame number.
        pfn: u64,
    },
    /// Ghost page freed (`sva.freegm` / release).
    GhostFree {
        /// Ghost virtual address of the page.
        va: u64,
        /// Frame returned to the OS.
        pfn: u64,
    },
    /// Ghost page sealed and swapped out.
    SwapOut {
        /// Virtual page number within the ghost partition.
        vpn: u64,
    },
    /// Ghost page verified and swapped back in.
    SwapIn {
        /// Virtual page number within the ghost partition.
        vpn: u64,
        /// Whether integrity verification passed.
        ok: bool,
    },
    /// Application key retrieved (`sva.getKey`).
    GetKey,
    /// Scheduler switched address spaces.
    ContextSwitch {
        /// Outgoing process (0 = none).
        from: u64,
        /// Incoming process.
        to: u64,
    },
    /// CFI check rejected an indirect branch target.
    CfiViolation {
        /// The rejected target address.
        addr: u64,
    },
    /// MMU-update check rejected a mapping.
    MmuRejection {
        /// The virtual address of the refused update.
        va: u64,
        /// Static reason string (from the check error).
        reason: &'static str,
    },
    /// `sva.ipush.function` refused an unregistered handler.
    IcDenied {
        /// The refused handler address.
        addr: u64,
    },
    /// Span open (Chrome "B").
    Begin {
        /// Category ("trap", "syscall", "kpath", "sva").
        cat: &'static str,
        /// Span name.
        name: &'static str,
        /// Free payload (syscall number, address, …; 0 if unused).
        arg: u64,
    },
    /// Span close (Chrome "E"); must pair with the innermost open span of
    /// the same process.
    End {
        /// Category of the span being closed.
        cat: &'static str,
        /// Name of the span being closed.
        name: &'static str,
    },
    /// Self-contained span (Chrome "X"): started at `start`, ends at the
    /// record timestamp.
    Complete {
        /// Category ("kpath", "sva").
        cat: &'static str,
        /// Span name.
        name: &'static str,
        /// Cycle count when the span started.
        start: u64,
    },
}

/// One timestamped, process-tagged trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Simulated cycle count when the event was emitted.
    pub at: u64,
    /// Process id current at emission (0 = boot/kernel context).
    pub proc_id: u64,
    /// The event.
    pub ev: TraceEvent,
}

/// Which class of operation the security flight recorder saw denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenialKind {
    /// MMU-update check refused a mapping.
    MmuRejection,
    /// CFI check refused an indirect branch target.
    CfiViolation,
    /// `sva.ipush.function` refused an unregistered signal handler.
    IcPermitDenied,
    /// Swap-in integrity verification failed (tampered or replayed blob).
    SwapIntegrity,
    /// The kernel killed a process after an unrecoverable fault (injected
    /// or genuine hardware misbehavior) instead of panicking. `detail`
    /// names the fault class and the failing operation.
    FaultKill,
    /// IOMMU check refused a DMA descriptor (ring payload or classic map
    /// targeting a ghost / SVA-internal / page-table frame).
    DmaViolation,
    /// The kernel's direct map refused a frame access or free: the frame
    /// was not allocated, or not OS-owned (ghost, page-table,
    /// SVA-internal or code memory).
    DirectMap,
}

/// A denied operation with full context — the security audit trail entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeniedOp {
    /// Simulated cycle count at denial.
    pub at: u64,
    /// Process on whose behalf the denied operation ran.
    pub proc_id: u64,
    /// Denial class.
    pub kind: DenialKind,
    /// The offending address (mapping target, branch target, handler, or
    /// ghost virtual address).
    pub addr: u64,
    /// Static human-readable detail.
    pub detail: &'static str,
}

/// Always-on bounded ring of denied operations. Unlike the [`Tracer`] this
/// records even when tracing is disabled: denials are rare, bounded, and
/// the security experiments assert on their exact sequence.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    ring: VecDeque<DeniedOp>,
    total: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining the most recent `cap` denials.
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap: cap.max(1),
            ring: VecDeque::new(),
            total: 0,
        }
    }

    /// Records a denial, evicting the oldest entry when full.
    pub fn record(&mut self, op: DeniedOp) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(op);
        self.total += 1;
    }

    /// The retained denials, oldest first.
    pub fn denials(&self) -> impl Iterator<Item = &DeniedOp> {
        self.ring.iter()
    }

    /// Total denials ever recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of retained denials.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// The event tracer: a bounded ring of [`Record`]s, disabled (and
/// free apart from one branch) by default.
///
/// The tracer deliberately has no access to a clock — callers pass the
/// cycle count in. That keeps this crate dependency-free and makes the
/// no-perturbation property structural: nothing here *can* advance time.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    cap: usize,
    records: VecDeque<Record>,
    dropped: u64,
    /// Process id stamped onto emitted records; maintained by the scheduler
    /// (cheap field write, updated whether or not tracing is on).
    pub cur_proc: u64,
    /// The always-on security flight recorder.
    pub flight: FlightRecorder,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer with default capacities.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            cap: DEFAULT_TRACE_CAPACITY,
            records: VecDeque::new(),
            dropped: 0,
            cur_proc: 0,
            flight: FlightRecorder::default(),
        }
    }

    /// Turns event recording on, retaining at most `cap` records
    /// (drop-oldest — still deterministic).
    pub fn enable(&mut self, cap: usize) {
        self.enabled = true;
        self.cap = cap.max(1);
    }

    /// Whether event recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Emits an event at cycle `at`, tagged with the current process.
    /// No-op when disabled.
    #[inline]
    pub fn emit(&mut self, at: u64, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.records.len() == self.cap {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(Record {
            at,
            proc_id: self.cur_proc,
            ev,
        });
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears retained records (capacity and enablement unchanged).
    pub fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.emit(10, TraceEvent::TrapExit);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn enabled_tracer_stamps_time_and_proc() {
        let mut t = Tracer::new();
        t.enable(16);
        t.cur_proc = 7;
        t.emit(42, TraceEvent::SyscallDispatch { num: 5 });
        let r: Vec<_> = t.records().collect();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].at, 42);
        assert_eq!(r[0].proc_id, 7);
        assert_eq!(r[0].ev, TraceEvent::SyscallDispatch { num: 5 });
    }

    #[test]
    fn ring_drops_oldest_deterministically() {
        let mut t = Tracer::new();
        t.enable(2);
        for i in 0..5u64 {
            t.emit(i, TraceEvent::TrapExit);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let ats: Vec<u64> = t.records().map(|r| r.at).collect();
        assert_eq!(ats, vec![3, 4]);
    }

    #[test]
    fn flight_recorder_is_always_on_and_bounded() {
        let mut t = Tracer::new(); // tracing disabled
        for i in 0..300u64 {
            t.flight.record(DeniedOp {
                at: i,
                proc_id: 1,
                kind: DenialKind::MmuRejection,
                addr: 0x1000 + i,
                detail: "test",
            });
        }
        assert_eq!(t.flight.total(), 300);
        assert_eq!(t.flight.len(), DEFAULT_FLIGHT_CAPACITY);
        let first = t.flight.denials().next().unwrap();
        assert_eq!(first.at, 300 - DEFAULT_FLIGHT_CAPACITY as u64);
    }
}
