//! Exact cycle-attribution profiling.
//!
//! The simulator's clock only ever advances through `Machine::charge`, so
//! attributing *at charge time* to whatever frame is on top of a stack of
//! attribution domains makes the books balance by construction: every
//! charged cycle lands in exactly one node of the attribution trie, and
//!
//! ```text
//! start_cycles + total_attributed == Machine::clock.cycles()
//! ```
//!
//! holds at every report point (the conservation invariant, DESIGN.md §7).
//! There is no sampling and no estimation — the totals are exact.
//!
//! Like the [`Tracer`](crate::Tracer), the profiler has no clock access:
//! callers pass cycle deltas in, so profiling structurally cannot move the
//! simulated clock. When disabled, every entry point returns after one
//! branch, and no state changes — profiler-off runs are bit-identical to
//! runs on a binary without the profiler.
//!
//! Frames are pushed/popped at lexically structured scopes in the kernel
//! and SVA layers (syscall dispatch, page-fault service, swap paths,
//! individual charge statements). Charges that arrive with the stack empty
//! of user frames fall into the root node (`Domain::Boot`, label "boot") —
//! boot, mkfs, and harness glue — so conservation never depends on
//! complete coverage.

use std::collections::BTreeMap;

/// Coarse attribution domain — the "where did this cycle go" axis of the
/// paper's overhead analysis (Section 6). Finer structure comes from the
/// frame labels underneath a domain (syscall name, SVA op, kpath name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Domain {
    /// Boot, mkfs, and harness glue outside any attributed scope (root).
    Boot,
    /// Application code running between kernel entries.
    User,
    /// Kernel syscall service, labelled per syscall.
    Syscall,
    /// Trap entry/exit and interrupt-context save/restore cost.
    Trap,
    /// SVA-OS intrinsics (icontext ops, ghost alloc/free, I/O checks).
    Sva,
    /// MMU update/check cost (`sva.mmu.*` declared updates).
    Mmu,
    /// Ghost-page seal/unseal and key-wrap crypto.
    Crypto,
    /// Disk DMA transfers and retry backoff.
    Dma,
    /// Swapper policy work around the crypto (device I/O, bookkeeping).
    Swap,
    /// Page-fault service, demand paging included.
    Fault,
    /// Context-switch cost.
    Sched,
    /// Cycles a core sat idle while a sibling core still had work. The SMP
    /// scheduler (`System::run_queued` in `vg-kernel`) records, per core,
    /// the gap between that core's work and the busiest core's at the end
    /// of each scheduling window, via [`CycleProfiler::record_idle`]. Idle
    /// is booked per core only; it is never work and never enters the
    /// global clock. On a one-core machine it stays zero.
    Idle,
}

impl Domain {
    /// Every domain, in report order.
    pub const ALL: [Domain; 12] = [
        Domain::Boot,
        Domain::User,
        Domain::Syscall,
        Domain::Trap,
        Domain::Sva,
        Domain::Mmu,
        Domain::Crypto,
        Domain::Dma,
        Domain::Swap,
        Domain::Fault,
        Domain::Sched,
        Domain::Idle,
    ];

    /// Stable lowercase key used in folded stacks and tables.
    pub fn key(self) -> &'static str {
        match self {
            Domain::Boot => "boot",
            Domain::User => "user",
            Domain::Syscall => "syscall",
            Domain::Trap => "trap",
            Domain::Sva => "sva",
            Domain::Mmu => "mmu",
            Domain::Crypto => "crypto",
            Domain::Dma => "dma",
            Domain::Swap => "swap",
            Domain::Fault => "fault",
            Domain::Sched => "sched",
            Domain::Idle => "idle",
        }
    }
}

/// One node of the attribution trie. `self_cycles` is strictly *self* time:
/// cycles charged while this frame was on top. A cycle therefore lives in
/// exactly one node, and domain totals are sums of node self-times — nested
/// frames of the same domain never double-count.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Parent node index (the root is its own parent).
    pub(crate) parent: u32,
    /// Attribution domain of this frame.
    pub(crate) domain: Domain,
    /// Leaf label (syscall name, SVA op, kpath name).
    pub(crate) label: &'static str,
    /// Cycles charged while this frame was the innermost one.
    pub(crate) self_cycles: u64,
}

/// The cycle-attribution profiler: a trie of attribution frames plus
/// per-(process, domain) totals, fed by `Machine::charge`.
#[derive(Debug)]
pub struct CycleProfiler {
    enabled: bool,
    /// Node 0 is the root: `(Boot, "boot")`, its own parent.
    nodes: Vec<Node>,
    /// Child lookup: (parent, domain, label) → node index. BTreeMap so node
    /// creation order is deterministic given a deterministic workload.
    index: BTreeMap<(u32, Domain, &'static str), u32>,
    /// The active frame stack (node indices); the root is implicit below it.
    stack: Vec<u32>,
    /// Exact cycles per (process id, domain). Process 0 is boot/kernel
    /// context before any process is scheduled.
    per_proc: BTreeMap<(u64, Domain), u64>,
    /// Exact cycles per (core id, domain). Every charge names the core it
    /// ran on, so on a single-core machine this is the per-domain totals
    /// under core 0. [`Domain::Idle`] entries are recorded separately by
    /// the scheduler via [`Self::record_idle`] — idle cycles are *not* work
    /// and never enter `attributed` or the global clock.
    per_cpu: BTreeMap<(usize, Domain), u64>,
    /// Clock value when the profiler was enabled (cycles spent before that
    /// point are outside the books, reported separately).
    start_cycles: u64,
    /// Σ of all attributed cycles — kept incrementally so the conservation
    /// check is O(1).
    attributed: u64,
}

impl Default for CycleProfiler {
    fn default() -> Self {
        CycleProfiler::new()
    }
}

impl CycleProfiler {
    /// A disabled profiler.
    pub fn new() -> Self {
        CycleProfiler {
            enabled: false,
            nodes: vec![Node {
                parent: 0,
                domain: Domain::Boot,
                label: "boot",
                self_cycles: 0,
            }],
            index: BTreeMap::new(),
            stack: Vec::new(),
            per_proc: BTreeMap::new(),
            per_cpu: BTreeMap::new(),
            start_cycles: 0,
            attributed: 0,
        }
    }

    /// Turns attribution on. `now` is the current clock value; cycles spent
    /// before this point stay outside the books ([`Self::start_cycles`]).
    pub fn enable(&mut self, now: u64) {
        self.enabled = true;
        self.start_cycles = now;
    }

    /// Turns attribution off. Accumulated totals stay readable.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether attribution is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Clock value at [`Self::enable`] time.
    pub fn start_cycles(&self) -> u64 {
        self.start_cycles
    }

    /// Σ of every cycle charged since enable. Conservation:
    /// `start_cycles() + total_attributed() == clock.cycles()`.
    pub fn total_attributed(&self) -> u64 {
        self.attributed
    }

    /// Current frame depth (0 = only the implicit root). Balanced
    /// instrumentation returns to 0 between workloads.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The domain a charge would currently be attributed to.
    pub fn current_domain(&self) -> Domain {
        let top = self.stack.last().copied().unwrap_or(0);
        self.nodes[top as usize].domain
    }

    /// Pushes an attribution frame. No-op when disabled.
    #[inline]
    pub fn push(&mut self, domain: Domain, label: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        let node = match self.index.get(&(parent, domain, label)) {
            Some(&n) => n,
            None => {
                let n = self.nodes.len() as u32;
                self.nodes.push(Node {
                    parent,
                    domain,
                    label,
                    self_cycles: 0,
                });
                self.index.insert((parent, domain, label), n);
                n
            }
        };
        self.stack.push(node);
    }

    /// Pushes a leaf frame inheriting the current frame's domain — used by
    /// generic kernel-path charges so they show up as named flamegraph
    /// leaves while counting toward whatever domain encloses them.
    #[inline]
    pub fn push_leaf(&mut self, label: &'static str) {
        if !self.enabled {
            return;
        }
        let domain = self.current_domain();
        self.push(domain, label);
    }

    /// Pops the innermost frame. No-op when disabled or already at root.
    #[inline]
    pub fn pop(&mut self) {
        if !self.enabled {
            return;
        }
        self.stack.pop();
    }

    /// Attributes `cycles` (charged on behalf of process `proc`, executed
    /// on core `cpu`) to the innermost frame. Called from
    /// `Machine::charge`/`charge_on`; one branch when disabled.
    #[inline]
    pub fn on_charge(&mut self, proc_id: u64, cpu: usize, cycles: u64) {
        if !self.enabled || cycles == 0 {
            return;
        }
        let top = self.stack.last().copied().unwrap_or(0);
        self.nodes[top as usize].self_cycles += cycles;
        let dom = self.nodes[top as usize].domain;
        *self.per_proc.entry((proc_id, dom)).or_insert(0) += cycles;
        *self.per_cpu.entry((cpu, dom)).or_insert(0) += cycles;
        self.attributed += cycles;
    }

    /// Records `cycles` of *idle* time on core `cpu` — wall-clock during
    /// which the core had no runnable work while siblings were still
    /// executing. Idle is not work: it never enters `attributed` (the
    /// global clock only counts work performed), only the
    /// `(cpu, Domain::Idle)` bucket, so the per-core books balance against
    /// the scheduler's horizon: for every core,
    /// Σ_domains per_cpu[(cpu, d)] == horizon. No-op when disabled.
    #[inline]
    pub fn record_idle(&mut self, cpu: usize, cycles: u64) {
        if !self.enabled || cycles == 0 {
            return;
        }
        *self.per_cpu.entry((cpu, Domain::Idle)).or_insert(0) += cycles;
    }

    /// Exact cycles per domain (only domains that received cycles appear).
    pub fn domain_totals(&self) -> BTreeMap<Domain, u64> {
        let mut out = BTreeMap::new();
        for n in &self.nodes {
            if n.self_cycles > 0 {
                *out.entry(n.domain).or_insert(0) += n.self_cycles;
            }
        }
        out
    }

    /// Exact cycles per (process, domain), deterministic order.
    pub fn proc_domain_totals(&self) -> &BTreeMap<(u64, Domain), u64> {
        &self.per_proc
    }

    /// Exact cycles per process (summed over domains).
    pub fn proc_totals(&self) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for (&(pid, _), &c) in &self.per_proc {
            *out.entry(pid).or_insert(0) += c;
        }
        out
    }

    /// Asserts the conservation invariant against a clock reading:
    /// every cycle since enable is in exactly one bucket.
    ///
    /// # Panics
    /// When the books don't balance — that is a profiler bug, never a
    /// workload property.
    pub fn assert_conservation(&self, clock_cycles: u64) {
        assert_eq!(
            self.start_cycles + self.attributed,
            clock_cycles,
            "cycle-attribution conservation violated: start {} + attributed {} != clock {}",
            self.start_cycles,
            self.attributed,
            clock_cycles
        );
        let per_proc: u64 = self.per_proc.values().sum();
        assert_eq!(
            per_proc, self.attributed,
            "per-process totals must partition the attributed cycles"
        );
        let per_domain: u64 = self.domain_totals().values().sum();
        assert_eq!(
            per_domain, self.attributed,
            "per-domain totals must partition the attributed cycles"
        );
        let per_cpu_work: u64 = self
            .per_cpu
            .iter()
            .filter(|((_, d), _)| *d != Domain::Idle)
            .map(|(_, &c)| c)
            .sum();
        assert_eq!(
            per_cpu_work, self.attributed,
            "per-core work totals must partition the attributed cycles"
        );
    }

    /// Asserts the SMP extension of the conservation identity: for every
    /// core, Σ over domains of `per_cpu[(cpu, d)]` — work attributed to the
    /// core plus scheduler-recorded idle — equals that core's share of the
    /// horizon. `cpu_work[i]` is the cycles of work core `i` performed
    /// since enable (from `Machine::cpu_clocks` deltas) and `horizon` the
    /// common wall-clock endpoint (max of the deltas), so
    /// `work[i] + idle[i] == horizon` for every core.
    ///
    /// # Panics
    /// When any core's books don't balance.
    pub fn assert_smp_conservation(&self, cpu_work: &[u64], horizon: u64) {
        for (cpu, &work) in cpu_work.iter().enumerate() {
            let mut attributed = 0u64;
            let mut idle = 0u64;
            for d in Domain::ALL {
                let c = self.per_cpu.get(&(cpu, d)).copied().unwrap_or(0);
                if d == Domain::Idle {
                    idle += c;
                } else {
                    attributed += c;
                }
            }
            assert_eq!(
                attributed, work,
                "core {cpu}: attributed {attributed} != performed work {work}"
            );
            assert_eq!(
                attributed + idle,
                horizon,
                "core {cpu}: work {attributed} + idle {idle} != horizon {horizon}"
            );
        }
    }

    /// Root-to-node frame path for a node (crate-internal, for exporters).
    pub(crate) fn path_of(&self, mut idx: u32) -> Vec<(Domain, &'static str)> {
        let mut path = Vec::new();
        loop {
            let n = &self.nodes[idx as usize];
            path.push((n.domain, n.label));
            if idx == 0 {
                break;
            }
            idx = n.parent;
        }
        path.reverse();
        path
    }

    /// All nodes (crate-internal, for exporters).
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_does_nothing() {
        let mut p = CycleProfiler::new();
        p.push(Domain::Syscall, "open");
        p.on_charge(1, 0, 100);
        p.pop();
        assert_eq!(p.total_attributed(), 0);
        assert_eq!(p.depth(), 0);
        assert!(p.domain_totals().is_empty());
        p.assert_conservation(0);
    }

    #[test]
    fn charges_land_in_the_innermost_frame() {
        let mut p = CycleProfiler::new();
        p.enable(50);
        p.on_charge(0, 0, 10); // root
        p.push(Domain::Syscall, "open");
        p.on_charge(1, 0, 100);
        p.push_leaf("kpath.open");
        p.on_charge(1, 0, 7); // inherits Syscall
        p.pop();
        p.pop();
        p.push(Domain::Crypto, "seal");
        p.on_charge(2, 0, 30);
        p.pop();
        assert_eq!(p.total_attributed(), 147);
        p.assert_conservation(50 + 147);
        let d = p.domain_totals();
        assert_eq!(d[&Domain::Boot], 10);
        assert_eq!(d[&Domain::Syscall], 107);
        assert_eq!(d[&Domain::Crypto], 30);
        assert_eq!(p.proc_totals()[&1], 107);
        assert_eq!(p.proc_domain_totals()[&(2, Domain::Crypto)], 30);
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn repeated_frames_reuse_nodes() {
        let mut p = CycleProfiler::new();
        p.enable(0);
        for _ in 0..3 {
            p.push(Domain::Syscall, "read");
            p.on_charge(1, 0, 5);
            p.pop();
        }
        // root + one "read" node — not three.
        assert_eq!(p.nodes().len(), 2);
        assert_eq!(p.domain_totals()[&Domain::Syscall], 15);
    }

    #[test]
    fn nested_same_domain_frames_do_not_double_count() {
        let mut p = CycleProfiler::new();
        p.enable(0);
        p.push(Domain::Sva, "outer");
        p.on_charge(0, 0, 3);
        p.push(Domain::Sva, "inner");
        p.on_charge(0, 0, 4);
        p.pop();
        p.pop();
        assert_eq!(p.domain_totals()[&Domain::Sva], 7);
        p.assert_conservation(7);
    }

    #[test]
    fn zero_cycle_charges_are_free() {
        let mut p = CycleProfiler::new();
        p.enable(0);
        p.on_charge(9, 0, 0);
        assert!(p.proc_totals().is_empty());
        p.assert_conservation(0);
    }

    #[test]
    fn domain_keys_are_stable_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for d in Domain::ALL {
            assert!(seen.insert(d.key()), "duplicate key {}", d.key());
        }
        assert_eq!(seen.len(), 12);
    }
}
