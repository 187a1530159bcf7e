//! # vg-faults
//!
//! Cycle-deterministic fault-injection plans for the Virtual Ghost
//! simulation.
//!
//! A [`FaultPlan`] describes *what* to inject ([`FaultClass`]) and *when*
//! ([`Trigger`]): at an absolute simulated cycle, on the nth occurrence of
//! an operation, or with a seeded-PRNG probability. Everything derives from
//! a single `u64` seed, so an entire randomized fault campaign replays
//! bit-identically from that seed alone.
//!
//! [`FaultState`] is the runtime half, embedded in the machine. Its central
//! property is *structural zero-when-disabled*: while no plan is armed,
//! [`FaultState::check`] is one branch on an `Option` — no PRNG draws, no
//! occurrence counting, no allocation — so a disarmed run is bit-identical
//! to a build without the layer at all (the same house style as `vg-trace`).
//!
//! This crate is dependency-free so `vg-machine` can sit on top of it; the
//! machine re-exports the types and owns the metrics/trace side effects.

/// The classes of hardware/system misbehavior the layer can inject.
///
/// The discriminants index the per-class occurrence and outcome counters,
/// so the list order is part of the replay format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// Device I/O error on a kernel disk DMA transfer (transient from the
    /// device's point of view; the filesystem retries with backoff).
    DeviceIo = 0,
    /// A single spurious interrupt: a trap entry/exit cycle with no work.
    SpuriousIrq = 1,
    /// An interrupt storm: a burst of spurious interrupts back to back.
    IrqStorm = 2,
    /// A single bit flip in an allocated, non-ghost physical frame.
    BitFlip = 3,
    /// Corruption of a stored swapped-ghost-page blob (ciphertext bytes).
    SwapCorrupt = 4,
    /// Truncation of a stored swapped-ghost-page blob.
    SwapTruncate = 5,
    /// TPM/key-service operation failure during app key retrieval.
    TpmFail = 6,
    /// Physical frame-pool exhaustion reported to an allocation attempt.
    FrameExhaust = 7,
    /// Kernel metadata allocation failure (fd tables, pipes, sockets).
    KernelAlloc = 8,
    /// Transient disk error on the ghost swapper's device path.
    DiskTransient = 9,
}

/// Number of fault classes (array dimension for per-class counters).
pub const NUM_FAULT_CLASSES: usize = 10;

impl FaultClass {
    /// Every class, in discriminant order.
    pub const ALL: [FaultClass; NUM_FAULT_CLASSES] = [
        FaultClass::DeviceIo,
        FaultClass::SpuriousIrq,
        FaultClass::IrqStorm,
        FaultClass::BitFlip,
        FaultClass::SwapCorrupt,
        FaultClass::SwapTruncate,
        FaultClass::TpmFail,
        FaultClass::FrameExhaust,
        FaultClass::KernelAlloc,
        FaultClass::DiskTransient,
    ];

    /// Stable short key used in reports and logs.
    pub fn key(self) -> &'static str {
        match self {
            FaultClass::DeviceIo => "device_io",
            FaultClass::SpuriousIrq => "spurious_irq",
            FaultClass::IrqStorm => "irq_storm",
            FaultClass::BitFlip => "bit_flip",
            FaultClass::SwapCorrupt => "swap_corrupt",
            FaultClass::SwapTruncate => "swap_truncate",
            FaultClass::TpmFail => "tpm_fail",
            FaultClass::FrameExhaust => "frame_exhaust",
            FaultClass::KernelAlloc => "kernel_alloc",
            FaultClass::DiskTransient => "disk_transient",
        }
    }
}

/// What became of a fault. [`FaultState`] keeps one count per outcome and
/// class: [`FaultState::check`] counts injections, and hooks count the rest
/// through [`FaultState::note`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The plan injected the fault.
    Injected = 0,
    /// A consumer retried the operation the fault broke.
    Retried = 1,
    /// A consumer recovered from the fault (a retry or fallback succeeded).
    Recovered = 2,
    /// The fault killed a process.
    ProcKilled = 3,
}

/// When a [`FaultSpec`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fires exactly once, on the first check of the class at or after the
    /// given absolute simulated cycle.
    AtCycle(u64),
    /// Fires exactly once, on the nth (1-based) occurrence of the class's
    /// hook.
    Nth(u64),
    /// Fires whenever a PRNG draw falls below the threshold, interpreted as
    /// a fraction of `2^32` (so `0x0100_0000` ≈ 0.4 %).
    Probability(u32),
}

/// One injection rule: a fault class plus its trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to inject.
    pub class: FaultClass,
    /// When to inject it.
    pub trigger: Trigger,
}

/// A complete, replayable fault plan: a seed plus the injection rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// PRNG seed. Identical seeds (with identical specs and identical
    /// workloads) replay bit-identically.
    pub seed: u64,
    /// The injection rules.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan: armed, but injecting nothing. Arming an empty plan
    /// must leave a run bit-identical to a disarmed run (tested in
    /// `tests/trace_determinism.rs`).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Builder: adds one injection rule.
    pub fn with(mut self, class: FaultClass, trigger: Trigger) -> Self {
        self.specs.push(FaultSpec { class, trigger });
        self
    }

    /// Derives a randomized fault mix entirely from `seed`: 2–4 classes,
    /// each with a randomly chosen trigger. The mix leans on probabilistic
    /// and nth-occurrence triggers (which are workload-relative) plus low
    /// probabilities, so campaigns stress recovery paths without making
    /// forward progress impossible.
    pub fn campaign(seed: u64) -> Self {
        let mut s = seed ^ 0x05ee_d0ff_a017 /* plan-derivation domain */;
        let n_specs = 2 + (splitmix64(&mut s) % 3) as usize;
        let mut specs = Vec::with_capacity(n_specs);
        for _ in 0..n_specs {
            let class = FaultClass::ALL[(splitmix64(&mut s) % NUM_FAULT_CLASSES as u64) as usize];
            let trigger = match splitmix64(&mut s) % 3 {
                0 => Trigger::Nth(1 + splitmix64(&mut s) % 40),
                1 => Trigger::AtCycle(1_000 + splitmix64(&mut s) % 2_000_000),
                // ~0.02 % .. ~1.6 % per occurrence.
                _ => Trigger::Probability(0x000d_0000 + (splitmix64(&mut s) % 0x0400_0000) as u32),
            };
            specs.push(FaultSpec { class, trigger });
        }
        FaultPlan { seed, specs }
    }
}

/// One injection that actually happened — the attribution record the
/// campaign harness matches flight-recorder denials against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Simulated cycle at injection.
    pub at: u64,
    /// The injected class.
    pub class: FaultClass,
    /// Which occurrence of the class's hook this was (1-based).
    pub occurrence: u64,
}

/// Runtime injection state. Lives inside the machine; disarmed by default.
#[derive(Debug, Default)]
pub struct FaultState {
    plan: Option<FaultPlan>,
    rng: u64,
    occ: [u64; NUM_FAULT_CLASSES],
    /// Per class, the count of each [`Outcome`], indexed by discriminant.
    outcomes: [[u64; 4]; NUM_FAULT_CLASSES],
    spec_fired: Vec<bool>,
    log: Vec<InjectedFault>,
}

/// The splitmix64 step: tiny, dependency-free, and plenty for fault
/// scheduling (crypto-strength randomness is not a goal here).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultState {
    /// A disarmed state (the default for every machine).
    pub fn disarmed() -> Self {
        FaultState::default()
    }

    /// Arms `plan`, resetting all occurrence and outcome counters and the
    /// injection log. The PRNG is seeded from the plan seed.
    pub fn arm(&mut self, plan: FaultPlan) {
        self.rng = plan.seed ^ 0x9e37_79b9_7f4a_7c15;
        self.occ = [0; NUM_FAULT_CLASSES];
        self.outcomes = [[0; 4]; NUM_FAULT_CLASSES];
        self.spec_fired = vec![false; plan.specs.len()];
        self.log = Vec::new();
        self.plan = Some(plan);
    }

    /// Disarms injection (the log and counters remain readable).
    pub fn disarm(&mut self) {
        self.plan = None;
    }

    /// Whether a plan is armed.
    #[inline]
    pub fn armed(&self) -> bool {
        self.plan.is_some()
    }

    /// Checks whether a fault of `class` should inject at the hook that
    /// calls this, at simulated cycle `now`.
    ///
    /// Disarmed, this is a single branch — no counters move, no PRNG draws
    /// happen — so hook sites are structurally free when injection is off.
    #[inline]
    pub fn check(&mut self, class: FaultClass, now: u64) -> bool {
        if self.plan.is_none() {
            return false;
        }
        self.check_armed(class, now)
    }

    fn check_armed(&mut self, class: FaultClass, now: u64) -> bool {
        let idx = class as usize;
        self.occ[idx] += 1;
        let occurrence = self.occ[idx];
        let plan = self.plan.as_ref().expect("armed");
        let mut fire = false;
        for (i, spec) in plan.specs.iter().enumerate() {
            if spec.class != class {
                continue;
            }
            match spec.trigger {
                Trigger::AtCycle(c) => {
                    if now >= c && !self.spec_fired[i] {
                        self.spec_fired[i] = true;
                        fire = true;
                    }
                }
                Trigger::Nth(n) => {
                    if occurrence == n {
                        fire = true;
                    }
                }
                Trigger::Probability(p) => {
                    // One draw per matching probability spec per check:
                    // deterministic given the (deterministic) hook order.
                    if (splitmix64(&mut self.rng) as u32) < p {
                        fire = true;
                    }
                }
            }
        }
        if fire {
            self.note(class, Outcome::Injected);
            self.log.push(InjectedFault {
                at: now,
                class,
                occurrence,
            });
        }
        fire
    }

    /// A PRNG draw for fault payloads (which frame to flip, which byte to
    /// corrupt). Only meaningful while armed; draws advance the same stream
    /// probability triggers use, keeping the whole schedule a pure function
    /// of the seed and the hook sequence.
    #[inline]
    pub fn entropy(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }

    /// Counts one `outcome` of a `class` fault.
    #[inline]
    pub fn note(&mut self, class: FaultClass, outcome: Outcome) {
        self.outcomes[class as usize][outcome as usize] += 1;
    }

    /// How many `outcome`s of `class` faults were counted since arming.
    pub fn count(&self, class: FaultClass, outcome: Outcome) -> u64 {
        self.outcomes[class as usize][outcome as usize]
    }

    /// How many times `class` has injected since arming.
    pub fn injected(&self, class: FaultClass) -> u64 {
        self.count(class, Outcome::Injected)
    }

    /// Total injections since arming.
    pub fn total_injected(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|c| c[Outcome::Injected as usize])
            .sum()
    }

    /// Renders the per-class outcome table: one row per class with any
    /// count, in [`FaultClass::key`] order. Returns the empty string when
    /// every count is 0 — a run with injection disarmed never counts one,
    /// so appending this to any report leaves disabled-mode output
    /// byte-identical.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut rows: Vec<(&str, [u64; 4])> = FaultClass::ALL
            .iter()
            .map(|&c| (c.key(), self.outcomes[c as usize]))
            .filter(|(_, counts)| counts.iter().any(|&n| n > 0))
            .collect();
        if rows.is_empty() {
            return String::new();
        }
        rows.sort_unstable_by_key(|&(key, _)| key);
        let mut out = String::new();
        let _ = writeln!(out, "== fault injection: per-class outcomes ==");
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>9} {:>9} {:>11}",
            "class", "injected", "retried", "recovered", "proc_killed"
        );
        for (class, c) in rows {
            let _ = writeln!(
                out,
                "{:<16} {:>9} {:>9} {:>9} {:>11}",
                class, c[0], c[1], c[2], c[3]
            );
        }
        out
    }

    /// The injection log since arming, oldest first.
    pub fn log(&self) -> &[InjectedFault] {
        &self.log
    }

    /// Whether an injection at or before cycle `at` could account for a
    /// consequence observed at that cycle — the attribution test the
    /// campaign harness applies to every flight-recorder denial.
    pub fn attributable(&self, at: u64) -> bool {
        self.log.iter().any(|f| f.at <= at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_check_is_inert() {
        let mut st = FaultState::disarmed();
        for _ in 0..100 {
            assert!(!st.check(FaultClass::DeviceIo, 42));
        }
        assert_eq!(st.total_injected(), 0);
        assert!(st.log().is_empty());
        // Internal occurrence counters must not have moved either: arming
        // later starts from a clean slate.
        st.arm(FaultPlan::new(1).with(FaultClass::DeviceIo, Trigger::Nth(1)));
        assert!(st.check(FaultClass::DeviceIo, 50));
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let mut st = FaultState::disarmed();
        st.arm(FaultPlan::new(7).with(FaultClass::TpmFail, Trigger::Nth(3)));
        let fired: Vec<bool> = (0..6).map(|i| st.check(FaultClass::TpmFail, i)).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
        assert_eq!(st.injected(FaultClass::TpmFail), 1);
        assert_eq!(
            st.log(),
            &[InjectedFault {
                at: 2,
                class: FaultClass::TpmFail,
                occurrence: 3
            }]
        );
    }

    #[test]
    fn at_cycle_trigger_fires_on_first_check_past_deadline() {
        let mut st = FaultState::disarmed();
        st.arm(FaultPlan::new(7).with(FaultClass::BitFlip, Trigger::AtCycle(1000)));
        assert!(!st.check(FaultClass::BitFlip, 10));
        assert!(!st.check(FaultClass::BitFlip, 999));
        assert!(st.check(FaultClass::BitFlip, 1500));
        assert!(!st.check(FaultClass::BitFlip, 2000)); // one-shot
    }

    #[test]
    fn probability_trigger_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let mut st = FaultState::disarmed();
            st.arm(FaultPlan::new(seed).with(
                FaultClass::DeviceIo,
                Trigger::Probability(0x4000_0000), // 25 %
            ));
            (0..64).map(|i| st.check(FaultClass::DeviceIo, i)).collect()
        };
        let a = run(1234);
        assert_eq!(a, run(1234), "same seed must replay identically");
        assert_ne!(a, run(1235), "different seeds should differ");
        let hits = a.iter().filter(|&&b| b).count();
        assert!(hits > 4 && hits < 32, "25% of 64 draws, got {hits}");
    }

    #[test]
    fn campaign_plans_replay_from_seed() {
        for seed in 0..50u64 {
            let a = FaultPlan::campaign(seed);
            let b = FaultPlan::campaign(seed);
            assert_eq!(a, b);
            assert!(a.specs.len() >= 2 && a.specs.len() <= 4);
        }
        assert_ne!(FaultPlan::campaign(1).specs, FaultPlan::campaign(2).specs);
    }

    #[test]
    fn occurrences_are_tracked_per_class() {
        let mut st = FaultState::disarmed();
        st.arm(
            FaultPlan::new(9)
                .with(FaultClass::DeviceIo, Trigger::Nth(2))
                .with(FaultClass::TpmFail, Trigger::Nth(2)),
        );
        assert!(!st.check(FaultClass::DeviceIo, 1));
        assert!(!st.check(FaultClass::TpmFail, 2));
        assert!(st.check(FaultClass::DeviceIo, 3));
        assert!(st.check(FaultClass::TpmFail, 4));
        assert!(st.attributable(5));
        assert!(!st.attributable(2));
    }
}
