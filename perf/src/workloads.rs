//! The four workloads. One *unit* is a fresh `System` boot, one app call
//! (the `vg-apps` function that runs the workload) and its own output
//! checks; every workload runs
//! `Mode::VirtualGhost`, the system under study.
//!
//! All simulated connections are data inside one host thread: each
//! connection's whole pipelined request train is queued before the server
//! starts, so the load is a closed batch with no arrival rate.

use crate::spans::Spans;
use std::collections::BTreeMap;
use vg_apps::{ghostkv, postmark, smp, ssh, PostmarkConfig};
use vg_kernel::{Mode, System};
use vg_machine::Domain;

const MIB: usize = 1 << 20;

/// Postmark seeds per `--seed`: consecutive units cycle through them. One
/// Postmark run's cost per transaction moves by ~5% from seed to seed
/// (base-file sizes and the live-set random walk; more transactions make
/// it worse, since appended files keep growing), so a run reports over
/// eight seeds.
const POSTMARK_VARIANTS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8 event-loop thttpd shards x 512 connections x 8 pipelined requests
    /// for a 512-B document on 4 simulated cores over the descriptor ring.
    /// op = request.
    C10kSmp4,
    /// 1024 connections x 4 SET/GET pairs of 256-B values held in a ghost
    /// heap, every flow's response verified. op = command.
    Ghostkv,
    /// Postmark (paper Table 5), 1000 transactions; unit `i` uses seed
    /// `8 * seed + i % 8`. op = transaction.
    Postmark,
    /// 8 sshd downloads of 1 MiB, then 8 ghosting-client downloads of
    /// 1 MiB (paper Figures 3/4). op = MiB delivered.
    Ssh,
}

pub const ALL: [Workload; 4] = [
    Workload::C10kSmp4,
    Workload::Ghostkv,
    Workload::Postmark,
    Workload::Ssh,
];

/// Simulated-side results of one unit. They are deterministic: every unit
/// of one workload and seed must produce equal books.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Books {
    /// Simulated cycles the app calls advanced the clock by; for
    /// `c10k_smp4`, the busiest core's horizon.
    pub sim_cycles: u64,
    /// Counter deltas over the app calls, by counter name. Empty for
    /// `c10k_smp4`, whose app call boots and owns its `System`.
    pub counts: BTreeMap<&'static str, u64>,
    /// Profiled cycles per domain key (traced units only).
    pub domains: BTreeMap<&'static str, u64>,
    /// Work summed over every core.
    pub total_cycles: u64,
    /// The busiest core's work.
    pub horizon_cycles: u64,
    pub cpus: u64,
    pub steals: u64,
    pub ipis: u64,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::C10kSmp4 => "c10k_smp4",
            Workload::Ghostkv => "ghostkv",
            Workload::Postmark => "postmark",
            Workload::Ssh => "ssh",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated cores the workload's systems boot with.
    pub fn cpus(self) -> usize {
        match self {
            Workload::C10kSmp4 => 4,
            _ => 1,
        }
    }

    /// Ops one unit performs when the load is divided by `div` (1 = the
    /// benchmark's size; the tests use 16).
    pub fn ops(self, div: u32) -> u64 {
        match self {
            Workload::C10kSmp4 => 8 * u64::from(512 / div) * 8,
            Workload::Ghostkv => u64::from(1024 / div) * 4 * 2,
            Workload::Postmark => u64::from(1000 / div),
            Workload::Ssh => (2 * 8 * (MIB / div as usize) / MIB) as u64,
        }
    }

    /// Distinct inputs one `--seed` gives; unit `i` runs variant
    /// `i % variants()`.
    pub fn variants(self) -> u64 {
        match self {
            Workload::Postmark => POSTMARK_VARIANTS,
            _ => 1,
        }
    }

    /// Runs one unit of input `variant`. Panics when an app or output
    /// check fails; the harness catches that and counts the unit as
    /// failed. With `traced` the cycle profiler is on during the app
    /// calls (it never changes simulated results).
    pub fn run_unit(
        self,
        seed: u64,
        variant: u64,
        div: u32,
        traced: bool,
        spans: &mut Spans,
    ) -> Books {
        let ops = self.ops(div);
        match self {
            Workload::C10kSmp4 => {
                let s = spans.begin("app");
                let b = smp::c10k_sharded(4, 8, 512, 512 / div, 8);
                spans.end(s);
                let s = spans.begin("check");
                assert_eq!((b.units, b.cpus, b.shards), (ops, 4, 8), "c10k_smp4 shape");
                spans.end(s);
                Books {
                    sim_cycles: b.horizon_cycles,
                    total_cycles: b.total_cycles,
                    horizon_cycles: b.horizon_cycles,
                    cpus: b.cpus as u64,
                    steals: b.steals,
                    ipis: b.ipis,
                    ..Books::default()
                }
            }
            Workload::Ghostkv => {
                let mut books = Books::default();
                let mut sys = boot(1, spans);
                let meter = Meter::start(&mut sys, traced);
                let s = spans.begin("app");
                let r = ghostkv::kv_load(&mut sys, 256, 1024 / div, 4);
                spans.end(s);
                meter.finish(&sys, &mut books);
                let s = spans.begin("check");
                assert_eq!(r.requests, ops, "every ghostkv command served");
                spans.end(s);
                books
            }
            Workload::Postmark => {
                let mut books = Books::default();
                let mut sys = boot(1, spans);
                let meter = Meter::start(&mut sys, traced);
                let s = spans.begin("app");
                let cfg = PostmarkConfig {
                    base_files: 500 / div,
                    transactions: 1000 / div,
                    seed: seed.wrapping_mul(POSTMARK_VARIANTS).wrapping_add(variant),
                    ..Default::default()
                };
                let r = postmark::run(&mut sys, cfg);
                spans.end(s);
                meter.finish(&sys, &mut books);
                let s = spans.begin("check");
                assert_eq!(u64::from(r.transactions), ops);
                assert!(r.seconds > 0.0, "postmark took simulated time");
                assert!(spool_is_empty(&mut sys), "postmark removed every file");
                spans.end(s);
                books
            }
            Workload::Ssh => {
                let mut books = Books::default();
                let file = MIB / div as usize;
                let mut server = boot(1, spans);
                let meter = Meter::start(&mut server, traced);
                let s = spans.begin("app");
                let served = ssh::sshd_bandwidth(&mut server, file, 8);
                spans.end(s);
                meter.finish(&server, &mut books);
                let mut client = boot(1, spans);
                let meter = Meter::start(&mut client, traced);
                let s = spans.begin("app");
                let fetched = ssh::ssh_client_bandwidth(&mut client, file, 8, true);
                spans.end(s);
                meter.finish(&client, &mut books);
                let s = spans.begin("check");
                assert!(
                    served.is_finite() && served > 0.0,
                    "sshd bandwidth {served}"
                );
                assert!(
                    fetched.is_finite() && fetched > 0.0,
                    "client bandwidth {fetched}"
                );
                spans.end(s);
                books
            }
        }
    }
}

/// Boots the system under study with `cpus` cores.
pub fn boot_system(cpus: usize) -> System {
    System::boot_with_cpus(Mode::VirtualGhost, cpus)
}

fn boot(cpus: usize, spans: &mut Spans) -> System {
    let s = spans.begin("boot");
    let sys = boot_system(cpus);
    spans.end(s);
    sys
}

/// Whether Postmark's spool directory is empty after its delete phase.
fn spool_is_empty(sys: &mut System) -> bool {
    let mut work = vg_kernel::fs::FsWork::default();
    let (fs, machine, vm) = (&mut sys.fs, &mut sys.machine, &mut sys.vm);
    let mut dev = vg_kernel::system::DmaDisk { machine, vm };
    fs.readdir(&mut dev, "/pm", &mut work)
        .is_ok_and(|entries| entries.is_empty())
}

/// Every simulator counter the per-layer metrics use. This is the one
/// place the benchmark reads `Counters`, so a change to how the simulator
/// keeps its counters touches the benchmark here only.
pub fn read_counters(sys: &System) -> [(&'static str, u64); 16] {
    let c = &sys.machine.counters;
    [
        ("syscalls", c.syscalls),
        ("traps", c.traps),
        ("page_faults", c.page_faults),
        ("pte_updates", c.pte_updates),
        ("bytes_copied", c.bytes_copied),
        ("disk_blocks", c.disk_blocks),
        ("packets", c.packets),
        ("ghost_pages", c.ghost_pages_allocated),
        ("context_switches", c.context_switches),
        ("ring_descs", c.ring_descs),
        ("ring_doorbells", c.ring_doorbells),
        ("tlb_hits", c.tlb_hits.iter().sum()),
        ("tlb_misses", c.tlb_misses.iter().sum()),
        ("mmu_rejections", c.mmu_rejections),
        ("ipis", c.ipis),
        ("sched_steals", c.sched_steals),
    ]
}

/// Clock and counters at the start of an app call on one `System`.
struct Meter {
    cycles: u64,
    counters: [(&'static str, u64); 16],
}

impl Meter {
    fn start(sys: &mut System, traced: bool) -> Meter {
        if traced {
            sys.machine.profile_enable();
        }
        Meter {
            cycles: sys.machine.clock.cycles(),
            counters: read_counters(sys),
        }
    }

    /// Adds the app call's deltas to `books`. A one-core system's
    /// horizon is all of its work.
    fn finish(self, sys: &System, books: &mut Books) {
        let cycles = sys.machine.clock.cycles() - self.cycles;
        let counts: BTreeMap<_, _> = self
            .counters
            .iter()
            .zip(read_counters(sys))
            .map(|(&(name, before), (_, after))| (name, after - before))
            .collect();
        books.merge(&Books {
            sim_cycles: cycles,
            total_cycles: cycles,
            horizon_cycles: cycles,
            cpus: 1,
            steals: counts["sched_steals"],
            ipis: counts["ipis"],
            counts,
            domains: (sys.machine.profiler.domain_totals().into_iter())
                .map(|(d, c)| (Domain::key(d), c))
                .collect(),
        });
    }
}

impl Books {
    /// Adds `other`'s work to these books: the two systems of an `ssh`
    /// unit, or the units of every variant.
    pub fn merge(&mut self, other: &Books) {
        self.sim_cycles += other.sim_cycles;
        self.total_cycles += other.total_cycles;
        self.horizon_cycles += other.horizon_cycles;
        self.cpus = self.cpus.max(other.cpus);
        self.steals += other.steals;
        self.ipis += other.ipis;
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.domains {
            *self.domains.entry(k).or_insert(0) += v;
        }
    }
}
