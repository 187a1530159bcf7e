//! The system: machine + SVA VM + kernel state + process execution.
//!
//! [`System`] is the top-level simulation object. It owns the hardware
//! ([`vg_machine::Machine`]), the trusted layer ([`vg_core::SvaVm`]), and
//! all *kernel* state (process table, filesystem, network stack, loaded
//! modules). Applications are Rust closures that interact with the world
//! exclusively through [`crate::program::UserEnv`] — every privileged
//! effect goes through the same trap → dispatch → return path, charged
//! under the active cost model, in both native and Virtual Ghost modes.
//!
//! The machine has one or more simulated cores
//! ([`System::boot_with_cpus`]). Each process gets a home core, and each core
//! has its own ready queue. [`System::run_queued`] drains the queues onto
//! the least-loaded core, which steals from its siblings' queues in a fixed
//! order when its own queue is empty. A chosen process runs to completion on
//! that core: `fork` children are executed when the parent `wait`s, and
//! signals are delivered at system-call boundaries of the current process.
//! Every choice is a function of simulated state, so runs replay exactly.
//! Each core's cycles are tracked separately, and at the end of a window
//! the gap between a core's work and the busiest core's is recorded as
//! [`Domain::Idle`] time. A one-core system is the single-core machine of
//! the paper.

use crate::costs;
use crate::dmap::{self, DirectMap, Privilege};
use crate::fs::{BlockDev, FsError, FsWork, Ino, VgFs, BLOCK_SIZE};
use crate::mem::{copy_cost, kwork, AddressSpace, RegionKind, STACK_TOP};
use crate::net::{NetStack, Socket};
use crate::program::{AppMain, SigHandlerFn, UserEnv};
use crate::syscall::ENOMEM;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;
use vg_core::{AppBinary, ProcId, Protections, SvaError, SvaVm, ThreadId};
use vg_crypto::{Sha256, Tpm};
use vg_ir::registry::USER_TEXT_BASE;
use vg_machine::cost::CostModel;
use vg_machine::cpu::TrapKind;
use vg_machine::layout::{GHOST_BASE, PAGE_SIZE};
use vg_machine::mmu::{AccessKind, TranslateError};
use vg_machine::pte::PteFlags;
use vg_machine::{
    DenialKind, Domain, FaultClass, IntMap, Machine, MachineConfig, Outcome, Pfn, PhysMem, VAddr,
};

/// Process identifier.
pub type Pid = u64;

/// Harness-side model of a remote network peer (see
/// [`System::remote_responder`]): called with the flow, the bytes the host
/// just transmitted on it, and an empty buffer to append the reply to.
pub type RemoteResponder = Box<dyn FnMut(u64, &[u8], &mut Vec<u8>)>;

/// Default signal number used by the test workloads (SIGUSR1-ish).
pub const SIGUSR1: i32 = 30;

/// System configuration mode.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // Custom carries the full cost model; Modes are not stored in bulk
pub enum Mode {
    /// Baseline FreeBSD-like system: no protections, native cost model.
    Native,
    /// Full Virtual Ghost.
    VirtualGhost,
    /// Virtual Ghost's protections under another cost model (the
    /// ablations).
    Custom(CostModel),
}

impl Mode {
    fn split(&self) -> (Protections, CostModel) {
        match self {
            Mode::Native => (Protections::native(), CostModel::native()),
            Mode::VirtualGhost => (Protections::virtual_ghost(), CostModel::virtual_ghost()),
            Mode::Custom(c) => (Protections::virtual_ghost(), c.clone()),
        }
    }
}

/// Result of one [`System::run_queued`] scheduling window.
#[derive(Debug, Clone)]
pub struct SchedRun {
    /// `(pid, exit code)` in completion order.
    pub exits: Vec<(Pid, i32)>,
    /// Per-core simulated cycles performed during the window.
    pub work: Vec<u64>,
    /// The busiest core's work — the window's simulated wall-clock duration
    /// on an SMP machine (every other core finished earlier and idled).
    pub horizon: u64,
    /// Processes that ran on a core other than their home (work stealing).
    pub steals: u64,
}

impl SchedRun {
    /// The window's duration in simulated microseconds (horizon cycles).
    pub fn micros(&self) -> f64 {
        self.horizon as f64 / vg_machine::cost::CYCLES_PER_US
    }
}

/// What a forked child does.
pub enum ChildKind {
    /// Exit immediately with the code (LMBench `fork+exit`).
    Exit(i32),
    /// Exec the named binary, run it, exit with its status (`fork+exec`).
    Exec(String),
    /// Run an arbitrary program body.
    Run(AppMain),
}

impl std::fmt::Debug for ChildKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChildKind::Exit(c) => write!(f, "ChildKind::Exit({c})"),
            ChildKind::Exec(n) => write!(f, "ChildKind::Exec({n:?})"),
            ChildKind::Run(_) => write!(f, "ChildKind::Run(..)"),
        }
    }
}

/// An installed application.
pub struct AppSpec {
    /// Produces a fresh program body per exec.
    pub factory: std::rc::Rc<dyn Fn() -> AppMain>,
    /// Whether the app places its heap in ghost memory.
    pub ghosting: bool,
    /// The signed binary (identity + key section).
    pub binary: AppBinary,
    /// Digest of the application code (what exec presents to the VM).
    pub digest: [u8; 32],
}

impl std::fmt::Debug for AppSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppSpec")
            .field("ghosting", &self.ghosting)
            .field("binary", &self.binary.name)
            .finish()
    }
}

/// A file descriptor.
#[derive(Debug, Clone)]
pub enum Fd {
    /// Open file with a cursor.
    File {
        /// Backing inode.
        ino: Ino,
        /// Current offset.
        off: u64,
    },
    /// Socket endpoint.
    Sock {
        /// Index into the system socket table.
        id: u64,
    },
    /// Read end of a pipe.
    PipeR {
        /// Pipe id.
        id: u64,
    },
    /// Write end of a pipe.
    PipeW {
        /// Pipe id.
        id: u64,
    },
}

/// An anonymous pipe.
#[derive(Debug, Default)]
pub struct Pipe {
    /// Buffered bytes.
    pub buf: std::collections::VecDeque<u8>,
    /// Live read-end descriptors.
    pub readers: u32,
    /// Live write-end descriptors.
    pub writers: u32,
}

/// Process state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Has a program to run.
    Runnable,
    /// Finished; holds the exit code until reaped.
    Zombie(i32),
}

/// A process.
pub struct Proc {
    /// Pid.
    pub pid: Pid,
    /// Binary name.
    pub name: String,
    /// Page-table root.
    pub root: Pfn,
    /// User address-space bookkeeping.
    pub aspace: AddressSpace,
    /// File descriptor table.
    pub fds: Vec<Option<Fd>>,
    /// Registered signal-handler bodies, keyed by handler code address.
    pub handlers: IntMap<u64, SigHandlerFn>,
    /// Signal dispositions: signal → handler code address.
    pub sig_disposition: IntMap<i32, u64>,
    /// Queued signals awaiting delivery.
    pub pending: VecDeque<i32>,
    /// Whether this process uses ghost memory.
    pub ghosting: bool,
    /// Next free ghost partition address.
    pub ghost_cursor: u64,
    /// State.
    pub state: ProcState,
    /// Parent pid.
    pub parent: Option<Pid>,
    /// Allocator for handler code addresses.
    pub next_handler_addr: u64,
    /// CPU cycles charged while this process was current.
    pub cpu_cycles: u64,
    /// Preferred core: where [`System::sched_enqueue`] queues this process
    /// (assigned round-robin at creation). Work stealing may run it
    /// elsewhere. Always 0 on a single-core system.
    pub home_cpu: usize,
    /// Set when the kernel killed this process after an unrecoverable
    /// fault (the static detail string from the flight-recorder entry).
    /// A killed process's memory accesses become no-ops and its exit
    /// status is overridden with 137 — the kernel never panics on its
    /// behalf.
    pub fault_killed: Option<&'static str>,
    pub(crate) program: Option<AppMain>,
}

impl std::fmt::Debug for Proc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proc")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .field("state", &self.state)
            .finish()
    }
}

/// DMA-backed block device view for the filesystem: every cache miss
/// allocates a staging frame, maps it at the IOMMU, DMAs, and tears down —
/// charging the disk and I/O-check costs.
pub struct DmaDisk<'a> {
    /// The machine.
    pub machine: &'a mut Machine,
    /// The trusted layer (for checked IOMMU configuration).
    pub vm: &'a mut SvaVm,
}

impl DmaDisk<'_> {
    /// Retry budget for transient device errors. The first attempt charges
    /// exactly what the pre-fault-layer driver charged; each retry adds a
    /// bounded, exponentially growing backoff charge before re-issuing.
    const DMA_ATTEMPTS: u32 = 4;

    /// One block transfer through a bounce frame: allocates it, stages
    /// `data` in it for a write, maps it at the IOMMU and DMAs, then, for
    /// a read, takes the block out of it, and unmaps and frees it. A write
    /// returns an empty `Vec`.
    fn transfer(&mut self, bno: u32, data: Option<&[u8]>) -> Result<Vec<u8>, FsError> {
        self.machine.counters.disk_blocks += 1;
        let label = if data.is_some() {
            "disk_write"
        } else {
            "disk_read"
        };
        self.machine.prof_push(Domain::Dma, label);
        self.machine.charge(self.machine.costs.disk_per_block);
        self.machine.prof_pop();
        let frame = self.dmap().alloc().ok_or(FsError::Io)?;
        let staged = data
            .map_or(Ok(()), |d| self.dmap().write(frame, 0, d))
            .is_ok()
            && self.vm.sva_iommu_map(self.machine, frame).is_ok();
        let mut out = Err(FsError::Io);
        if staged {
            let dma = match data {
                Some(_) => self.machine.disk_dma_write(bno as u64, frame),
                None => self.machine.disk_dma_read(bno as u64, frame),
            };
            if dma.is_ok() {
                out = match data {
                    Some(_) => Ok(Vec::new()),
                    None => self.dmap().bytes(frame, 0, BLOCK_SIZE).map(<[u8]>::to_vec),
                }
                .map_err(|_| FsError::Io);
            }
            self.vm.sva_iommu_unmap(self.machine, frame);
        }
        let _ = self.dmap().free(frame);
        out
    }

    /// [`transfer`](Self::transfer), retried with backoff on a transient
    /// device error.
    fn transfer_retrying(&mut self, bno: u32, data: Option<&[u8]>) -> Result<Vec<u8>, FsError> {
        for attempt in 0..Self::DMA_ATTEMPTS {
            if attempt > 0 {
                self.backoff(attempt);
            }
            if let Ok(out) = self.transfer(bno, data) {
                if attempt > 0 {
                    self.machine.fault_recovered(FaultClass::DeviceIo);
                }
                return Ok(out);
            }
        }
        Err(FsError::Io)
    }

    fn dmap(&mut self) -> DirectMap<'_> {
        DirectMap::new(self.machine, self.vm)
    }

    fn backoff(&mut self, attempt: u32) {
        self.machine.fault_retried(FaultClass::DeviceIo);
        self.machine.prof_push(Domain::Dma, "disk_retry");
        self.machine
            .charge(self.machine.costs.disk_per_block << attempt);
        self.machine.prof_pop();
    }
}

impl BlockDev for DmaDisk<'_> {
    fn read_block(&mut self, bno: u32) -> Result<Vec<u8>, FsError> {
        self.transfer_retrying(bno, None)
    }

    fn write_block(&mut self, bno: u32, data: &[u8]) -> Result<(), FsError> {
        self.transfer_retrying(bno, Some(data)).map(drop)
    }

    fn capacity(&self) -> u32 {
        self.machine.disk.num_blocks() as u32
    }
}

/// The whole simulated system. See the module docs.
pub struct System {
    /// The hardware.
    pub machine: Machine,
    /// The trusted SVA/Virtual Ghost layer.
    pub vm: SvaVm,
    /// The TPM.
    pub tpm: Tpm,
    /// The filesystem.
    pub fs: VgFs,
    /// Kernel data segment (flat memory at `KERNEL_BASE`).
    pub kernel_heap: Vec<u8>,
    /// Process table.
    pub procs: IntMap<Pid, Proc>,
    /// Installed binaries.
    pub binaries: HashMap<String, AppSpec>,
    /// Module syscall hooks: syscall number → handler code address.
    pub hooks: IntMap<u32, vg_ir::CodeAddr>,
    /// Attacker/module configuration cells (the "sysctl" channel).
    pub module_config: Vec<i64>,
    /// Network stack.
    pub net: NetStack,
    /// Which data plane moves network payloads (batched ring by default;
    /// the per-call reference path is kept for differential testing).
    pub net_mode: crate::net::NetMode,
    /// Socket table.
    pub sockets: BTreeMap<u64, Socket>,
    /// The system log (attack 1 exfiltrates here).
    pub log: Vec<String>,
    /// Kernel swap store for evicted (sealed) ghost pages.
    pub swap: crate::swapper::SwapStore,
    /// Pipe table.
    pub pipes: IntMap<u64, Pipe>,
    pub(crate) next_pipe: u64,
    /// Exit codes of all processes ever exited.
    pub exited: IntMap<Pid, i32>,
    /// Harness-side model of a remote peer: sees the bytes the host
    /// transmits on a flow as each send goes out, and appends the reply to
    /// inject. `None` when no peer model is registered.
    pub remote_responder: Option<RemoteResponder>,
    pub(crate) boot_root: Pfn,
    pub(crate) cur: Option<Pid>,
    /// Per-core ready queues (index = core id), fed by
    /// [`sched_enqueue`](Self::sched_enqueue) and drained by the
    /// work-stealing [`run_queued`](Self::run_queued).
    pub run_queues: Vec<VecDeque<Pid>>,
    next_home: usize,
    last_switch_cycles: u64,
    next_pid: Pid,
    pub(crate) pending_child: Option<ChildKind>,
    next_tid: u64,
    pub(crate) syscall_path: Option<String>,
    /// Kernel scratch the readiness and vectored-I/O syscalls reuse: the
    /// user bytes they copy in (a poll table, an iovec table, one `writev`
    /// iovec) and the decoded iovecs. A syscall takes a buffer with
    /// `mem::take` and puts it back before it returns, so once the buffers
    /// have grown a request allocates nothing.
    pub(crate) io_bytes: Vec<u8>,
    pub(crate) io_iovs: Vec<(u64, usize)>,
    mode_name: &'static str,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("mode", &self.mode_name)
            .field("procs", &self.procs.len())
            .field("cycles", &self.machine.clock.cycles())
            .finish()
    }
}

/// Bytes `r` of `q` as slices of its two contiguous halves (either may be
/// empty: a ring buffer's contents may wrap).
fn deque_range(q: &VecDeque<u8>, r: Range<usize>) -> (&[u8], &[u8]) {
    let (front, back) = q.as_slices();
    let split = front.len();
    (
        &front[r.start.min(split)..r.end.min(split)],
        &back[r.start.saturating_sub(split)..r.end.saturating_sub(split)],
    )
}

impl System {
    /// Boots a system in `mode`: builds the machine, the SVA VM, formats the
    /// filesystem.
    pub fn boot(mode: Mode) -> Self {
        Self::boot_with_cpus(mode, 1)
    }

    /// Boots a system with `cpus` simulated cores. `boot_with_cpus(mode, 1)`
    /// is exactly [`boot`](Self::boot): boot-time work is charged to core 0
    /// and a single-core machine never broadcasts shootdown IPIs, so the
    /// two produce bit-identical clocks, counters, and traces.
    pub fn boot_with_cpus(mode: Mode, cpus: usize) -> Self {
        let cpus = cpus.max(1);
        let (protections, cost_model) = mode.split();
        let mode_name = cost_model.name;
        let mut machine = Machine::new(MachineConfig {
            costs: cost_model,
            cpus,
            ..Default::default()
        });
        let tpm = Tpm::new(0x7a31);
        // Short RSA keys keep boots fast; the protocol is size-independent
        // (see vg-crypto docs).
        let mut vm = SvaVm::boot_with_key_bits(protections, &tpm, 0x1337, 256);
        let boot_root = vm.sva_create_root(&mut machine).expect("boot root");
        vm.sva_load_root(&mut machine, boot_root)
            .expect("boot root loads");
        // The IOMMU's memory-mapped configuration pages are SVA-protected
        // from the first instruction (§4.3.3).
        let iommu_mmio: Vec<vg_machine::Pfn> =
            (0..2).filter_map(|_| machine.phys.alloc_frame()).collect();
        vm.sva_declare_iommu_mmio(&iommu_mmio);
        let fs = {
            let mut dev = DmaDisk {
                machine: &mut machine,
                vm: &mut vm,
            };
            VgFs::mkfs(&mut dev, 4096)
        };
        System {
            machine,
            vm,
            tpm,
            fs,
            kernel_heap: vec![0u8; 1 << 20],
            procs: IntMap::default(),
            binaries: HashMap::new(),
            hooks: IntMap::default(),
            module_config: vec![0; 16],
            net: NetStack::new(),
            net_mode: crate::net::NetMode::default(),
            sockets: BTreeMap::new(),
            log: Vec::new(),
            swap: crate::swapper::SwapStore::default(),
            pipes: IntMap::default(),
            next_pipe: 1,
            exited: IntMap::default(),
            remote_responder: None,
            boot_root,
            cur: None,
            run_queues: vec![VecDeque::new(); cpus],
            next_home: 0,
            last_switch_cycles: 0,
            next_pid: 1,
            pending_child: None,
            next_tid: 0,
            syscall_path: None,
            io_bytes: Vec::new(),
            io_iovs: Vec::new(),
            mode_name,
        }
    }

    /// The mode's cost-model name ("native", "virtual-ghost", …).
    pub fn mode_name(&self) -> &'static str {
        self.mode_name
    }

    /// Installs an application binary: computes the code digest, derives a
    /// per-app key, and has the VM produce the signed binary with the
    /// embedded encrypted key section (the trusted-administrator step).
    pub fn install_app(
        &mut self,
        name: &str,
        ghosting: bool,
        factory: impl Fn() -> AppMain + 'static,
    ) {
        let mut app_key = [0u8; 16];
        app_key.copy_from_slice(&Sha256::digest(format!("app-key:{name}").as_bytes())[..16]);
        self.install_app_with_key(name, ghosting, app_key, factory);
    }

    /// [`install_app`](Self::install_app) with an explicit application key —
    /// how the paper's OpenSSH suite shares one key across `ssh`,
    /// `ssh-keygen` and `ssh-agent` so they can exchange encrypted files.
    pub fn install_app_with_key(
        &mut self,
        name: &str,
        ghosting: bool,
        app_key: [u8; 16],
        factory: impl Fn() -> AppMain + 'static,
    ) {
        let digest = Sha256::digest(format!("app-code:{name}").as_bytes());
        let binary = self.vm.sva_install_app(name, digest, app_key);
        self.binaries.insert(
            name.to_string(),
            AppSpec {
                factory: std::rc::Rc::new(factory),
                ghosting,
                binary,
                digest,
            },
        );
    }

    /// Creates a process ready to exec `name`.
    ///
    /// When exec is refused (binary not installed, signature/digest
    /// mismatch, or an injected TPM failure during key loading), the
    /// process is created with a stub program that exits 127 — mirroring a
    /// shell's "command not found" — instead of panicking the kernel.
    pub fn spawn(&mut self, name: &str) -> Pid {
        let pid = self.create_proc(name, None);
        if let Err(e) = self.exec_load(pid, name) {
            self.log
                .push(format!("exec of {name} refused at spawn: {e}"));
            if let Some(p) = self.procs.get_mut(&pid) {
                p.program = Some(Box::new(|_env| 127));
            }
        }
        pid
    }

    /// Creates a process shell without exec'ing it (harness/test helper
    /// for exercising the exec path separately).
    pub fn create_proc_pub(&mut self, name: &str) -> Pid {
        self.create_proc(name, None)
    }

    /// Runs the exec path for `pid` (harness/test helper exposing exec
    /// failures that `spawn` would panic on).
    ///
    /// # Errors
    ///
    /// Propagates the VM's refusals (bad signature, code mismatch).
    pub fn exec_load_pub(&mut self, pid: Pid, name: &str) -> Result<(), SvaError> {
        self.exec_load(pid, name)
    }

    /// Runs a runnable process to completion; returns its exit code.
    ///
    /// # Panics
    ///
    /// Panics if the process does not exist or has no program.
    pub fn run_until_exit(&mut self, pid: Pid) -> i32 {
        self.run_proc(pid)
    }

    /// Exit code of a finished process.
    pub fn exit_status(&self, pid: Pid) -> Option<i32> {
        self.exited.get(&pid).copied()
    }

    /// Simulated time elapsed, in microseconds.
    pub fn micros(&self) -> f64 {
        self.machine.clock.micros()
    }

    /// The boot (kernel-only) address-space root — harness/demo helper for
    /// issuing MMU probes outside any process context.
    pub fn boot_root_pub(&self) -> Pfn {
        self.boot_root
    }

    /// Allocates a thread id outside the pid namespace (pids double as the
    /// main-thread ids; extra threads live above `0x1_0000_0000`).
    pub fn next_thread_id(&mut self) -> ThreadId {
        self.next_tid += 1;
        ThreadId(0x1_0000_0000 + self.next_tid)
    }

    // ---- process lifecycle -------------------------------------------------

    pub(crate) fn create_proc(&mut self, name: &str, parent: Option<Pid>) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 1;
        let home_cpu = self.next_home % self.machine.num_cpus();
        self.next_home += 1;
        let root = self
            .vm
            .sva_create_root(&mut self.machine)
            .expect("proc root");
        let mut aspace = AddressSpace::new();
        // 64 KiB initial stack, demand-faulted.
        let stack_len = 16 * PAGE_SIZE;
        aspace.regions.insert(
            STACK_TOP - stack_len,
            crate::mem::Region {
                start: STACK_TOP - stack_len,
                len: stack_len,
                kind: RegionKind::Anon,
            },
        );
        self.procs.insert(
            pid,
            Proc {
                pid,
                name: name.to_string(),
                root,
                aspace,
                fds: Vec::new(),
                handlers: IntMap::default(),
                sig_disposition: IntMap::default(),
                pending: VecDeque::new(),
                ghosting: false,
                ghost_cursor: GHOST_BASE,
                state: ProcState::Runnable,
                parent,
                next_handler_addr: USER_TEXT_BASE + 0x10_0000 + pid * 0x1000,
                cpu_cycles: 0,
                home_cpu,
                fault_killed: None,
                program: None,
            },
        );
        pid
    }

    /// The exec path: verify the binary (under VG this is where substituted
    /// code is refused), tear down old ghost memory and permits, install the
    /// fresh program image.
    pub(crate) fn exec_load(&mut self, pid: Pid, name: &str) -> Result<(), SvaError> {
        costs::EXEC.charge(&mut self.machine);
        let spec = self.binaries.get(name).ok_or(SvaError::UntrustedCode)?;
        let factory = spec.factory.clone();
        let binary = spec.binary.clone();
        let digest = spec.digest;
        let ghosting = spec.ghosting;
        // Old image's ghost memory is unmapped at reinit (§4.6.2).
        self.release_ghost(pid);
        self.vm
            .sva_load_app_key(&mut self.machine, ProcId(pid), &binary, digest)?;
        let thread = ThreadId(pid);
        if self.vm.ic.depth(thread) > 0 {
            self.vm.sva_reinit_icontext(
                &mut self.machine,
                thread,
                ProcId(pid),
                VAddr(USER_TEXT_BASE),
                VAddr(STACK_TOP),
            )?;
        }
        let proc = self.procs.get_mut(&pid).expect("proc exists");
        proc.name = name.to_string();
        proc.ghosting = ghosting;
        proc.ghost_cursor = GHOST_BASE;
        proc.handlers.clear();
        proc.sig_disposition.clear();
        proc.program = Some(factory());
        Ok(())
    }

    pub(crate) fn switch_to(&mut self, pid: Pid) {
        if self.cur == Some(pid) {
            return;
        }
        self.credit_cpu_time();
        self.machine.counters.context_switches += 1;
        let cs = self.machine.costs.context_switch + self.machine.costs.context_switch_vg;
        self.machine.prof_push(Domain::Sched, "context_switch");
        self.machine.charge(cs);
        self.machine.prof_pop();
        let root = self.procs[&pid].root;
        self.vm
            .sva_load_root(&mut self.machine, root)
            .expect("proc root is declared");
        self.machine
            .trace_emit(vg_machine::TraceEvent::ContextSwitch {
                from: self.cur.unwrap_or(0),
                to: pid,
            });
        self.machine.trace.cur_proc = pid;
        self.cur = Some(pid);
    }

    /// Credits cycles elapsed since the last switch to the outgoing process
    /// (rusage-style accounting).
    pub(crate) fn credit_cpu_time(&mut self) {
        let now = self.machine.clock.cycles();
        if let Some(prev) = self.cur {
            if let Some(p) = self.procs.get_mut(&prev) {
                p.cpu_cycles += now - self.last_switch_cycles;
            }
        }
        self.last_switch_cycles = now;
    }

    /// CPU cycles attributed to `pid` so far (finalized at switches and
    /// exits).
    pub fn proc_cycles(&mut self, pid: Pid) -> u64 {
        self.credit_cpu_time();
        self.procs.get(&pid).map(|p| p.cpu_cycles).unwrap_or(0)
    }

    pub(crate) fn run_proc(&mut self, pid: Pid) -> i32 {
        self.switch_to(pid);
        let thread = ThreadId(pid);
        if self.vm.ic.depth(thread) > 0 {
            // Forked child: resume from its cloned interrupt context.
            self.vm
                .trap_return(&mut self.machine, thread)
                .expect("child IC present");
        } else {
            self.machine
                .cpu
                .enter_user(VAddr(USER_TEXT_BASE), VAddr(STACK_TOP));
        }
        let mut program = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.program.take())
            .expect("process has a program");
        // Everything the program body charges that is not claimed by a more
        // specific frame (syscalls, faults, traps) is user time.
        self.machine.prof_push(Domain::User, "user");
        let mut code = program(&mut UserEnv::new(self, pid));
        self.machine.prof_pop();
        // A process the kernel fault-killed mid-run finished only because
        // its syscalls and memory accesses were degraded to errors; its
        // exit status reports the kill (SIGKILL-style 137), not whatever
        // the stunted program body returned.
        if self
            .procs
            .get(&pid)
            .is_some_and(|p| p.fault_killed.is_some())
        {
            code = 137;
        }
        self.exit_proc(pid, code);
        code
    }

    /// Kills `pid` after an unrecoverable fault: records the kill in the
    /// always-on flight recorder, counts a [`Outcome::ProcKilled`] of
    /// `class`, and flags the process. Idempotent — only the first kill per
    /// process records anything.
    pub(crate) fn fault_kill(
        &mut self,
        pid: Pid,
        class: FaultClass,
        addr: u64,
        detail: &'static str,
    ) {
        let fresh = self
            .procs
            .get(&pid)
            .is_some_and(|p| p.fault_killed.is_none());
        if !fresh {
            return;
        }
        self.machine
            .record_denial(DenialKind::FaultKill, addr, detail);
        self.machine.faults.note(class, Outcome::ProcKilled);
        self.log.push(format!(
            "fault: killed pid {pid} ({}): {detail}",
            class.key()
        ));
        if let Some(p) = self.procs.get_mut(&pid) {
            p.fault_killed = Some(detail);
        }
    }

    /// Whether `pid` has been fault-killed (used by `UserEnv` to degrade
    /// the killed process's memory accesses to no-ops instead of treating
    /// them as segfaults).
    pub(crate) fn is_fault_killed(&self, pid: Pid) -> bool {
        self.procs
            .get(&pid)
            .is_some_and(|p| p.fault_killed.is_some())
    }

    pub(crate) fn exit_proc(&mut self, pid: Pid, code: i32) {
        self.machine.prof_push(Domain::Syscall, "exit");
        costs::EXIT.charge(&mut self.machine);
        self.credit_cpu_time();
        // Ghost teardown first (frames zeroed by the VM), then the page
        // tables, then the user pages.
        self.release_ghost(pid);
        let proc = self.procs.get_mut(&pid).expect("proc exists");
        let (root, pages) = (proc.root, std::mem::take(&mut proc.aspace.pages));
        self.free_aspace(root, pages);
        self.vm.ic.remove_thread(ThreadId(pid));
        self.vm.ic.clear_permits(ProcId(pid));
        self.vm.sva_drop_key(ProcId(pid));
        self.swap.remove_proc(pid);
        // Release socket and pipe references (shared with forked relatives).
        let fds: Vec<Fd> = self.procs[&pid].fds.iter().flatten().cloned().collect();
        for fd in fds {
            match fd {
                Fd::Sock { id } => self.release_socket(id),
                Fd::PipeR { id } | Fd::PipeW { id } => self.release_pipe_end(&fd, id),
                Fd::File { .. } => {}
            }
        }
        let proc = self.procs.get_mut(&pid).expect("proc exists");
        proc.state = ProcState::Zombie(code);
        proc.fds.clear();
        self.exited.insert(pid, code);
        if self.cur == Some(pid) {
            self.cur = None;
            self.vm
                .sva_load_root(&mut self.machine, self.boot_root)
                .expect("boot root");
        }
        self.machine.prof_pop();
    }

    /// Releases `pid`'s ghost memory (the VM unmaps and zeroes each
    /// frame) and frees the frames.
    fn release_ghost(&mut self, pid: Pid) {
        let root = self.procs[&pid].root;
        let frames = self
            .vm
            .sva_release_ghost(&mut self.machine, ProcId(pid), root);
        self.dmap().free_all(frames);
    }

    /// Destroys the page tables under `root`, then frees the user pages
    /// that were mapped there.
    fn free_aspace(&mut self, root: Pfn, pages: BTreeMap<u64, Pfn>) {
        self.vm.sva_destroy_root(&mut self.machine, root);
        self.dmap().free_all(pages.into_values());
    }

    // ---- trap path ---------------------------------------------------------

    /// The system-call path: trap entry, dispatch (with module hooks),
    /// return-value injection, signal delivery, trap return. This is what
    /// `UserEnv::syscall` invokes.
    pub(crate) fn do_syscall(&mut self, pid: Pid, num: u32, args: [u64; 6]) -> i64 {
        self.switch_to(pid);
        if self.machine.faults.armed() {
            self.fault_pulse(pid);
        }
        let thread = ThreadId(pid);
        // Marshal arguments into registers like a real syscall stub.
        let cpu = &mut self.machine.cpu;
        cpu.set_reg(vg_machine::cpu::Reg::Rax, num as u64);
        cpu.set_reg(vg_machine::cpu::Reg::Rdi, args[0]);
        cpu.set_reg(vg_machine::cpu::Reg::Rsi, args[1]);
        cpu.set_reg(vg_machine::cpu::Reg::Rdx, args[2]);
        cpu.set_reg(vg_machine::cpu::Reg::R10, args[3]);
        cpu.set_reg(vg_machine::cpu::Reg::R8, args[4]);
        cpu.set_reg(vg_machine::cpu::Reg::R9, args[5]);
        let sname = crate::syscall::syscall_name(num);
        let t0 = self.machine.clock.cycles();
        self.machine.prof_push(Domain::Syscall, sname);
        self.vm
            .trap_enter(&mut self.machine, thread, TrapKind::Syscall(num));
        self.machine.counters.syscalls += 1;
        self.machine.charge(self.machine.costs.syscall_dispatch);
        self.machine
            .trace_emit(vg_machine::TraceEvent::SyscallDispatch { num });
        self.machine.trace_begin("syscall", sname, num as u64);
        let ret = self.dispatch_syscall(pid, num, args);
        self.machine.trace_end("syscall", sname);
        self.machine
            .trace_emit(vg_machine::TraceEvent::SyscallReturn { num, ret });
        let _ = self.vm.ic_set_return_value(thread, ret as u64);
        self.deliver_pending_signals(pid);
        self.vm
            .trap_return(&mut self.machine, thread)
            .expect("balanced trap");
        let lat = self.machine.clock.cycles() - t0;
        self.machine.metrics.observe(sname, lat);
        self.machine.prof_pop();
        // Hardware resumes wherever the (possibly tampered) interrupt
        // context says. On the baseline system a hostile module may have
        // rewritten the saved PC (§2.2.4) — if it now points at registered
        // code, that code executes with the process's privileges.
        let rip = self.machine.cpu.rip;
        if rip != USER_TEXT_BASE && self.vm.code.resolve(vg_ir::CodeAddr(rip)).is_some() {
            self.dispatch_to_user(pid, rip, 0);
            // The simulation then lets the program body continue (a real
            // victim would be at the exploit's mercy for good).
            self.machine.cpu.rip = USER_TEXT_BASE;
        }
        self.machine.cpu.reg(vg_machine::cpu::Reg::Rax) as i64
    }

    // ---- asynchronous fault arrival ----------------------------------------

    /// Armed-only hook run at syscall entry: spurious interrupts, interrupt
    /// storms, and stray bit flips "arrive" at trap boundaries, the only
    /// points where this run-to-completion kernel can observe asynchrony.
    /// Never reached while injection is disarmed.
    fn fault_pulse(&mut self, pid: Pid) {
        let thread = ThreadId(pid);
        if self.machine.fault_check(FaultClass::SpuriousIrq) {
            self.spurious_irq(thread);
        }
        if self.machine.fault_check(FaultClass::IrqStorm) {
            for _ in 0..32 {
                self.spurious_irq(thread);
            }
        }
        if self.machine.fault_check(FaultClass::BitFlip) {
            self.inject_bit_flip();
        }
    }

    /// One spurious device interrupt: a full trap entry/exit pair with no
    /// work in between. The kernel tolerates it by construction; the cost
    /// and trap-counter perturbation is the point.
    fn spurious_irq(&mut self, thread: ThreadId) {
        self.vm
            .trap_enter(&mut self.machine, thread, TrapKind::Device(0x7f));
        let _ = self.vm.trap_return(&mut self.machine, thread);
    }

    /// Flips one PRNG-chosen bit in an allocated, OS-owned (`Regular`)
    /// physical frame. Ghost, SVA-internal, page-table and code frames are
    /// never touched — the paper's protections are exactly about keeping
    /// those out of reach, and the fault model injects *hardware* flips in
    /// the unprotected pool.
    fn inject_bit_flip(&mut self) {
        let total = self.machine.phys.total_frames() as u64;
        let pfn = Pfn(self.machine.faults.entropy() % total);
        let off = self.machine.faults.entropy() % PAGE_SIZE;
        let bit = (self.machine.faults.entropy() % 8) as u8;
        if dmap::os_owned(&self.machine.phys, &self.vm, pfn) {
            let mut b = [0u8];
            self.machine.phys.read_bytes(pfn, off, &mut b);
            self.machine
                .phys
                .write_bytes(pfn, off, &[b[0] ^ (1 << bit)]);
        }
    }

    // ---- demand paging -------------------------------------------------------

    /// Resolves a user virtual address for `access`, faulting pages in on
    /// demand. Returns the physical address, or `None` if the address is
    /// simply not mapped (application bug → would be SIGSEGV).
    pub(crate) fn user_resolve(
        &mut self,
        pid: Pid,
        va: u64,
        access: AccessKind,
    ) -> Option<vg_machine::PAddr> {
        self.switch_to(pid);
        loop {
            match self.machine.translate(VAddr(va), access, true) {
                Ok(pa) => return Some(pa),
                Err(TranslateError::NotMapped { .. }) => {
                    // A fault in the ghost partition may be a swapped-out
                    // page: the kernel restores it through the VM's checked
                    // swap-in (integrity verified before mapping).
                    if vg_machine::layout::Region::of(VAddr(va))
                        == vg_machine::layout::Region::Ghost
                    {
                        match self.kernel_swap_in_ghost(pid, va) {
                            Ok(true) => continue,
                            Ok(false) => return None,
                            Err(e) => {
                                // A swapped ghost page that cannot come
                                // back (corrupt blob, dead device, no
                                // frames) is unrecoverable for this
                                // process: kill it rather than panic or
                                // expose anything.
                                let class = match e {
                                    SvaError::SwapIntegrity => FaultClass::SwapCorrupt,
                                    SvaError::OutOfFrames => FaultClass::FrameExhaust,
                                    _ => FaultClass::DiskTransient,
                                };
                                self.fault_kill(
                                    pid,
                                    class,
                                    va,
                                    "unrecoverable ghost swap-in failure",
                                );
                                return None;
                            }
                        }
                    }
                    if !self.handle_page_fault(pid, va, access) {
                        return None;
                    }
                }
                Err(_) => return None,
            }
        }
    }

    fn handle_page_fault(&mut self, pid: Pid, va: u64, access: AccessKind) -> bool {
        let thread = ThreadId(pid);
        self.machine.prof_push(Domain::Fault, "page_fault");
        self.vm.trap_enter(
            &mut self.machine,
            thread,
            TrapKind::PageFault(VAddr(va), access),
        );
        self.machine.counters.page_faults += 1;
        self.machine
            .trace_emit(vg_machine::TraceEvent::PageFault { va });
        costs::PAGE_FAULT.charge(&mut self.machine);
        let served = self.populate_page(pid, va);
        self.vm
            .trap_return(&mut self.machine, thread)
            .expect("balanced fault");
        self.machine.prof_pop();
        served
    }

    fn populate_page(&mut self, pid: Pid, va: u64) -> bool {
        let page_va = va & !(PAGE_SIZE - 1);
        let Some(region) = self.procs[&pid].aspace.region_at(va).cloned() else {
            return false;
        };
        let Some(frame) = self.dmap().alloc() else {
            // Out of frames (genuine or injected): an OOM kill, not a
            // kernel panic — the process dies with a flight-recorder entry.
            self.fault_kill(
                pid,
                FaultClass::FrameExhaust,
                va,
                "out of physical frames servicing page fault",
            );
            return false;
        };
        self.machine.charge(self.machine.costs.frame_zero);
        // Each failure names the kill it earns, if any; the frame goes back
        // to the pool on one path below.
        let kill = 'fail: {
            if let RegionKind::File { ino, offset } = region.kind {
                // File-backed faults run the whole getpages path (what
                // LMBench's lat_pagefault measures); anonymous faults are
                // just zero-fill.
                costs::PAGE_FAULT_FILE_EXTRA.charge(&mut self.machine);
                let file_off = offset + (page_va - region.start);
                let mut buf = vec![0u8; BLOCK_SIZE];
                let read = self.with_fs(|fs, dev, w| fs.read(dev, ino, file_off, &mut buf, w));
                if read.is_err() {
                    // The backing device stayed dead through the driver's
                    // retries; the page cannot be populated correctly.
                    break 'fail Some((
                        FaultClass::DeviceIo,
                        "device error reading file-backed page",
                    ));
                }
                if self.dmap().write(frame, 0, &buf).is_err() {
                    break 'fail None;
                }
            }
            let root = self.procs[&pid].root;
            match self.vm.sva_map_page(
                &mut self.machine,
                root,
                VAddr(page_va),
                frame,
                PteFlags::user_rw(),
            ) {
                Ok(()) => {
                    self.procs
                        .get_mut(&pid)
                        .expect("proc")
                        .aspace
                        .pages
                        .insert(page_va, frame);
                    return true;
                }
                // The page-table walk itself needed a frame and the pool
                // (genuinely or by injection) had none: same OOM-kill
                // policy as the data-frame allocation above.
                Err(SvaError::OutOfFrames) => Some((
                    FaultClass::FrameExhaust,
                    "out of physical frames for page tables",
                )),
                Err(_) => None,
            }
        };
        let _ = self.dmap().free(frame);
        if let Some((class, detail)) = kill {
            self.fault_kill(pid, class, va, detail);
        }
        false
    }

    /// Applies the sandboxing instrumentation's pointer mask when the
    /// kernel is compiled under Virtual Ghost: copyin/copyout are kernel
    /// code, so a ghost pointer handed to a system call is displaced out of
    /// the ghost partition before the access — the copy fails (or reads
    /// unrelated data) instead of leaking the secret. This is why ghosting
    /// applications need the wrapper library's staging copies.
    fn sandbox_mask(&self, va: u64) -> u64 {
        if self.vm.protections.enforced {
            vg_machine::mask_kernel_pointer(VAddr(va)).0
        } else {
            va
        }
    }

    /// Copies bytes from kernel space into user memory (copyout), faulting
    /// pages in as needed. Returns false on an unmapped destination.
    pub(crate) fn copyout(&mut self, pid: Pid, va: u64, data: &[u8]) -> bool {
        self.copyout_with(pid, va, data.len(), |phys, pfn, off, range| {
            phys.write_bytes(pfn, off, &data[range]);
        })
    }

    /// [`Self::copyout`] straight out of a kernel byte stream (a socket or
    /// pipe buffer): copies the first `n` bytes of `src` into user memory,
    /// then drops them from `src` — on a failed copy too, as the read that
    /// drained them first always did. Same charge and page walk as
    /// `copyout`; the bytes go from the buffer's (at most two) contiguous
    /// halves into each user frame with no intermediate buffer.
    pub(crate) fn copyout_stream(
        &mut self,
        pid: Pid,
        va: u64,
        src: &mut VecDeque<u8>,
        n: usize,
    ) -> bool {
        let ok = self.copyout_with(pid, va, n, |phys, pfn, off, range| {
            let (front, back) = deque_range(src, range);
            phys.write_bytes(pfn, off, front);
            phys.write_bytes(pfn, off + front.len() as u64, back);
        });
        src.drain(..n);
        ok
    }

    /// The copyout path: charges one copy of `len` bytes, then walks the
    /// destination span and has `put` write source bytes `range` at frame
    /// `pfn` offset `off`.
    fn copyout_with(
        &mut self,
        pid: Pid,
        va: u64,
        len: usize,
        put: impl FnMut(&mut PhysMem, Pfn, u64, Range<usize>),
    ) -> bool {
        let va = self.sandbox_mask(va);
        copy_cost(&mut self.machine, len as u64);
        self.walk_user::<dmap::Kernel>(pid, va, len, AccessKind::Write, put)
            .is_ok()
    }

    /// Copies bytes from user memory into kernel space (copyin).
    pub(crate) fn copyin(&mut self, pid: Pid, va: u64, len: usize) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.copyin_into(pid, va, len, &mut out).then_some(out)
    }

    /// [`Self::copyin`] onto the end of `out`. Returns false on an
    /// unmapped source page, and, before anything is charged, on a length
    /// past simulated physical memory, which the kernel could never stage:
    /// `len` comes from user space, and a hostile one would otherwise
    /// overflow the copy charge or abort the host on an impossible
    /// reservation.
    pub(crate) fn copyin_into(&mut self, pid: Pid, va: u64, len: usize, out: &mut Vec<u8>) -> bool {
        let va = self.sandbox_mask(va);
        if len > self.dmap().total_bytes() {
            return false;
        }
        copy_cost(&mut self.machine, len as u64);
        out.reserve(len);
        self.walk_user::<dmap::Kernel>(pid, va, len, AccessKind::Read, |phys, pfn, off, range| {
            out.extend_from_slice(phys.bytes(pfn, off, range.len()));
        })
        .is_ok()
    }

    /// The one user-span walker: every copy between a user span and frame
    /// bytes goes through it. Resolves `[va, va + len)` of `pid` page by
    /// page for `access` (demand-faulting through
    /// [`user_resolve`](Self::user_resolve)) and hands each page-local
    /// segment to `seg` as frame `pfn`, offset `off` and the segment's
    /// `range` within the span. The privilege `P` says who makes the
    /// accesses: a [`dmap::Kernel`] walk gets only frames the direct map
    /// admits, a user walk whatever the MMU resolved at user privilege. On
    /// a page that will not resolve or is refused it returns `Err(done)`,
    /// the bytes walked before it. It charges nothing and masks nothing:
    /// each caller keeps its own charge and failure policy, and only kernel
    /// callers apply [`sandbox_mask`](Self::sandbox_mask).
    pub(crate) fn walk_user<P: Privilege>(
        &mut self,
        pid: Pid,
        va: u64,
        len: usize,
        access: AccessKind,
        mut seg: impl FnMut(&mut PhysMem, Pfn, u64, Range<usize>),
    ) -> Result<(), usize> {
        let mut done = 0;
        while done < len {
            let Some(pa) = self.user_resolve(pid, va + done as u64, access) else {
                return Err(done);
            };
            let Some(phys) = P::frames(&mut self.machine, &self.vm, pa.pfn()) else {
                return Err(done);
            };
            let take = ((PAGE_SIZE - pa.frame_offset()) as usize).min(len - done);
            seg(phys, pa.pfn(), pa.frame_offset(), done..done + take);
            done += take;
        }
        Ok(())
    }

    /// The kernel's one door into the filesystem: runs `f` over the file
    /// system, a [`DmaDisk`] on this system's machine, and a fresh work
    /// record, then charges the work `f` recorded, on every path out of
    /// `f`. Block transfers are charged by the device as they happen.
    ///
    /// The work's data path (buffer-cache copies) is split between
    /// instrumentable per-word work and flat copying: FreeBSD's write path
    /// loops over blocks doing buffer-cache bookkeeping per chunk, which the
    /// Virtual Ghost compiler instruments — this is why the paper's file-op
    /// overheads barely shrink as file size grows (Tables 3–4).
    pub(crate) fn with_fs<R>(
        &mut self,
        f: impl FnOnce(&mut VgFs, &mut DmaDisk<'_>, &mut FsWork) -> R,
    ) -> R {
        let mut w = FsWork::default();
        let mut dev = DmaDisk {
            machine: &mut self.machine,
            vm: &mut self.vm,
        };
        let out = f(&mut self.fs, &mut dev, &mut w);
        kwork(
            &mut self.machine,
            w.accesses + w.bytes_copied * 2 / 5,
            w.branches,
        );
        self.machine.counters.bytes_copied += w.bytes_copied;
        let flat = self.machine.costs.copy_per_byte * w.bytes_copied / 5;
        self.machine.charge(flat);
        out
    }

    // ---- fork / wait --------------------------------------------------------

    pub(crate) fn sys_fork(&mut self, parent: Pid, child: ChildKind) -> i64 {
        costs::FORK.charge(&mut self.machine);
        let name = self.procs[&parent].name.clone();
        let child_pid = self.create_proc(&name, Some(parent));
        // Duplicate the address space: regions eagerly, pages by copy.
        let regions = self.procs[&parent].aspace.regions.clone();
        let brk = self.procs[&parent].aspace.brk;
        let mmap_cursor = self.procs[&parent].aspace.mmap_cursor;
        let parent_pages: Vec<(u64, Pfn)> = self.procs[&parent]
            .aspace
            .pages
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        let child_root = self.procs[&child_pid].root;
        for (va, ppfn) in &parent_pages {
            costs::FORK_PER_PAGE.charge(&mut self.machine);
            copy_cost(&mut self.machine, PAGE_SIZE);
            let Some(frame) = self.dmap().alloc() else {
                // Out of frames mid-copy: undo the half-built child and
                // report ENOMEM to the parent instead of leaking a torso.
                self.abort_forked_child(child_pid);
                return ENOMEM;
            };
            let copied = self.dmap().copy_frame(*ppfn, frame).is_ok();
            if copied
                && self
                    .vm
                    .sva_map_page(
                        &mut self.machine,
                        child_root,
                        VAddr(*va),
                        frame,
                        PteFlags::user_rw(),
                    )
                    .is_ok()
            {
                self.procs
                    .get_mut(&child_pid)
                    .expect("child")
                    .aspace
                    .pages
                    .insert(*va, frame);
            } else {
                let _ = self.dmap().free(frame);
            }
        }
        {
            let cp = self.procs.get_mut(&child_pid).expect("child");
            cp.aspace.regions = regions;
            cp.aspace.brk = brk;
            cp.aspace.mmap_cursor = mmap_cursor;
        }
        let fds = self.procs[&parent].fds.clone();
        for fd in fds.iter().flatten() {
            match fd {
                Fd::Sock { id } => {
                    if let Some(s) = self.sockets.get_mut(id) {
                        s.refs += 1;
                    }
                }
                Fd::PipeR { id } => {
                    if let Some(p) = self.pipes.get_mut(id) {
                        p.readers += 1;
                    }
                }
                Fd::PipeW { id } => {
                    if let Some(p) = self.pipes.get_mut(id) {
                        p.writers += 1;
                    }
                }
                Fd::File { .. } => {}
            }
        }
        self.procs.get_mut(&child_pid).expect("child").fds = fds;
        // Clone the interrupt context into the child thread; child returns 0.
        self.vm
            .sva_newstate(&mut self.machine, ThreadId(child_pid), ThreadId(parent))
            .expect("parent is in a syscall");
        self.vm
            .ic_set_return_value(ThreadId(child_pid), 0)
            .expect("child IC exists");
        // Install the child's program body.
        let program: AppMain = match child {
            ChildKind::Exit(code) => Box::new(move |_env| code),
            ChildKind::Exec(name) => Box::new(move |env| env.execv(&name)),
            ChildKind::Run(body) => body,
        };
        self.procs.get_mut(&child_pid).expect("child").program = Some(program);
        child_pid as i64
    }

    /// Rolls back a partially-forked child (frame pool ran dry mid-copy):
    /// frees every page copied so far, destroys the child's page tables,
    /// and removes the process entry. No fds or interrupt context exist
    /// yet at the point this can fire.
    fn abort_forked_child(&mut self, child_pid: Pid) {
        if let Some(child) = self.procs.remove(&child_pid) {
            self.free_aspace(child.root, child.aspace.pages);
        }
    }

    pub(crate) fn sys_wait(&mut self, parent: Pid) -> i64 {
        costs::WAIT.charge(&mut self.machine);
        let mut children: Vec<Pid> = self
            .procs
            .values()
            .filter(|p| p.parent == Some(parent))
            .map(|p| p.pid)
            .collect();
        // HashMap iteration order is arbitrary; replay determinism needs a
        // fixed reap order.
        children.sort_unstable();
        if children.is_empty() {
            return -1;
        }
        // Reap a zombie if present.
        for &c in &children {
            if let ProcState::Zombie(code) = self.procs[&c].state {
                self.procs.remove(&c);
                return ((c << 8) | (code as u8 as u64)) as i64;
            }
        }
        // Otherwise run the first runnable child to completion (synchronous
        // deterministic scheduling), then reap it.
        for &c in &children {
            if self.procs[&c].state == ProcState::Runnable && self.procs[&c].program.is_some() {
                let code = self.run_proc(c);
                self.switch_to(parent);
                self.procs.remove(&c);
                return ((c << 8) | (code as u8 as u64)) as i64;
            }
        }
        -1
    }

    // ---- SMP scheduling ------------------------------------------------------

    /// Queues `pid` on its home core's ready list for
    /// [`run_queued`](Self::run_queued). Charges nothing: on a single-core
    /// system an
    /// enqueue-then-`run_queued` sequence is bit-identical to calling
    /// [`run_until_exit`](Self::run_until_exit) in the same order.
    pub fn sched_enqueue(&mut self, pid: Pid) {
        let cpu = self.procs[&pid].home_cpu;
        self.run_queues[cpu].push_back(pid);
    }

    /// Drains the per-core ready queues with a deterministic work-stealing
    /// scheduler and returns the window's accounting.
    ///
    /// Each iteration picks the least-loaded core (smallest per-core cycle
    /// delta since the window began; ties break to the lowest core id),
    /// pops that core's own queue, or — if it is empty — steals from
    /// sibling queues in the fixed order `(core+1) % n, (core+2) % n, …`.
    /// The chosen process runs to completion on that core. Both choices
    /// are pure functions of simulated state, so the interleaving replays
    /// exactly for a given seed and cpu count.
    ///
    /// At the end of the window every core that finished before the busiest
    /// one has the gap recorded as per-CPU [`Domain::Idle`] time, extending
    /// the profiler's conservation identity to Σ over (cpu, domain).
    pub fn run_queued(&mut self) -> SchedRun {
        let n = self.machine.num_cpus();
        let start: Vec<u64> = self.machine.cpu_clocks().to_vec();
        let mut exits = Vec::new();
        let mut steals = 0u64;
        while self.run_queues.iter().any(|q| !q.is_empty()) {
            let mut core = 0;
            for c in 1..n {
                if self.machine.cpu_clock(c) - start[c] < self.machine.cpu_clock(core) - start[core]
                {
                    core = c;
                }
            }
            let (pid, stolen) = match self.run_queues[core].pop_front() {
                Some(p) => (p, false),
                None => {
                    let mut found = None;
                    for d in 1..n {
                        let victim = (core + d) % n;
                        if let Some(p) = self.run_queues[victim].pop_front() {
                            found = Some(p);
                            break;
                        }
                    }
                    (found.expect("a non-empty ready queue exists"), true)
                }
            };
            if stolen {
                steals += 1;
                self.machine.counters.sched_steals += 1;
            }
            self.machine.switch_cpu(core);
            let code = self.run_proc(pid);
            exits.push((pid, code));
        }
        let work: Vec<u64> = (0..n)
            .map(|c| self.machine.cpu_clock(c) - start[c])
            .collect();
        let horizon = work.iter().copied().max().unwrap_or(0);
        for (c, &w) in work.iter().enumerate() {
            self.machine.profiler.record_idle(c, horizon - w);
        }
        SchedRun {
            exits,
            work,
            horizon,
            steals,
        }
    }

    // ---- signals -----------------------------------------------------------

    /// Posts `sig` to `target` (kernel-internal; also used by modules).
    pub(crate) fn post_signal(&mut self, target: Pid, sig: i32) {
        if let Some(p) = self.procs.get_mut(&target) {
            p.pending.push_back(sig);
        }
    }

    pub(crate) fn deliver_pending_signals(&mut self, pid: Pid) {
        while let Some(sig) = self.procs.get_mut(&pid).and_then(|p| p.pending.pop_front()) {
            let Some(&handler) = self.procs[&pid].sig_disposition.get(&sig) else {
                continue; // default action: ignore (sufficient for our workloads)
            };
            costs::SIG_DELIVER.charge(&mut self.machine);
            let thread = ThreadId(pid);
            if self
                .vm
                .sva_icontext_save(&mut self.machine, thread)
                .is_err()
            {
                continue;
            }
            match self.vm.sva_ipush_function(
                &mut self.machine,
                thread,
                ProcId(pid),
                handler,
                sig as u64,
            ) {
                Ok(()) => {}
                Err(e) => {
                    // Virtual Ghost refused the dispatch: the application
                    // continues unharmed (paper §7, attack 2).
                    self.log.push(format!(
                        "vg: blocked signal dispatch to {handler:#x} for pid {pid}: {e}"
                    ));
                    let _ = self.vm.sva_icontext_load(&mut self.machine, thread);
                    continue;
                }
            }
            // "Resume" into the handler.
            self.dispatch_to_user(pid, handler, sig);
            // Handler returns via sigreturn: a real syscall (trap pair).
            self.vm.trap_enter(
                &mut self.machine,
                thread,
                TrapKind::Syscall(crate::syscall::SYS_SIGRETURN),
            );
            self.machine.counters.syscalls += 1;
            let _ = self.vm.sva_icontext_load(&mut self.machine, thread);
            self.vm
                .trap_return(&mut self.machine, thread)
                .expect("balanced sigreturn");
        }
    }

    /// Simulates the CPU resuming user execution at `addr` — either a
    /// registered application handler (Rust body) or arbitrary registered
    /// code (e.g. injected exploit code on a native system), which runs
    /// through the interpreter *with user privileges*.
    pub(crate) fn dispatch_to_user(&mut self, pid: Pid, addr: u64, arg: i32) {
        if let Some(f) = self.procs[&pid].handlers.get(&addr).cloned() {
            f(&mut UserEnv::new(self, pid), arg);
            return;
        }
        if self.vm.code.resolve(vg_ir::CodeAddr(addr)).is_some() {
            let registry = self.vm.code.clone();
            let mut interp = vg_ir::Interp::new(&registry);
            let mut ctx = crate::module::UserCtx { sys: self, pid };
            let result = interp.run(vg_ir::CodeAddr(addr), &[arg as i64], &mut ctx);
            let stats = interp.stats;
            self.machine.prof_push(Domain::User, "user_ir");
            crate::mem::charge_interp(&mut self.machine, &stats);
            self.machine.prof_pop();
            match result {
                Ok(_) => {}
                Err(e) => self
                    .log
                    .push(format!("user code at {addr:#x} faulted: {e}")),
            }
            return;
        }
        self.log.push(format!(
            "pid {pid}: resume at unmapped pc {addr:#x} (would crash)"
        ));
    }
}
