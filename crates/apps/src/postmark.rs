//! Postmark (paper Table 5).
//!
//! "Postmark mimics the behavior of a mail server and exercises the file
//! system significantly." Configuration mirrors §8.5: 500 base files sized
//! 500 B – 9.77 KB, 512-byte I/O blocks, read/append and create/delete
//! biases of 5 (50/50), buffered file I/O. The paper ran 500,000
//! transactions; the driver takes a transaction count and reports simulated
//! seconds, normalized so runs of different lengths are comparable.

use vg_crypto::ChaChaRng;
use vg_kernel::syscall::{O_APPEND, O_CREAT};
use vg_kernel::{System, UserEnv};

/// Postmark configuration (defaults = paper §8.5).
#[derive(Debug, Clone)]
pub struct PostmarkConfig {
    /// Number of base files.
    pub base_files: u32,
    /// Minimum file size in bytes.
    pub min_size: usize,
    /// Maximum file size in bytes.
    pub max_size: usize,
    /// I/O block size.
    pub block: usize,
    /// Transactions to run.
    pub transactions: u32,
    /// Read vs append bias out of 10 (5 = even).
    pub read_bias: u32,
    /// Create vs delete bias out of 10 (5 = even).
    pub create_bias: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PostmarkConfig {
    fn default() -> Self {
        PostmarkConfig {
            base_files: 500,
            min_size: 500,
            max_size: 10_000,
            block: 512,
            transactions: 2_000,
            read_bias: 5,
            create_bias: 5,
            seed: 0x506f_7374,
        }
    }
}

/// Postmark outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PostmarkResult {
    /// Simulated seconds for the whole run.
    pub seconds: f64,
    /// Transactions executed.
    pub transactions: u32,
    /// Simulated seconds normalized to the paper's 500,000 transactions.
    pub seconds_at_500k: f64,
}

fn file_name(dir: &str, i: u32) -> String {
    format!("{dir}/f{i}")
}

fn do_read(env: &mut UserEnv, buf: u64, name: &str, block: usize) {
    let fd = env.open(name, 0);
    if fd < 0 {
        return;
    }
    while env.read(fd, buf, block) > 0 {}
    env.close(fd);
}

fn do_append(env: &mut UserEnv, buf: u64, name: &str, len: usize, block: usize) {
    let fd = env.open(name, O_CREAT | O_APPEND);
    if fd < 0 {
        return;
    }
    let mut left = len;
    while left > 0 {
        let take = left.min(block);
        env.write(fd, buf, take);
        left -= take;
    }
    env.close(fd);
}

/// The three Postmark phases rooted at `dir` — the unit the SMP driver
/// shards across cores (one process per shard with its own dir and seed).
/// Returns the cycles the run took.
pub(crate) fn workload(env: &mut UserEnv, cfg: &PostmarkConfig, dir: &str) -> u64 {
    let mut rng = ChaChaRng::from_seed(cfg.seed);
    env.mkdir(dir);
    let buf = env.mmap_anon(cfg.block.max(512));
    env.write_mem(buf, &vec![0x6du8; cfg.block]);
    let size_range = (cfg.max_size - cfg.min_size) as u64;
    let rand_size = |rng: &mut ChaChaRng| cfg.min_size + rng.next_below(size_range + 1) as usize;

    // Phase 1: create the base file set.
    let mut live: Vec<u32> = (0..cfg.base_files).collect();
    let mut next_id = cfg.base_files;
    let t0 = env.sys.machine.clock.cycles();
    for i in 0..cfg.base_files {
        let len = rand_size(&mut rng);
        do_append(env, buf, &file_name(dir, i), len, cfg.block);
    }
    // Phase 2: transactions.
    for _ in 0..cfg.transactions {
        // Read or append.
        let target = live[rng.next_below(live.len() as u64) as usize];
        if rng.next_below(10) < cfg.read_bias as u64 {
            do_read(env, buf, &file_name(dir, target), cfg.block);
        } else {
            do_append(env, buf, &file_name(dir, target), cfg.block, cfg.block);
        }
        // Create or delete.
        if rng.next_below(10) < cfg.create_bias as u64 || live.len() <= 1 {
            let len = rand_size(&mut rng);
            do_append(env, buf, &file_name(dir, next_id), len, cfg.block);
            live.push(next_id);
            next_id += 1;
        } else {
            let idx = rng.next_below(live.len() as u64) as usize;
            let victim = live.swap_remove(idx);
            env.unlink(&file_name(dir, victim));
        }
    }
    // Phase 3: delete everything.
    for f in live.drain(..) {
        env.unlink(&file_name(dir, f));
    }
    env.sys.machine.clock.cycles() - t0
}

/// Runs Postmark on `sys`; returns the result.
pub fn run(sys: &mut System, cfg: PostmarkConfig) -> PostmarkResult {
    let transactions = cfg.transactions;
    let cycles = crate::run_once(sys, "postmark", false, move |env| {
        workload(env, &cfg, "/pm")
    });
    let secs = cycles as f64 / vg_machine::cost::CYCLES_PER_US / 1e6;
    PostmarkResult {
        seconds: secs,
        transactions,
        seconds_at_500k: secs * 500_000.0 / transactions as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_kernel::Mode;

    fn small_cfg() -> PostmarkConfig {
        PostmarkConfig {
            base_files: 30,
            transactions: 120,
            ..Default::default()
        }
    }

    #[test]
    fn postmark_runs_and_cleans_up() {
        let mut sys = System::boot(Mode::Native);
        let r = run(&mut sys, small_cfg());
        assert!(r.seconds > 0.0);
        assert_eq!(r.transactions, 120);
        // All transaction files removed.
        let mut w = vg_kernel::fs::FsWork::default();
        let entries = {
            let (fs, machine, vm) = (&mut sys.fs, &mut sys.machine, &mut sys.vm);
            let mut dev = vg_kernel::system::DmaDisk { machine, vm };
            fs.readdir(&mut dev, "/pm", &mut w).unwrap()
        };
        assert!(entries.is_empty(), "{entries:?}");
    }

    #[test]
    fn postmark_overhead_ratio_near_paper() {
        // Paper Table 5: 4.72× slowdown.
        let n = run(&mut System::boot(Mode::Native), small_cfg()).seconds;
        let v = run(&mut System::boot(Mode::VirtualGhost), small_cfg()).seconds;
        let ratio = v / n;
        assert!((3.0..7.0).contains(&ratio), "postmark ratio {ratio}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&mut System::boot(Mode::Native), small_cfg()).seconds;
        let b = run(&mut System::boot(Mode::Native), small_cfg()).seconds;
        assert_eq!(a, b);
    }
}
