//! Host allocation ceilings on the workloads' request paths (ROADMAP
//! item 11).
//!
//! The simulated machine allocates nothing per request, and the host
//! should not either. A counting global allocator counts the allocations
//! (`alloc`, `alloc_zeroed` and `realloc` calls) each thread makes, so
//! tests running in parallel do not see each other's. Each test boots its
//! system uncounted, then counts one driver call at 1/16 of the repo
//! benchmark's size. Allocation counts follow from the inputs alone, not
//! from timing, so every ceiling is the exact count per op measured when
//! it was set. A ceiling may only go down.

use std::alloc::{GlobalAlloc, Layout, System as Host};
use std::cell::Cell;
use vg_apps::{ghostkv, postmark, smp, ssh, PostmarkConfig};
use vg_kernel::{Mode, System};

/// The system allocator, counting each allocation against the calling
/// thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A const-initialized `Cell` has no destructor, so the slot is live for
    // the thread's whole life; `try_with` still keeps the allocator from
    // ever panicking.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; counting touches only a thread-local `Cell` and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { Host.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { Host.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, that is from `Host`.
        unsafe { Host.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from `Host`.
        unsafe { Host.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and checks that it made at most `ceiling` allocations per op
/// over its `ops` ops. Each ceiling below is its measured count per op,
/// rounded up in the third decimal.
fn assert_ceiling(what: &str, ops: u64, ceiling: f64, f: impl FnOnce()) {
    let before = ALLOCS.with(Cell::get);
    f();
    let allocs = ALLOCS.with(Cell::get) - before;
    let per_op = allocs as f64 / ops as f64;
    println!("{what}: {allocs} allocations, {per_op:.3} per op");
    assert!(
        per_op <= ceiling,
        "{what}: {allocs} allocations over {ops} ops = {per_op:.3} per op, ceiling {ceiling}"
    );
}

/// `c10k_smp4` at 1/16: 8 event-loop shards on 4 cores, 32 connections
/// each, 8 pipelined 512-byte requests per connection.
#[test]
fn c10k_sharded_allocations_per_request() {
    let mut sys = System::boot_with_cpus(Mode::VirtualGhost, 4);
    let ops = 8 * 32 * 8;
    assert_ceiling("c10k_sharded_on", ops, 2.116, || {
        let b = smp::c10k_sharded_on(&mut sys, 8, 512, 32, 8);
        assert_eq!(b.units, ops);
    });
}

/// `ghostkv` at 1/16: 64 connections, 4 SET/GET pairs of 256-byte values
/// each.
#[test]
fn kv_load_allocations_per_command() {
    let mut sys = System::boot(Mode::VirtualGhost);
    let ops = 64 * 4 * 2;
    assert_ceiling("kv_load", ops, 2.667, || {
        let b = ghostkv::kv_load(&mut sys, 256, 64, 4);
        assert_eq!(b.requests, ops);
    });
}

/// `postmark` at 1/16: 31 base files, 62 transactions.
#[test]
fn postmark_allocations_per_transaction() {
    let mut sys = System::boot(Mode::VirtualGhost);
    let cfg = PostmarkConfig {
        base_files: 31,
        transactions: 62,
        ..Default::default()
    };
    assert_ceiling("postmark", 62, 28.21, || {
        assert_eq!(postmark::run(&mut sys, cfg).transactions, 62);
    });
}

/// `ssh` at 1/16, server side: 8 transfers of a 64 KiB file.
#[test]
fn sshd_allocations_per_transfer() {
    let mut sys = System::boot(Mode::VirtualGhost);
    assert_ceiling("sshd_bandwidth", 8, 78.625, || {
        assert!(ssh::sshd_bandwidth(&mut sys, 64 << 10, 8) > 0.0);
    });
}

/// `ssh` at 1/16, client side: 8 ghosting fetches of a 64 KiB file.
#[test]
fn ssh_client_allocations_per_transfer() {
    let mut sys = System::boot(Mode::VirtualGhost);
    assert_ceiling("ssh_client_bandwidth", 8, 94.75, || {
        assert!(ssh::ssh_client_bandwidth(&mut sys, 64 << 10, 8, true) > 0.0);
    });
}
