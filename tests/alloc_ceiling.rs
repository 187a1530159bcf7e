//! Host allocation ceilings on the workloads' request paths (ROADMAP
//! item 11).
//!
//! The simulated machine allocates nothing per request, and the host
//! should not either. A counting global allocator counts the allocations
//! (`alloc`, `alloc_zeroed` and `realloc` calls) each thread makes, and
//! the bytes they request, so tests running in parallel do not see each
//! other's. Each test boots its system uncounted, then counts one
//! workload call at 1/16 of the repo benchmark's size. Allocation counts and bytes
//! follow from the inputs alone, not from timing, so every ceiling is the
//! exact figure per op measured when it was set. A ceiling may only go
//! down.

use std::alloc::{GlobalAlloc, Layout, System as Host};
use std::cell::Cell;
use vg_apps::{ghostkv, postmark, smp, ssh, PostmarkConfig};
use vg_kernel::{Mode, System};

/// The system allocator, counting each allocation against the calling
/// thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` requested bytes.
fn count(bytes: usize) {
    // A const-initialized `Cell` has no destructor, so the slot is live for
    // the thread's whole life; `try_with` still keeps the allocator from
    // ever panicking.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; counting touches only a thread-local `Cell` and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { Host.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { Host.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
/// over its `ops` ops; returns the bytes they requested per op. Each
/// ceiling below is its measured figure per op, rounded up in the third
/// decimal (allocations) or to the byte (bytes).
fn assert_ceiling(what: &str, ops: u64, ceiling: f64, f: impl FnOnce()) -> f64 {
    let (allocs0, bytes0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    let allocs = ALLOCS.with(Cell::get) - allocs0;
    let bytes = BYTES.with(Cell::get) - bytes0;
    let per_op = allocs as f64 / ops as f64;
    let bytes_per_op = bytes as f64 / ops as f64;
    println!(
        "{what}: {allocs} allocations, {per_op:.3} per op; {bytes} bytes, {bytes_per_op:.3} per op"
    );
    assert!(
        per_op <= ceiling,
        "{what}: {allocs} allocations over {ops} ops = {per_op:.3} per op, ceiling {ceiling}"
    );
    bytes_per_op
}

/// Checks a workload's requested bytes per op against its ceiling.
fn assert_bytes_ceiling(what: &str, bytes_per_op: f64, ceiling: f64) {
    assert!(
        bytes_per_op <= ceiling,
        "{what}: {bytes_per_op:.3} bytes requested per op, ceiling {ceiling}"
    );
}

/// `c10k_smp4` at 1/16: 8 event-loop shards on 4 cores, 32 connections
/// each, 8 pipelined 512-byte requests per connection.
#[test]
fn c10k_sharded_allocations_per_request() {
    let mut sys = System::boot_with_cpus(Mode::VirtualGhost, 4);
    let ops = 8 * 32 * 8;
    assert_ceiling("c10k_sharded_on", ops, 2.111, || {
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
    assert_ceiling("kv_load", ops, 2.661, || {
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
    assert_ceiling("postmark", 62, 28.178, || {
        assert_eq!(postmark::run(&mut sys, cfg).transactions, 62);
    });
}

/// `ssh` at 1/16, server side: 8 transfers of a 64 KiB file. The wire
/// peer checks each flow as it arrives, so no transfer's ciphertext
/// waits in the NIC (was 78.25 allocations and 437,461 bytes).
#[test]
fn sshd_allocations_per_transfer() {
    let mut sys = System::boot(Mode::VirtualGhost);
    let bytes = assert_ceiling("sshd_bandwidth", 8, 71.75, || {
        assert!(ssh::sshd_bandwidth(&mut sys, 64 << 10, 8) > 0.0);
    });
    assert_bytes_ceiling("sshd_bandwidth", bytes, 269_773.0);
}

/// `ssh` at 1/16, client side: 8 ghosting fetches of a 64 KiB file. The
/// peer's reply, the flow's receive buffer, the wrapper's staging copy
/// and the decrypted download are reused across fetches (was 94.5
/// allocations and 547,357 bytes).
#[test]
fn ssh_client_allocations_per_transfer() {
    let mut sys = System::boot(Mode::VirtualGhost);
    let bytes = assert_ceiling("ssh_client_bandwidth", 8, 85.625, || {
        assert!(ssh::ssh_client_bandwidth(&mut sys, 64 << 10, 8, true) > 0.0);
    });
    assert_bytes_ceiling("ssh_client_bandwidth", bytes, 208_512.0);
}
