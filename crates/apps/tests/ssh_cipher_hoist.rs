//! Bench assertion for the SSH transfer-loop cipher hoisting.
//!
//! The transfer loops in `crates/apps/src/ssh.rs` used to call the free
//! `ctr_xor` once per chunk, re-running key expansion and the scalar round
//! function every time. They now hoist one `Aes128` (key schedule expanded
//! once; hardware AES keystream where the CPU has it, T-tables otherwise)
//! out of the loop. This test replays the loop's chunk
//! pattern under both shapes and asserts the hoisted stream is measurably
//! faster — a guard against the per-chunk pattern creeping back in.

use std::time::Instant;
use vg_crypto::aes::Aes128;
use vg_crypto::reference;

const CHUNK: usize = 8192; // the transfer loops' read/recv granularity
const CHUNKS: usize = 4;

fn time_min<F: FnMut()>(mut f: F) -> f64 {
    // Warm up once, then take the best of three to shrug off scheduler noise.
    f();
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn hoisted_stream_beats_per_chunk_ctr_xor() {
    let key = vg_apps::ssh::session_key();
    let mut data = vec![0x5au8; CHUNK * CHUNKS];

    // Pre-hoist loop body: fresh key schedule + scalar rounds per chunk.
    let per_chunk = time_min(|| {
        for (i, chunk) in data.chunks_mut(CHUNK).enumerate() {
            reference::ctr_xor(&key, i as u64, chunk);
        }
    });

    // Post-hoist loop body: one schedule for the whole stream.
    let cipher = Aes128::new(&key);
    let hoisted = time_min(|| {
        for (i, chunk) in data.chunks_mut(CHUNK).enumerate() {
            cipher.ctr_xor(i as u64, chunk);
        }
    });

    // The real ratio is >4x in release and >2x even unoptimized; 1.3x keeps
    // the assertion robust on loaded CI machines.
    assert!(
        hoisted < per_chunk / 1.3,
        "hoisted cipher should beat per-chunk ctr_xor: hoisted {hoisted:.6}s vs per-chunk {per_chunk:.6}s"
    );
}
