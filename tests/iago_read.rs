//! Iago attack through `read` against the trusted runtime (paper §2.2.5).
//!
//! A rootkit hooks `read` (the same hooking as the §7 attacks), performs the
//! real read, and returns a byte count larger than the caller asked for.
//! A ghosting application reads into ghost memory through the wrapper
//! library, which stages the data in traditional memory and copies it into
//! the ghost buffer itself. Trusting the hostile count would make the
//! trusted runtime copy OS-chosen staging bytes past the end of the ghost
//! buffer — an Iago write into ghost memory. The wrappers must refuse the
//! call instead: return `-1` and write nothing into ghost memory.
//!
//! This scenario is not part of the `paper-tables` attack matrix; it pins
//! the wrapper half of the hostile-return defense on its own.

use vg_kernel::{Mode, System};
use vg_runtime::Wrappers;

const CANARY: &[u8] = b"ghost canary after the buffer";
const FILE: &[u8] = b"0123456789abcdef-and-the-rest-of-the-file";

/// Runs the victim against the hooked `read`, which claims `claimed` bytes
/// for every 16-byte request. Returns the victim's exit code.
fn run_victim(claimed: i64) -> i32 {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.write_file("/data", FILE);
    sys.install_app("victim", true, || {
        Box::new(|env| {
            let w = Wrappers::new(env);
            let ghost = env.allocgm(1).expect("ghost page");
            env.write_mem(ghost + 16, CANARY);
            let fd = env.open("/data", 0);
            let n = w.read(env, fd, ghost, 16);
            let canary_intact = env.read_mem(ghost + 16, CANARY.len()) == CANARY;
            let buf = env.read_mem(ghost, 16);
            env.lseek(fd, 0, 0);
            let bytes = w.read_bytes(env, fd, 16);
            env.close(fd);
            if !canary_intact {
                return 1; // the Iago write landed past the ghost buffer
            }
            match n {
                16 if buf == FILE[..16] && bytes == FILE[..16] => 0, // honest kernel
                -1 if buf == [0u8; 16] && bytes.len() <= 16 => 0,    // refused
                _ => 2,
            }
        })
    });
    sys.install_module(vg_attacks::iago_read_module())
        .expect("VG compiler accepts the module source");
    sys.set_module_config(8, claimed);
    let pid = sys.spawn("victim");
    sys.run_until_exit(pid)
}

#[test]
fn overclaiming_read_cannot_write_past_the_ghost_buffer() {
    assert_eq!(
        run_victim(16 + CANARY.len() as i64),
        0,
        "the wrapper refuses the hostile count and ghost memory is untouched"
    );
}

#[test]
fn honest_count_through_the_hook_still_reads() {
    assert_eq!(run_victim(16), 0, "an exact count is accepted");
}
