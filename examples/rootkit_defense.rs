//! The paper's Section 7 security experiment, as a narrative demo: the
//! same Kong-style rootkit module attacks `ssh-agent` on a baseline system
//! (both attacks succeed) and under Virtual Ghost (both fail).
//!
//! ```text
//! cargo run --example rootkit_defense
//! ```
//!
//! Each run goes through `vg_bench::run_attack`, the runner behind
//! `paper-tables security`: under Virtual Ghost the only road to runnable
//! kernel code is the instrumenting compiler + signed translation, while
//! the native kernel loads the raw module.

use vg_bench::run_attack;
use virtual_ghost::attacks;
use virtual_ghost::kernel::{Mode, System};

fn run(label: &str, mode: Mode, module: virtual_ghost::ir::Module) {
    let attack = run_attack(mode, module);
    println!(
        "  {label:<42} {}  (agent exit code {})",
        if attack.stolen {
            "SECRET STOLEN ✗"
        } else {
            "defeated ✓"
        },
        attack.code
    );
    for line in attack
        .sys
        .log
        .iter()
        .filter(|l| l.contains("blocked") || l.contains("module"))
    {
        println!("      log: {line}");
    }
}

fn main() {
    println!("== Rootkit vs ssh-agent (paper §7) ==");
    println!("\nattack 1: hooked read() loads the secret straight out of memory");
    run(
        "on native FreeBSD-like kernel:",
        Mode::Native,
        attacks::direct_read_module(),
    );
    run(
        "under Virtual Ghost:",
        Mode::VirtualGhost,
        attacks::direct_read_module(),
    );

    println!("\nattack 2: inject exploit code, dispatch it as a signal handler");
    run(
        "on native FreeBSD-like kernel:",
        Mode::Native,
        attacks::signal_inject_module(),
    );
    run(
        "under Virtual Ghost:",
        Mode::VirtualGhost,
        attacks::signal_inject_module(),
    );

    println!("\nbonus: rewrite the saved PC in the interrupt context (§2.2.4)");
    run(
        "on native FreeBSD-like kernel:",
        Mode::Native,
        attacks::ic_hijack_module(),
    );
    run(
        "under Virtual Ghost:",
        Mode::VirtualGhost,
        attacks::ic_hijack_module(),
    );

    println!("\nbonus: load the rootkit as a raw (uninstrumented) binary module");
    let mut sys = System::boot(Mode::VirtualGhost);
    match sys.install_raw_module(attacks::direct_read_module()) {
        Err(e) => println!("  refused by the loader ✓ ({e})"),
        Ok(_) => println!("  loaded ✗ (this should not happen)"),
    }
}
