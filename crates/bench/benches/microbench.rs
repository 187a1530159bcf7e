//! Criterion micro-benchmarks.
//!
//! Two kinds of measurement live in this repository:
//!
//! * **Simulated time** — what the paper's tables/figures report; the
//!   `paper-tables` binary regenerates those from the cycle cost model.
//! * **Wall-clock time of the simulator itself** — this file. Each group
//!   drives a paper-relevant path (trap path, file ops, ghost memory,
//!   crypto, the instrumented interpreter) so regressions in the
//!   reproduction's own performance are visible.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use vg_kernel::syscall::O_CREAT;
use vg_kernel::{Mode, System};

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let data = vec![0xabu8; 4096];
    g.bench_function("sha256_4k", |b| {
        b.iter(|| vg_crypto::Sha256::digest(std::hint::black_box(&data)))
    });
    g.bench_function("aes_ctr_4k", |b| {
        let key = [7u8; 16];
        b.iter_batched(
            || data.clone(),
            |mut buf| vg_crypto::aes::ctr_xor(&key, 1, &mut buf),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("hmac_4k", |b| {
        b.iter(|| vg_crypto::HmacSha256::mac(b"key", std::hint::black_box(&data)))
    });
    g.bench_function("sealed_box_page", |b| {
        let enc = [1u8; 16];
        let mac = [2u8; 32];
        b.iter(|| vg_crypto::SealedBox::seal(&enc, &mac, 7, std::hint::black_box(&data)))
    });
    g.bench_function("rsa_keygen_256", |b| {
        b.iter(|| {
            let mut s = 0x1234u64;
            let mut rng = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            vg_crypto::RsaKeyPair::generate(256, &mut rng)
        })
    });
    g.finish();
}

/// The crypto data plane vs. the retained textbook scalar implementations
/// (`vg_crypto::reference`) on the hot shapes: a 4 KiB page (the swap unit)
/// and a 1 KiB MAC. The `_scalar` entries are the pre-overhaul code paths;
/// BENCH_crypto.json records the ratios.
fn bench_crypto_data_plane(c: &mut Criterion) {
    use vg_crypto::aes::{Aes128, SealedBox};
    use vg_crypto::hmac::HmacKey;
    use vg_crypto::reference;

    let mut g = c.benchmark_group("crypto_data_plane");
    let page = vec![0xabu8; 4096];
    let kib = vec![0xcdu8; 1024];
    let enc = [1u8; 16];
    let mac = [2u8; 32];
    let cipher = Aes128::new(&enc);
    let mac_key = HmacKey::new(&mac);

    g.bench_function("aes_ctr_page", |b| {
        b.iter_batched(
            || page.clone(),
            |mut buf| cipher.ctr_xor(1, &mut buf),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("aes_ctr_page_scalar", |b| {
        b.iter_batched(
            || page.clone(),
            |mut buf| reference::ctr_xor(&enc, 1, &mut buf),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("seal_page", |b| {
        b.iter(|| SealedBox::seal_with(&cipher, &mac_key, 7, std::hint::black_box(&page)))
    });
    g.bench_function("seal_page_scalar", |b| {
        b.iter(|| reference::seal(&enc, &mac, 7, std::hint::black_box(&page)))
    });
    let sealed = SealedBox::seal_with(&cipher, &mac_key, 7, &page);
    g.bench_function("unseal_page", |b| {
        b.iter(|| sealed.open_with(&cipher, &mac_key, 7).unwrap())
    });
    g.bench_function("unseal_page_scalar", |b| {
        b.iter(|| {
            reference::open(
                &enc,
                &mac,
                7,
                sealed.nonce(),
                sealed.ciphertext(),
                sealed.tag(),
            )
            .unwrap()
        })
    });
    g.bench_function("hmac_1k", |b| {
        b.iter(|| mac_key.mac(std::hint::black_box(&kib)))
    });
    g.bench_function("hmac_1k_scalar", |b| {
        b.iter(|| reference::hmac_sha256(&mac, std::hint::black_box(&kib)))
    });
    g.finish();
}

/// End-to-end SSH bulk transfer (Figure 3 driver, native mode): exercises
/// the hoisted per-stream cipher in `stream_encrypted_file` plus the real
/// simulator around it.
fn bench_ssh_transfer(c: &mut Criterion) {
    let mut g = c.benchmark_group("ssh");
    g.sample_size(10);
    g.bench_function("ssh_transfer", |b| {
        b.iter_batched(
            || System::boot(Mode::Native),
            |mut sys| vg_apps::ssh::sshd_bandwidth(&mut sys, 64 * 1024, 2),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("ssh_transfer_scalar", |b| {
        b.iter_batched(
            || System::boot(Mode::Native),
            |mut sys| vg_apps::ssh::sshd_bandwidth_scalar(&mut sys, 64 * 1024, 2),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_machine(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine");
    g.bench_function("mmu_translate_hit", |b| {
        let mut machine = vg_machine::Machine::new(Default::default());
        let root = machine.phys.alloc_frame().unwrap();
        machine.mmu.set_root(root);
        let frame = machine.phys.alloc_frame().unwrap();
        vg_machine::mmu::map_page_raw(
            &mut machine.phys,
            root,
            vg_machine::VAddr(0x4000),
            vg_machine::Pte::new(frame, vg_machine::PteFlags::user_rw()),
        )
        .unwrap();
        b.iter(|| {
            machine
                .mmu
                .translate(
                    &machine.phys,
                    vg_machine::VAddr(0x4123),
                    vg_machine::AccessKind::Read,
                    true,
                )
                .unwrap()
        })
    });
    g.bench_function("mask_kernel_pointer", |b| {
        b.iter(|| {
            vg_machine::mask_kernel_pointer(std::hint::black_box(vg_machine::VAddr(
                0xffff_ff00_1234_5678,
            )))
        })
    });
    g.finish();
}

fn bench_syscall_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("syscall_path");
    g.sample_size(20);
    for (label, mode) in [
        ("native", Mode::Native),
        ("virtual_ghost", Mode::VirtualGhost),
    ] {
        g.bench_function(format!("getpid_loop_{label}"), |b| {
            b.iter_batched(
                || {
                    let mut sys = System::boot(mode.clone());
                    sys.install_app("bench", false, || {
                        Box::new(|env| {
                            for _ in 0..100 {
                                env.getpid();
                            }
                            0
                        })
                    });
                    sys
                },
                |mut sys| {
                    let pid = sys.spawn("bench");
                    sys.run_until_exit(pid)
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_fs(c: &mut Criterion) {
    let mut g = c.benchmark_group("filesystem");
    g.sample_size(20);
    g.bench_function("create_write_unlink_vg", |b| {
        b.iter_batched(
            || {
                let mut sys = System::boot(Mode::VirtualGhost);
                sys.install_app("fsb", false, || {
                    Box::new(|env| {
                        let buf = env.mmap_anon(4096);
                        env.write_mem(buf, &[9u8; 1024]);
                        for i in 0..20 {
                            let p = format!("/b{i}");
                            let fd = env.open(&p, O_CREAT);
                            env.write(fd, buf, 1024);
                            env.close(fd);
                            env.unlink(&p);
                        }
                        0
                    })
                });
                sys
            },
            |mut sys| {
                let pid = sys.spawn("fsb");
                sys.run_until_exit(pid)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_ghost_memory(c: &mut Criterion) {
    let mut g = c.benchmark_group("ghost_memory");
    g.sample_size(20);
    g.bench_function("allocgm_write_freegm", |b| {
        b.iter_batched(
            || {
                let mut sys = System::boot(Mode::VirtualGhost);
                sys.install_app("gm", true, || {
                    Box::new(|env| {
                        for _ in 0..10 {
                            let va = env.allocgm(4).expect("ghost");
                            env.write_mem(va, &[1u8; 4096]);
                            env.freegm(va, 4).expect("free");
                        }
                        0
                    })
                });
                sys
            },
            |mut sys| {
                let pid = sys.spawn("gm");
                sys.run_until_exit(pid)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let mut g = c.benchmark_group("interpreter");
    // The instrumented rootkit module copying bytes through masked
    // loads/stores — the hot path of hooked syscalls.
    g.bench_function("instrumented_copy_loop", |b| {
        let mut s = 0x77u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let compiler = vg_ir::VgCompiler::new(vg_crypto::RsaKeyPair::generate(128, &mut rng));
        let t = compiler.compile(vg_attacks::direct_read_module()).unwrap();
        let mut registry = vg_ir::CodeRegistry::new();
        let h = registry.register_module(t.module, vg_ir::registry::CodeSpace::Kernel);
        let addr = registry.addr_of(h, "hook_read").unwrap();

        struct Host;
        impl vg_ir::ExternHost for Host {
            fn call_extern(
                &mut self,
                name: &str,
                _args: &[i64],
            ) -> Result<i64, vg_ir::interp::HostError> {
                Ok(match name {
                    "kern.config" => 64, // addr=64, len=64
                    _ => 0,
                })
            }
        }
        /// Flat memory that folds high (kernel/masked) addresses into the
        /// buffer so the module's scratch stores land somewhere measurable.
        struct FoldMem(vg_ir::interp::FlatMem);
        impl vg_ir::MemBus for FoldMem {
            fn load(&mut self, addr: u64, w: vg_ir::Width) -> Result<u64, vg_ir::MemFault> {
                self.0.load(addr % (1 << 20), w)
            }
            fn store(&mut self, addr: u64, w: vg_ir::Width, v: u64) -> Result<(), vg_ir::MemFault> {
                self.0.store(addr % (1 << 20), w, v)
            }
        }
        b.iter(|| {
            let mut interp = vg_ir::Interp::new(&registry);
            let mut mem = FoldMem(vg_ir::interp::FlatMem::new(1 << 20));
            let mut host = Host;
            let mut env = vg_ir::interp::Pair {
                mem: &mut mem,
                host: &mut host,
            };
            interp.run(addr, &[0, 0, 0], &mut env).unwrap()
        })
    });
    g.finish();
}

/// A kernel module whose `read` hook copies `config[2]` bytes from user
/// address `config[0]` to user address `config[1]` in 8-byte words — the
/// interpreted-IR traffic pattern (instrumented loads/stores through the
/// `KernelMem` bus) that the word-granular fast path targets.
fn word_copy_module() -> vg_ir::Module {
    use vg_ir::{BinOp, FunctionBuilder, Module, Width};
    let mut m = Module::new("bench-wordcopy");
    let mut b = FunctionBuilder::new("hook_read", 3);
    let src = b.ext("kern.config", &[0.into()]);
    let dst = b.ext("kern.config", &[1.into()]);
    let len = b.ext("kern.config", &[2.into()]);
    let i = b.mov(0.into());
    let loop_blk = b.new_block();
    let body_blk = b.new_block();
    let done_blk = b.new_block();
    b.jmp(loop_blk);
    b.switch_to(loop_blk);
    let cond = b.bin(BinOp::Lts, i.into(), len.into());
    b.br(cond.into(), body_blk, done_blk);
    b.switch_to(body_blk);
    let s = b.bin(BinOp::Add, src.into(), i.into());
    let word = b.load(s.into(), Width::W8);
    let d = b.bin(BinOp::Add, dst.into(), i.into());
    b.store(word.into(), d.into(), Width::W8);
    let i2 = b.bin(BinOp::Add, i.into(), 8.into());
    b.mov_to(i, i2.into());
    b.jmp(loop_blk);
    b.switch_to(done_blk);
    m.push_function(b.ret(Some(0.into())));

    let hook_idx = m.find("hook_read").expect("hook exists");
    let mut init = vg_ir::FunctionBuilder::new("init", 0);
    let addr = init.ext("kern.own_fn_addr", &[(hook_idx as i64).into()]);
    init.ext(
        "kern.hook_syscall",
        &[(vg_kernel::syscall::SYS_READ as i64).into(), addr.into()],
    );
    m.push_function(init.ret(None));
    m
}

fn bench_membus(c: &mut Criterion) {
    let mut g = c.benchmark_group("membus");
    g.sample_size(20);
    // Interpreter-heavy workload: a hooked read() interprets an IR loop
    // moving 32 KiB through the KernelMem bus in 8-byte words. `word` is the
    // default fast path (one translation per non-crossing access); `byte`
    // forces the per-byte reference path (`byte_granular_bus`) — the
    // pre-fast-path behaviour. Simulated cycles/counters are identical
    // either way (see crates/apps/tests/invariance.rs); only host wall-time
    // differs.
    const COPY_LEN: u64 = 32 * 1024;
    for (label, byte_granular) in [("word", false), ("byte", true)] {
        g.bench_function(format!("interp_copy_32k_{label}"), |b| {
            b.iter_batched(
                || {
                    let heap = vg_kernel::mem::HEAP_BASE;
                    let mut sys = System::boot(Mode::VirtualGhost);
                    sys.machine.byte_granular_bus = byte_granular;
                    sys.install_module(word_copy_module()).expect("loads");
                    sys.set_module_config(0, heap as i64);
                    sys.set_module_config(1, (heap + COPY_LEN) as i64);
                    sys.set_module_config(2, COPY_LEN as i64);
                    sys.install_app("copier", false, || {
                        Box::new(|env| {
                            // Materialize both heap windows, then trigger the
                            // hooked read once: the IR loop does the copying.
                            let heap = vg_kernel::mem::HEAP_BASE;
                            env.brk(heap + 2 * COPY_LEN);
                            for off in (0..2 * COPY_LEN).step_by(4096) {
                                env.write_mem(heap + off, &[0xa5]);
                            }
                            env.read(0, heap, 1);
                            0
                        })
                    });
                    sys
                },
                |mut sys| {
                    let pid = sys.spawn("copier");
                    sys.run_until_exit(pid)
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_crypto,
    bench_crypto_data_plane,
    bench_ssh_transfer,
    bench_machine,
    bench_syscall_path,
    bench_fs,
    bench_ghost_memory,
    bench_interpreter,
    bench_membus
);
criterion_main!(benches);
