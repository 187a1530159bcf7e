//! The OpenSSH application suite (paper §6) and the transfer-rate drivers
//! behind Figures 3 and 4.
//!
//! Three cooperating programs share one application key (installed by the
//! trusted administrator), exactly as in the paper:
//!
//! * **ssh-keygen** — generates an authentication key pair; the private key
//!   is encrypted with the application key before it ever reaches the
//!   filesystem, the public key is written in the clear.
//! * **ssh-agent** — holds private key material (and the evaluation's
//!   "secret string") in its heap — ghost memory under Virtual Ghost — and
//!   services requests; the paper's rootkit attacks target this process.
//! * **ssh / sshd / scp** — bulk transfer: the server forks a per-connection
//!   child that performs a (cost-charged) key exchange and streams the file
//!   encrypted under the session key; the ghosting client stages received
//!   data through traditional memory into its ghost heap.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use vg_crypto::aes::Aes128;
use vg_crypto::{Aes128Ctr, Sha256};
use vg_kernel::syscall::O_CREAT;
use vg_kernel::{ChildKind, System, UserEnv};
use vg_machine::IntMap;
use vg_runtime::{Heap, SecureFiles, Wrappers};

/// Plaintext bytes per CTR chunk of a transfer: both ends move a file
/// 8 KiB at a time, chunk `i` encrypted under nonce `i`.
const CHUNK: usize = 8192;

/// The suite's shared application key (what the trusted admin installs).
pub fn suite_key() -> [u8; 16] {
    let mut k = [0u8; 16];
    k.copy_from_slice(&Sha256::digest(b"openssh-suite-app-key")[..16]);
    k
}

/// Session key both transfer endpoints derive after "key exchange". The
/// real exchange is charged, not simulated bit-for-bit.
pub fn session_key() -> [u8; 16] {
    let mut k = [0u8; 16];
    k.copy_from_slice(&Sha256::digest(b"ssh-session-key")[..16]);
    k
}

/// Cycles charged for one SSH key exchange + authentication (~1 ms at
/// 3.4 GHz — asymmetric crypto dominates session setup and is identical
/// native vs Virtual Ghost since it is userspace compute).
pub const KEX_CYCLES: u64 = 3_400_000;

/// SSH port.
pub const SSH_PORT: u16 = 22;

/// The encrypted private key file ssh-keygen writes.
pub const PRIVATE_KEY_PATH: &str = "/keys/id_dsa";
/// The public key file.
pub const PUBLIC_KEY_PATH: &str = "/keys/id_dsa.pub";

/// The agent's in-memory secret the §7 attacks try to steal.
pub const AGENT_SECRET: &[u8] = b"agent-held-SECRET-string";

/// Installs `ssh-keygen`: generates a key pair, encrypts the private half
/// with the application key, writes both halves.
pub fn install_ssh_keygen(sys: &mut System, ghosting: bool) {
    sys.install_app_with_key("ssh-keygen", ghosting, suite_key(), move || {
        Box::new(move |env| {
            let w = Wrappers::new(env);
            let mut heap = Heap::new(env, env.sys.procs[&env.pid].ghosting);
            // Generate the authentication key pair with trusted randomness.
            let mut rng = {
                let seed = env.sva_random();
                let mut s = vg_crypto::ChaChaRng::from_seed(seed);
                move || s.next_u64()
            };
            env.sys.machine.charge(KEX_CYCLES); // keygen ≈ kex-scale compute
            let kp = vg_crypto::RsaKeyPair::generate(128, &mut rng);
            // Private key material lives in the (ghost) heap before sealing.
            let priv_bytes = kp.public().n().to_be_bytes();
            let buf = heap.malloc(env, priv_bytes.len() as u64);
            env.write_mem(buf, &priv_bytes);
            env.mkdir("/keys");
            let mut sf = match SecureFiles::new(env) {
                Ok(sf) => sf,
                Err(_) => return 2,
            };
            let held = env.read_mem(buf, priv_bytes.len());
            if sf.write(env, &w, PRIVATE_KEY_PATH, &held).is_err() {
                return 3;
            }
            // Public key goes out unencrypted.
            let fd = env.open(PUBLIC_KEY_PATH, O_CREAT);
            w.write_bytes(env, fd, &priv_bytes);
            env.close(fd);
            heap.free(buf);
            0
        })
    });
}

/// Installs `ssh-agent`. The agent loads the private key into its heap,
/// plants the evaluation secret, registers a legitimate signal handler, and
/// then performs `iterations` `read()` calls (the hooked syscall the
/// rootkit module piggybacks on). Exit code 0 = secret intact afterwards.
///
/// The agent also publishes the secret's address/length through the module
/// config cells, modeling the attacker's reconnaissance.
pub fn install_ssh_agent(sys: &mut System, ghosting: bool, iterations: u32) {
    sys.install_app_with_key("ssh-agent", ghosting, suite_key(), move || {
        Box::new(move |env| {
            let ghost = env.sys.procs[&env.pid].ghosting;
            let w = Wrappers::new(env);
            let mut heap = Heap::new(env, ghost);
            // Load the sealed private key (if ssh-keygen ran first).
            if let Ok(sf) = SecureFiles::new(env) {
                if let Ok(keymat) = sf.read(env, &w, PRIVATE_KEY_PATH) {
                    let kbuf = heap.malloc(env, keymat.len() as u64);
                    env.write_mem(kbuf, &keymat);
                }
            }
            // The secret string the §7 attacks hunt for.
            let secret = heap.malloc(env, AGENT_SECRET.len() as u64);
            env.write_mem(secret, AGENT_SECRET);
            env.sys.set_module_config(0, secret as i64);
            env.sys.set_module_config(1, AGENT_SECRET.len() as i64);
            // A legitimate signal handler, registered through the wrapper
            // (which calls sva.permitFunction first).
            env.signal(vg_kernel::SIGUSR1, |_env, _sig| {});
            // Service loop: each read() is a hook opportunity.
            env.sys.write_file("/agent-requests", &[0u8; 64]);
            let fd = env.open("/agent-requests", 0);
            let buf = env.mmap_anon(4096);
            for _ in 0..iterations {
                env.lseek(fd, 0, 0);
                env.read(fd, buf, 64);
            }
            env.close(fd);
            // Did the secret survive unmolested?
            (env.read_mem(secret, AGENT_SECRET.len()) != AGENT_SECRET) as i32
        })
    });
}

/// Installs the *serving* ssh-agent: it holds the suite's signing key in
/// its ghost heap and answers authentication challenges over a local
/// socket, HMAC-ing each challenge under a key derived from the private key
/// material. This is the agent's real job in §6: "stores private encryption
/// keys which the ssh client may use for public/private key authentication"
/// — the key itself never crosses the socket.
pub fn install_ssh_agent_server(sys: &mut System, port: u16, requests: u32) {
    sys.install_app_with_key("ssh-agent-serve", true, suite_key(), move || {
        Box::new(move |env| {
            let w = Wrappers::new(env);
            let mut heap = Heap::new(env, true);
            // Load (or lazily create) the sealed private key into ghost heap.
            let keymat = match SecureFiles::new(env) {
                Ok(sf) => sf.read(env, &w, PRIVATE_KEY_PATH).unwrap_or_else(|_| {
                    let fresh = Sha256::digest(b"agent-generated-key").to_vec();
                    let mut sf2 = SecureFiles::new(env).expect("key");
                    env.mkdir("/keys");
                    let _ = sf2.write(env, &w, PRIVATE_KEY_PATH, &fresh);
                    fresh
                }),
                Err(_) => return 2,
            };
            let kbuf = heap.malloc(env, keymat.len() as u64);
            env.write_mem(kbuf, &keymat);

            let sock = env.socket();
            env.bind(sock, port);
            env.listen(sock);
            let rx = env.mmap_anon(4096);
            let mut served = 0;
            while served < requests {
                let conn = env.accept(sock);
                if conn < 0 {
                    break;
                }
                let n = env.recv(conn, rx, 64);
                if n > 0 {
                    let challenge = env.read_mem(rx, n as usize);
                    // Sign inside the process: read the key out of ghost
                    // memory, MAC the challenge, return only the signature.
                    let key = env.read_mem(kbuf, keymat.len());
                    let sig = vg_crypto::HmacSha256::mac(&key, &challenge);
                    let blocks = 2 + (n as u64).div_ceil(64);
                    let sha = env.sys.machine.costs.sha_per_block * blocks;
                    env.sys.machine.charge(sha);
                    env.write_mem(rx, &sig);
                    env.send(conn, rx, sig.len());
                }
                env.close(conn);
                served += 1;
            }
            env.close(sock);
            0
        })
    });
}

/// What the verifying side computes: the expected signature for a
/// challenge, given the agent's key material.
pub fn expected_agent_signature(key_material: &[u8], challenge: &[u8]) -> [u8; 32] {
    vg_crypto::HmacSha256::mac(key_material, challenge)
}

fn stream_encrypted_file(env: &mut UserEnv, conn: i64, path: &str) -> u64 {
    // Expand the session-key schedule once for the whole stream, not once
    // per 8 KiB chunk.
    let cipher = Aes128::new(&session_key());
    let fd = env.open(path, 0);
    if fd < 0 {
        return 0;
    }
    let buf = env.mmap_anon(CHUNK);
    // One host buffer encrypts every chunk.
    let mut chunk = Vec::with_capacity(CHUNK);
    let mut nonce = 0u64;
    let mut total = 0u64;
    loop {
        let n = env.read(fd, buf, CHUNK);
        if n <= 0 {
            break;
        }
        // Encrypt under the session key (real cipher + charged cost).
        chunk.clear();
        env.read_mem_into(buf, n as usize, &mut chunk);
        cipher.ctr_xor(nonce, &mut chunk);
        nonce += 1;
        let blocks = (n as u64).div_ceil(16);
        let aes = env.sys.machine.costs.aes_per_block * blocks;
        env.sys.machine.charge(aes);
        env.write_mem(buf, &chunk);
        env.send(conn, buf, n as usize);
        total += n as u64;
    }
    env.close(fd);
    total
}

/// Installs `sshd`: accepts connections and forks an `scp`-style child per
/// session, which charges the key exchange and streams the requested file
/// encrypted. Mirrors real sshd's fork-per-connection structure — the
/// source of the small-file overhead in Figure 3.
pub fn install_sshd(sys: &mut System) {
    sys.install_app_with_key("sshd", false, suite_key(), move || {
        Box::new(move |env| {
            let sock = env.socket();
            env.bind(sock, SSH_PORT);
            env.listen(sock);
            loop {
                let conn = env.accept(sock);
                if conn < 0 {
                    break;
                }
                env.fork(ChildKind::Run(Box::new(move |env| {
                    // The per-session child behaves like exec'd scp plus the
                    // sshd session plumbing (pty, auth files).
                    vg_kernel::costs::EXEC.charge(&mut env.sys.machine);
                    vg_kernel::costs::SSHD_SESSION.charge(&mut env.sys.machine);
                    env.sys.machine.charge(KEX_CYCLES);
                    let rx = env.mmap_anon(1024);
                    let n = env.recv(conn, rx, 256);
                    if n > 0 {
                        let req = env.read_mem(rx, n as usize);
                        if let Some(path) = req
                            .strip_prefix(b"get ")
                            .and_then(|p| std::str::from_utf8(p).ok())
                        {
                            stream_encrypted_file(env, conn, path.trim_end());
                        }
                    }
                    env.close(conn);
                    0
                })));
                env.wait();
                env.close(conn);
            }
            0
        })
    });
}

/// The scp clients at the far end of sshd's downloads: every flow must
/// carry the file encrypted under the session key, one [`CHUNK`] per
/// nonce. Bytes are decrypted and compared as each send goes out, so no
/// download waits whole in the NIC.
struct DownloadCheck {
    cipher: Aes128,
    file: Vec<u8>,
    /// Per expected flow, the plaintext bytes checked so far, or `None`
    /// once the flow has carried a wrong byte. Bytes misrouted to another
    /// flow leave some expected flow short.
    flows: IntMap<u64, Option<usize>>,
    /// The chunk piece being decrypted, reused.
    plain: Vec<u8>,
}

impl DownloadCheck {
    fn new(file: Vec<u8>, flows: &[u64]) -> Self {
        DownloadCheck {
            cipher: Aes128::new(&session_key()),
            file,
            flows: flows.iter().map(|&f| (f, Some(0))).collect(),
            plain: Vec::with_capacity(CHUNK),
        }
    }

    /// Checks `bytes`, the next ones sent on `flow`.
    fn feed(&mut self, flow: u64, mut bytes: &[u8]) {
        let Some(state) = self.flows.get_mut(&flow) else {
            return;
        };
        while !bytes.is_empty() {
            let Some(at) = *state else {
                return;
            };
            // Decrypt up to the end of the chunk `at` falls in, starting
            // mid-keystream when an earlier send ended inside it.
            let off = at % CHUNK;
            let (piece, rest) = bytes.split_at(bytes.len().min(CHUNK - off));
            self.plain.clear();
            self.plain.extend_from_slice(piece);
            let mut ks =
                Aes128Ctr::with_counter(&self.cipher, (at / CHUNK) as u64, (off / 16) as u64);
            ks.xor(&mut [0u8; 16][..off % 16]);
            ks.xor(&mut self.plain);
            let end = at + piece.len();
            *state = (self.file.get(at..end) == Some(&self.plain[..])).then_some(end);
            bytes = rest;
        }
    }

    /// Whether every flow carried exactly the whole file.
    fn complete(&self) -> bool {
        self.flows.values().all(|&got| got == Some(self.file.len()))
    }
}

/// Figure 3 driver: queues `transfers` scp-style downloads of a
/// `file_size`-byte file against `sshd` and returns payload KB/s. Each
/// download is checked as it goes out: it must decrypt to the file.
pub fn sshd_bandwidth(sys: &mut System, file_size: usize, transfers: u32) -> f64 {
    install_sshd(sys);
    let data = crate::payload(0, 17, file_size);
    sys.write_file("/srv.dat", &data);
    let mut flows = Vec::new();
    for _ in 0..transfers {
        let flow = sys.wire_connect(SSH_PORT).expect("connect");
        sys.wire_send(flow, b"get /srv.dat");
        flows.push(flow);
    }
    let check = Rc::new(RefCell::new(DownloadCheck::new(data, &flows)));
    let peer = check.clone();
    let previous = sys
        .remote_responder
        .replace(Box::new(move |flow, sent, _reply| {
            peer.borrow_mut().feed(flow, sent);
        }));
    let t0 = sys.machine.clock.cycles();
    let w0 = sys.machine.nic_time.cycles();
    let pid = sys.spawn("sshd");
    sys.run_until_exit(pid);
    // CPU and wire overlap (DMA + pipelined peer): elapsed is the longer
    // of the two timelines.
    let cycles = (sys.machine.clock.cycles() - t0).max(sys.machine.nic_time.cycles() - w0);
    sys.remote_responder = previous;
    assert!(check.borrow().complete(), "every scp payload decrypts");
    let secs = cycles as f64 / vg_machine::cost::CYCLES_PER_US / 1e6;
    (file_size as f64 * transfers as f64 / 1024.0) / secs
}

/// Figure 4 driver: the ssh *client* downloads a `file_size`-byte file
/// `transfers` times from a harness-side remote server. With
/// `ghosting=true` the client's heap is ghost memory and all socket I/O is
/// staged through the wrapper library; otherwise it is the stock client.
/// Returns payload KB/s.
pub fn ssh_client_bandwidth(
    sys: &mut System,
    file_size: usize,
    transfers: u32,
    ghosting: bool,
) -> f64 {
    // The remote peer: replies to "get" with the session-encrypted file.
    let payload = crate::payload(0, 13, file_size);
    let mut wire = payload.clone();
    let cipher = Aes128::new(&session_key());
    for (i, chunk) in wire.chunks_mut(CHUNK).enumerate() {
        cipher.ctr_xor(i as u64, chunk);
    }
    sys.remote_responder = Some(Box::new(move |_flow, msg, reply| {
        if msg.starts_with(b"get") {
            reply.extend_from_slice(&wire);
        }
    }));

    let name = if ghosting { "ssh" } else { "ssh-plain" };
    let cycles = Rc::new(Cell::new(0u64));
    let c2 = cycles.clone();
    let expect = payload.clone();
    sys.install_app_with_key(name, ghosting, suite_key(), move || {
        let c = c2.clone();
        let expect = expect.clone();
        let cipher = cipher.clone();
        Box::new(move |env| {
            let ghost = env.sys.procs[&env.pid].ghosting;
            let w = Wrappers::new(env);
            let mut heap = Heap::new(env, ghost);
            let t0 = env.sys.machine.clock.cycles();
            let w0 = env.sys.machine.nic_time.cycles();
            // The decrypted download, one buffer for every fetch.
            let mut data = Vec::new();
            for _ in 0..transfers {
                let conn = connect_ssh(env);
                env.sys.machine.charge(KEX_CYCLES);
                let req = env.mmap_anon(4096);
                env.write_mem(req, b"get file");
                env.send(conn, req, 8);
                // Receive into the heap (ghost heap ⇒ staged through the
                // wrapper), then decrypt in place — the paper's explicit
                // decrypt-into-ghost-memory flow (§3.2).
                let bufpages = (file_size as u64).div_ceil(4096).max(1);
                let buf = heap.malloc(env, bufpages * 4096);
                let mut got = 0usize;
                while got < file_size {
                    let n = w.recv(env, conn, buf + got as u64, file_size - got);
                    if n <= 0 {
                        break;
                    }
                    got += n as usize;
                }
                data.clear();
                env.read_mem_into(buf, got, &mut data);
                for (i, chunk) in data.chunks_mut(CHUNK).enumerate() {
                    cipher.ctr_xor(i as u64, chunk);
                }
                let blocks = (got as u64).div_ceil(16);
                let aes = env.sys.machine.costs.aes_per_block * blocks;
                env.sys.machine.charge(aes);
                env.write_mem(buf, &data);
                assert_eq!(data.len(), expect.len());
                assert_eq!(data, expect, "download decrypts correctly");
                // Results destined for stdout use traditional memory
                // (the paper's §6 optimization to reduce copying).
                let out = env.mmap_anon(4096);
                let tail = data.len().min(4096);
                env.write_mem(out, &data[..tail]);
                let ofd = env.open("/download.out", O_CREAT);
                env.write(ofd, out, tail);
                env.close(ofd);
                heap.free(buf);
                env.close(conn);
            }
            let cpu = env.sys.machine.clock.cycles() - t0;
            let wire = env.sys.machine.nic_time.cycles() - w0;
            c.set(cpu.max(wire));
            0
        })
    });
    let pid = sys.spawn(name);
    assert_eq!(sys.run_until_exit(pid), 0);
    let secs = cycles.get() as f64 / vg_machine::cost::CYCLES_PER_US / 1e6;
    (file_size as f64 * transfers as f64 / 1024.0) / secs
}

/// Client-side connect: opens an outbound flow to the remote SSH server.
fn connect_ssh(env: &mut UserEnv) -> i64 {
    env.syscall(
        vg_kernel::syscall::SYS_CONNECT,
        [SSH_PORT as u64, 0, 0, 0, 0, 0],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_kernel::Mode;

    #[test]
    fn keygen_then_agent_shares_key_material() {
        let mut sys = System::boot(Mode::VirtualGhost);
        install_ssh_keygen(&mut sys, true);
        install_ssh_agent(&mut sys, true, 2);
        let kg = sys.spawn("ssh-keygen");
        assert_eq!(sys.run_until_exit(kg), 0);
        // Private key file is ciphertext; public key is plaintext.
        let private = sys.read_file(PRIVATE_KEY_PATH).unwrap();
        let public = sys.read_file(PUBLIC_KEY_PATH).unwrap();
        assert!(
            !private.windows(public.len()).any(|w| w == &public[..]),
            "private key file must not contain the raw key material"
        );
        let agent = sys.spawn("ssh-agent");
        assert_eq!(sys.run_until_exit(agent), 0, "agent loads the sealed key");
    }

    #[test]
    fn agent_serves_signatures_without_exposing_the_key() {
        let mut sys = System::boot(Mode::VirtualGhost);
        install_ssh_keygen(&mut sys, true);
        let kg = sys.spawn("ssh-keygen");
        assert_eq!(sys.run_until_exit(kg), 0);

        // Two client challenges queued before the agent runs.
        let c1 = sys.wire_connect(7070).unwrap();
        sys.wire_send(c1, b"challenge-alpha");
        let c2 = sys.wire_connect(7070).unwrap();
        sys.wire_send(c2, b"challenge-beta");

        install_ssh_agent_server(&mut sys, 7070, 2);
        let pid = sys.spawn("ssh-agent-serve");
        assert_eq!(sys.run_until_exit(pid), 0);

        // The verifier (who legitimately shares the key via the encrypted
        // key file) checks both signatures.
        let sealed = sys.read_file(PRIVATE_KEY_PATH).expect("key file");
        // Decrypt offline exactly like the runtime does (same app key).
        let app_key = suite_key();
        let mut ek = [0u8; 16];
        ek.copy_from_slice(&Sha256::digest(&[&app_key[..], b"enc"].concat())[..16]);
        let nonce = u64::from_be_bytes(sealed[..8].try_into().unwrap());
        let mut keymat = sealed[8..sealed.len() - 32].to_vec();
        vg_crypto::aes::ctr_xor(&ek, nonce, &mut keymat);

        let s1 = sys.wire_recv(c1);
        let s2 = sys.wire_recv(c2);
        assert_eq!(s1, expected_agent_signature(&keymat, b"challenge-alpha"));
        assert_eq!(s2, expected_agent_signature(&keymat, b"challenge-beta"));
        assert_ne!(s1, s2);
        // The key material itself never crossed the wire or reached a file
        // in the clear.
        assert!(!s1
            .windows(keymat.len().min(8))
            .any(|w| w == &keymat[..keymat.len().min(8)]));
    }

    #[test]
    fn sshd_transfers_encrypted_payloads() {
        let mut sys = System::boot(Mode::VirtualGhost);
        let kbps = sshd_bandwidth(&mut sys, 16 * 1024, 2);
        assert!(kbps > 0.0);
    }

    /// The file encrypted as sshd sends it, one CTR chunk per nonce.
    fn encrypted(file: &[u8]) -> Vec<u8> {
        let cipher = Aes128::new(&session_key());
        let mut wire = file.to_vec();
        for (i, chunk) in wire.chunks_mut(CHUNK).enumerate() {
            cipher.ctr_xor(i as u64, chunk);
        }
        wire
    }

    #[test]
    fn download_check_rejects_a_flipped_byte_in_a_later_chunk_of_a_later_flow() {
        let file: Vec<u8> = (0..3 * CHUNK + 100).map(|i| (i % 253) as u8).collect();
        let wire = encrypted(&file);
        let run = |flip: Option<usize>| {
            let mut check = DownloadCheck::new(file.clone(), &[4, 9]);
            for flow in [4, 9] {
                let mut sent = wire.clone();
                if let (9, Some(at)) = (flow, flip) {
                    sent[at] ^= 0x20;
                }
                for send in sent.chunks(CHUNK) {
                    check.feed(flow, send);
                }
            }
            check.complete()
        };
        assert!(run(None), "honest downloads pass");
        assert!(!run(Some(CHUNK + 17)), "second chunk of the second flow");
        assert!(!run(Some(3 * CHUNK + 99)), "last byte of the second flow");
    }

    #[test]
    fn download_check_follows_sends_that_split_chunks() {
        let file: Vec<u8> = (0..2 * CHUNK + 5).map(|i| (i * 7 % 251) as u8).collect();
        let wire = encrypted(&file);
        let mut check = DownloadCheck::new(file.clone(), &[1]);
        for send in wire.chunks(1000) {
            check.feed(1, send);
        }
        assert!(check.complete(), "odd split points decrypt mid-keystream");
        let mut short = DownloadCheck::new(file.clone(), &[1]);
        short.feed(1, &wire[..CHUNK]);
        assert!(!short.complete(), "a partial download is not complete");
        let mut long = DownloadCheck::new(file, &[1]);
        long.feed(1, &wire);
        long.feed(1, b"x");
        assert!(!long.complete(), "a byte past the file fails");
    }

    #[test]
    fn sshd_small_files_pay_session_setup() {
        // Figure 3 shape: per-session fork/exec+kex dominates small files.
        let small = sshd_bandwidth(&mut System::boot(Mode::Native), 1024, 3);
        let large = sshd_bandwidth(&mut System::boot(Mode::Native), 256 * 1024, 3);
        assert!(large > small * 5.0, "small {small} vs large {large}");
    }

    #[test]
    fn ghosting_client_overhead_is_small() {
        // Figure 4: ≤ 5% bandwidth reduction from ghosting.
        let plain =
            ssh_client_bandwidth(&mut System::boot(Mode::VirtualGhost), 64 * 1024, 2, false);
        let ghost = ssh_client_bandwidth(&mut System::boot(Mode::VirtualGhost), 64 * 1024, 2, true);
        let loss = 1.0 - ghost / plain;
        assert!(loss < 0.15, "ghosting bandwidth loss {loss}");
    }
}
