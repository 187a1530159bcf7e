//! Kernel-side ghost-page swapping.
//!
//! Under memory pressure the kernel may evict ghost pages (paper §3.3:
//! "this design not only provides secure swapping but allows the OS to
//! optimize swapping by first swapping out traditional memory pages").
//! The kernel only ever holds the VM-sealed ciphertext blobs; the VM
//! verifies integrity and location binding on swap-in. Swapped pages are
//! brought back transparently by the page-fault path when the application
//! touches them.

use crate::costs;
use crate::system::{Pid, System};
use std::collections::HashMap;
use vg_core::swap::SwappedGhostPage;
use vg_core::{ProcId, SvaError};
use vg_machine::layout::{Region, PAGE_SIZE};
use vg_machine::{Domain, FaultClass, VAddr};

/// Bounded retries against a transiently failing swap device before the
/// operation is reported as failed.
const SWAP_ATTEMPTS: u32 = 4;

/// The kernel's swap store: sealed ghost pages by (pid, vpn). Conceptually
/// the swap partition; the kernel can read or corrupt these blobs at will —
/// it just can't get anything past the VM's integrity check.
#[derive(Debug, Default)]
pub struct SwapStore {
    blobs: HashMap<(Pid, u64), SwappedGhostPage>,
}

impl SwapStore {
    /// Number of pages currently swapped out.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Mutable access to a stored blob — the hostile-OS tampering surface.
    pub fn blob_mut(&mut self, pid: Pid, vpn: u64) -> Option<&mut SwappedGhostPage> {
        self.blobs.get_mut(&(pid, vpn))
    }

    /// Drops all blobs belonging to `pid` (process exit — the ciphertext is
    /// useless to anyone, but the kernel reclaims the storage).
    pub fn remove_proc(&mut self, pid: Pid) {
        self.blobs.retain(|(p, _), _| *p != pid);
    }
}

impl System {
    /// Swaps out up to `max_pages` ghost pages of `pid` (kernel policy:
    /// lowest page numbers first). Returns how many were evicted.
    pub fn kernel_swap_out_ghost(&mut self, pid: Pid, max_pages: usize) -> usize {
        let root = match self.procs.get(&pid) {
            Some(p) => p.root,
            None => return 0,
        };
        let mut vpns = self.vm.ghost.resident_vpns(ProcId(pid));
        vpns.sort_unstable();
        let mut evicted = 0;
        let t0 = self.machine.clock.cycles();
        self.machine.prof_push(Domain::Swap, "swap_out");
        for vpn in vpns.into_iter().take(max_pages) {
            costs::FSYNC.charge(&mut self.machine); // swap-device write path
            if !self.swap_device_io() {
                // Device stayed dead through the retries: stop evicting.
                // Pages not yet swapped simply remain resident.
                break;
            }
            match self
                .vm
                .sva_swap_out(&mut self.machine, ProcId(pid), root, VAddr(vpn * PAGE_SIZE))
            {
                Ok((blob, frame)) => {
                    let _ = self.dmap().free(frame);
                    self.swap.blobs.insert((pid, vpn), blob);
                    evicted += 1;
                }
                Err(_) => break,
            }
        }
        self.machine.prof_pop();
        self.machine.trace_complete("kernel", "swap_out_ghost", t0);
        evicted
    }

    /// Attempts to swap the ghost page covering `va` back in for `pid`.
    /// Called from the page-fault path. Returns `Ok(true)` if a swapped page
    /// was restored, `Ok(false)` if no blob exists for this page.
    ///
    /// # Errors
    ///
    /// Propagates [`SvaError::SwapIntegrity`] when the stored blob was
    /// corrupted — the application's data is gone (availability is out of
    /// scope), but nothing wrong is ever mapped in.
    pub fn kernel_swap_in_ghost(&mut self, pid: Pid, va: u64) -> Result<bool, SvaError> {
        // The body has several charged early returns, so the attribution
        // frame is balanced by wrapping rather than by pairing push/pop at
        // every exit.
        self.machine.prof_push(Domain::Swap, "swap_in");
        let r = self.swap_in_ghost_inner(pid, va);
        self.machine.prof_pop();
        r
    }

    fn swap_in_ghost_inner(&mut self, pid: Pid, va: u64) -> Result<bool, SvaError> {
        if Region::of(VAddr(va)) != Region::Ghost {
            return Ok(false);
        }
        let vpn = va / PAGE_SIZE;
        if !self.swap.blobs.contains_key(&(pid, vpn)) {
            return Ok(false);
        }
        // Injected hostile-OS/bit-rot tampering hits the *stored* blob, so
        // the VM's integrity check is what catches it downstream.
        if self.machine.fault_check(FaultClass::SwapCorrupt) {
            let e = self.machine.faults.entropy();
            if let Some(blob) = self.swap.blobs.get_mut(&(pid, vpn)) {
                let ct = blob.sealed.ciphertext_mut();
                if !ct.is_empty() {
                    let i = (e % ct.len() as u64) as usize;
                    ct[i] ^= 1 << (e >> 32 & 7);
                }
            }
        }
        if self.machine.fault_check(FaultClass::SwapTruncate) {
            if let Some(blob) = self.swap.blobs.get_mut(&(pid, vpn)) {
                let ct = blob.sealed.ciphertext_mut();
                let half = ct.len() / 2;
                ct.truncate(half);
            }
        }
        let blob = self.swap.blobs[&(pid, vpn)].clone();
        let t0 = self.machine.clock.cycles();
        costs::FSYNC.charge(&mut self.machine); // swap-device read path
        if !self.swap_device_io() {
            self.log
                .push(format!("swap-in of pid {pid} vpn {vpn:#x}: device failed"));
            return Err(SvaError::SwapDevice);
        }
        let root = self.procs[&pid].root;
        let frame = self.dmap().alloc().ok_or(SvaError::OutOfFrames)?;
        match self.vm.sva_swap_in(
            &mut self.machine,
            ProcId(pid),
            root,
            VAddr(vpn * PAGE_SIZE),
            &blob,
            frame,
        ) {
            Ok(()) => {
                self.swap.blobs.remove(&(pid, vpn));
                self.machine.trace_complete("kernel", "swap_in_ghost", t0);
                Ok(true)
            }
            Err(e) => {
                let _ = self.dmap().free(frame);
                self.log
                    .push(format!("swap-in of pid {pid} vpn {vpn:#x} refused: {e}"));
                Err(e)
            }
        }
    }

    /// One swap-device transfer with bounded retry against injected
    /// transient errors. Returns `false` if the device stayed failed for
    /// all [`SWAP_ATTEMPTS`]. Disarmed injection takes the first branch
    /// immediately — zero cycles, zero counters.
    fn swap_device_io(&mut self) -> bool {
        for attempt in 0..SWAP_ATTEMPTS {
            if !self.machine.fault_check(FaultClass::DiskTransient) {
                if attempt > 0 {
                    self.machine.fault_recovered(FaultClass::DiskTransient);
                }
                return true;
            }
            if attempt + 1 < SWAP_ATTEMPTS {
                self.machine.fault_retried(FaultClass::DiskTransient);
                let backoff = self.machine.costs.disk_per_block << attempt;
                self.machine.charge(backoff);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use crate::{Mode, System};

    #[test]
    fn transparent_swap_roundtrip() {
        let mut sys = System::boot(Mode::VirtualGhost);
        let checked = std::rc::Rc::new(std::cell::Cell::new(false));
        let c2 = checked.clone();
        sys.install_app("s", true, move || {
            let c = c2.clone();
            Box::new(move |env| {
                let va = env.allocgm(3).expect("ghost pages");
                env.write_mem(va, b"page zero");
                env.write_mem(va + 4096, b"page one");
                env.write_mem(va + 8192, b"page two");
                // Kernel evicts two pages behind the app's back.
                let pid = env.pid;
                let evicted = env.sys.kernel_swap_out_ghost(pid, 2);
                assert_eq!(evicted, 2);
                assert_eq!(env.sys.swap.len(), 2);
                // Touching the pages swaps them back in transparently.
                assert_eq!(env.read_mem(va, 9), b"page zero");
                assert_eq!(env.read_mem(va + 4096, 8), b"page one");
                assert_eq!(env.read_mem(va + 8192, 8), b"page two");
                assert!(env.sys.swap.is_empty());
                c.set(true);
                0
            })
        });
        let pid = sys.spawn("s");
        assert_eq!(sys.run_until_exit(pid), 0);
        assert!(checked.get());
    }

    #[test]
    fn swapped_blob_is_ciphertext() {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("s", true, move || {
            Box::new(move |env| {
                let va = env.allocgm(1).expect("ghost page");
                env.write_mem(va, b"plaintext-marker-string");
                let pid = env.pid;
                env.sys.kernel_swap_out_ghost(pid, 1);
                // The kernel inspects its own swap store: no plaintext.
                let vpn = va / 4096;
                let blob = env.sys.swap.blob_mut(pid, vpn).expect("swapped");
                let ct = blob.sealed.ciphertext_mut().clone();
                (ct.windows(23).any(|w| w == b"plaintext-marker-string")) as i32
            })
        });
        let pid = sys.spawn("s");
        assert_eq!(sys.run_until_exit(pid), 0, "no plaintext in the swap store");
    }

    #[test]
    fn tampered_swap_blob_never_maps_back() {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("s", true, move || {
            Box::new(move |env| {
                let va = env.allocgm(1).expect("ghost page");
                env.write_mem(va, b"integrity matters");
                let pid = env.pid;
                env.sys.kernel_swap_out_ghost(pid, 1);
                // Hostile kernel flips a bit in the swap store.
                let vpn = va / 4096;
                env.sys
                    .swap
                    .blob_mut(pid, vpn)
                    .expect("swapped")
                    .sealed
                    .ciphertext_mut()[7] ^= 1;
                // Direct swap-in attempt is refused…
                match env.sys.kernel_swap_in_ghost(pid, va) {
                    Err(vg_core::SvaError::SwapIntegrity) => 0,
                    other => {
                        env.sys
                            .log
                            .push(format!("unexpected swap-in outcome: {other:?}"));
                        1
                    }
                }
            })
        });
        let pid = sys.spawn("s");
        assert_eq!(sys.run_until_exit(pid), 0);
        assert!(sys
            .log
            .iter()
            .any(|l| l.contains("swap-in") && l.contains("refused")));
    }
}
