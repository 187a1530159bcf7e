//! Secure swapping of ghost pages (paper §3.3).
//!
//! "If the OS indicates to Virtual Ghost that it wishes to swap out a ghost
//! page, Virtual Ghost will encrypt and checksum the page with its keys
//! before providing the OS with access. To swap a page in, the OS provides
//! Virtual Ghost with the encrypted page contents; Virtual Ghost will verify
//! that the page has not been modified and place it back into the ghost
//! memory partition in the correct location."
//!
//! The blob is bound to (process, virtual page) so the OS cannot replay a
//! page swapped from one location into another — the prototype left this
//! unimplemented ("Swapping of ghost memory is not implemented", §5); we
//! implement it fully.

use crate::frames::FrameKind;
use crate::{ProcId, SvaError, SvaVm};
use vg_crypto::aes::{Aes128, SealedBox};
use vg_crypto::hmac::HmacKey;
use vg_machine::layout::{Region, PAGE_SIZE};
use vg_machine::pte::{Pte, PteFlags};
use vg_machine::{DenialKind, Domain, Machine, Pfn, TraceEvent, VAddr};

/// The VM's swap keys, held pre-expanded: the AES key schedule and the HMAC
/// ipad/opad midstates are computed once at boot instead of once per sealed
/// page.
#[derive(Debug)]
pub struct SwapManager {
    cipher: Aes128,
    mac: HmacKey,
}

impl SwapManager {
    /// Creates a manager with the given keys (generated at VM boot).
    pub fn new(enc_key: [u8; 16], mac_key: [u8; 32]) -> Self {
        SwapManager {
            cipher: Aes128::new(&enc_key),
            mac: HmacKey::new(&mac_key),
        }
    }

    /// Derives the sealing context binding a blob to (process, location).
    ///
    /// The context must be *injective* in `(proc, vpn)`: the earlier
    /// `(proc.0 << 40) ^ vpn` packing collided — `ProcId(p)` and
    /// `ProcId(p + 2^24)` landed on the same context (the shift discards the
    /// high bits), letting the OS replay one process's swapped page into
    /// another. Deriving the 64-bit context from a keyed MAC over the
    /// fixed-width encoding of both fields makes finding *any* colliding
    /// pair as hard as breaking HMAC-SHA256.
    pub(crate) fn context(&self, proc: ProcId, vpn: u64) -> u64 {
        let mut mac = self.mac.hasher();
        mac.update(b"vg-swap-context");
        mac.update(&proc.0.to_be_bytes());
        mac.update(&vpn.to_be_bytes());
        let tag = mac.finalize();
        u64::from_be_bytes(tag[..8].try_into().expect("tag is 32 bytes"))
    }
}

/// An encrypted, authenticated ghost page handed to the OS for storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwappedGhostPage {
    /// Owning process.
    pub proc: ProcId,
    /// Virtual page number within the ghost partition.
    pub vpn: u64,
    /// Encrypt-then-MAC payload.
    pub sealed: SealedBox,
}

impl SvaVm {
    /// Swaps out the ghost page at `va`: seals the contents, unmaps and
    /// scrubs the frame, and returns (blob for the OS to store, frame for
    /// the OS to reuse).
    ///
    /// # Errors
    ///
    /// [`SvaError::NotGhostMapped`] if `va` is not a ghost page of `proc`.
    pub fn sva_swap_out(
        &mut self,
        machine: &mut Machine,
        proc: ProcId,
        root: Pfn,
        va: VAddr,
    ) -> Result<(SwappedGhostPage, Pfn), SvaError> {
        if Region::of(va) != Region::Ghost {
            return Err(SvaError::NotGhostRegion);
        }
        let vpn = va.vpn().0;
        let pfn = self
            .ghost
            .frame_at(proc, vpn)
            .ok_or(SvaError::NotGhostMapped)?;
        let t0 = machine.clock.cycles();
        // The charge is split so the profiler attributes the seal crypto
        // separately from the SVA bookkeeping; the total is unchanged.
        machine.prof_push(Domain::Crypto, "seal");
        machine.charge(
            machine.costs.aes_per_block * (PAGE_SIZE / 16)
                + machine.costs.sha_per_block * (PAGE_SIZE / 64),
        );
        machine.prof_pop();
        machine.prof_push(Domain::Sva, "sva.swap_out");
        machine.charge(machine.costs.ghost_page_op);
        machine.prof_pop();
        machine.metrics.add("swap.crypto_bytes", PAGE_SIZE);
        let contents = machine.phys.read_frame(pfn);
        let sealed = SealedBox::seal_with(
            &self.swap.cipher,
            &self.swap.mac,
            self.swap.context(proc, vpn),
            &contents,
        );
        // Tear the page down exactly like freegm.
        self.unmap_page_unchecked(machine, root, va);
        machine.tlb_flush_page(va.vpn());
        machine.phys.zero_frame(pfn);
        self.frames.set_kind(pfn, FrameKind::Regular);
        if let Some(pages) = self.ghost.pages.get_mut(&proc) {
            pages.remove(&vpn);
        }
        machine.trace_emit(TraceEvent::SwapOut { vpn });
        machine.trace_complete("sva", "sva.swap_out", t0);
        Ok((SwappedGhostPage { proc, vpn, sealed }, pfn))
    }

    /// Swaps a page back in: verifies integrity and location binding, then
    /// re-establishes the ghost mapping on an OS-donated frame.
    ///
    /// # Errors
    ///
    /// * [`SvaError::SwapIntegrity`] — blob tampered with or replayed at the
    ///   wrong location/process.
    /// * [`SvaError::FrameInUse`] — donated frame still mapped.
    pub fn sva_swap_in(
        &mut self,
        machine: &mut Machine,
        proc: ProcId,
        root: Pfn,
        va: VAddr,
        blob: &SwappedGhostPage,
        frame: Pfn,
    ) -> Result<(), SvaError> {
        if Region::of(va) != Region::Ghost {
            return Err(SvaError::NotGhostRegion);
        }
        if !self.frames.transferable_to_ghost(frame)
            || !machine.phys.is_allocated(frame)
            || machine.iommu.is_mapped(frame)
        {
            return Err(SvaError::FrameInUse);
        }
        let t0 = machine.clock.cycles();
        // Split as in `sva_swap_out`: unseal crypto vs. SVA bookkeeping.
        machine.prof_push(Domain::Crypto, "unseal");
        machine.charge(
            machine.costs.aes_per_block * (PAGE_SIZE / 16)
                + machine.costs.sha_per_block * (PAGE_SIZE / 64),
        );
        machine.prof_pop();
        machine.prof_push(Domain::Sva, "sva.swap_in");
        machine.charge(machine.costs.ghost_page_op);
        machine.prof_pop();
        machine.metrics.add("swap.crypto_bytes", PAGE_SIZE);
        let vpn = va.vpn().0;
        let contents = match blob.sealed.open_with(
            &self.swap.cipher,
            &self.swap.mac,
            self.swap.context(proc, vpn),
        ) {
            Ok(c) => c,
            Err(_) => {
                machine.record_denial(
                    DenialKind::SwapIntegrity,
                    va.0,
                    "sva.swap_in: blob failed integrity or location-binding check",
                );
                machine.trace_emit(TraceEvent::SwapIn { vpn, ok: false });
                return Err(SvaError::SwapIntegrity);
            }
        };
        machine.phys.write_frame(frame, &contents);
        self.frames.set_kind(frame, FrameKind::Ghost);
        if let Err(e) =
            self.map_page_unchecked(machine, root, va, Pte::new(frame, PteFlags::user_rw()))
        {
            // Mapping failed (e.g. no frames left for intermediate tables)
            // after the plaintext was already written: scrub the frame and
            // hand it back in the state the OS donated it, so nothing ghost
            // leaks and a later retry can succeed.
            machine.phys.zero_frame(frame);
            self.frames.set_kind(frame, FrameKind::Regular);
            return Err(e);
        }
        machine.tlb_flush_page(va.vpn());
        self.ghost.pages.entry(proc).or_default().insert(vpn, frame);
        machine.trace_emit(TraceEvent::SwapIn { vpn, ok: true });
        machine.trace_complete("sva", "sva.swap_in", t0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protections;
    use vg_crypto::Tpm;
    use vg_machine::layout::GHOST_BASE;

    const P: ProcId = ProcId(4);

    fn setup_with_ghost_page() -> (SvaVm, Machine, Pfn, VAddr) {
        let tpm = Tpm::new(1);
        let mut vm = SvaVm::boot(Protections::virtual_ghost(), &tpm, 6);
        let mut machine = Machine::new(Default::default());
        let root = vm.sva_create_root(&mut machine).unwrap();
        let frame = machine.phys.alloc_frame().unwrap();
        let va = VAddr(GHOST_BASE + 0x5000);
        vm.sva_allocgm(&mut machine, P, root, va, &[frame]).unwrap();
        (vm, machine, root, va)
    }

    #[test]
    fn debug_prints_no_swap_key() {
        // FIPS 197 Appendix A.1 key; round key 0 is the key itself.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let shown = format!("{:?}", SwapManager::new(key, [0x5c; 32]));
        for word in key.chunks_exact(4) {
            let w = u32::from_be_bytes(word.try_into().unwrap());
            assert!(!shown.contains(&format!("{w:x}")), "{shown} shows {w:#x}");
            assert!(!shown.contains(&w.to_string()), "{shown} shows {w}");
        }
        // Nothing but type names: no byte of the key or the MAC midstates.
        assert_eq!(
            shown,
            "SwapManager { cipher: Aes128 { .. }, mac: HmacKey { .. } }"
        );
    }

    #[test]
    fn swap_roundtrip_preserves_contents() {
        let (mut vm, mut machine, root, va) = setup_with_ghost_page();
        let pfn = vm.ghost.frame_at(P, va.vpn().0).unwrap();
        machine.phys.write_u64(pfn, 16, 0xfeed_f00d);
        let (blob, freed) = vm.sva_swap_out(&mut machine, P, root, va).unwrap();
        assert_eq!(freed, pfn);
        // The frame the OS got back carries no plaintext.
        assert_eq!(machine.phys.read_u64(pfn, 16), 0);
        assert_eq!(vm.ghost.page_count(P), 0);

        // OS later donates a (possibly different) frame for swap-in.
        let new_frame = machine.phys.alloc_frame().unwrap();
        vm.sva_swap_in(&mut machine, P, root, va, &blob, new_frame)
            .unwrap();
        let back = vm.ghost.frame_at(P, va.vpn().0).unwrap();
        assert_eq!(machine.phys.read_u64(back, 16), 0xfeed_f00d);
    }

    #[test]
    fn tampered_blob_rejected() {
        let (mut vm, mut machine, root, va) = setup_with_ghost_page();
        let (mut blob, _f) = vm.sva_swap_out(&mut machine, P, root, va).unwrap();
        blob.sealed.ciphertext_mut()[100] ^= 0xff;
        let frame = machine.phys.alloc_frame().unwrap();
        assert_eq!(
            vm.sva_swap_in(&mut machine, P, root, va, &blob, frame),
            Err(SvaError::SwapIntegrity)
        );
    }

    #[test]
    fn replay_at_wrong_location_rejected() {
        let (mut vm, mut machine, root, va) = setup_with_ghost_page();
        let (blob, _f) = vm.sva_swap_out(&mut machine, P, root, va).unwrap();
        let frame = machine.phys.alloc_frame().unwrap();
        // OS tries to materialize the page at a different ghost address.
        let other = VAddr(GHOST_BASE + 0x9000);
        assert_eq!(
            vm.sva_swap_in(&mut machine, P, root, other, &blob, frame),
            Err(SvaError::SwapIntegrity)
        );
        // …or into a different process.
        assert_eq!(
            vm.sva_swap_in(&mut machine, ProcId(9), root, va, &blob, frame),
            Err(SvaError::SwapIntegrity)
        );
    }

    #[test]
    fn swap_in_requires_clean_frame() {
        let (mut vm, mut machine, root, va) = setup_with_ghost_page();
        let (blob, _f) = vm.sva_swap_out(&mut machine, P, root, va).unwrap();
        let mapped = machine.phys.alloc_frame().unwrap();
        vm.sva_map_page(
            &mut machine,
            root,
            VAddr(0x4000),
            mapped,
            PteFlags::user_rw(),
        )
        .unwrap();
        assert_eq!(
            vm.sva_swap_in(&mut machine, P, root, va, &blob, mapped),
            Err(SvaError::FrameInUse)
        );
    }

    #[test]
    fn context_collision_across_proc_ids_rejected() {
        // Under the old `(proc.0 << 40) ^ vpn` context, ProcId(p) and
        // ProcId(p + 2^24) collided, so a page swapped out by one process
        // could be replayed into the other.
        let (mut vm, mut machine, root, va) = setup_with_ghost_page();
        let (blob, _f) = vm.sva_swap_out(&mut machine, P, root, va).unwrap();
        let frame = machine.phys.alloc_frame().unwrap();
        let alias = ProcId(P.0 + (1 << 24));
        assert_eq!(
            vm.sva_swap_in(&mut machine, alias, root, va, &blob, frame),
            Err(SvaError::SwapIntegrity)
        );
        // The legitimate owner still gets the page back.
        vm.sva_swap_in(&mut machine, P, root, va, &blob, frame)
            .unwrap();
    }

    #[test]
    fn failed_swap_in_rolls_back_frame_state() {
        let (mut vm, mut machine, root, va) = setup_with_ghost_page();
        let pfn = vm.ghost.frame_at(P, va.vpn().0).unwrap();
        machine.phys.write_u64(pfn, 16, 0xfeed_f00d);
        let (blob, donated) = vm.sva_swap_out(&mut machine, P, root, va).unwrap();

        // A second root has none of the intermediate tables for `va`; with
        // physical memory exhausted, map_page_unchecked must fail *after*
        // the frame has been filled with decrypted plaintext.
        let root2 = vm.sva_create_root(&mut machine).unwrap();
        let mut hoard = Vec::new();
        while let Some(f) = machine.phys.alloc_frame() {
            hoard.push(f);
        }
        assert_eq!(
            vm.sva_swap_in(&mut machine, P, root2, va, &blob, donated),
            Err(SvaError::OutOfFrames)
        );
        // No plaintext left behind, no ghost mapping recorded…
        assert!(machine.phys.read_frame(donated).iter().all(|&b| b == 0));
        assert_eq!(vm.ghost.frame_at(P, va.vpn().0), None);
        // …and the frame is donatable again: the retry succeeds once the OS
        // frees memory. (Without the kind rollback this reports FrameInUse.)
        for f in hoard {
            machine.phys.free_frame(f);
        }
        vm.sva_swap_in(&mut machine, P, root2, va, &blob, donated)
            .unwrap();
        assert_eq!(machine.phys.read_u64(donated, 16), 0xfeed_f00d);
    }

    #[test]
    fn swap_out_requires_ghost_page() {
        let (mut vm, mut machine, root, _va) = setup_with_ghost_page();
        assert_eq!(
            vm.sva_swap_out(&mut machine, P, root, VAddr(0x4000)),
            Err(SvaError::NotGhostRegion)
        );
        assert_eq!(
            vm.sva_swap_out(&mut machine, P, root, VAddr(GHOST_BASE + 0x100_000)),
            Err(SvaError::NotGhostMapped)
        );
    }
}
