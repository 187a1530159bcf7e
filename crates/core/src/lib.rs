//! # vg-core
//!
//! The paper's contribution: the **SVA-OS hardware abstraction layer**
//! extended with **Virtual Ghost**'s checks and trusted services. The
//! [`SvaVm`] sits between the (untrusted) kernel in `vg-kernel` and the
//! simulated hardware in `vg-machine`:
//!
//! * the kernel cannot touch page tables, interrupt state, the IOMMU, or
//!   I/O ports except through the operations here, each of which enforces
//!   the Virtual Ghost invariants ([`mmu`], [`icontext`], [`io`]);
//! * applications receive the trusted services: ghost memory
//!   ([`ghost`] — `allocgm`/`freegm`, Table 1 of the paper), key management
//!   rooted in the TPM ([`keys`]), encrypted swap ([`swap`]), a trusted RNG,
//!   and secure signal dispatch (`sva.ipush.function` with the
//!   `sva.permitFunction` registry, in [`icontext`]).
//!
//! A [`SvaVm`] is constructed in one of two modes: **native** (no
//! protections — models the baseline FreeBSD kernel; every hostile-kernel
//! attack succeeds) or **Virtual Ghost** (all protections on). The
//! ablations run with every protection on and vary only the cost model
//! (`vg-machine`'s `CostModel`).
//!
//! ## Example: ghost memory end to end
//!
//! ```
//! use vg_core::{ProcId, Protections, SvaVm, SvaError, MmuCheckError};
//! use vg_crypto::Tpm;
//! use vg_machine::layout::GHOST_BASE;
//! use vg_machine::{Machine, VAddr};
//! use vg_machine::pte::PteFlags;
//!
//! let tpm = Tpm::new(1);
//! let mut vm = SvaVm::boot_with_key_bits(Protections::virtual_ghost(), &tpm, 7, 128);
//! let mut machine = Machine::new(Default::default());
//! let root = vm.sva_create_root(&mut machine)?;
//!
//! // The OS donates a frame; the VM zeroes and maps it as ghost memory.
//! let frame = machine.phys.alloc_frame().expect("memory available");
//! vm.sva_allocgm(&mut machine, ProcId(1), root, VAddr(GHOST_BASE), &[frame])?;
//!
//! // From now on the OS cannot map that frame anywhere:
//! let err = vm
//!     .sva_map_page(&mut machine, root, VAddr(0x4000), frame, PteFlags::kernel_rw())
//!     .unwrap_err();
//! assert_eq!(err, SvaError::Mmu(MmuCheckError::GhostFrame));
//! # Ok::<(), SvaError>(())
//! ```

pub mod frames;
pub mod ghost;
pub mod icontext;
pub mod io;
pub mod keys;
pub mod mmu;
#[cfg(test)]
mod proptests;
pub mod ring;
pub mod swap;

pub use frames::{FrameKind, FrameTable};
pub use icontext::{IcError, InterruptContext};
pub use keys::{AppBinary, KeyError};
pub use mmu::MmuCheckError;
pub use ring::{DescRing, RingDesc, RingDir, UsedElem};

use vg_crypto::rsa::RsaKeyPair;
use vg_crypto::{ChaChaRng, Tpm};
use vg_ir::compiler::VgCompiler;
use vg_ir::registry::CodeRegistry;
use vg_machine::Machine;

/// Opaque process identifier (assigned by the kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u64);

/// Opaque thread identifier (assigned by the kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u64);

/// Whether Virtual Ghost's protections are enforced. They are on or off
/// together: on for Virtual Ghost, off for the native baseline. The
/// ablations keep them on and vary only the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Protections {
    /// Kernel code must be compiled (sandboxing + CFI) and signed;
    /// interrupt contexts live in SVA memory and change only through
    /// checked operations; MMU updates, IOMMU configuration and the
    /// kernel's direct-map accesses are validated.
    pub enforced: bool,
}

impl Protections {
    /// Everything off — the native baseline.
    pub fn native() -> Self {
        Protections { enforced: false }
    }

    /// Everything on — full Virtual Ghost.
    pub fn virtual_ghost() -> Self {
        Protections { enforced: true }
    }
}

/// Errors surfaced by SVA-OS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvaError {
    /// An MMU update violated the Virtual Ghost mapping rules.
    Mmu(MmuCheckError),
    /// An interrupt-context operation was rejected.
    Ic(IcError),
    /// A key-management operation failed.
    Key(KeyError),
    /// Ghost memory operation outside the ghost partition.
    NotGhostRegion,
    /// The supplied frame is still mapped somewhere or not OS-owned.
    FrameInUse,
    /// Physical memory exhausted.
    OutOfFrames,
    /// The address given to `freegm` was not allocated by `allocgm`.
    NotGhostMapped,
    /// Swap blob failed integrity verification.
    SwapIntegrity,
    /// The swap device failed (transient error persisted through retries).
    SwapDevice,
    /// The OS tried to configure DMA over a protected frame.
    DmaProtected,
    /// Direct I/O port access denied (port owned by the SVA VM).
    PortProtected,
    /// Operation requires protections to be off (native-only API used under
    /// Virtual Ghost, e.g. raw code injection).
    DeniedByVirtualGhost,
    /// Module translation signature invalid, module not instrumented or
    /// structurally malformed, or code named that was never loaded.
    UntrustedCode,
}

impl std::fmt::Display for SvaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvaError::Mmu(e) => write!(f, "mmu check failed: {e}"),
            SvaError::Ic(e) => write!(f, "interrupt-context operation rejected: {e}"),
            SvaError::Key(e) => write!(f, "key management failed: {e}"),
            SvaError::NotGhostRegion => write!(f, "address not in the ghost partition"),
            SvaError::FrameInUse => write!(f, "frame is still mapped or not transferable"),
            SvaError::OutOfFrames => write!(f, "out of physical frames"),
            SvaError::NotGhostMapped => write!(f, "no ghost allocation at this address"),
            SvaError::SwapIntegrity => write!(f, "swapped page failed integrity check"),
            SvaError::SwapDevice => write!(f, "swap device I/O failed"),
            SvaError::DmaProtected => write!(f, "DMA configuration over protected frame denied"),
            SvaError::PortProtected => write!(f, "I/O port protected by the SVA VM"),
            SvaError::DeniedByVirtualGhost => write!(f, "operation denied by Virtual Ghost"),
            SvaError::UntrustedCode => write!(f, "code translation is unsigned or tampered"),
        }
    }
}

impl std::error::Error for SvaError {}

impl From<MmuCheckError> for SvaError {
    fn from(e: MmuCheckError) -> Self {
        SvaError::Mmu(e)
    }
}

impl From<IcError> for SvaError {
    fn from(e: IcError) -> Self {
        SvaError::Ic(e)
    }
}

impl From<KeyError> for SvaError {
    fn from(e: KeyError) -> Self {
        SvaError::Key(e)
    }
}

/// The SVA virtual machine with Virtual Ghost extensions.
///
/// One instance exists per machine. It is trusted; the kernel above it is
/// not. See the module docs for the operation groups.
#[derive(Debug)]
pub struct SvaVm {
    /// Active protections.
    pub protections: Protections,
    /// Frame ownership/type table (SVA-internal metadata).
    pub frames: FrameTable,
    /// Ghost memory manager state.
    pub ghost: ghost::GhostManager,
    /// Interrupt-context store.
    pub ic: icontext::IcStore,
    /// Key store (VG key pair, per-process app keys).
    pub keys: keys::KeyStore,
    /// Swap manager (VG swap keys).
    pub swap: swap::SwapManager,
    /// The code registry ("native code" address space).
    pub code: CodeRegistry,
    /// The instrumenting compiler (holds the VG signing key).
    pub compiler: VgCompiler,
    rng: ChaChaRng,
}

impl SvaVm {
    /// Boots an SVA VM.
    ///
    /// The Virtual Ghost key pair is generated at first boot and its private
    /// half sealed to `tpm`, reproducing the chain of trust in §4.4:
    /// TPM storage key ⇒ VG private key ⇒ application keys.
    pub fn boot(protections: Protections, tpm: &Tpm, seed: u64) -> Self {
        Self::boot_with_key_bits(protections, tpm, seed, vg_crypto::rsa::DEFAULT_KEY_BITS)
    }

    /// [`boot`](Self::boot) with an explicit RSA modulus size — smaller keys
    /// make heavily-booting test suites fast; the protocol logic is
    /// identical at any size.
    pub fn boot_with_key_bits(protections: Protections, tpm: &Tpm, seed: u64, bits: usize) -> Self {
        let mut rng = ChaChaRng::from_seed(seed ^ 0x5641_564d);
        let mut krng = {
            let mut r = ChaChaRng::from_seed(seed ^ 0x4b_4559);
            move || r.next_u64()
        };
        let vg_keys = RsaKeyPair::generate(bits, &mut krng);
        let compiler = VgCompiler::new(vg_keys.clone());
        let mut swap_enc = [0u8; 16];
        rng.fill(&mut swap_enc);
        let mut swap_mac = [0u8; 32];
        rng.fill(&mut swap_mac);
        SvaVm {
            protections,
            frames: FrameTable::new(),
            ghost: ghost::GhostManager::new(),
            ic: icontext::IcStore::default(),
            keys: keys::KeyStore::new(vg_keys, tpm),
            swap: swap::SwapManager::new(swap_enc, swap_mac),
            code: CodeRegistry::new(),
            compiler,
            rng,
        }
    }

    /// Boots a native-mode VM (baseline FreeBSD model).
    pub fn boot_native(tpm: &Tpm, seed: u64) -> Self {
        Self::boot(Protections::native(), tpm, seed)
    }

    /// Boots a full Virtual Ghost VM.
    pub fn boot_virtual_ghost(tpm: &Tpm, seed: u64) -> Self {
        Self::boot(Protections::virtual_ghost(), tpm, seed)
    }

    /// The trusted random-number instruction (§4.7): applications call this
    /// through the SVA path, defeating Iago attacks that serve fixed
    /// "randomness" from `/dev/random`.
    pub fn sva_random(&mut self, machine: &mut Machine) -> u64 {
        machine.prof_push(vg_machine::Domain::Sva, "sva.random");
        machine.charge(40);
        machine.prof_pop();
        self.rng.next_u64()
    }

    /// Loads a kernel module translation. In every mode the module must be
    /// structurally well formed ([`vg_ir::verify::verify_module`]); under
    /// Virtual Ghost the translation must also verify against the VG public
    /// key and be fully instrumented.
    ///
    /// # Errors
    ///
    /// [`SvaError::UntrustedCode`] if the module is malformed, or if
    /// sandboxing is enabled and the signature fails or the module lacks
    /// instrumentation labels.
    pub fn load_kernel_module(
        &mut self,
        translation: vg_ir::Translation,
    ) -> Result<vg_ir::registry::ModuleHandle, SvaError> {
        if vg_ir::verify::verify_module(&translation.module).is_err() {
            return Err(SvaError::UntrustedCode);
        }
        if self.protections.enforced {
            if !translation.verify(self.compiler.public_key()) {
                return Err(SvaError::UntrustedCode);
            }
            if !translation.module.fully_labeled() {
                return Err(SvaError::UntrustedCode);
            }
        }
        Ok(self
            .code
            .register_module(translation.module, vg_ir::registry::CodeSpace::Kernel))
    }

    /// Registers application code (not instrumented; apps are untrusted to
    /// the kernel but trusted to themselves).
    ///
    /// # Errors
    ///
    /// [`SvaError::UntrustedCode`] if the module is structurally malformed.
    pub fn load_app_module(
        &mut self,
        module: vg_ir::Module,
    ) -> Result<vg_ir::registry::ModuleHandle, SvaError> {
        if vg_ir::verify::verify_module(&module).is_err() {
            return Err(SvaError::UntrustedCode);
        }
        Ok(self
            .code
            .register_module(module, vg_ir::registry::CodeSpace::User))
    }

    /// Raw code registration at an arbitrary address — the code-injection
    /// primitive (writing bytes into a buffer that later gets executed).
    ///
    /// Injecting at a **kernel** address is denied under Virtual Ghost:
    /// kernel text is non-writable and translations are signed. Injecting at
    /// a **user data** address succeeds even under Virtual Ghost — the OS
    /// can always write to traditional user memory — but the injected code
    /// carries no CFI label and is not in any permit list, so every
    /// checked dispatch path (CFI checks, `sva.ipush.function`) refuses to
    /// jump to it. That is exactly the paper's attack-2 structure.
    ///
    /// # Errors
    ///
    /// [`SvaError::DeniedByVirtualGhost`] for kernel-space targets when
    /// sandboxing is enabled; [`SvaError::UntrustedCode`] if `module` has no
    /// function `func`.
    pub fn inject_code_at(
        &mut self,
        addr: vg_ir::CodeAddr,
        module: vg_ir::registry::ModuleHandle,
        func: u32,
    ) -> Result<(), SvaError> {
        if self.protections.enforced && addr.0 >= vg_machine::layout::KERNEL_BASE {
            return Err(SvaError::DeniedByVirtualGhost);
        }
        if !self.code.register_at(addr, module, func) {
            return Err(SvaError::UntrustedCode);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(p: Protections) -> SvaVm {
        let tpm = Tpm::new(1);
        SvaVm::boot(p, &tpm, 42)
    }

    #[test]
    fn boot_modes() {
        let n = vm(Protections::native());
        assert!(!n.protections.enforced);
        let v = vm(Protections::virtual_ghost());
        assert!(v.protections.enforced);
    }

    #[test]
    fn trusted_rng_is_deterministic_per_seed() {
        let tpm = Tpm::new(1);
        let mut machine = Machine::new(Default::default());
        let mut a = SvaVm::boot_virtual_ghost(&tpm, 7);
        let mut b = SvaVm::boot_virtual_ghost(&tpm, 7);
        assert_eq!(a.sva_random(&mut machine), b.sva_random(&mut machine));
        let mut c = SvaVm::boot_virtual_ghost(&tpm, 8);
        assert_ne!(a.sva_random(&mut machine), c.sva_random(&mut machine));
    }

    #[test]
    fn module_loading_enforces_signatures_under_vg() {
        let tpm = Tpm::new(1);
        let mut v = SvaVm::boot_virtual_ghost(&tpm, 1);

        let mut m = vg_ir::Module::new("mod");
        m.push_function(vg_ir::FunctionBuilder::new("f", 0).ret(Some(1.into())));

        // Properly compiled: accepted.
        let t = v.compiler.compile(m.clone()).unwrap();
        assert!(v.load_kernel_module(t.clone()).is_ok());

        // Unsigned/uninstrumented: rejected.
        let forged = vg_ir::Translation {
            module: m.clone(),
            signature: vec![1, 2, 3],
        };
        assert_eq!(v.load_kernel_module(forged), Err(SvaError::UntrustedCode));

        // Tampered after signing: rejected.
        let mut tampered = t;
        tampered.module.functions[0].cfi_label = None;
        assert_eq!(v.load_kernel_module(tampered), Err(SvaError::UntrustedCode));
    }

    #[test]
    fn native_mode_accepts_uninstrumented_modules() {
        let tpm = Tpm::new(1);
        let mut n = SvaVm::boot_native(&tpm, 1);
        let mut m = vg_ir::Module::new("mod");
        m.push_function(vg_ir::FunctionBuilder::new("f", 0).ret(Some(1.into())));
        let raw = vg_ir::Translation {
            module: m,
            signature: vec![],
        };
        assert!(n.load_kernel_module(raw).is_ok());
    }

    #[test]
    fn kernel_code_injection_denied_under_vg() {
        let tpm = Tpm::new(1);
        let mut v = SvaVm::boot_virtual_ghost(&tpm, 1);
        let mut m = vg_ir::Module::new("mod");
        m.push_function(vg_ir::FunctionBuilder::new("f", 0).ret(Some(1.into())));
        let t = v.compiler.compile(m).unwrap();
        let h = v.load_kernel_module(t).unwrap();
        // Kernel text is unforgeable under VG…
        assert_eq!(
            v.inject_code_at(
                vg_ir::CodeAddr(vg_machine::layout::KERNEL_BASE + 0x5000),
                h,
                0
            ),
            Err(SvaError::DeniedByVirtualGhost)
        );
        // …but user data pages remain OS-writable; the injected entry is
        // registered, and the defense fires later at dispatch (the CFI
        // kernel-space mask and the sva.ipush permit check both refuse it).
        assert!(v.inject_code_at(vg_ir::CodeAddr(0x7000_0000), h, 0).is_ok());
        assert!(v.code.resolve(vg_ir::CodeAddr(0x7000_0000)).is_some());

        let mut n = vm(Protections::native());
        let mut m2 = vg_ir::Module::new("mod");
        m2.push_function(vg_ir::FunctionBuilder::new("f", 0).ret(Some(1.into())));
        let t2 = vg_ir::Translation {
            module: m2,
            signature: vec![],
        };
        let h2 = n.load_kernel_module(t2).unwrap();
        assert!(n
            .inject_code_at(vg_ir::CodeAddr(0x7000_0000), h2, 0)
            .is_ok());
    }
}
