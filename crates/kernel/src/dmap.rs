//! The direct map: vg-kernel's one kernel-mode door to physical memory.
//!
//! Virtual Ghost sandboxes every kernel load and store, so no kernel
//! access reaches ghost or SVA memory (paper §1, §4.2). This kernel is
//! Rust, so the rule lives here: its reads, writes, copies and frees of
//! frames go through a [`DirectMap`], which admits a frame only if it is
//! allocated and OS-owned ([`os_owned`]). A refusal is a
//! [`DenialKind::DirectMap`] flight-recorder entry and an error for the
//! caller's failure path. The check charges nothing (each access was
//! charged where the kernel made it); natively, like every SVA check, it
//! checks nothing. Kernel copies reach it through the user-span walker
//! ([`Kernel`]). Outside it stay the application's own MMU-checked
//! accesses, device DMA (IOMMU-checked in `vg-machine`), MMU walks, the
//! boot-time pool and the fault layer's hardware bit flips.

use crate::system::System;
use vg_core::{FrameKind, SvaVm};
use vg_machine::{DenialKind, Machine, Pfn, PhysMem, PAGE_SIZE};

/// A refused access; the denial is already in the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Refused;

/// The door's rule, and its only definition: kernel code may touch frame
/// `pfn` only if it is allocated and OS-owned ([`FrameKind::Regular`]).
pub(crate) fn os_owned(phys: &PhysMem, vm: &SvaVm, pfn: Pfn) -> bool {
    phys.is_allocated(pfn) && vm.frames.kind(pfn) == FrameKind::Regular
}

/// A checked handle on frame bytes and frame lifetime.
pub(crate) struct DirectMap<'a> {
    machine: &'a mut Machine,
    vm: &'a SvaVm,
}

impl<'a> DirectMap<'a> {
    /// The door over `machine`'s memory, checked against `vm`.
    pub(crate) fn new(machine: &'a mut Machine, vm: &'a SvaVm) -> Self {
        DirectMap { machine, vm }
    }

    /// Admits `pfn`, or records the refused `op` and refuses it.
    fn check(&mut self, pfn: Pfn, op: &'static str) -> Result<&mut PhysMem, Refused> {
        if self.vm.protections.enforced && !os_owned(&self.machine.phys, self.vm, pfn) {
            self.machine.record_denial(DenialKind::DirectMap, pfn.0, op);
            return Err(Refused);
        }
        Ok(&mut self.machine.phys)
    }

    /// A zeroed frame, or `None` when the pool is (or is injected) empty.
    pub(crate) fn alloc(&mut self) -> Option<Pfn> {
        self.machine.alloc_frame_checked()
    }

    /// Returns `pfn` to the pool.
    pub(crate) fn free(&mut self, pfn: Pfn) -> Result<(), Refused> {
        self.check(pfn, "direct-map free")?.free_frame(pfn);
        Ok(())
    }

    /// Frees every frame in `frames`; a refused frame stays where it is.
    pub(crate) fn free_all(&mut self, frames: impl IntoIterator<Item = Pfn>) {
        for f in frames {
            let _ = self.free(f);
        }
    }

    /// Borrows `len` bytes of `pfn` from offset `off`.
    pub(crate) fn bytes(&mut self, pfn: Pfn, off: u64, len: usize) -> Result<&[u8], Refused> {
        Ok(self.check(pfn, "direct-map read")?.bytes(pfn, off, len))
    }

    /// Writes `buf` into `pfn` at offset `off`.
    pub(crate) fn write(&mut self, pfn: Pfn, off: u64, buf: &[u8]) -> Result<(), Refused> {
        self.check(pfn, "direct-map write")?
            .write_bytes(pfn, off, buf);
        Ok(())
    }

    /// Overwrites frame `dst` with frame `src`.
    pub(crate) fn copy_frame(&mut self, src: Pfn, dst: Pfn) -> Result<(), Refused> {
        self.check(src, "direct-map copy source")?;
        self.check(dst, "direct-map copy target")?
            .copy_frame(src, dst);
        Ok(())
    }

    /// Simulated physical memory's size in bytes.
    pub(crate) fn total_bytes(&self) -> usize {
        self.machine.phys.total_frames() * PAGE_SIZE as usize
    }
}

/// Who makes a [`System::walk_user`] walk's accesses.
pub(crate) trait Privilege {
    /// The memory a walk may touch at `pfn`, or `None` if it may not.
    fn frames<'m>(machine: &'m mut Machine, vm: &SvaVm, pfn: Pfn) -> Option<&'m mut PhysMem>;
}

/// Kernel code (copyin, copyout): each frame goes through the door.
pub(crate) enum Kernel {}

impl Privilege for Kernel {
    fn frames<'m>(machine: &'m mut Machine, vm: &SvaVm, pfn: Pfn) -> Option<&'m mut PhysMem> {
        DirectMap::new(machine, vm).check(pfn, "kernel copy").ok()?;
        Some(&mut machine.phys)
    }
}

impl System {
    /// The direct map over this system's memory.
    pub(crate) fn dmap(&mut self) -> DirectMap<'_> {
        DirectMap::new(&mut self.machine, &self.vm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_core::Protections;
    use vg_machine::{DeniedOp, MachineConfig};

    /// A door operation on frame `f`; `ok` is an OS-owned frame for the
    /// copies' other side.
    type Op = fn(&mut DirectMap, Pfn, Pfn) -> Result<(), Refused>;

    const OPS: [(&str, Op); 5] = [
        ("free", |d, f, _| d.free(f)),
        ("bytes", |d, f, _| d.bytes(f, 8, 4).map(drop)),
        ("write", |d, f, _| d.write(f, 8, &[0xee; 4])),
        ("copy_frame from", |d, f, ok| d.copy_frame(f, ok)),
        ("copy_frame into", |d, f, ok| d.copy_frame(ok, f)),
    ];

    /// Every frame the kernel does not own: `None` is a freed frame.
    const NOT_OS_OWNED: [Option<FrameKind>; 5] = [
        Some(FrameKind::Ghost),
        Some(FrameKind::PageTable),
        Some(FrameKind::SvaInternal),
        Some(FrameKind::Code),
        None,
    ];

    fn setup(protections: Protections) -> (Machine, SvaVm) {
        let tpm = vg_crypto::Tpm::new(1);
        let vm = SvaVm::boot_with_key_bits(protections, &tpm, 3, 64);
        (Machine::new(MachineConfig::default()), vm)
    }

    /// A frame of `kind` holding a marker at bytes 8..12.
    fn frame_of(machine: &mut Machine, vm: &mut SvaVm, kind: Option<FrameKind>) -> Pfn {
        let f = machine.phys.alloc_frame().expect("frame");
        machine.phys.write_bytes(f, 8, b"mark");
        match kind {
            Some(k) => vm.frames.set_kind(f, k),
            None => machine.phys.free_frame(f),
        }
        f
    }

    fn last_denial(machine: &Machine) -> Option<DeniedOp> {
        machine.trace.flight.denials().last().copied()
    }

    /// Under Virtual Ghost each door operation on a frame the kernel does
    /// not own fails with `Refused`, leaves exactly one `DirectMap`
    /// flight-recorder entry naming the frame, and changes nothing. Under
    /// Native the same calls on allocated frames succeed (a freed frame has
    /// no bytes to reach there: physical memory panics on it).
    #[test]
    fn door_refuses_every_frame_the_kernel_does_not_own() {
        for (op_name, op) in OPS {
            for kind in NOT_OS_OWNED {
                let case = format!("{op_name} on {kind:?}");
                let (mut machine, mut vm) = setup(Protections::virtual_ghost());
                let ok = frame_of(&mut machine, &mut vm, Some(FrameKind::Regular));
                let f = frame_of(&mut machine, &mut vm, kind);
                let before = machine.trace.flight.total();
                let got = op(&mut DirectMap::new(&mut machine, &vm), f, ok);
                assert_eq!(got, Err(Refused), "{case}");
                assert_eq!(machine.trace.flight.total(), before + 1, "{case}");
                let d = last_denial(&machine).expect("a denial");
                assert_eq!((d.kind, d.addr), (DenialKind::DirectMap, f.0), "{case}");
                assert_eq!(machine.phys.bytes(ok, 8, 4), b"mark", "{case}");
                if kind.is_some() {
                    assert_eq!(machine.phys.bytes(f, 8, 4), b"mark", "{case}");
                }

                let Some(kind) = kind else { continue };
                let (mut machine, mut vm) = setup(Protections::native());
                let ok = frame_of(&mut machine, &mut vm, Some(FrameKind::Regular));
                let f = frame_of(&mut machine, &mut vm, Some(kind));
                let got = op(&mut DirectMap::new(&mut machine, &vm), f, ok);
                assert_eq!(got, Ok(()), "native {case}");
                assert_eq!(machine.trace.flight.total(), 0, "native {case}");
            }
        }
    }

    /// Allocated, OS-owned frames pass every operation under Virtual Ghost
    /// without a denial, and the bytes move.
    #[test]
    fn door_admits_os_owned_frames() {
        let (mut machine, mut vm) = setup(Protections::virtual_ghost());
        let a = frame_of(&mut machine, &mut vm, Some(FrameKind::Regular));
        let b = frame_of(&mut machine, &mut vm, Some(FrameKind::Regular));
        let mut d = DirectMap::new(&mut machine, &vm);
        d.write(a, 100, b"door").unwrap();
        d.copy_frame(a, b).unwrap();
        assert_eq!(d.bytes(b, 100, 4).unwrap(), b"door");
        assert_eq!(d.bytes(b, 8, 4).unwrap(), b"mark");
        d.free(a).unwrap();
        assert!(!machine.phys.is_allocated(a));
        assert_eq!(machine.trace.flight.total(), 0);
    }

    /// Non-test code in this crate may name `machine.phys` only here and in
    /// the functions below, each outside the door for the stated reason.
    const PHYS_ALLOWED: [(&str, &str, &str); 5] = [
        (
            "mem.rs",
            "UserMem::load",
            "user-mode access, MMU-checked at user privilege",
        ),
        (
            "mem.rs",
            "UserMem::store",
            "user-mode access, MMU-checked at user privilege",
        ),
        (
            "program.rs",
            "User::frames",
            "user-mode access: the user-span walk's frames",
        ),
        (
            "system.rs",
            "System::boot_with_cpus",
            "the boot pool: IOMMU MMIO frames, before SVA owns memory",
        ),
        (
            "system.rs",
            "System::inject_bit_flip",
            "models a hardware bit flip, aimed by os_owned",
        ),
    ];

    /// Non-test code in this crate may build a `DmaDisk` only in the file
    /// system's door and at boot.
    const DMA_DISK_ALLOWED: [(&str, &str, &str); 2] = [
        (
            "system.rs",
            "System::with_fs",
            "the door into the file system",
        ),
        (
            "system.rs",
            "System::boot_with_cpus",
            "boot-time mkfs, before the System exists",
        ),
    ];

    /// Strips a `//` comment and the contents of string and char literals
    /// from one line of Rust.
    fn code_of(line: &str) -> String {
        let chars: Vec<char> = line.chars().collect();
        let (mut out, mut in_str, mut i) = (String::new(), false, 0);
        while i < chars.len() {
            let c = chars[i];
            i += 1;
            if in_str {
                match c {
                    '\\' => i += 1,
                    '"' => in_str = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '/' if chars.get(i) == Some(&'/') => break,
                '"' => in_str = true,
                // A char literal, `'x'` or `'\x'`; a lifetime has no
                // closing quote.
                '\'' => {
                    let len = if chars.get(i) == Some(&'\\') { 3 } else { 2 };
                    if chars.get(i + len - 1) == Some(&'\'') {
                        i += len;
                    }
                }
                _ => {}
            }
            out.push(c);
        }
        out
    }

    fn is_ident(c: char) -> bool {
        c.is_alphanumeric() || c == '_'
    }

    /// The `(function, line)` of every non-test line of `src` that names
    /// `token`. A method is named `Type::fn` after its `impl` block.
    fn uses(src: &str, token: &str) -> Vec<(String, usize)> {
        let (mut uses, mut depth, mut skip_to) = (Vec::new(), 0usize, None);
        let (mut test_item, mut impl_ty, mut func) = (false, String::new(), String::new());
        let mut prev = String::new();
        for (n, line) in src.lines().enumerate() {
            let code = code_of(line);
            let trimmed = code.trim();
            if trimmed.starts_with("#[cfg(test)]") {
                test_item = true;
            }
            let opens = depth;
            depth += code.matches('{').count();
            depth -= code.matches('}').count().min(depth);
            if test_item && depth > opens && skip_to.is_none() {
                skip_to = Some(opens);
            }
            if let Some(end) = skip_to {
                if depth <= end {
                    skip_to = None;
                    test_item = false;
                }
                continue;
            }
            let words: Vec<&str> = trimmed
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .collect();
            if opens == 0 && words.first() == Some(&"impl") {
                let after = trimmed.rsplit(" for ").next().unwrap_or(trimmed);
                let after = after.trim_start_matches("impl").trim_start();
                let after = after
                    .strip_prefix('<')
                    .map_or(after, |g| &g[g.find("> ").map_or(0, |i| i + 2)..]);
                impl_ty = after
                    .split(|c: char| !c.is_alphanumeric() && c != '_')
                    .next()
                    .unwrap_or("")
                    .to_string();
            }
            if let Some(i) = words.iter().position(|w| *w == "fn") {
                if opens <= 1 {
                    let name = words[i + 1..].iter().find(|w| !w.is_empty()).unwrap_or(&"");
                    func = if opens == 0 {
                        name.to_string()
                    } else {
                        format!("{impl_ty}::{name}")
                    };
                }
            }
            // rustfmt may break a chain such as `machine` / `.phys` over two
            // lines.
            let head = token.rsplit_once('.').map_or("", |(head, _)| head);
            let carried = !head.is_empty()
                && prev.ends_with(head)
                && trimmed.starts_with(&token[head.len()..]);
            let joined = format!("{}{trimmed}", if carried { head } else { "" });
            // An identifier that merely contains the token does not name it.
            let named = joined.match_indices(token).any(|(i, _)| {
                let glued_before = joined[..i].ends_with(is_ident) && token.starts_with(is_ident);
                let end = i + token.len();
                let glued_after = joined[end..].starts_with(is_ident) && token.ends_with(is_ident);
                !(glued_before || glued_after)
            });
            if named {
                uses.push((func.clone(), n + 1));
            }
            prev = trimmed.to_string();
        }
        uses
    }

    /// The scan names each use's function, sees a chain rustfmt split
    /// before `.phys`, and skips test items, comments, strings and
    /// identifiers that merely contain the token.
    #[test]
    fn scan_finds_uses_by_function_and_skips_test_code() {
        let src = r#"
impl Foo for Bar<'_> {
    fn load(&mut self) {
        self.machine
            .phys
            .bytes(0);
    }
}
fn free() {
    let _ = "machine.phys"; // machine.phys
    m.machine.physical();
    sys.machine.phys.free_frame(f);
}
#[cfg(test)]
mod tests {
    fn t() { machine.phys.alloc_frame(); }
}
"#;
        assert_eq!(
            uses(src, "machine.phys"),
            [("Bar::load".to_string(), 5), ("free".to_string(), 12)]
        );
        // A quote in a char literal opens no string that hides a brace.
        let src = r#"
impl Sys {
    fn boot() {
        if c == '"' {
            let e = MyDmaDisk { machine };
        }
    }
    fn mkfs() {
        let d = DmaDisk {
            machine,
        };
    }
}
"#;
        assert_eq!(uses(src, "DmaDisk {"), [("Sys::mkfs".to_string(), 9)]);
    }

    fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    /// Asserts that no non-test line under `src/`, outside `door_file`,
    /// names `token` except in the `allowed` `(file, function, why)`
    /// entries, and that every entry is used.
    fn assert_only_allowed(token: &str, door_file: Option<&str>, allowed: &[(&str, &str, &str)]) {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        let (mut stray, mut used) = (Vec::new(), Vec::new());
        for path in files {
            let rel = path.strip_prefix(&src).expect("under src");
            let rel = rel.to_string_lossy().replace('\\', "/");
            if Some(rel.as_str()) == door_file {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source file");
            for (func, line) in uses(&text, token) {
                match allowed
                    .iter()
                    .find(|(f, func_, _)| *f == rel && *func_ == func)
                {
                    Some(entry) => used.push(entry.1),
                    None => stray.push(format!("{rel}:{line} in {func}")),
                }
            }
        }
        assert!(stray.is_empty(), "{token} outside its door: {stray:?}");
        for (file, func, why) in allowed {
            assert!(
                used.contains(func),
                "stale allow-list entry {file} {func} ({why})"
            );
        }
    }

    /// Kernel-mode code reaches physical memory only through the direct
    /// map: no non-test line outside `dmap.rs` names `machine.phys` except
    /// in the allow-listed functions, and every allow-list entry is used.
    #[test]
    fn only_the_door_names_machine_phys() {
        assert_only_allowed("machine.phys", Some("dmap.rs"), &PHYS_ALLOWED);
    }

    /// Kernel code reaches the file system only through `System::with_fs`,
    /// which charges every call's work: nothing else builds the device.
    #[test]
    fn only_the_fs_door_builds_a_dma_disk() {
        assert_only_allowed("DmaDisk {", None, &DMA_DISK_ALLOWED);
    }
}
