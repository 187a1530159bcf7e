//! The code-address registry: this simulation's "native code" address space.
//!
//! After translation, functions live at code addresses; indirect calls and
//! signal-handler dispatch resolve targets through this registry. Crucially,
//! each registered function carries the CFI label (or absence of one) that
//! the compiler stamped on it — an injected function registered at a user
//! buffer address has no label, which is exactly what the CFI check catches.

use crate::inst::Module;
use crate::lower::{self, ExternInterner, LowerError, LoweredModule};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of globally-unique registry generations. Inline caches tag their
/// entries with the generation of the registry that filled them; making
/// every mutation take a *process-wide* fresh value guarantees that two
/// registries can only share a generation if one is an unmutated clone of
/// the other (i.e. their contents are identical), so a cache warmed under
/// one registry can never be wrongly hit under a diverged one.
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    NEXT_GEN.fetch_add(1, Ordering::Relaxed)
}

/// An address in the simulated code address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CodeAddr(pub u64);

/// Where a module's functions are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeSpace {
    /// Kernel text (high canonical half).
    Kernel,
    /// User text (low canonical half).
    User,
}

/// Base of kernel text addresses.
pub const KERNEL_TEXT_BASE: u64 = 0xffff_ff80_0010_0000;
/// Base of user text addresses.
pub const USER_TEXT_BASE: u64 = 0x0000_0000_0040_0000;

/// A resolved registry entry.
#[derive(Debug, Clone)]
pub struct RegisteredFn {
    /// Handle of the module containing the function.
    pub module: ModuleHandle,
    /// Function index within the module.
    pub func: u32,
    /// The CFI label stamped at compile time (`None` for unlabeled code —
    /// either never compiled with CFI, or injected).
    pub label: Option<u32>,
}

/// Identifies a registered module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModuleHandle(pub usize);

/// The registry of executable code.
///
/// Cloning is cheap (modules are reference-counted); the kernel clones a
/// snapshot before executing module code so the module can call back into
/// kernel services while the registry is borrowed.
#[derive(Debug, Clone)]
pub struct CodeRegistry {
    modules: Vec<Rc<Module>>,
    /// Pre-decoded execution form, parallel to `modules`. `Rc` keeps clones
    /// cheap and lets inline caches (interior-mutable cells inside) stay
    /// warm across the snapshot clones the kernel takes per hook run.
    lowered: Vec<Rc<LoweredModule>>,
    entries: std::collections::HashMap<u64, RegisteredFn>,
    /// Reverse index: `(module, func)` → the *canonical* (first-registered)
    /// code address. `register_at` aliases do not displace it.
    rev: std::collections::HashMap<(ModuleHandle, u32), CodeAddr>,
    externs: ExternInterner,
    generation: u64,
    next_kernel: u64,
    next_user: u64,
}

impl Default for CodeRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl CodeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        CodeRegistry {
            modules: Vec::new(),
            lowered: Vec::new(),
            entries: std::collections::HashMap::new(),
            rev: std::collections::HashMap::new(),
            externs: ExternInterner::default(),
            generation: 0,
            next_kernel: KERNEL_TEXT_BASE,
            next_user: USER_TEXT_BASE,
        }
    }

    /// Registers a module, assigning each function an address in `space`.
    /// The module is lowered (and its hot paths fused) to its execution
    /// forms here, once; returns the module handle.
    ///
    /// # Panics
    ///
    /// Panics if the module exceeds the lowering size limits (lowered code
    /// or arg pool past `u32::MAX` entries) — callers that load untrusted
    /// module sizes should use
    /// [`try_register_module`](Self::try_register_module).
    pub fn register_module(&mut self, module: Module, space: CodeSpace) -> ModuleHandle {
        self.try_register_module(module, space)
            .expect("module exceeds lowering size limits")
    }

    /// Fallible [`register_module`](Self::register_module): returns the
    /// lowering error instead of panicking when the module is too large for
    /// the `u32` offsets of the lowered form.
    ///
    /// # Errors
    ///
    /// [`LowerError`] if lowered code or the pooled argument table would
    /// exceed `u32::MAX` entries.
    pub fn try_register_module(
        &mut self,
        module: Module,
        space: CodeSpace,
    ) -> Result<ModuleHandle, LowerError> {
        let handle = ModuleHandle(self.modules.len());
        let lowered = lower::lower_module(&module, &mut self.externs)?;
        let module = Rc::new(module);
        for (i, f) in module.functions.iter().enumerate() {
            let addr = match space {
                CodeSpace::Kernel => {
                    let a = self.next_kernel;
                    self.next_kernel += 0x1000;
                    a
                }
                CodeSpace::User => {
                    let a = self.next_user;
                    self.next_user += 0x1000;
                    a
                }
            };
            self.entries.insert(
                addr,
                RegisteredFn {
                    module: handle,
                    func: i as u32,
                    label: f.cfi_label,
                },
            );
            self.rev.insert((handle, i as u32), CodeAddr(addr));
        }
        self.modules.push(module);
        self.lowered.push(Rc::new(lowered));
        self.generation = next_generation();
        Ok(handle)
    }

    /// Registers a single function of an existing module at an *arbitrary*
    /// address — the code-injection primitive. A hostile kernel uses this to
    /// model "copy exploit code into an mmap'ed buffer": the function
    /// becomes reachable at `addr`, but carries no CFI label unless its
    /// module was compiled with CFI.
    pub fn register_at(&mut self, addr: CodeAddr, module: ModuleHandle, func: u32) {
        let label = self.modules[module.0].functions[func as usize].cfi_label;
        let displaced = self.entries.insert(
            addr.0,
            RegisteredFn {
                module,
                func,
                label,
            },
        );
        // If the overwritten entry was some function's canonical address,
        // that address no longer resolves to it — drop the stale index entry.
        if let Some(old) = displaced {
            if self.rev.get(&(old.module, old.func)) == Some(&addr) {
                self.rev.remove(&(old.module, old.func));
            }
        }
        self.rev.entry((module, func)).or_insert(addr);
        self.generation = next_generation();
    }

    /// The registry's generation: bumped (to a process-wide fresh value) by
    /// every code registration. Inline caches validate against it (one
    /// site table per lowered function), so
    /// registering code — including injection via
    /// [`register_at`](Self::register_at) — implicitly flushes every cache.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The lowered (execution-form) view of a module.
    pub fn lowered(&self, handle: ModuleHandle) -> &LoweredModule {
        &self.lowered[handle.0]
    }

    /// The interned name behind extern id `id`.
    pub fn extern_name(&self, id: u32) -> Option<&str> {
        self.externs.name(id)
    }

    /// The extern id assigned to `name` during lowering, if any function
    /// registered so far calls it.
    pub fn extern_id(&self, name: &str) -> Option<u32> {
        self.externs.lookup(name)
    }

    /// Number of interned extern names (ids are dense in `0..count`).
    pub fn extern_count(&self) -> usize {
        self.externs.len()
    }

    /// Resolves a code address.
    pub fn resolve(&self, addr: CodeAddr) -> Option<&RegisteredFn> {
        self.entries.get(&addr.0)
    }

    /// The module behind a handle.
    pub fn module(&self, handle: ModuleHandle) -> &Module {
        &self.modules[handle.0]
    }

    /// Finds the address assigned to `name` in `module`.
    pub fn addr_of(&self, module: ModuleHandle, name: &str) -> Option<CodeAddr> {
        let idx = self.modules[module.0].find(name)?;
        self.addr_of_index(module, idx)
    }

    /// Finds the canonical (first-registered) address of function index
    /// `func` in `module` — an O(1) lookup through the reverse index (this
    /// used to linearly scan the whole entries map, and with duplicate
    /// registrations could return whichever alias hashed first).
    pub fn addr_of_index(&self, module: ModuleHandle, func: u32) -> Option<CodeAddr> {
        self.rev.get(&(module, func)).copied()
    }

    /// Number of registered code entry points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    fn two_fn_module() -> Module {
        let mut m = Module::new("m");
        m.push_function(FunctionBuilder::new("a", 0).ret(Some(1.into())));
        m.push_function(FunctionBuilder::new("b", 0).ret(Some(2.into())));
        m
    }

    #[test]
    fn kernel_and_user_spaces_disjoint() {
        let mut reg = CodeRegistry::new();
        let k = reg.register_module(two_fn_module(), CodeSpace::Kernel);
        let u = reg.register_module(two_fn_module(), CodeSpace::User);
        let ka = reg.addr_of(k, "a").unwrap();
        let ua = reg.addr_of(u, "a").unwrap();
        assert!(ka.0 >= KERNEL_TEXT_BASE);
        assert!(ua.0 < KERNEL_TEXT_BASE);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut reg = CodeRegistry::new();
        let h = reg.register_module(two_fn_module(), CodeSpace::Kernel);
        let addr = reg.addr_of(h, "b").unwrap();
        let e = reg.resolve(addr).unwrap();
        assert_eq!(e.func, 1);
        assert_eq!(reg.module(e.module).functions[1].name, "b");
        assert!(reg.resolve(CodeAddr(0x1234)).is_none());
    }

    #[test]
    fn register_at_models_injection() {
        let mut reg = CodeRegistry::new();
        let h = reg.register_module(two_fn_module(), CodeSpace::Kernel);
        let buffer = CodeAddr(0x7fff_0000);
        reg.register_at(buffer, h, 0);
        let e = reg.resolve(buffer).unwrap();
        assert_eq!(e.func, 0);
        assert_eq!(e.label, None, "injected code carries no CFI label");
    }

    #[test]
    fn addr_of_index_is_canonical_under_aliases() {
        let mut reg = CodeRegistry::new();
        let h = reg.register_module(two_fn_module(), CodeSpace::Kernel);
        let canonical = reg.addr_of(h, "a").unwrap();
        assert_eq!(reg.addr_of_index(h, 0), Some(canonical));
        // An injected alias at a user address does not displace it.
        reg.register_at(CodeAddr(0x7fff_0000), h, 0);
        assert_eq!(reg.addr_of_index(h, 0), Some(canonical));
        // Overwriting function b's canonical slot with an alias of a drops
        // b's reverse entry rather than returning a lying address.
        let b_addr = reg.addr_of(h, "b").unwrap();
        reg.register_at(b_addr, h, 0);
        assert_eq!(reg.addr_of_index(h, 1), None);
        assert_eq!(reg.addr_of_index(h, 0), Some(canonical));
    }

    #[test]
    fn generation_bumps_on_every_registration() {
        let mut reg = CodeRegistry::new();
        let g0 = reg.generation();
        let h = reg.register_module(two_fn_module(), CodeSpace::Kernel);
        let g1 = reg.generation();
        assert_ne!(g0, g1);
        reg.register_at(CodeAddr(0x7fff_0000), h, 0);
        let g2 = reg.generation();
        assert_ne!(g1, g2);
        // A clone shares the generation (identical contents)...
        let snap = reg.clone();
        assert_eq!(snap.generation(), reg.generation());
        // ...until either side mutates.
        reg.register_at(CodeAddr(0x7fff_1000), h, 1);
        assert_ne!(snap.generation(), reg.generation());
    }

    #[test]
    fn externs_intern_across_modules() {
        let mut m1 = Module::new("m1");
        let mut b = FunctionBuilder::new("f", 0);
        b.ext("svc.ping", &[]);
        m1.push_function(b.ret(None));
        let mut m2 = Module::new("m2");
        let mut b = FunctionBuilder::new("g", 0);
        b.ext("svc.ping", &[]);
        b.ext("svc.pong", &[]);
        m2.push_function(b.ret(None));

        let mut reg = CodeRegistry::new();
        reg.register_module(m1, CodeSpace::Kernel);
        reg.register_module(m2, CodeSpace::Kernel);
        assert_eq!(reg.extern_count(), 2);
        let ping = reg.extern_id("svc.ping").unwrap();
        assert_eq!(reg.extern_id("svc.pong"), Some(1 - ping));
        assert_eq!(reg.extern_name(ping), Some("svc.ping"));
        assert_eq!(reg.extern_id("svc.nope"), None);
    }

    #[test]
    fn labels_flow_from_functions() {
        let mut m = two_fn_module();
        m.functions[0].cfi_label = Some(0xfeed);
        let mut reg = CodeRegistry::new();
        let h = reg.register_module(m, CodeSpace::Kernel);
        let a = reg.addr_of(h, "a").unwrap();
        let b = reg.addr_of(h, "b").unwrap();
        assert_eq!(reg.resolve(a).unwrap().label, Some(0xfeed));
        assert_eq!(reg.resolve(b).unwrap().label, None);
    }
}
