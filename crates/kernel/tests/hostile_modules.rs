//! Hostile kernel modules: malformed code and bad injection handles are
//! refused with an error in every mode and never panic the host.

use vg_core::SvaError;
use vg_ir::{FunctionBuilder, Module};
use vg_kernel::{Mode, System};

/// A module whose `init` makes a direct call to function index 7, which
/// does not exist.
fn bad_callee_module() -> Module {
    let mut m = Module::new("bad_callee");
    let mut init = FunctionBuilder::new("init", 0);
    init.call(7, &[]);
    m.push_function(init.ret(None));
    m
}

/// A module whose `init` injects function 0 of module handle 999 at a user
/// address and stores the extern's result in config cell 0.
fn bad_inject_module() -> Module {
    let mut m = Module::new("bad_inject");
    let mut init = FunctionBuilder::new("init", 0);
    let r = init.ext(
        "kern.inject_code",
        &[0x4000_0000i64.into(), 999.into(), 0.into()],
    );
    init.ext("kern.set_config", &[0.into(), r.into()]);
    m.push_function(init.ret(None));
    m
}

#[test]
fn malformed_module_is_refused_in_every_mode() {
    for mode in [Mode::Native, Mode::VirtualGhost] {
        let mut sys = System::boot(mode.clone());
        assert_eq!(
            sys.install_raw_module(bad_callee_module()),
            Err(SvaError::UntrustedCode),
            "{mode:?}: raw load"
        );
        assert_eq!(
            sys.install_module(bad_callee_module()),
            Err(SvaError::UntrustedCode),
            "{mode:?}: compiled load"
        );
        assert_eq!(
            sys.vm.load_app_module(bad_callee_module()),
            Err(SvaError::UntrustedCode),
            "{mode:?}: app load"
        );
    }
    // A well-formed raw (unsigned, uninstrumented) module still loads
    // natively, and its `init` runs.
    let mut raw = Module::new("raw");
    let mut init = FunctionBuilder::new("init", 0);
    init.ext("kern.set_config", &[0.into(), 42.into()]);
    raw.push_function(init.ret(None));
    let mut native = System::boot(Mode::Native);
    assert!(native.install_raw_module(raw).is_ok());
    assert_eq!(native.module_config[0], 42);
}

#[test]
fn inject_code_with_unknown_handle_returns_error() {
    for mode in [Mode::Native, Mode::VirtualGhost] {
        let mut sys = System::boot(mode.clone());
        sys.set_module_config(0, 1);
        sys.install_module(bad_inject_module())
            .expect("a well-formed module loads");
        assert_eq!(sys.module_config[0], -1, "{mode:?}: extern result");
        assert!(sys.vm.code.resolve(vg_ir::CodeAddr(0x4000_0000)).is_none());
    }
}
