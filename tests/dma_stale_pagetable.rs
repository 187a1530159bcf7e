//! Stale DMA mappings on frames SVA claims as page tables (paper §4.3.3).
//!
//! The OS manages physical memory but must never reach SVA's page tables
//! by DMA. A hostile kernel maps an ordinary frame into the IOMMU through
//! the legitimate `sva_iommu_map`, frees it without unmapping it, and
//! waits for SVA to take the frame back as a page table: a new address-
//! space root, or an intermediate table `sva_map_page` allocates. If the
//! IOMMU mapping survived the claim, a disk DMA could then overwrite the
//! page table with attacker-chosen PTEs. SVA must revoke the mapping when
//! it claims the frame and record the stale mapping as a DMA violation.
//!
//! This scenario is not part of the `paper-tables` attack matrix; it pins
//! the page-table half of the DMA defense on its own.

use vg_core::{Protections, SvaVm};
use vg_crypto::Tpm;
use vg_machine::layout::PAGE_SIZE;
use vg_machine::pte::PteFlags;
use vg_machine::{DenialKind, Machine, Pfn, VAddr};

/// Disk block holding the attacker's forged page-table image.
const FORGED_BLOCK: u64 = 7;

fn boot(protections: Protections) -> (SvaVm, Machine) {
    let vm = SvaVm::boot_with_key_bits(protections, &Tpm::new(1), 8, 64);
    let mut machine = Machine::new(Default::default());
    machine.disk.poke(FORGED_BLOCK, &[0xa5; PAGE_SIZE as usize]);
    (vm, machine)
}

/// The hostile-kernel preamble: a frame made DMA-visible the legal way,
/// then freed with its mapping left in place. It is the next frame the
/// allocator hands out.
fn leave_stale_mapping(vm: &mut SvaVm, machine: &mut Machine) -> Pfn {
    let f = machine.phys.alloc_frame().unwrap();
    vm.sva_iommu_map(machine, f)
        .expect("an ordinary frame may be mapped");
    machine.phys.free_frame(f);
    f
}

/// DMAs the forged block over `table`; reports whether the DMA went
/// through and whether the table still reads as written by SVA.
fn forge(machine: &mut Machine, table: Pfn, before: &[u8]) -> (bool, bool) {
    let dma_ok = machine.disk_dma_read(FORGED_BLOCK, table).is_ok();
    (dma_ok, machine.phys.read_frame(table) == before)
}

fn last_dma_denial(machine: &Machine) -> Option<u64> {
    machine
        .trace
        .flight
        .denials()
        .filter(|d| d.kind == DenialKind::DmaViolation)
        .last()
        .map(|d| d.addr)
}

#[test]
fn new_root_on_a_dma_visible_frame_is_revoked() {
    let (mut vm, mut machine) = boot(Protections::virtual_ghost());
    let f = leave_stale_mapping(&mut vm, &mut machine);
    let root = vm.sva_create_root(&mut machine).unwrap();
    assert_eq!(root, f, "the freed frame comes back as the PML4");
    assert!(
        !machine.iommu.is_mapped(root),
        "claiming revokes the mapping"
    );
    assert_eq!(last_dma_denial(&machine), Some(f.0));
    let before = machine.phys.read_frame(root);
    assert_eq!(forge(&mut machine, root, &before), (false, true));
}

#[test]
fn intermediate_table_on_a_dma_visible_frame_is_revoked() {
    let (mut vm, mut machine) = boot(Protections::virtual_ghost());
    let root = vm.sva_create_root(&mut machine).unwrap();
    let data = machine.phys.alloc_frame().unwrap();
    let f = leave_stale_mapping(&mut vm, &mut machine);
    // An empty address space: the map allocates the L3, L2 and L1 tables,
    // and the first of them is the stale frame.
    vm.sva_map_page(
        &mut machine,
        root,
        VAddr(0x40_0000),
        data,
        PteFlags::user_rw(),
    )
    .unwrap();
    assert!(!machine.iommu.is_mapped(f), "claiming revokes the mapping");
    assert_eq!(last_dma_denial(&machine), Some(f.0));
    let before = machine.phys.read_frame(f);
    assert_ne!(before, vec![0; PAGE_SIZE as usize], "f holds a live PTE");
    assert_eq!(forge(&mut machine, f, &before), (false, true));
    assert_eq!(machine.iommu.mapped_count(), 0);
}

#[test]
fn benign_claims_record_nothing_and_cost_the_same() {
    let (mut vm, mut machine) = boot(Protections::virtual_ghost());
    let (mut vm2, mut stale) = boot(Protections::virtual_ghost());
    leave_stale_mapping(&mut vm2, &mut stale);
    // Same work on both machines after the preamble: the revocation is
    // free, and a machine with nothing to revoke records nothing.
    let t0 = (machine.clock.cycles(), stale.clock.cycles());
    vm.sva_create_root(&mut machine).unwrap();
    vm2.sva_create_root(&mut stale).unwrap();
    assert_eq!(
        machine.clock.cycles() - t0.0,
        stale.clock.cycles() - t0.1,
        "revoking charges nothing"
    );
    assert!(machine.trace.flight.is_empty());
}

#[test]
fn native_keeps_the_stale_mapping() {
    // The contrast: an unprotected machine does no revocation, so the
    // forged PTEs land in the live PML4.
    let (mut vm, mut machine) = boot(Protections::native());
    let f = leave_stale_mapping(&mut vm, &mut machine);
    let root = vm.sva_create_root(&mut machine).unwrap();
    assert_eq!(root, f);
    let before = machine.phys.read_frame(root);
    assert_eq!(forge(&mut machine, root, &before), (true, false));
    assert!(machine.trace.flight.is_empty());
}
