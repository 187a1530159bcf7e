//! The MMU: a 4-level page walker with a small TLB.
//!
//! Page tables live in simulated physical memory as arrays of 512 raw
//! `Pte` words; the walker reads them exactly as the
//! hardware would. `vg-core` constrains *writes* to these tables (the SVA-OS
//! MMU operations); the walker itself is policy-free.

use crate::inthash::IntMap;
use crate::layout::{PAddr, Pfn, VAddr, Vpn};
use crate::phys::PhysMem;
use crate::pte::{PageTableLevel, Pte, PteFlags};

/// Kind of memory access, for permission checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

impl AccessKind {
    /// Stable index for per-kind statistics arrays (Read=0, Write=1,
    /// Execute=2).
    pub fn index(self) -> usize {
        match self {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::Execute => 2,
        }
    }
}

/// Why a translation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateError {
    /// No root page table loaded.
    NoRoot,
    /// A table entry on the walk was not present.
    NotMapped {
        /// Level at which the walk stopped.
        level: PageTableLevel,
    },
    /// The leaf entry forbids this access.
    Protection {
        /// The offending access kind.
        access: AccessKind,
    },
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::NoRoot => write!(f, "no page table root loaded"),
            TranslateError::NotMapped { level } => write!(f, "not mapped at {level:?}"),
            TranslateError::Protection { access } => {
                write!(f, "protection violation on {access:?}")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    pfn: Pfn,
    leaf: Pte,
    user_path: bool,
}

/// TLB hit/miss/eviction statistics, split by [`AccessKind`]
/// (indexed via [`AccessKind::index`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TlbStats {
    /// Hits per access kind.
    pub hits: [u64; 3],
    /// Misses (full walks) per access kind.
    pub misses: [u64; 3],
    /// Entries discarded by capacity eviction (not by explicit flushes).
    pub evictions: u64,
}

impl TlbStats {
    /// Hits summed over all access kinds.
    pub fn hits_total(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Misses summed over all access kinds.
    pub fn misses_total(&self) -> u64 {
        self.misses.iter().sum()
    }
}

impl std::ops::Add for TlbStats {
    type Output = TlbStats;

    #[inline]
    fn add(self, o: TlbStats) -> TlbStats {
        TlbStats {
            hits: [
                self.hits[0] + o.hits[0],
                self.hits[1] + o.hits[1],
                self.hits[2] + o.hits[2],
            ],
            misses: [
                self.misses[0] + o.misses[0],
                self.misses[1] + o.misses[1],
                self.misses[2] + o.misses[2],
            ],
            evictions: self.evictions + o.evictions,
        }
    }
}

impl std::iter::Sum for TlbStats {
    fn sum<I: Iterator<Item = TlbStats>>(iter: I) -> TlbStats {
        iter.fold(TlbStats::default(), |a, b| a + b)
    }
}

/// End-of-list marker for the TLB recency links.
const NIL: u32 = u32::MAX;

/// One resident TLB entry, linked into the recency list.
#[derive(Debug, Clone, Copy)]
struct TlbSlot {
    vpn: Vpn,
    entry: TlbEntry,
    /// Next-older entry (towards the LRU head).
    prev: u32,
    /// Next-newer entry (towards the MRU tail).
    next: u32,
}

/// MMU state: the active root table and a bounded TLB.
///
/// The TLB is a slab of entries threaded on an intrusive doubly linked
/// recency list (head = least recently used, tail = most recently used)
/// plus one `vpn → slot` index, so a hit, a fill and an LRU eviction are
/// each O(1). A translation hit moves the entry to the tail, and capacity
/// eviction drops the head. Statistics are
/// counted per [`AccessKind`] and never affect charged cycles — the cost
/// model charges translations identically whether they hit or miss. The
/// MMU is the only place TLB statistics live; [`crate::Machine`] mirrors
/// their sum over all cores into [`crate::Counters`].
#[derive(Debug)]
pub struct Mmu {
    root: Option<Pfn>,
    index: IntMap<Vpn, u32>,
    slots: Vec<TlbSlot>,
    /// Slab slots vacated by `flush_page` or eviction, reused first.
    vacant: Vec<u32>,
    head: u32,
    tail: u32,
    capacity: usize,
    stats: TlbStats,
}

impl Default for Mmu {
    fn default() -> Self {
        Self::new()
    }
}

/// Default TLB capacity, matching the original model.
pub const DEFAULT_TLB_CAPACITY: usize = 1024;

impl Mmu {
    /// Creates an MMU with no root loaded and the default LRU TLB.
    pub fn new() -> Self {
        Self::with_tlb(DEFAULT_TLB_CAPACITY)
    }

    /// Creates an MMU with an explicit LRU TLB capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_tlb(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be non-zero");
        Mmu {
            root: None,
            index: IntMap::default(),
            slots: Vec::new(),
            vacant: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            stats: TlbStats::default(),
        }
    }

    /// Loads a new root table (like writing CR3) and flushes the TLB.
    pub fn set_root(&mut self, root: Pfn) {
        self.root = Some(root);
        self.flush_all();
    }

    /// The active root, if any.
    pub fn root(&self) -> Option<Pfn> {
        self.root
    }

    /// Invalidates one page translation (like `invlpg`).
    pub fn flush_page(&mut self, vpn: Vpn) {
        if let Some(slot) = self.index.remove(&vpn) {
            self.unlink(slot);
            self.vacant.push(slot);
        }
    }

    /// Invalidates the whole TLB.
    pub fn flush_all(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.vacant.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Current TLB statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Clears hit/miss/eviction statistics.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Detaches `slot` from the recency list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let TlbSlot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Appends `slot` at the most-recently-used end of the recency list.
    #[inline]
    fn link_tail(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.prev = self.tail;
        s.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.slots[t as usize].next = slot,
        }
        self.tail = slot;
    }

    /// Fills the TLB with `entry` for `vpn` (absent), evicting first when
    /// full.
    fn fill(&mut self, vpn: Vpn, entry: TlbEntry) {
        if self.index.len() >= self.capacity {
            let oldest = self.head;
            self.unlink(oldest);
            self.index.remove(&self.slots[oldest as usize].vpn);
            self.vacant.push(oldest);
            self.stats.evictions += 1;
        }
        let s = TlbSlot {
            vpn,
            entry,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.vacant.pop() {
            Some(slot) => {
                self.slots[slot as usize] = s;
                slot
            }
            None => {
                self.slots.push(s);
                (self.slots.len() - 1) as u32
            }
        };
        self.link_tail(slot);
        self.index.insert(vpn, slot);
    }

    /// Translates `va` for `access` at the given privilege.
    ///
    /// `user` means the access executes in user mode, requiring the USER bit
    /// along the whole walk.
    ///
    /// # Errors
    ///
    /// See [`TranslateError`].
    pub fn translate(
        &mut self,
        phys: &PhysMem,
        va: VAddr,
        access: AccessKind,
        user: bool,
    ) -> Result<PAddr, TranslateError> {
        let vpn = va.vpn();
        let entry = if let Some(&slot) = self.index.get(&vpn) {
            self.stats.hits[access.index()] += 1;
            if slot != self.tail {
                self.unlink(slot);
                self.link_tail(slot);
            }
            self.slots[slot as usize].entry
        } else {
            self.stats.misses[access.index()] += 1;
            let e = walk(self.root, phys, va)?;
            self.fill(vpn, e);
            e
        };
        permit(entry, va, access, user)
    }

    /// Performs a full walk without consulting or filling the TLB. Returns
    /// the leaf PTE — used by `vg-core` for inspection.
    pub fn walk_leaf(&self, phys: &PhysMem, va: VAddr) -> Result<Pte, TranslateError> {
        walk(self.root, phys, va).map(|e| e.leaf)
    }

    /// Resident vpns, oldest first (differential tests compare these).
    #[cfg(test)]
    fn resident(&self) -> Vec<Vpn> {
        let mut out = Vec::with_capacity(self.index.len());
        let mut at = self.head;
        while at != NIL {
            out.push(self.slots[at as usize].vpn);
            at = self.slots[at as usize].next;
        }
        out
    }
}

/// Applies the leaf's permissions to an access through `entry`.
fn permit(
    entry: TlbEntry,
    va: VAddr,
    access: AccessKind,
    user: bool,
) -> Result<PAddr, TranslateError> {
    if user && !entry.user_path {
        return Err(TranslateError::Protection { access });
    }
    match access {
        AccessKind::Read => {}
        AccessKind::Write => {
            if !entry.leaf.writable() {
                return Err(TranslateError::Protection { access });
            }
        }
        AccessKind::Execute => {
            if entry.leaf.no_execute() {
                return Err(TranslateError::Protection { access });
            }
        }
    }
    Ok(PAddr(
        entry.pfn.0 * crate::layout::PAGE_SIZE + va.page_offset(),
    ))
}

/// The 4-level walk from `root`, without touching any TLB.
fn walk(root: Option<Pfn>, phys: &PhysMem, va: VAddr) -> Result<TlbEntry, TranslateError> {
    let mut table = root.ok_or(TranslateError::NoRoot)?;
    let mut user_path = true;
    for level in PageTableLevel::WALK {
        let idx = level.index(va.0);
        let raw = phys.read_u64(table, idx * 8);
        let pte = Pte(raw);
        if !pte.present() {
            return Err(TranslateError::NotMapped { level });
        }
        user_path &= pte.user();
        if level == PageTableLevel::L1 {
            return Ok(TlbEntry {
                pfn: pte.pfn(),
                leaf: pte,
                user_path,
            });
        }
        table = pte.pfn();
    }
    unreachable!("walk covers all levels")
}

/// Helper used by tests and the kernel's page-table construction: writes a
/// PTE word into a table frame.
pub fn write_pte(phys: &mut PhysMem, table: Pfn, index: u64, pte: Pte) {
    phys.write_u64(table, index * 8, pte.0);
}

/// Reads a PTE word from a table frame.
pub fn read_pte(phys: &PhysMem, table: Pfn, index: u64) -> Pte {
    Pte(phys.read_u64(table, index * 8))
}

/// Builds (allocating as needed) the walk down to the L1 slot for `va` and
/// installs `leaf` there. Intermediate nodes get [`PteFlags::table`] flags.
///
/// This is the *mechanism* used by tests and by the kernel when it prepares
/// page-table updates to submit to SVA-OS; under Virtual Ghost the kernel
/// submits the resulting writes through checked operations instead.
///
/// Returns `None` if physical memory is exhausted.
pub fn map_page_raw(phys: &mut PhysMem, root: Pfn, va: VAddr, leaf: Pte) -> Option<()> {
    let mut table = root;
    for level in [PageTableLevel::L4, PageTableLevel::L3, PageTableLevel::L2] {
        let idx = level.index(va.0);
        let pte = read_pte(phys, table, idx);
        let next = if pte.present() {
            pte.pfn()
        } else {
            let frame = phys.alloc_frame()?;
            write_pte(phys, table, idx, Pte::new(frame, PteFlags::table()));
            frame
        };
        table = next;
    }
    write_pte(phys, table, PageTableLevel::L1.index(va.0), leaf);
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PAGE_SIZE;

    fn setup() -> (PhysMem, Mmu, Pfn) {
        let mut phys = PhysMem::new(256);
        let root = phys.alloc_frame().unwrap();
        let mut mmu = Mmu::new();
        mmu.set_root(root);
        (phys, mmu, root)
    }

    #[test]
    fn translate_simple_mapping() {
        let (mut phys, mut mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0x4000),
            Pte::new(frame, PteFlags::user_rw()),
        )
        .unwrap();
        let pa = mmu
            .translate(&phys, VAddr(0x4123), AccessKind::Read, true)
            .unwrap();
        assert_eq!(pa, PAddr(frame.0 * PAGE_SIZE + 0x123));
    }

    #[test]
    fn unmapped_fails_with_level() {
        let (phys, mut mmu, _) = setup();
        let err = mmu
            .translate(&phys, VAddr(0x4000), AccessKind::Read, true)
            .unwrap_err();
        assert_eq!(
            err,
            TranslateError::NotMapped {
                level: PageTableLevel::L4
            }
        );
    }

    #[test]
    fn no_root_fails() {
        let phys = PhysMem::new(4);
        let mut mmu = Mmu::new();
        assert_eq!(
            mmu.translate(&phys, VAddr(0), AccessKind::Read, false),
            Err(TranslateError::NoRoot)
        );
    }

    #[test]
    fn write_to_readonly_fails() {
        let (mut phys, mut mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        let ro = Pte::new(frame, PteFlags::user_rw()).read_only();
        map_page_raw(&mut phys, root, VAddr(0x5000), ro).unwrap();
        assert!(mmu
            .translate(&phys, VAddr(0x5000), AccessKind::Read, true)
            .is_ok());
        assert_eq!(
            mmu.translate(&phys, VAddr(0x5000), AccessKind::Write, true),
            Err(TranslateError::Protection {
                access: AccessKind::Write
            })
        );
    }

    #[test]
    fn user_cannot_touch_kernel_mapping() {
        let (mut phys, mut mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0x6000),
            Pte::new(frame, PteFlags::kernel_rw()),
        )
        .unwrap();
        assert!(mmu
            .translate(&phys, VAddr(0x6000), AccessKind::Read, false)
            .is_ok());
        assert_eq!(
            mmu.translate(&phys, VAddr(0x6000), AccessKind::Read, true),
            Err(TranslateError::Protection {
                access: AccessKind::Read
            })
        );
    }

    #[test]
    fn nx_blocks_execute() {
        let (mut phys, mut mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0x7000),
            Pte::new(frame, PteFlags::user_rw()),
        )
        .unwrap();
        assert_eq!(
            mmu.translate(&phys, VAddr(0x7000), AccessKind::Execute, true),
            Err(TranslateError::Protection {
                access: AccessKind::Execute
            })
        );
    }

    #[test]
    fn tlb_hit_counted_and_stale_until_flush() {
        let (mut phys, mut mmu, root) = setup();
        let f1 = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0x8000),
            Pte::new(f1, PteFlags::user_rw()),
        )
        .unwrap();
        mmu.translate(&phys, VAddr(0x8000), AccessKind::Read, true)
            .unwrap();
        assert_eq!(
            (mmu.stats().hits_total(), mmu.stats().misses_total()),
            (0, 1)
        );
        mmu.translate(&phys, VAddr(0x8010), AccessKind::Read, true)
            .unwrap();
        assert_eq!(
            (mmu.stats().hits_total(), mmu.stats().misses_total()),
            (1, 1)
        );

        // Change the mapping behind the TLB's back: translation is stale...
        let f2 = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0x8000),
            Pte::new(f2, PteFlags::user_rw()),
        )
        .unwrap();
        let stale = mmu
            .translate(&phys, VAddr(0x8000), AccessKind::Read, true)
            .unwrap();
        assert_eq!(stale.pfn(), f1);
        // ...until the page is flushed, as on real hardware.
        mmu.flush_page(VAddr(0x8000).vpn());
        let fresh = mmu
            .translate(&phys, VAddr(0x8000), AccessKind::Read, true)
            .unwrap();
        assert_eq!(fresh.pfn(), f2);
    }

    #[test]
    fn set_root_flushes() {
        let (mut phys, mut mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0x9000),
            Pte::new(frame, PteFlags::user_rw()),
        )
        .unwrap();
        mmu.translate(&phys, VAddr(0x9000), AccessKind::Read, true)
            .unwrap();
        let root2 = phys.alloc_frame().unwrap();
        mmu.set_root(root2);
        assert_eq!(
            mmu.translate(&phys, VAddr(0x9000), AccessKind::Read, true),
            Err(TranslateError::NotMapped {
                level: PageTableLevel::L4
            })
        );
    }

    /// Maps `n` consecutive user pages starting at `base` and returns their
    /// virtual addresses.
    fn map_n(phys: &mut PhysMem, root: Pfn, base: u64, n: usize) -> Vec<VAddr> {
        (0..n)
            .map(|i| {
                let va = VAddr(base + i as u64 * PAGE_SIZE);
                let frame = phys.alloc_frame().unwrap();
                map_page_raw(phys, root, va, Pte::new(frame, PteFlags::user_rw())).unwrap();
                va
            })
            .collect()
    }

    #[test]
    fn lru_evicts_only_the_stalest_entry() {
        let mut phys = PhysMem::new(256);
        let root = phys.alloc_frame().unwrap();
        let mut mmu = Mmu::with_tlb(2);
        mmu.set_root(root);
        let vas = map_n(&mut phys, root, 0x10000, 3);

        mmu.translate(&phys, vas[0], AccessKind::Read, true)
            .unwrap();
        mmu.translate(&phys, vas[1], AccessKind::Read, true)
            .unwrap();
        // Touch vas[0] so vas[1] becomes stalest, then bring in vas[2].
        mmu.translate(&phys, vas[0], AccessKind::Read, true)
            .unwrap();
        mmu.translate(&phys, vas[2], AccessKind::Read, true)
            .unwrap();
        assert_eq!(mmu.stats().evictions, 1);

        // vas[0] and vas[2] must still hit; vas[1] was evicted and misses.
        let before = mmu.stats();
        mmu.translate(&phys, vas[0], AccessKind::Read, true)
            .unwrap();
        mmu.translate(&phys, vas[2], AccessKind::Read, true)
            .unwrap();
        assert_eq!(mmu.stats().hits_total(), before.hits_total() + 2);
        mmu.translate(&phys, vas[1], AccessKind::Read, true)
            .unwrap();
        assert_eq!(mmu.stats().misses_total(), before.misses_total() + 1);
    }

    #[test]
    fn stats_split_by_access_kind() {
        let (mut phys, mut mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0xb000),
            Pte::new(frame, PteFlags::user_rw()),
        )
        .unwrap();
        mmu.translate(&phys, VAddr(0xb000), AccessKind::Read, true)
            .unwrap();
        mmu.translate(&phys, VAddr(0xb008), AccessKind::Write, true)
            .unwrap();
        mmu.translate(&phys, VAddr(0xb010), AccessKind::Write, true)
            .unwrap();
        let s = mmu.stats();
        assert_eq!(s.misses, [1, 0, 0]);
        assert_eq!(s.hits, [0, 2, 0]);
        mmu.reset_stats();
        assert_eq!(mmu.stats(), TlbStats::default());
    }

    #[test]
    fn flush_page_and_set_root_invalidate_under_lru() {
        let mut phys = PhysMem::new(256);
        let root = phys.alloc_frame().unwrap();
        let mut mmu = Mmu::with_tlb(4);
        mmu.set_root(root);
        let vas = map_n(&mut phys, root, 0xc000, 2);
        mmu.translate(&phys, vas[0], AccessKind::Read, true)
            .unwrap();
        mmu.translate(&phys, vas[1], AccessKind::Read, true)
            .unwrap();

        // flush_page drops exactly that entry: next touch misses.
        mmu.flush_page(vas[0].vpn());
        let before = mmu.stats();
        mmu.translate(&phys, vas[0], AccessKind::Read, true)
            .unwrap();
        assert_eq!(mmu.stats().misses_total(), before.misses_total() + 1);
        mmu.translate(&phys, vas[1], AccessKind::Read, true)
            .unwrap();
        assert_eq!(mmu.stats().hits_total(), before.hits_total() + 1);

        // set_root drops everything; flushes are not capacity evictions.
        let evictions = mmu.stats().evictions;
        mmu.set_root(root);
        let before = mmu.stats();
        mmu.translate(&phys, vas[0], AccessKind::Read, true)
            .unwrap();
        mmu.translate(&phys, vas[1], AccessKind::Read, true)
            .unwrap();
        assert_eq!(mmu.stats().misses_total(), before.misses_total() + 2);
        assert_eq!(mmu.stats().evictions, evictions);
    }

    #[test]
    fn walk_leaf_reports_flags() {
        let (mut phys, mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0xa000),
            Pte::new(frame, PteFlags::user_code()),
        )
        .unwrap();
        let leaf = mmu.walk_leaf(&phys, VAddr(0xa000)).unwrap();
        assert!(!leaf.no_execute());
        assert!(!leaf.writable());
    }

    /// The tick-stamped reference TLB the recency list replaced: a hash
    /// map of entries plus a `BTreeMap` recency index (tick → vpn, oldest
    /// first). Kept only as the differential oracle for [`Mmu`].
    struct RefMmu {
        root: Option<Pfn>,
        tlb: std::collections::HashMap<Vpn, (TlbEntry, u64)>,
        order: std::collections::BTreeMap<u64, Vpn>,
        tick: u64,
        capacity: usize,
        stats: TlbStats,
    }

    impl RefMmu {
        fn new(capacity: usize) -> Self {
            RefMmu {
                root: None,
                tlb: Default::default(),
                order: Default::default(),
                tick: 0,
                capacity,
                stats: TlbStats::default(),
            }
        }

        fn flush_all(&mut self) {
            self.tlb.clear();
            self.order.clear();
        }

        fn flush_page(&mut self, vpn: Vpn) {
            if let Some((_, tick)) = self.tlb.remove(&vpn) {
                self.order.remove(&tick);
            }
        }

        fn stamp(&mut self, vpn: Vpn, e: TlbEntry) {
            self.tick += 1;
            self.order.insert(self.tick, vpn);
            self.tlb.insert(vpn, (e, self.tick));
        }

        fn translate(
            &mut self,
            phys: &PhysMem,
            va: VAddr,
            access: AccessKind,
            user: bool,
        ) -> Result<PAddr, TranslateError> {
            let vpn = va.vpn();
            let entry = if let Some(&(e, old_tick)) = self.tlb.get(&vpn) {
                self.stats.hits[access.index()] += 1;
                self.order.remove(&old_tick);
                self.stamp(vpn, e);
                e
            } else {
                self.stats.misses[access.index()] += 1;
                let e = walk(self.root, phys, va)?;
                if self.tlb.len() >= self.capacity {
                    if let Some((_, oldest)) = self.order.pop_first() {
                        self.tlb.remove(&oldest);
                        self.stats.evictions += 1;
                    }
                }
                self.stamp(vpn, e);
                e
            };
            permit(entry, va, access, user)
        }

        fn resident(&self) -> Vec<Vpn> {
            self.order.values().copied().collect()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The recency-list TLB is observationally identical to the
        /// tick/`BTreeMap` reference: same translation results, same
        /// statistics and the same resident vpns in the same recency order
        /// (hence the same LRU victims) after every step of a random mix of
        /// translations (R/W/X, user/kernel, mapped/unmapped/read-only/
        /// kernel-only/NX pages), page and full flushes, root switches and
        /// statistics resets, at TLB capacities 1–8.
        #[test]
        fn recency_list_tlb_matches_tick_reference(
            capacity in 1usize..9,
            ops in proptest::collection::vec((0u8..16, 0u64..24, 0u64..4096), 1..160),
        ) {
            let mut phys = PhysMem::new(512);
            let roots = [phys.alloc_frame().unwrap(), phys.alloc_frame().unwrap()];
            // Pages 0..20 mapped under both roots with mixed permissions
            // (root 1 maps them to other frames); 20..24 stay unmapped.
            for (r, &root) in roots.iter().enumerate() {
                for page in 0..20u64 {
                    let frame = phys.alloc_frame().unwrap();
                    let flags = match (page + r as u64) % 4 {
                        0 => PteFlags::user_rw(),
                        1 => PteFlags::kernel_rw(),
                        2 => PteFlags::user_code(),
                        _ => PteFlags::user_rw(),
                    };
                    let mut pte = Pte::new(frame, flags);
                    if page % 5 == 4 {
                        pte = pte.read_only();
                    }
                    map_page_raw(&mut phys, root, VAddr(0x40_0000 + page * PAGE_SIZE), pte)
                        .unwrap();
                }
            }
            let mut fast = Mmu::with_tlb(capacity);
            let mut oracle = RefMmu::new(capacity);
            for (op, page, off) in ops {
                let va = VAddr(0x40_0000 + page * PAGE_SIZE + off);
                match op {
                    0..=11 => {
                        let access = [AccessKind::Read, AccessKind::Write, AccessKind::Execute]
                            [op as usize % 3];
                        let user = op >= 6;
                        proptest::prop_assert_eq!(
                            fast.translate(&phys, va, access, user),
                            oracle.translate(&phys, va, access, user)
                        );
                    }
                    12 => {
                        fast.flush_page(va.vpn());
                        oracle.flush_page(va.vpn());
                    }
                    13 => {
                        fast.flush_all();
                        oracle.flush_all();
                    }
                    14 => {
                        let root = roots[page as usize % 2];
                        fast.set_root(root);
                        oracle.root = Some(root);
                        oracle.flush_all();
                    }
                    _ => {
                        fast.reset_stats();
                        oracle.stats = TlbStats::default();
                    }
                }
                proptest::prop_assert_eq!(fast.stats(), oracle.stats);
                proptest::prop_assert_eq!(fast.resident(), oracle.resident());
            }
        }
    }
}
