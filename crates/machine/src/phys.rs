//! Simulated physical memory.
//!
//! A fixed-size pool of 4 KiB frames with a free list. The frame table is
//! dense — one slot per page frame number, so every access is an index, not
//! a hash lookup — but backing storage appears only when a frame is
//! allocated, so large machines are cheap to construct. Freed buffers are
//! kept for reuse and handed out again zero-filled. All kernel, user,
//! ghost and page-table data lives here — page tables are real bytes in
//! these frames, walked by the MMU.
//!
//! Re-zeroing is lazy: each frame carries a *write mark*, how far writes
//! have reached since the frame was last zeroed. Every byte at or past the
//! mark is zero, so zeroing a frame (on `zero_frame`, or when a recycled
//! buffer is handed out) fills only the prefix below it. A TX staging frame
//! that held one ~600-byte packet costs a 600-byte fill, not 4 KiB. The
//! model charges the same cycles either way; this is host time only.

use crate::layout::{Pfn, PAGE_SIZE};

/// Physical memory: a dense frame table with lazily created backing.
#[derive(Debug)]
pub struct PhysMem {
    /// Backing storage per pfn; `None` while the frame is free.
    frames: Vec<Option<Box<[u8]>>>,
    /// Write mark per pfn (see the module docs): bytes at or past it are
    /// zero.
    marks: Vec<u16>,
    free: Vec<u64>,
    /// Buffers of freed frames with their write marks, reused by
    /// `alloc_frame` (which zeroes the marked prefix) instead of going back
    /// to the host allocator.
    recycled: Vec<(Box<[u8]>, u16)>,
    total_frames: usize,
}

impl PhysMem {
    /// Creates a memory of `total_frames` frames, all free.
    pub fn new(total_frames: usize) -> Self {
        // Hand out ascending frame numbers; keep the free list as a stack of
        // descending numbers so allocation order is deterministic.
        let free = (0..total_frames as u64).rev().collect();
        PhysMem {
            frames: vec![None; total_frames],
            marks: vec![0; total_frames],
            free,
            recycled: Vec::new(),
            total_frames,
        }
    }

    /// Total frame count.
    pub fn total_frames(&self) -> usize {
        self.total_frames
    }

    /// Number of frames currently free.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Allocates a zeroed frame, or `None` if memory is exhausted.
    pub fn alloc_frame(&mut self) -> Option<Pfn> {
        let pfn = self.free.pop()?;
        let buf = match self.recycled.pop() {
            Some((mut buf, mark)) => {
                buf[..usize::from(mark)].fill(0);
                buf
            }
            None => vec![0u8; PAGE_SIZE as usize].into_boxed_slice(),
        };
        self.frames[pfn as usize] = Some(buf);
        self.marks[pfn as usize] = 0;
        Some(Pfn(pfn))
    }

    /// Returns a frame to the free pool.
    ///
    /// # Panics
    ///
    /// Panics if the frame was not allocated (double free).
    pub fn free_frame(&mut self, pfn: Pfn) {
        let buf = self.frames.get_mut(pfn.0 as usize).and_then(Option::take);
        let buf = buf.unwrap_or_else(|| panic!("double free of {pfn}"));
        self.recycled.push((buf, self.marks[pfn.0 as usize]));
        self.free.push(pfn.0);
    }

    /// Whether `pfn` is currently allocated.
    #[inline]
    pub fn is_allocated(&self, pfn: Pfn) -> bool {
        self.frames.get(pfn.0 as usize).is_some_and(Option::is_some)
    }

    /// Fills an allocated frame with zeros (used by `allocgm`/`freegm`,
    /// which must not leak prior contents in either direction).
    pub fn zero_frame(&mut self, pfn: Pfn) {
        let (f, mark) = self.frame_mut(pfn);
        f[..usize::from(std::mem::take(mark))].fill(0);
    }

    #[inline]
    fn frame(&self, pfn: Pfn) -> &[u8] {
        self.frames
            .get(pfn.0 as usize)
            .and_then(Option::as_deref)
            .unwrap_or_else(|| panic!("access to unallocated {pfn}"))
    }

    /// The frame's bytes and its write mark; the caller raises the mark
    /// over whatever it writes.
    #[inline]
    fn frame_mut(&mut self, pfn: Pfn) -> (&mut [u8], &mut u16) {
        let i = pfn.0 as usize;
        let f = self
            .frames
            .get_mut(i)
            .and_then(Option::as_deref_mut)
            .unwrap_or_else(|| panic!("access to unallocated {pfn}"));
        (f, &mut self.marks[i])
    }

    /// Borrows `len` bytes starting at frame `pfn` offset `off`, so a
    /// caller that wants the bytes elsewhere copies them once.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the frame boundary or the frame is
    /// unallocated — physical accesses are always page-local in this model.
    #[inline]
    pub fn bytes(&self, pfn: Pfn, off: u64, len: usize) -> &[u8] {
        let off = off as usize;
        assert!(off + len <= PAGE_SIZE as usize, "frame-crossing read");
        &self.frame(pfn)[off..off + len]
    }

    /// Reads `buf.len()` bytes starting at frame `pfn` offset `off`.
    ///
    /// # Panics
    ///
    /// As [`Self::bytes`].
    pub fn read_bytes(&self, pfn: Pfn, off: u64, buf: &mut [u8]) {
        buf.copy_from_slice(self.bytes(pfn, off, buf.len()));
    }

    /// Writes `buf` starting at frame `pfn` offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the frame boundary or the frame is
    /// unallocated.
    pub fn write_bytes(&mut self, pfn: Pfn, off: u64, buf: &[u8]) {
        let off = off as usize;
        let end = off + buf.len();
        assert!(end <= PAGE_SIZE as usize, "frame-crossing write");
        let (f, mark) = self.frame_mut(pfn);
        f[off..end].copy_from_slice(buf);
        *mark = (*mark).max(end as u16);
    }

    /// Reads a little-endian u64 at frame offset `off`.
    pub fn read_u64(&self, pfn: Pfn, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(pfn, off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian u64 at frame offset `off`.
    pub fn write_u64(&mut self, pfn: Pfn, off: u64, v: u64) {
        self.write_bytes(pfn, off, &v.to_le_bytes());
    }

    /// Overwrites frame `dst` with frame `src`'s contents, with no
    /// intermediate buffer. Only the bytes below the write marks move:
    /// `dst` takes `src`'s prefix and mark, and its own stale bytes past
    /// that mark are zeroed.
    ///
    /// # Panics
    ///
    /// Panics if either frame is unallocated.
    pub fn copy_frame(&mut self, src: Pfn, dst: Pfn) {
        let data = self
            .frames
            .get_mut(src.0 as usize)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("access to unallocated {src}"));
        let mark = self.marks[src.0 as usize];
        if src != dst {
            let (f, dst_mark) = self.frame_mut(dst);
            let (m, old) = (usize::from(mark), usize::from(*dst_mark));
            f[..m].copy_from_slice(&data[..m]);
            f[m..old.max(m)].fill(0);
            *dst_mark = mark;
        }
        self.frames[src.0 as usize] = Some(data);
    }

    /// Copies a whole frame's contents out.
    pub fn read_frame(&self, pfn: Pfn) -> Vec<u8> {
        self.frame(pfn).to_vec()
    }

    /// Overwrites a whole frame.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one page.
    pub fn write_frame(&mut self, pfn: Pfn, data: &[u8]) {
        assert_eq!(
            data.len(),
            PAGE_SIZE as usize,
            "frame write must be page-sized"
        );
        let (f, mark) = self.frame_mut(pfn);
        f.copy_from_slice(data);
        *mark = PAGE_SIZE as u16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl PhysMem {
        /// The write mark of an allocated frame.
        fn mark(&self, pfn: Pfn) -> u16 {
            assert!(self.is_allocated(pfn));
            self.marks[pfn.0 as usize]
        }
    }

    /// The replaced eager allocator, kept as the lazy-zeroing oracle: same
    /// free-list order, but every handout and every `zero_frame` fills the
    /// whole page.
    struct EagerPhys {
        frames: Vec<Option<Box<[u8]>>>,
        free: Vec<u64>,
        recycled: Vec<Box<[u8]>>,
    }

    impl EagerPhys {
        fn new(total_frames: usize) -> Self {
            EagerPhys {
                frames: vec![None; total_frames],
                free: (0..total_frames as u64).rev().collect(),
                recycled: Vec::new(),
            }
        }

        fn alloc_frame(&mut self) -> Option<Pfn> {
            let pfn = self.free.pop()?;
            let mut buf = self
                .recycled
                .pop()
                .unwrap_or_else(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
            buf.fill(0);
            self.frames[pfn as usize] = Some(buf);
            Some(Pfn(pfn))
        }

        fn free_frame(&mut self, pfn: Pfn) {
            let buf = self.frames[pfn.0 as usize].take().expect("allocated");
            self.recycled.push(buf);
            self.free.push(pfn.0);
        }

        fn frame(&mut self, pfn: Pfn) -> &mut [u8] {
            self.frames[pfn.0 as usize]
                .as_deref_mut()
                .expect("allocated")
        }
    }

    proptest! {
        /// Lazy re-zeroing is invisible: over random alloc / write /
        /// whole-frame write / zero / frame copy / free sequences on a
        /// small pool, every allocated frame reads exactly as under eager
        /// zeroing, and each write mark is exactly the furthest write end
        /// since the frame was last handed out or zeroed (a copied frame
        /// takes its source's mark).
        #[test]
        fn lazy_zeroing_matches_eager_oracle(
            ops in proptest::collection::vec(
                (0u8..11, any::<u64>(), 0u64..PAGE_SIZE, 0usize..300, 1u8..255),
                1..160,
            ),
        ) {
            let mut lazy = PhysMem::new(4);
            let mut eager = EagerPhys::new(4);
            let mut held: Vec<Pfn> = Vec::new();
            let mut want_mark = [0u16; 4];
            for (op, pick, off, len, byte) in ops {
                let target = (!held.is_empty()).then(|| held[(pick % held.len() as u64) as usize]);
                match (op, target) {
                    (0..=2, _) | (_, None) => {
                        let got = lazy.alloc_frame();
                        prop_assert_eq!(got, eager.alloc_frame());
                        if let Some(f) = got {
                            held.push(f);
                            want_mark[f.0 as usize] = 0;
                        }
                    }
                    (3..=5, Some(f)) => {
                        let len = len.min((PAGE_SIZE - off) as usize);
                        let data = vec![byte; len];
                        lazy.write_bytes(f, off, &data);
                        eager.frame(f)[off as usize..off as usize + len].copy_from_slice(&data);
                        let end = (off as usize + len) as u16;
                        want_mark[f.0 as usize] = want_mark[f.0 as usize].max(end);
                    }
                    (6, Some(f)) => {
                        let page = vec![byte; PAGE_SIZE as usize];
                        lazy.write_frame(f, &page);
                        eager.frame(f).copy_from_slice(&page);
                        want_mark[f.0 as usize] = PAGE_SIZE as u16;
                    }
                    (7, Some(f)) => {
                        lazy.zero_frame(f);
                        eager.frame(f).fill(0);
                        want_mark[f.0 as usize] = 0;
                    }
                    (8, Some(f)) => {
                        let src = held[usize::from(byte) % held.len()];
                        lazy.copy_frame(src, f);
                        let page = eager.frame(src).to_vec();
                        eager.frame(f).copy_from_slice(&page);
                        want_mark[f.0 as usize] = want_mark[src.0 as usize];
                    }
                    (_, Some(f)) => {
                        held.retain(|&h| h != f);
                        lazy.free_frame(f);
                        eager.free_frame(f);
                    }
                }
                for &f in &held {
                    prop_assert_eq!(lazy.bytes(f, 0, PAGE_SIZE as usize), &*eager.frame(f));
                    prop_assert_eq!(lazy.mark(f), want_mark[f.0 as usize]);
                }
            }
        }
    }

    #[test]
    fn zero_frame_resets_the_write_mark() {
        let mut m = PhysMem::new(1);
        let a = m.alloc_frame().unwrap();
        m.write_bytes(a, 100, &[7; 20]);
        assert_eq!(m.mark(a), 120);
        m.zero_frame(a);
        assert_eq!(m.mark(a), 0);
        m.write_frame(a, &[1; PAGE_SIZE as usize]);
        assert_eq!(m.mark(a), PAGE_SIZE as u16);
    }

    #[test]
    fn alloc_free_cycle() {
        let mut m = PhysMem::new(4);
        let a = m.alloc_frame().unwrap();
        let b = m.alloc_frame().unwrap();
        assert_ne!(a, b);
        assert_eq!(m.free_frames(), 2);
        m.free_frame(a);
        assert_eq!(m.free_frames(), 3);
        assert!(!m.is_allocated(a));
        assert!(m.is_allocated(b));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut m = PhysMem::new(1);
        assert!(m.alloc_frame().is_some());
        assert!(m.alloc_frame().is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_frame().unwrap();
        m.free_frame(a);
        m.free_frame(a);
    }

    #[test]
    fn recycled_frame_reads_all_zeros() {
        let mut m = PhysMem::new(1);
        let a = m.alloc_frame().unwrap();
        let pattern: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8 + 1).collect();
        m.write_frame(a, &pattern);
        m.free_frame(a);
        let b = m.alloc_frame().unwrap();
        assert_eq!(a, b, "the only frame comes back");
        assert!(m.read_frame(b).iter().all(|&x| x == 0), "no stale bytes");
    }

    #[test]
    #[should_panic(expected = "access to unallocated")]
    fn access_after_free_panics() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_frame().unwrap();
        m.free_frame(a);
        m.read_u64(a, 0);
    }

    #[test]
    fn out_of_range_frame_is_not_allocated() {
        let m = PhysMem::new(4);
        assert!(!m.is_allocated(Pfn(m.total_frames() as u64)));
        assert!(!m.is_allocated(Pfn(u64::MAX)));
    }

    #[test]
    fn frames_start_zeroed_and_rezero() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_frame().unwrap();
        assert_eq!(m.read_u64(a, 0), 0);
        m.write_u64(a, 8, 42);
        m.zero_frame(a);
        assert_eq!(m.read_u64(a, 8), 0);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_frame().unwrap();
        m.write_bytes(a, 100, b"hello");
        let mut buf = [0u8; 5];
        m.read_bytes(a, 100, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    #[should_panic(expected = "frame-crossing")]
    fn cross_frame_access_panics() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_frame().unwrap();
        m.write_bytes(a, PAGE_SIZE - 2, &[1, 2, 3]);
    }

    #[test]
    fn bytes_borrows_what_read_bytes_copies() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_frame().unwrap();
        m.write_bytes(a, PAGE_SIZE - 5, b"tail!");
        assert_eq!(m.bytes(a, PAGE_SIZE - 5, 5), b"tail!");
        assert!(m.bytes(a, PAGE_SIZE, 0).is_empty(), "empty view at the end");
    }

    #[test]
    #[should_panic(expected = "frame-crossing read")]
    fn bytes_crossing_the_frame_panics() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_frame().unwrap();
        m.bytes(a, PAGE_SIZE - 2, 3);
    }

    #[test]
    #[should_panic(expected = "access to unallocated")]
    fn bytes_of_an_unallocated_frame_panics() {
        let m = PhysMem::new(2);
        m.bytes(Pfn(1), 0, 1);
    }

    #[test]
    fn whole_frame_io() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_frame().unwrap();
        let data = vec![7u8; PAGE_SIZE as usize];
        m.write_frame(a, &data);
        assert_eq!(m.read_frame(a), data);
    }
}
