//! vgfs — a small UFS-flavoured filesystem on the simulated disk.
//!
//! Real on-disk layout (4 KiB blocks): superblock, inode table, allocation
//! bitmap, data blocks. Directories are ordinary files containing serialized
//! entries. All block I/O goes through a write-back buffer cache; cache
//! misses DMA through the IOMMU exactly like a real driver, so filesystem
//! benchmarks (LMBench file create/delete, Postmark) exercise the same
//! hardware paths the paper measured.
//!
//! The OS has raw access to the platter (the paper's threat model), so
//! nothing here is confidential — applications encrypt file *contents*
//! themselves (see `vg-runtime`).
//!
//! # Simulated contract vs host fast paths
//!
//! What the simulation observes is the [`FsWork`] each call returns plus the
//! buffer-cache state (hits, misses, evictions, LRU ticks, dirty blocks).
//! Those are the contract; how the host computes them is free to change:
//!
//! - Directories are read into one retained buffer and answered from a
//!   name index per directory, keyed by the directory's bytes: lookup and
//!   create compare the image just read with the indexed one and then ask
//!   the index; unlink walks only up to its record. Create appends one
//!   record, unlink cuts one, and the image goes back through the same
//!   truncate+write. A directory the index cannot cover exactly (holes,
//!   non-UTF-8 names, a truncated tail) is walked record by record. Only
//!   `readdir` builds owned entries ([`VgFs::readdir`]).
//! - Inode allocation charges per inode but touches per block: one cache
//!   access per inode-table block, then the remaining per-inode charges and
//!   LRU ticks in bulk, exactly as one access per inode would have.
//! - The buffer cache is one map; each block carries its own LRU tick.

use std::collections::HashMap;
use std::ops::Range;
use vg_machine::layout::PAGE_SIZE;
use vg_machine::IntMap;

/// Block size (= page size).
pub const BLOCK_SIZE: usize = PAGE_SIZE as usize;
/// Bytes per on-disk inode.
pub const INODE_SIZE: usize = 128;
/// Inodes per block.
pub const INODES_PER_BLOCK: usize = BLOCK_SIZE / INODE_SIZE;
/// Direct block pointers per inode.
pub const NDIRECT: usize = 10;
/// Pointers in an indirect block.
pub const NINDIRECT: usize = BLOCK_SIZE / 4;
/// Maximum file size in bytes.
pub const MAX_FILE_BYTES: u64 = ((NDIRECT + NINDIRECT) * BLOCK_SIZE) as u64;
/// Maximum filename length.
pub const MAX_NAME: usize = 60;

/// Inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ino(pub u32);

/// Root directory inode.
pub const ROOT_INO: Ino = Ino(1);

/// What an inode is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InodeKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

/// Filesystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path component not found.
    NotFound,
    /// Entry already exists.
    Exists,
    /// Out of inodes or data blocks.
    NoSpace,
    /// Not a directory (when a directory was required) or vice versa.
    WrongKind,
    /// Name too long or otherwise invalid.
    BadName,
    /// File would exceed the maximum size.
    TooBig,
    /// Directory not empty.
    NotEmpty,
    /// A call that changes a regular file's data found a directory.
    IsDir,
    /// The backing device failed the transfer (after the driver exhausted
    /// its retries). Surfaces as `EIO` at the syscall boundary.
    Io,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FsError::NotFound => "no such file or directory",
            FsError::Exists => "file exists",
            FsError::NoSpace => "no space left on device",
            FsError::WrongKind => "is a directory / not a directory",
            FsError::BadName => "invalid file name",
            FsError::TooBig => "file too large",
            FsError::NotEmpty => "directory not empty",
            FsError::IsDir => "is a directory",
            FsError::Io => "I/O error",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FsError {}

#[derive(Debug, Clone, Default)]
struct DiskInode {
    kind: u16, // 0 free, 1 file, 2 dir
    nlink: u16,
    size: u64,
    direct: [u32; NDIRECT],
    indirect: u32,
}

impl DiskInode {
    fn encode(&self, out: &mut [u8]) {
        out[..2].copy_from_slice(&self.kind.to_le_bytes());
        out[2..4].copy_from_slice(&self.nlink.to_le_bytes());
        out[8..16].copy_from_slice(&self.size.to_le_bytes());
        for (i, d) in self.direct.iter().enumerate() {
            out[16 + 4 * i..20 + 4 * i].copy_from_slice(&d.to_le_bytes());
        }
        out[16 + 4 * NDIRECT..20 + 4 * NDIRECT].copy_from_slice(&self.indirect.to_le_bytes());
    }

    fn decode(data: &[u8]) -> Self {
        let mut inode = DiskInode {
            kind: u16::from_le_bytes([data[0], data[1]]),
            nlink: u16::from_le_bytes([data[2], data[3]]),
            size: u64::from_le_bytes(data[8..16].try_into().unwrap()),
            ..Default::default()
        };
        for i in 0..NDIRECT {
            inode.direct[i] = u32::from_le_bytes(data[16 + 4 * i..20 + 4 * i].try_into().unwrap());
        }
        inode.indirect =
            u32::from_le_bytes(data[16 + 4 * NDIRECT..20 + 4 * NDIRECT].try_into().unwrap());
        inode
    }
}

/// Accounting for one filesystem call, converted into cycle charges by the
/// kernel (`vg-kernel::mem::kwork`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsWork {
    /// Abstract instrumentable kernel memory accesses performed.
    pub accesses: u64,
    /// Function returns / indirect calls performed.
    pub branches: u64,
    /// Buffer-cache misses that went to disk.
    pub disk_reads: u64,
    /// Dirty blocks written to disk.
    pub disk_writes: u64,
    /// Bytes memcpy'd between cache and caller buffers.
    pub bytes_copied: u64,
}

impl FsWork {
    fn acc(&mut self, n: u64) {
        self.accesses += n;
        self.branches += n / 16 + 1;
    }
}

#[derive(Debug)]
struct CachedBlock {
    data: Vec<u8>,
    dirty: bool,
    /// Clock value of the last access; unique across the cache, so the
    /// least recently used block is the one with the smallest tick.
    tick: u64,
}

/// Backing store abstraction so the filesystem can be unit-tested against a
/// plain in-memory device and wired to the machine's DMA disk by the kernel.
pub trait BlockDev {
    /// Reads block `bno` (4 KiB).
    ///
    /// # Errors
    ///
    /// [`FsError::Io`] when the device fails the transfer. Drivers with
    /// retry logic (the kernel's DMA disk) exhaust their retries *before*
    /// returning this; the filesystem treats it as final.
    fn read_block(&mut self, bno: u32) -> Result<Vec<u8>, FsError>;
    /// Writes block `bno`.
    ///
    /// # Errors
    ///
    /// [`FsError::Io`] when the device fails the transfer.
    fn write_block(&mut self, bno: u32, data: &[u8]) -> Result<(), FsError>;
    /// Device capacity in blocks.
    fn capacity(&self) -> u32;
}

/// A trivial in-memory block device for tests.
#[derive(Debug)]
pub struct MemDisk {
    blocks: Vec<Option<Vec<u8>>>,
}

impl MemDisk {
    /// A zeroed device of `n` blocks.
    pub fn new(n: u32) -> Self {
        MemDisk {
            blocks: vec![None; n as usize],
        }
    }
}

impl BlockDev for MemDisk {
    fn read_block(&mut self, bno: u32) -> Result<Vec<u8>, FsError> {
        Ok(self.blocks[bno as usize]
            .clone()
            .unwrap_or_else(|| vec![0; BLOCK_SIZE]))
    }

    fn write_block(&mut self, bno: u32, data: &[u8]) -> Result<(), FsError> {
        self.blocks[bno as usize] = Some(data.to_vec());
        Ok(())
    }

    fn capacity(&self) -> u32 {
        self.blocks.len() as u32
    }
}

/// The filesystem: superblock geometry plus the buffer cache.
///
/// All operations take the backing [`BlockDev`] explicitly so the kernel can
/// pass a device that charges DMA costs, and return an [`FsWork`] record of
/// the work performed.
#[derive(Debug)]
pub struct VgFs {
    ninodes: u32,
    inode_blocks: u32,
    bitmap_blocks: u32,
    nblocks: u32,
    cache: IntMap<u32, CachedBlock>,
    cache_cap: usize,
    clock: u64, // LRU tick
    /// The buffer every directory image is read into, kept across calls.
    dir_buf: Vec<u8>,
    /// Name indexes by directory inode (see [`DirMemo`]).
    memos: IntMap<u32, DirMemo>,
}

/// The name index of one directory, exact for one record image: the one it
/// holds. Callers compare the image they just read with `image` and use
/// `names` only when the two are equal byte for byte, so nothing that
/// changes a directory behind the index (a raw `write` or truncate of its
/// inode, a failed rewrite, a device fault) needs to invalidate it.
///
/// Only a canonical image is indexed ([`is_canonical`]): every record
/// live, every name valid UTF-8, no truncated tail. Lossy decoding is then
/// the identity, so a byte-equal name is exactly [`find_dirent`]'s match.
#[derive(Debug, Default)]
struct DirMemo {
    /// The canonical image `names` indexes.
    image: Vec<u8>,
    /// The inode of the first record of each name.
    names: HashMap<Box<[u8]>, Ino>,
    /// Whether some record repeats an earlier record's name. vgfs never
    /// writes one; only a directory rewritten with hostile bytes has it.
    shadowed: bool,
}

impl DirMemo {
    /// Indexes `raw`, which must be canonical.
    fn rebuild(&mut self, raw: &[u8]) {
        self.image.clear();
        self.image.extend_from_slice(raw);
        self.names.clear();
        self.shadowed = false;
        for (_, ino, name) in dir_records(raw) {
            if self.names.contains_key(name) {
                self.shadowed = true;
            } else {
                self.names.insert(name.into(), Ino(ino));
            }
        }
    }

    /// Appends a record for a name the image does not hold.
    fn push(&mut self, ino: Ino, name: &str) {
        push_dirent(&mut self.image, ino, name);
        self.names.insert(name.as_bytes().into(), ino);
    }

    /// Cuts the record at `rec`, the first one named `name`. A later record
    /// of the same name, if any, becomes the first.
    fn cut(&mut self, rec: Range<usize>, name: &str) {
        let at = rec.start;
        self.image.drain(rec);
        self.names.remove(name.as_bytes());
        if self.shadowed {
            let next = dir_records(&self.image[at..]).find(|&(_, _, n)| n == name.as_bytes());
            if let Some((_, ino, _)) = next {
                self.names.insert(name.as_bytes().into(), Ino(ino));
            }
        }
    }
}

impl VgFs {
    /// Formats a fresh filesystem on `dev` with `ninodes` inodes.
    pub fn mkfs(dev: &mut dyn BlockDev, ninodes: u32) -> Self {
        let nblocks = dev.capacity();
        let inode_blocks = ninodes.div_ceil(INODES_PER_BLOCK as u32);
        let bitmap_blocks = nblocks.div_ceil((BLOCK_SIZE * 8) as u32);
        let mut fs = VgFs {
            ninodes,
            inode_blocks,
            bitmap_blocks,
            nblocks,
            cache: IntMap::default(),
            cache_cap: 4096,
            clock: 0,
            dir_buf: Vec::new(),
            memos: IntMap::default(),
        };
        let mut w = FsWork::default();
        // mkfs runs at boot, before any fault plan can be armed, so the
        // device cannot fail here; a failure would mean a broken harness.
        let mut fmt = || -> Result<(), FsError> {
            // Mark metadata blocks used in the bitmap.
            let meta = 1 + inode_blocks + bitmap_blocks;
            for b in 0..meta {
                fs.bitmap_set(dev, b, true, &mut w)?;
            }
            // Root directory.
            let root = DiskInode {
                kind: 2,
                nlink: 1,
                ..Default::default()
            };
            fs.write_inode(dev, ROOT_INO, &root, &mut w)?;
            fs.sync(dev)?;
            Ok(())
        };
        fmt().expect("mkfs: boot-time device cannot fail");
        fs
    }

    /// Mounts an existing filesystem (geometry must match the mkfs call).
    pub fn mount(dev: &mut dyn BlockDev, ninodes: u32) -> Self {
        let nblocks = dev.capacity();
        VgFs {
            ninodes,
            inode_blocks: ninodes.div_ceil(INODES_PER_BLOCK as u32),
            bitmap_blocks: nblocks.div_ceil((BLOCK_SIZE * 8) as u32),
            nblocks,
            cache: IntMap::default(),
            cache_cap: 4096,
            clock: 0,
            dir_buf: Vec::new(),
            memos: IntMap::default(),
        }
    }

    fn data_start(&self) -> u32 {
        1 + self.inode_blocks + self.bitmap_blocks
    }

    // ---- buffer cache ----------------------------------------------------

    fn with_block<R>(
        &mut self,
        dev: &mut dyn BlockDev,
        bno: u32,
        w: &mut FsWork,
        f: impl FnOnce(&mut CachedBlock) -> R,
    ) -> Result<R, FsError> {
        self.clock += 1;
        let tick = self.clock;
        if let Some(blk) = self.cache.get_mut(&bno) {
            blk.tick = tick;
            w.acc(8);
            return Ok(f(blk));
        }
        if self.cache.len() >= self.cache_cap {
            self.evict_one(dev, w)?;
        }
        w.disk_reads += 1;
        let data = dev.read_block(bno)?;
        w.acc(8);
        let blk = self.cache.entry(bno).or_insert(CachedBlock {
            data,
            dirty: false,
            tick,
        });
        Ok(f(blk))
    }

    /// Charges `n` further back-to-back accesses to the cached block `bno`:
    /// what `n` more `with_block` hits on it would book, without the lookups.
    fn touch_again(&mut self, bno: u32, n: u64, w: &mut FsWork) {
        self.clock += n;
        w.accesses += 8 * n;
        w.branches += n; // `acc(8)` books one branch per access
        self.cache.get_mut(&bno).expect("just accessed").tick = self.clock;
    }

    fn evict_one(&mut self, dev: &mut dyn BlockDev, w: &mut FsWork) -> Result<(), FsError> {
        let Some((&victim, blk)) = self.cache.iter().min_by_key(|(_, b)| b.tick) else {
            return Ok(());
        };
        if blk.dirty {
            w.disk_writes += 1;
            // On failure the victim stays cached (and dirty): no data is
            // lost, the cache just runs over capacity until the device
            // recovers.
            dev.write_block(victim, &blk.data)?;
        }
        self.cache.remove(&victim);
        Ok(())
    }

    /// Flushes all dirty blocks (fsync / unmount), in ascending block
    /// order so the device sees a deterministic write sequence. Returns
    /// blocks written.
    ///
    /// # Errors
    ///
    /// [`FsError::Io`] if any block failed to write; failed blocks remain
    /// cached and dirty, so a later sync can retry them.
    pub fn sync(&mut self, dev: &mut dyn BlockDev) -> Result<u64, FsError> {
        let mut written = 0;
        let mut failed = false;
        let mut dirty: Vec<u32> = self
            .cache
            .iter()
            .filter(|(_, b)| b.dirty)
            .map(|(&bno, _)| bno)
            .collect();
        dirty.sort_unstable();
        for bno in dirty {
            let blk = self.cache.get_mut(&bno).expect("collected from cache");
            match dev.write_block(bno, &blk.data) {
                Ok(()) => {
                    blk.dirty = false;
                    written += 1;
                }
                Err(_) => failed = true,
            }
        }
        if failed {
            return Err(FsError::Io);
        }
        Ok(written)
    }

    /// Number of blocks currently cached.
    pub fn cached_blocks(&self) -> usize {
        self.cache.len()
    }

    // ---- bitmap ----------------------------------------------------------

    fn bitmap_set(
        &mut self,
        dev: &mut dyn BlockDev,
        bno: u32,
        used: bool,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        let bb = 1 + self.inode_blocks + bno / (BLOCK_SIZE as u32 * 8);
        let idx = (bno % (BLOCK_SIZE as u32 * 8)) as usize;
        self.with_block(dev, bb, w, |blk| {
            if used {
                blk.data[idx / 8] |= 1 << (idx % 8);
            } else {
                blk.data[idx / 8] &= !(1 << (idx % 8));
            }
            blk.dirty = true;
        })
    }

    fn alloc_block(&mut self, dev: &mut dyn BlockDev, w: &mut FsWork) -> Result<u32, FsError> {
        let start = self.data_start();
        for bb in 0..self.bitmap_blocks {
            let base = bb * BLOCK_SIZE as u32 * 8;
            let found = self.with_block(dev, 1 + self.inode_blocks + bb, w, |blk| {
                for (byte_i, byte) in blk.data.iter_mut().enumerate() {
                    if *byte != 0xff {
                        let bit = byte.trailing_ones() as usize;
                        let bno = base + (byte_i * 8 + bit) as u32;
                        return Some((bno, byte_i, bit));
                    }
                }
                None
            })?;
            if let Some((bno, byte_i, bit)) = found {
                if bno < start || bno >= self.nblocks {
                    // Bits below data_start are pre-marked; a bit past the
                    // device end means we are full.
                    if bno >= self.nblocks {
                        return Err(FsError::NoSpace);
                    }
                    continue;
                }
                self.with_block(dev, 1 + self.inode_blocks + bb, w, |blk| {
                    blk.data[byte_i] |= 1 << bit;
                    blk.dirty = true;
                })?;
                // Fresh blocks must read as zeros.
                self.with_block(dev, bno, w, |blk| {
                    blk.data.fill(0);
                    blk.dirty = true;
                })?;
                return Ok(bno);
            }
        }
        Err(FsError::NoSpace)
    }

    fn free_block(
        &mut self,
        dev: &mut dyn BlockDev,
        bno: u32,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        self.bitmap_set(dev, bno, false, w)
    }

    // ---- inodes ----------------------------------------------------------

    fn inode_block(&self, ino: Ino) -> (u32, usize) {
        (
            1 + ino.0 / INODES_PER_BLOCK as u32,
            (ino.0 as usize % INODES_PER_BLOCK) * INODE_SIZE,
        )
    }

    fn read_inode(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        w: &mut FsWork,
    ) -> Result<DiskInode, FsError> {
        let (bno, off) = self.inode_block(ino);
        self.with_block(dev, bno, w, |blk| {
            DiskInode::decode(&blk.data[off..off + INODE_SIZE])
        })
    }

    fn write_inode(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        inode: &DiskInode,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        let (bno, off) = self.inode_block(ino);
        self.with_block(dev, bno, w, |blk| {
            inode.encode(&mut blk.data[off..off + INODE_SIZE]);
            blk.dirty = true;
        })
    }

    /// Allocates the lowest free inode. Each inode-table block is touched
    /// once and scanned in place; every inode scanned is still charged (and
    /// ticks the LRU clock) as its own `read_inode` access.
    fn alloc_inode(
        &mut self,
        dev: &mut dyn BlockDev,
        kind: InodeKind,
        w: &mut FsWork,
    ) -> Result<Ino, FsError> {
        let per_block = INODES_PER_BLOCK as u32;
        let mut first = 1;
        while first < self.ninodes {
            let end = ((first / per_block + 1) * per_block).min(self.ninodes);
            let (bno, off) = self.inode_block(Ino(first));
            let slots = (end - first) as usize;
            let free = self.with_block(dev, bno, w, |blk| {
                blk.data[off..off + slots * INODE_SIZE]
                    .chunks_exact(INODE_SIZE)
                    .position(|inode| inode[..2] == [0, 0]) // kind == 0
            })?;
            let scanned = free.map_or(slots, |i| i + 1);
            self.touch_again(bno, scanned as u64 - 1, w);
            if let Some(i) = free {
                let ino = Ino(first + i as u32);
                let fresh = DiskInode {
                    kind: if kind == InodeKind::Dir { 2 } else { 1 },
                    nlink: 1,
                    ..Default::default()
                };
                self.write_inode(dev, ino, &fresh, w)?;
                return Ok(ino);
            }
            first = end;
        }
        Err(FsError::NoSpace)
    }

    /// Maps a file byte offset to its data block, allocating if `alloc`.
    fn bmap(
        &mut self,
        dev: &mut dyn BlockDev,
        inode: &mut DiskInode,
        ino: Ino,
        fbn: usize,
        alloc: bool,
        w: &mut FsWork,
    ) -> Result<Option<u32>, FsError> {
        if fbn < NDIRECT {
            if inode.direct[fbn] == 0 {
                if !alloc {
                    return Ok(None);
                }
                inode.direct[fbn] = self.alloc_block(dev, w)?;
                self.write_inode(dev, ino, inode, w)?;
            }
            return Ok(Some(inode.direct[fbn]));
        }
        let ifbn = fbn - NDIRECT;
        if ifbn >= NINDIRECT {
            return Err(FsError::TooBig);
        }
        if inode.indirect == 0 {
            if !alloc {
                return Ok(None);
            }
            inode.indirect = self.alloc_block(dev, w)?;
            self.write_inode(dev, ino, inode, w)?;
        }
        let ib = inode.indirect;
        let existing = self.with_block(dev, ib, w, |blk| {
            u32::from_le_bytes(blk.data[4 * ifbn..4 * ifbn + 4].try_into().unwrap())
        })?;
        if existing != 0 {
            return Ok(Some(existing));
        }
        if !alloc {
            return Ok(None);
        }
        let nb = self.alloc_block(dev, w)?;
        self.with_block(dev, ib, w, |blk| {
            blk.data[4 * ifbn..4 * ifbn + 4].copy_from_slice(&nb.to_le_bytes());
            blk.dirty = true;
        })?;
        Ok(Some(nb))
    }

    // ---- file data -------------------------------------------------------

    /// Reads up to `buf.len()` bytes at `off`; returns bytes read.
    pub fn read(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        off: u64,
        buf: &mut [u8],
        w: &mut FsWork,
    ) -> Result<usize, FsError> {
        let mut inode = self.read_inode(dev, ino, w)?;
        if inode.kind == 0 {
            return Err(FsError::NotFound);
        }
        if off >= inode.size {
            return Ok(0);
        }
        let n = buf.len().min((inode.size - off) as usize);
        let mut done = 0;
        while done < n {
            let pos = off as usize + done;
            let fbn = pos / BLOCK_SIZE;
            let boff = pos % BLOCK_SIZE;
            let take = (BLOCK_SIZE - boff).min(n - done);
            match self.bmap(dev, &mut inode, ino, fbn, false, w)? {
                Some(bno) => {
                    self.with_block(dev, bno, w, |blk| {
                        buf[done..done + take].copy_from_slice(&blk.data[boff..boff + take]);
                    })?;
                }
                None => buf[done..done + take].fill(0), // hole
            }
            done += take;
            w.bytes_copied += take as u64;
        }
        Ok(n)
    }

    /// Reads inode `ino` for a call that changes its data: a free inode is
    /// [`FsError::NotFound`], and a directory is [`FsError::IsDir`] unless
    /// `dir_ok`.
    fn inode_to_change(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        dir_ok: bool,
        w: &mut FsWork,
    ) -> Result<DiskInode, FsError> {
        let inode = self.read_inode(dev, ino, w)?;
        match inode.kind {
            0 => Err(FsError::NotFound),
            2 if !dir_ok => Err(FsError::IsDir),
            _ => Ok(inode),
        }
    }

    /// Writes `data` at `off`, growing the file as needed. A directory's
    /// record image is written like file data (the kernel rewrites
    /// directories this way, and tests forge records with it); the syscall
    /// layer uses `write_file`, which refuses directories.
    pub fn write(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        off: u64,
        data: &[u8],
        w: &mut FsWork,
    ) -> Result<usize, FsError> {
        self.write_as(dev, ino, off, data, true, w)
    }

    /// [`Self::write`] to a regular file: a directory fails with
    /// [`FsError::IsDir`] once its inode is read, before any change.
    pub(crate) fn write_file(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        off: u64,
        data: &[u8],
        w: &mut FsWork,
    ) -> Result<usize, FsError> {
        self.write_as(dev, ino, off, data, false, w)
    }

    fn write_as(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        off: u64,
        data: &[u8],
        dir_ok: bool,
        w: &mut FsWork,
    ) -> Result<usize, FsError> {
        if off + data.len() as u64 > MAX_FILE_BYTES {
            return Err(FsError::TooBig);
        }
        let mut inode = self.inode_to_change(dev, ino, dir_ok, w)?;
        let mut done = 0;
        while done < data.len() {
            let pos = off as usize + done;
            let fbn = pos / BLOCK_SIZE;
            let boff = pos % BLOCK_SIZE;
            let take = (BLOCK_SIZE - boff).min(data.len() - done);
            let bno = self
                .bmap(dev, &mut inode, ino, fbn, true, w)?
                .ok_or(FsError::NoSpace)?;
            self.with_block(dev, bno, w, |blk| {
                blk.data[boff..boff + take].copy_from_slice(&data[done..done + take]);
                blk.dirty = true;
            })?;
            done += take;
            w.bytes_copied += take as u64;
        }
        let end = off + data.len() as u64;
        if end > inode.size {
            inode.size = end;
            self.write_inode(dev, ino, &inode, w)?;
        }
        Ok(data.len())
    }

    /// File size and kind.
    pub fn stat(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        w: &mut FsWork,
    ) -> Result<(u64, InodeKind), FsError> {
        let inode = self.read_inode(dev, ino, w)?;
        match inode.kind {
            1 => Ok((inode.size, InodeKind::File)),
            2 => Ok((inode.size, InodeKind::Dir)),
            _ => Err(FsError::NotFound),
        }
    }

    /// Truncates a file (or a directory's record image) to zero length,
    /// freeing its blocks; the syscall layer uses `truncate_file`, which
    /// refuses directories.
    pub fn truncate(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        self.truncate_as(dev, ino, true, w)
    }

    /// [`Self::truncate`] of a regular file: a directory fails with
    /// [`FsError::IsDir`] once its inode is read, before any change.
    pub(crate) fn truncate_file(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        self.truncate_as(dev, ino, false, w)
    }

    fn truncate_as(
        &mut self,
        dev: &mut dyn BlockDev,
        ino: Ino,
        dir_ok: bool,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        let mut inode = self.inode_to_change(dev, ino, dir_ok, w)?;
        for d in inode.direct {
            if d != 0 {
                self.free_block(dev, d, w)?;
            }
        }
        if inode.indirect != 0 {
            let entries = self.with_block(dev, inode.indirect, w, |blk| {
                (0..NINDIRECT)
                    .map(|i| u32::from_le_bytes(blk.data[4 * i..4 * i + 4].try_into().unwrap()))
                    .collect::<Vec<_>>()
            })?;
            for e in entries {
                if e != 0 {
                    self.free_block(dev, e, w)?;
                }
            }
            self.free_block(dev, inode.indirect, w)?;
        }
        inode.direct = [0; NDIRECT];
        inode.indirect = 0;
        inode.size = 0;
        self.write_inode(dev, ino, &inode, w)?;
        Ok(())
    }

    // ---- directories & paths ----------------------------------------------

    /// Reads directory `dir`'s raw record image (see [`dir_records`]) into
    /// `raw`, charging the record-by-record kernel walk over it.
    fn dir_image(
        &mut self,
        dev: &mut dyn BlockDev,
        dir: Ino,
        raw: &mut Vec<u8>,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        let (size, kind) = self.stat(dev, dir, w)?;
        if kind != InodeKind::Dir {
            return Err(FsError::WrongKind);
        }
        raw.clear();
        raw.resize(size as usize, 0);
        self.read(dev, dir, 0, raw, w)?;
        // Directory-entry iteration is byte-granular kernel work — each
        // record's fields are individually loaded (and thus individually
        // instrumented under Virtual Ghost).
        w.acc(raw.len() as u64 / 4 + 8);
        Ok(())
    }

    /// Runs `f` on the retained directory buffer, which it takes for the
    /// call and puts back whatever `f` returns.
    fn with_dir_buf<R>(&mut self, f: impl FnOnce(&mut Self, &mut Vec<u8>) -> R) -> R {
        let mut raw = std::mem::take(&mut self.dir_buf);
        let out = f(self, &mut raw);
        self.dir_buf = raw;
        out
    }

    /// The name index of `dir` for the image `raw` just read from it: the
    /// memo if it holds exactly `raw`, else rebuilt from `raw`. `None` when
    /// `raw` is not canonical, and the caller walks it instead.
    fn memo(&mut self, dir: Ino, raw: &[u8]) -> Option<&mut DirMemo> {
        let fresh = self.memos.get(&dir.0).is_some_and(|m| m.image == raw);
        if !fresh && !is_canonical(raw) {
            self.memos.remove(&dir.0);
            return None;
        }
        let memo = self.memos.entry(dir.0).or_default();
        if !fresh {
            memo.rebuild(raw);
        }
        Some(memo)
    }

    /// Replaces directory `dir`'s contents with `raw`.
    fn write_dir_image(
        &mut self,
        dev: &mut dyn BlockDev,
        dir: Ino,
        raw: &[u8],
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        self.truncate(dev, dir, w)?;
        self.write(dev, dir, 0, raw, w)?;
        Ok(())
    }

    fn lookup_in(
        &mut self,
        dev: &mut dyn BlockDev,
        dir: Ino,
        name: &str,
        w: &mut FsWork,
    ) -> Result<Ino, FsError> {
        w.acc(24); // name comparison work
        self.with_dir_buf(|fs, raw| {
            fs.dir_image(dev, dir, raw, w)?;
            let found = match fs.memo(dir, raw) {
                Some(memo) => memo.names.get(name.as_bytes()).copied(),
                None => find_dirent(raw, name).map(|(_, ino)| ino),
            };
            found.ok_or(FsError::NotFound)
        })
    }

    /// Resolves an absolute path to an inode.
    pub fn lookup(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        w: &mut FsWork,
    ) -> Result<Ino, FsError> {
        let mut cur = ROOT_INO;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = self.lookup_in(dev, cur, comp, w)?;
        }
        Ok(cur)
    }

    fn split_path(path: &str) -> Result<(&str, &str), FsError> {
        let path = path.trim_end_matches('/');
        let name = path.rsplit('/').next().unwrap_or("");
        if name.is_empty() || name.len() > MAX_NAME {
            return Err(FsError::BadName);
        }
        let parent = &path[..path.len() - name.len()];
        Ok((parent, name))
    }

    /// Creates a file or directory at `path`.
    pub fn create(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        kind: InodeKind,
        w: &mut FsWork,
    ) -> Result<Ino, FsError> {
        let (parent_path, name) = Self::split_path(path)?;
        let parent = self.lookup(dev, parent_path, w)?;
        self.with_dir_buf(|fs, raw| {
            fs.dir_image(dev, parent, raw, w)?;
            let indexed = match fs.memo(parent, raw) {
                Some(memo) => {
                    if memo.names.contains_key(name.as_bytes()) {
                        return Err(FsError::Exists);
                    }
                    true
                }
                None => {
                    if find_dirent(raw, name).is_some() {
                        return Err(FsError::Exists);
                    }
                    false
                }
            };
            let ino = fs.alloc_inode(dev, kind, w)?;
            if indexed {
                fs.memos
                    .get_mut(&parent.0)
                    .expect("indexed")
                    .push(ino, name);
            } else {
                compact_dir(raw, None);
            }
            push_dirent(raw, ino, name);
            fs.write_dir_image(dev, parent, raw, w)?;
            Ok(ino)
        })
    }

    /// Removes the file or (empty) directory at `path`.
    pub fn unlink(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        let (parent_path, name) = Self::split_path(path)?;
        let parent = self.lookup(dev, parent_path, w)?;
        self.with_dir_buf(|fs, raw| {
            fs.dir_image(dev, parent, raw, w)?;
            let indexed = match fs.memo(parent, raw) {
                Some(memo) if !memo.names.contains_key(name.as_bytes()) => {
                    return Err(FsError::NotFound)
                }
                memo => memo.is_some(),
            };
            let (rec, ino) = find_dirent(raw, name).ok_or(FsError::NotFound)?;
            let (_, kind) = fs.stat(dev, ino, w)?;
            if kind == InodeKind::Dir {
                let mut child = Vec::new();
                fs.dir_image(dev, ino, &mut child, w)?;
                if dir_records(&child).any(|(_, i, _)| i != 0) {
                    return Err(FsError::NotEmpty);
                }
                fs.memos.remove(&ino.0);
            }
            fs.truncate(dev, ino, w)?;
            fs.write_inode(dev, ino, &DiskInode::default(), w)?;
            if indexed {
                let memo = fs.memos.get_mut(&parent.0).expect("indexed");
                memo.cut(rec.clone(), name);
                raw.drain(rec);
            } else {
                compact_dir(raw, Some(rec));
            }
            fs.write_dir_image(dev, parent, raw, w)
        })
    }

    /// Lists the entries of the directory at `path`.
    pub fn readdir(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        w: &mut FsWork,
    ) -> Result<Vec<(String, Ino)>, FsError> {
        let dir = self.lookup(dev, path, w)?;
        self.with_dir_buf(|fs, raw| {
            fs.dir_image(dev, dir, raw, w)?;
            Ok(parse_dir(raw))
        })
    }
}

// ---- directory record images ---------------------------------------------
//
// A directory's contents are a sequence of records `ino: u32 LE, len: u8,
// name: [u8; len]`. Records with `ino == 0` are holes, and a record cut
// short by the end of the image ends it. The functions below read and edit
// such images without building per-entry values.

/// Bytes in a record header (`ino` + `len`).
const DIRENT_HEADER: usize = 5;

/// Walks the complete records of a directory image, holes included:
/// `(offset, ino, name bytes)` each, stopping at a truncated tail.
fn dir_records(raw: &[u8]) -> impl Iterator<Item = (usize, u32, &[u8])> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let name_at = pos + DIRENT_HEADER;
        let len = *raw.get(name_at - 1)? as usize;
        let name = raw.get(name_at..name_at + len)?;
        let ino = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap());
        let at = pos;
        pos = name_at + len;
        Some((at, ino, name))
    })
}

/// The live entries of a directory image, names decoded lossily.
fn parse_dir(raw: &[u8]) -> Vec<(String, Ino)> {
    dir_records(raw)
        .filter(|&(_, ino, _)| ino != 0)
        .map(|(_, ino, name)| (String::from_utf8_lossy(name).into_owned(), Ino(ino)))
        .collect()
}

/// The first live record named `name`: its byte range and inode. Names are
/// compared as `parse_dir` decodes them. Lossy decoding yields U+FFFD for
/// every invalid sequence, so unless `name` holds one, a decoded match is
/// exactly a byte match. Lookups and creates in an indexed directory never
/// walk; this walk serves unlink, which stops at its record, and the
/// non-canonical directories the index does not cover. The byte compare
/// was worth its branch while every lookup walked: with the lossy compare
/// alone, Postmark `ops_per_host_s` fell 21% (`vg-perf compare`, 10
/// alternated 20 s pairs, 2-core Intel Xeon KVM guest, on a build without
/// the index whose `compact_dir` rebuilt every image: 31.2k to 24.6k, 0/10
/// pairs faster).
fn find_dirent(raw: &[u8], name: &str) -> Option<(Range<usize>, Ino)> {
    let bytewise = !name.contains(char::REPLACEMENT_CHARACTER);
    dir_records(raw)
        .find(|&(_, ino, n)| {
            ino != 0
                && if bytewise {
                    n == name.as_bytes()
                } else {
                    String::from_utf8_lossy(n) == name
                }
        })
        .map(|(at, ino, n)| (at..at + DIRENT_HEADER + n.len(), Ino(ino)))
}

/// Appends one record. Names vgfs accepts fit the `u8` length
/// (`MAX_NAME`); only a lossily re-encoded name from a malformed image can
/// exceed it, and then its length wraps just as the serializer's did.
fn push_dirent(raw: &mut Vec<u8>, ino: Ino, name: &str) {
    raw.extend_from_slice(&ino.0.to_le_bytes());
    raw.push(name.len() as u8);
    raw.extend_from_slice(name.as_bytes());
}

/// Whether `raw` is exactly what serializing `parse_dir(raw)` gives back:
/// every record live, every name valid UTF-8, no truncated tail. vgfs
/// itself writes only such images. An ASCII name is valid without
/// `str::from_utf8`: called on every name, it took 21% of Postmark's host
/// time in a frame-pointer sample taken before directories were indexed.
fn is_canonical(raw: &[u8]) -> bool {
    let mut end = 0;
    dir_records(raw).all(|(at, ino, name)| {
        end = at + DIRENT_HEADER + name.len();
        ino != 0 && (name.is_ascii() || std::str::from_utf8(name).is_ok())
    }) && end == raw.len()
}

/// Rewrites `raw` into the bytes that serializing `parse_dir(raw)` gives —
/// holes and a truncated tail dropped, non-UTF-8 names re-encoded lossily —
/// leaving out the record at `skip`. Only create and unlink in a directory
/// the index does not cover call it, so `raw` is not canonical and is
/// always rebuilt; indexed directories edit their image in place.
fn compact_dir(raw: &mut Vec<u8>, skip: Option<Range<usize>>) {
    let skip_at = skip.map(|rec| rec.start);
    let mut out = Vec::with_capacity(raw.len());
    for (at, ino, name) in dir_records(raw) {
        if ino != 0 && Some(at) != skip_at {
            push_dirent(&mut out, Ino(ino), &String::from_utf8_lossy(name));
        }
    }
    *raw = out;
}

#[cfg(test)]
mod equivalence;

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (MemDisk, VgFs) {
        let mut dev = MemDisk::new(2048);
        let fs = VgFs::mkfs(&mut dev, 256);
        (dev, fs)
    }

    #[test]
    fn create_write_read_roundtrip() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let ino = fs
            .create(&mut dev, "/hello.txt", InodeKind::File, &mut w)
            .unwrap();
        fs.write(&mut dev, ino, 0, b"hello vgfs", &mut w).unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(fs.read(&mut dev, ino, 0, &mut buf, &mut w).unwrap(), 10);
        assert_eq!(&buf, b"hello vgfs");
        assert_eq!(
            fs.stat(&mut dev, ino, &mut w).unwrap(),
            (10, InodeKind::File)
        );
    }

    #[test]
    fn lookup_and_duplicate() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let ino = fs.create(&mut dev, "/a", InodeKind::File, &mut w).unwrap();
        assert_eq!(fs.lookup(&mut dev, "/a", &mut w).unwrap(), ino);
        assert_eq!(
            fs.create(&mut dev, "/a", InodeKind::File, &mut w),
            Err(FsError::Exists)
        );
        assert_eq!(fs.lookup(&mut dev, "/nope", &mut w), Err(FsError::NotFound));
    }

    #[test]
    fn nested_directories() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        fs.create(&mut dev, "/usr", InodeKind::Dir, &mut w).unwrap();
        fs.create(&mut dev, "/usr/share", InodeKind::Dir, &mut w)
            .unwrap();
        let f = fs
            .create(&mut dev, "/usr/share/f.txt", InodeKind::File, &mut w)
            .unwrap();
        fs.write(&mut dev, f, 0, b"deep", &mut w).unwrap();
        assert_eq!(fs.lookup(&mut dev, "/usr/share/f.txt", &mut w).unwrap(), f);
        let names: Vec<String> = fs
            .readdir(&mut dev, "/usr", &mut w)
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["share"]);
    }

    #[test]
    fn unlink_frees_and_removes() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let ino = fs.create(&mut dev, "/f", InodeKind::File, &mut w).unwrap();
        fs.write(&mut dev, ino, 0, &vec![7u8; 10_000], &mut w)
            .unwrap();
        fs.unlink(&mut dev, "/f", &mut w).unwrap();
        assert_eq!(fs.lookup(&mut dev, "/f", &mut w), Err(FsError::NotFound));
        // The inode and blocks are reusable.
        let again = fs.create(&mut dev, "/g", InodeKind::File, &mut w).unwrap();
        assert_eq!(again, ino, "inode slot reused");
    }

    #[test]
    fn unlink_nonempty_dir_refused() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        fs.create(&mut dev, "/d", InodeKind::Dir, &mut w).unwrap();
        fs.create(&mut dev, "/d/x", InodeKind::File, &mut w)
            .unwrap();
        assert_eq!(fs.unlink(&mut dev, "/d", &mut w), Err(FsError::NotEmpty));
        fs.unlink(&mut dev, "/d/x", &mut w).unwrap();
        fs.unlink(&mut dev, "/d", &mut w).unwrap();
    }

    #[test]
    fn large_file_uses_indirect_blocks() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let ino = fs
            .create(&mut dev, "/big", InodeKind::File, &mut w)
            .unwrap();
        let size = (NDIRECT + 5) * BLOCK_SIZE; // spills into the indirect block
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        fs.write(&mut dev, ino, 0, &data, &mut w).unwrap();
        let mut back = vec![0u8; size];
        assert_eq!(fs.read(&mut dev, ino, 0, &mut back, &mut w).unwrap(), size);
        assert_eq!(back, data);
    }

    #[test]
    fn file_size_limit_enforced() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let ino = fs.create(&mut dev, "/f", InodeKind::File, &mut w).unwrap();
        assert_eq!(
            fs.write(&mut dev, ino, MAX_FILE_BYTES, b"x", &mut w),
            Err(FsError::TooBig)
        );
    }

    #[test]
    fn sparse_read_returns_zeros() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let ino = fs.create(&mut dev, "/s", InodeKind::File, &mut w).unwrap();
        fs.write(&mut dev, ino, 3 * BLOCK_SIZE as u64, b"end", &mut w)
            .unwrap();
        let mut buf = [9u8; 8];
        fs.read(&mut dev, ino, 0, &mut buf, &mut w).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn persistence_across_mount() {
        let mut dev = MemDisk::new(2048);
        {
            let mut fs = VgFs::mkfs(&mut dev, 256);
            let mut w = FsWork::default();
            let ino = fs
                .create(&mut dev, "/persist", InodeKind::File, &mut w)
                .unwrap();
            fs.write(&mut dev, ino, 0, b"still here", &mut w).unwrap();
            fs.sync(&mut dev).unwrap();
        }
        let mut fs2 = VgFs::mount(&mut dev, 256);
        let mut w = FsWork::default();
        let ino = fs2.lookup(&mut dev, "/persist", &mut w).unwrap();
        let mut buf = [0u8; 10];
        fs2.read(&mut dev, ino, 0, &mut buf, &mut w).unwrap();
        assert_eq!(&buf, b"still here");
    }

    #[test]
    fn cache_eviction_preserves_data() {
        let mut dev = MemDisk::new(4096);
        let mut fs = VgFs::mkfs(&mut dev, 64);
        fs.cache_cap = 8; // force heavy eviction
        let mut w = FsWork::default();
        let ino = fs.create(&mut dev, "/f", InodeKind::File, &mut w).unwrap();
        let data: Vec<u8> = (0..BLOCK_SIZE * 12).map(|i| (i % 13) as u8).collect();
        fs.write(&mut dev, ino, 0, &data, &mut w).unwrap();
        let mut back = vec![0u8; data.len()];
        fs.read(&mut dev, ino, 0, &mut back, &mut w).unwrap();
        assert_eq!(back, data);
        assert!(fs.cached_blocks() <= 8);
    }

    #[test]
    fn work_accounting_accumulates() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        let ino = fs.create(&mut dev, "/f", InodeKind::File, &mut w).unwrap();
        fs.write(&mut dev, ino, 0, &vec![1u8; 8192], &mut w)
            .unwrap();
        assert!(w.accesses > 0);
        assert!(w.bytes_copied >= 8192);
        assert!(w.disk_reads > 0, "cold cache went to the device");
    }

    #[test]
    fn many_small_files_postmark_style() {
        let (mut dev, mut fs) = fresh();
        let mut w = FsWork::default();
        for i in 0..100 {
            let path = format!("/pm{i}");
            let ino = fs.create(&mut dev, &path, InodeKind::File, &mut w).unwrap();
            fs.write(&mut dev, ino, 0, &vec![i as u8; 600], &mut w)
                .unwrap();
        }
        assert_eq!(fs.readdir(&mut dev, "/", &mut w).unwrap().len(), 100);
        for i in (0..100).step_by(2) {
            fs.unlink(&mut dev, &format!("/pm{i}"), &mut w).unwrap();
        }
        assert_eq!(fs.readdir(&mut dev, "/", &mut w).unwrap().len(), 50);
    }
}
