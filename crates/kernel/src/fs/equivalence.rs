//! vgfs fast-path equivalence and golden accounting pins.
//!
//! The directory edits (`find_dirent`, `compact_dir` + `push_dirent`) are
//! checked against `parse_dir` plus the pre-fast-path serializer, and the
//! block-batched `alloc_inode` against a loop of per-inode `read_inode`
//! calls — same inode, same [`FsWork`], same cache contents and LRU ticks,
//! same device traffic. The indexed `lookup`, `create` and `unlink` run
//! random scripts, hostile directory rewrites included, against the
//! walk-only calls they replaced. The golden pins then fix the whole
//! simulated contract of a Postmark-style run.

use super::*;
use proptest::prelude::*;

/// The pre-fast-path directory serializer (`write_dir_entries` without the
/// truncate+write): the oracle every in-place directory edit must match.
fn serialize_entries(entries: &[(String, Ino)]) -> Vec<u8> {
    let mut raw = Vec::new();
    for (name, ino) in entries {
        raw.extend_from_slice(&ino.0.to_le_bytes());
        raw.push(name.len() as u8);
        raw.extend_from_slice(name.as_bytes());
    }
    raw
}

fn record(raw: &mut Vec<u8>, ino: u32, name: &[u8]) {
    raw.extend_from_slice(&ino.to_le_bytes());
    raw.push(name.len() as u8);
    raw.extend_from_slice(name);
}

/// Checks every in-place edit of `raw` against parse + re-serialize.
fn check_edits(raw: &[u8], name: &str, new_ino: Ino) -> Result<(), TestCaseError> {
    let parsed = parse_dir(raw);
    let idx = parsed.iter().position(|(n, _)| n == name);
    let found = find_dirent(raw, name);
    prop_assert_eq!(
        found.as_ref().map(|&(_, ino)| ino),
        idx.map(|i| parsed[i].1)
    );
    prop_assert_eq!(
        dir_records(raw).any(|(_, ino, _)| ino != 0),
        !parsed.is_empty()
    );

    let mut inserted = raw.to_vec();
    compact_dir(&mut inserted, None);
    push_dirent(&mut inserted, new_ino, name);
    let mut expect = parsed.clone();
    expect.push((name.to_string(), new_ino));
    prop_assert_eq!(inserted, serialize_entries(&expect));

    if let (Some((rec, _)), Some(i)) = (found, idx) {
        let mut removed = raw.to_vec();
        compact_dir(&mut removed, Some(rec));
        let mut expect = parsed;
        expect.remove(i);
        prop_assert_eq!(removed, serialize_entries(&expect));
    }
    Ok(())
}

/// One generated record: `(shape, ino, bytes, short)`. `shape % 4 == 0`
/// makes a hole; `shape / 4 % 4` picks the name: a short name over a
/// three-letter alphabet (so names collide), raw bytes (mostly not UTF-8),
/// long ASCII, or a U+FFFD-bearing name.
type RecordSpec = (u8, u32, Vec<u8>, u8);

fn record_name(shape: u8, bytes: &[u8], short: u8) -> Vec<u8> {
    match shape / 4 % 4 {
        0 => bytes
            .iter()
            .take(short as usize)
            .map(|b| b'a' + b % 3)
            .collect(),
        1 => bytes.to_vec(),
        2 => bytes.iter().map(|b| b'a' + b % 26).collect(),
        _ => {
            let mut n = "\u{FFFD}".as_bytes().to_vec();
            n.extend(bytes.iter().take(short as usize).map(|b| b'a' + b % 3));
            n
        }
    }
}

fn image(records: &[RecordSpec], tail: &[u8]) -> Vec<u8> {
    let mut raw = Vec::new();
    for (shape, ino, bytes, short) in records {
        let ino = if shape.is_multiple_of(4) { 0 } else { *ino };
        record(&mut raw, ino, &record_name(*shape, bytes, *short));
    }
    raw.extend_from_slice(tail);
    raw
}

/// The probe name: a decoded existing name, a fresh short name, or U+FFFD.
fn probe(raw: &[u8], pick: u8, short: u8) -> String {
    let names: Vec<String> = dir_records(raw)
        .map(|(_, _, n)| String::from_utf8_lossy(n).into_owned())
        .collect();
    match pick % 4 {
        0 | 1 if !names.is_empty() => names[pick as usize % names.len()].clone(),
        2 => "\u{FFFD}".to_string(),
        _ => (0..short % 4)
            .map(|i| (b'a' + (pick + i) % 3) as char)
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn directory_edits_match_parse_and_reserialize(
        records in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), proptest::collection::vec(any::<u8>(), 0..256), 0u8..8),
            0..12,
        ),
        tail in proptest::collection::vec(any::<u8>(), 0..12),
        cut in any::<u16>(),
        pick in any::<u8>(),
        short in any::<u8>(),
        new_ino in 1u32..4096,
    ) {
        let mut raw = image(&records, &tail);
        // A quarter of the images lose a random suffix: a cut can land
        // inside a header or a name.
        if cut.is_multiple_of(4) && !raw.is_empty() {
            raw.truncate(cut as usize % raw.len());
        }
        let name = probe(&raw, pick, short);
        check_edits(&raw, &name, Ino(new_ino))?;
    }
}

#[test]
fn walk_skips_holes_and_stops_at_a_truncated_tail() {
    let mut raw = Vec::new();
    record(&mut raw, 7, b"a");
    record(&mut raw, 0, b"hole");
    record(&mut raw, 9, b"");
    record(&mut raw, 11, b"b");
    raw.extend_from_slice(&[5, 0, 0, 0, 10, b'x']); // name runs past the end
    assert_eq!(
        parse_dir(&raw),
        vec![
            ("a".to_string(), Ino(7)),
            (String::new(), Ino(9)),
            ("b".to_string(), Ino(11))
        ]
    );
    assert_eq!(find_dirent(&raw, "b").unwrap(), (20..26, Ino(11)));
    assert_eq!(find_dirent(&raw, "hole"), None);
    let mut compacted = raw.clone();
    compact_dir(&mut compacted, Some(20..26));
    assert_eq!(
        compacted,
        serialize_entries(&[("a".to_string(), Ino(7)), (String::new(), Ino(9))])
    );
}

#[test]
fn non_utf8_names_match_and_reencode_like_the_parse() {
    let mut raw = Vec::new();
    record(&mut raw, 3, &[0xff; 255]); // decodes to 255 × U+FFFD = 765 bytes
    record(&mut raw, 4, &[b'q', 0xc3]); // truncated two-byte sequence
    assert_eq!(find_dirent(&raw, "q\u{FFFD}").unwrap().1, Ino(4));
    assert_eq!(find_dirent(&raw, "q"), None);
    let mut compacted = raw.clone();
    compact_dir(&mut compacted, None);
    // The serializer writes the decoded length as a `u8`: 765 wraps to 253.
    assert_eq!(compacted[4], 253);
    assert_eq!(compacted, serialize_entries(&parse_dir(&raw)));
}

/// vgfs itself writes only canonical images, and compacting one gives its
/// own bytes less the cut record.
#[test]
fn canonical_images_are_rewritten_like_the_parse() {
    let mut dev = MemDisk::new(2048);
    let mut fs = VgFs::mkfs(&mut dev, 256);
    let mut w = FsWork::default();
    fs.create(&mut dev, "/d", InodeKind::Dir, &mut w).unwrap();
    for i in 0..40 {
        fs.create(&mut dev, &format!("/d/n{i}"), InodeKind::File, &mut w)
            .unwrap();
    }
    for i in (0..40).step_by(3) {
        fs.unlink(&mut dev, &format!("/d/n{i}"), &mut w).unwrap();
    }
    let d = fs.lookup(&mut dev, "/d", &mut w).unwrap();
    let raw = fs.dir_image_owned(&mut dev, d, &mut w).unwrap();
    assert_eq!(raw, serialize_entries(&parse_dir(&raw)));
    assert_eq!(parse_dir(&raw).len(), 40 - 14);

    let (rec, _) = find_dirent(&raw, "n7").unwrap();
    let mut edited = raw.clone();
    compact_dir(&mut edited, Some(rec));
    let mut expect = parse_dir(&raw);
    expect.retain(|(n, _)| n != "n7");
    assert_eq!(edited, serialize_entries(&expect));
}

#[test]
fn malformed_directory_is_rewritten_like_the_parse() {
    let mut dev = MemDisk::new(2048);
    let mut fs = VgFs::mkfs(&mut dev, 256);
    let mut w = FsWork::default();
    let d = fs.create(&mut dev, "/d", InodeKind::Dir, &mut w).unwrap();
    let x = fs.create(&mut dev, "/x", InodeKind::File, &mut w).unwrap();
    let mut bad = Vec::new();
    record(&mut bad, 0, b"gone");
    record(&mut bad, x.0, &[0xfe, b'k']);
    record(&mut bad, x.0, b"keep");
    bad.extend_from_slice(&[1, 2, 3]);
    fs.write_dir_image(&mut dev, d, &bad, &mut w).unwrap();

    let before = parse_dir(&bad);
    let y = fs
        .create(&mut dev, "/d/y", InodeKind::File, &mut w)
        .unwrap();
    let raw = fs.dir_image_owned(&mut dev, d, &mut w).unwrap();
    let mut expect = before.clone();
    expect.push(("y".to_string(), y));
    assert_eq!(raw, serialize_entries(&expect));
}

// ---- block-batched inode allocation -----------------------------------------

/// A `MemDisk` that logs every transfer, so eviction order is visible.
struct LogDisk {
    disk: MemDisk,
    log: Vec<(char, u32)>,
}

impl BlockDev for LogDisk {
    fn read_block(&mut self, bno: u32) -> Result<Vec<u8>, FsError> {
        self.log.push(('r', bno));
        self.disk.read_block(bno)
    }

    fn write_block(&mut self, bno: u32, data: &[u8]) -> Result<(), FsError> {
        self.log.push(('w', bno));
        self.disk.write_block(bno, data)
    }

    fn capacity(&self) -> u32 {
        self.disk.capacity()
    }
}

/// Pre-batching `alloc_inode`: one `read_inode` per inode scanned.
fn alloc_inode_per_inode(
    fs: &mut VgFs,
    dev: &mut dyn BlockDev,
    w: &mut FsWork,
) -> Result<Ino, FsError> {
    for i in 1..fs.ninodes {
        let ino = Ino(i);
        if fs.read_inode(dev, ino, w)?.kind == 0 {
            let fresh = DiskInode {
                kind: 1,
                nlink: 1,
                ..Default::default()
            };
            fs.write_inode(dev, ino, &fresh, w)?;
            return Ok(ino);
        }
    }
    Err(FsError::NoSpace)
}

/// Clock plus `(bno, tick, dirty)` for every cached block, sorted.
fn cache_state(fs: &VgFs) -> (u64, Vec<(u32, u64, bool)>) {
    let mut blocks: Vec<_> = fs
        .cache
        .iter()
        .map(|(&bno, b)| (bno, b.tick, b.dirty))
        .collect();
    blocks.sort_unstable();
    (fs.clock, blocks)
}

/// An 8-block cache holding only data blocks of `/big`, with inode 40 (in
/// the second inode-table block) free and inodes 1..=72 otherwise in use.
fn alloc_scene() -> (LogDisk, VgFs) {
    let mut dev = LogDisk {
        disk: MemDisk::new(4096),
        log: Vec::new(),
    };
    let mut fs = VgFs::mkfs(&mut dev, 128);
    fs.cache_cap = 8;
    let mut w = FsWork::default();
    let big = fs
        .create(&mut dev, "/big", InodeKind::File, &mut w)
        .unwrap();
    assert_eq!(big, Ino(2));
    for i in 0..70 {
        fs.create(&mut dev, &format!("/f{i}"), InodeKind::File, &mut w)
            .unwrap();
    }
    fs.unlink(&mut dev, "/f37", &mut w).unwrap(); // inode 40
    let data = vec![0x5a; NDIRECT * BLOCK_SIZE];
    fs.write(&mut dev, big, 0, &data, &mut w).unwrap();
    let mut back = vec![0; data.len()];
    fs.read(&mut dev, big, 0, &mut back, &mut w).unwrap();
    dev.log.clear();
    (dev, fs)
}

#[test]
fn batched_alloc_inode_matches_per_inode_reads() {
    let (mut dev_a, mut fast) = alloc_scene();
    let (mut dev_b, mut slow) = alloc_scene();
    assert_eq!(cache_state(&fast), cache_state(&slow));
    let inode_blocks = 1..1 + fast.inode_blocks;
    assert!(
        fast.cache.keys().all(|b| !inode_blocks.contains(b)),
        "scan starts cold"
    );

    for round in 0..2 {
        let (mut wa, mut wb) = (FsWork::default(), FsWork::default());
        let a = fast.alloc_inode(&mut dev_a, InodeKind::File, &mut wa);
        let b = alloc_inode_per_inode(&mut slow, &mut dev_b, &mut wb);
        assert_eq!(a, Ok(Ino([40, 73][round])));
        assert_eq!(a, b, "round {round}");
        assert_eq!(wa, wb, "round {round}");
        assert!(wa.disk_reads > 0, "the scan missed");
        assert_eq!(fast.cached_blocks(), 8, "the scan evicted");
        assert_eq!(fast.cached_blocks(), slow.cached_blocks());
        assert_eq!(cache_state(&fast), cache_state(&slow), "round {round}");
    }

    // Later traffic evicts in LRU order; sync then flushes what is left.
    let later = |fs: &mut VgFs, dev: &mut LogDisk| {
        let mut w = FsWork::default();
        for i in [3, 60, 100] {
            let _ = fs.stat(dev, Ino(i), &mut w);
        }
        fs.create(dev, "/late", InodeKind::File, &mut w).unwrap();
        fs.sync(dev).unwrap();
        w
    };
    assert_eq!(later(&mut fast, &mut dev_a), later(&mut slow, &mut dev_b));
    assert_eq!(dev_a.log, dev_b.log);
    assert!(dev_a.log.iter().any(|&(op, _)| op == 'w'));
    assert_eq!(cache_state(&fast), cache_state(&slow));
}

#[test]
fn alloc_inode_exhaustion_charges_every_inode() {
    let mut dev = MemDisk::new(1024);
    let mut fs = VgFs::mkfs(&mut dev, 40);
    let mut w = FsWork::default();
    for i in 0..38 {
        fs.create(&mut dev, &format!("/f{i}"), InodeKind::File, &mut w)
            .unwrap();
    }
    let (mut wa, mut wb) = (FsWork::default(), FsWork::default());
    let clock = fs.clock;
    assert_eq!(
        fs.alloc_inode(&mut dev, InodeKind::File, &mut wa),
        Err(FsError::NoSpace)
    );
    assert_eq!(fs.clock - clock, 39, "one tick per inode 1..40");
    let clock = fs.clock;
    assert_eq!(
        alloc_inode_per_inode(&mut fs, &mut dev, &mut wb),
        Err(FsError::NoSpace)
    );
    assert_eq!(fs.clock - clock, 39);
    assert_eq!(wa, wb);
}

// ---- directory name index vs walk-only oracles -----------------------------

/// The directory calls as they were before the name index: every lookup,
/// create and unlink walks the image it reads, in a fresh buffer.
impl VgFs {
    /// [`VgFs::dir_image`] into a new buffer.
    fn dir_image_owned(
        &mut self,
        dev: &mut dyn BlockDev,
        dir: Ino,
        w: &mut FsWork,
    ) -> Result<Vec<u8>, FsError> {
        let mut raw = Vec::new();
        self.dir_image(dev, dir, &mut raw, w)?;
        Ok(raw)
    }

    fn lookup_in_walk(
        &mut self,
        dev: &mut dyn BlockDev,
        dir: Ino,
        name: &str,
        w: &mut FsWork,
    ) -> Result<Ino, FsError> {
        w.acc(24);
        let raw = self.dir_image_owned(dev, dir, w)?;
        find_dirent(&raw, name)
            .map(|(_, ino)| ino)
            .ok_or(FsError::NotFound)
    }

    fn lookup_walk(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        w: &mut FsWork,
    ) -> Result<Ino, FsError> {
        let mut cur = ROOT_INO;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = self.lookup_in_walk(dev, cur, comp, w)?;
        }
        Ok(cur)
    }

    fn create_walk(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        kind: InodeKind,
        w: &mut FsWork,
    ) -> Result<Ino, FsError> {
        let (parent_path, name) = Self::split_path(path)?;
        let parent = self.lookup_walk(dev, parent_path, w)?;
        let mut raw = self.dir_image_owned(dev, parent, w)?;
        if find_dirent(&raw, name).is_some() {
            return Err(FsError::Exists);
        }
        let ino = self.alloc_inode(dev, kind, w)?;
        compact_dir(&mut raw, None);
        push_dirent(&mut raw, ino, name);
        self.write_dir_image(dev, parent, &raw, w)?;
        Ok(ino)
    }

    fn unlink_walk(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        w: &mut FsWork,
    ) -> Result<(), FsError> {
        let (parent_path, name) = Self::split_path(path)?;
        let parent = self.lookup_walk(dev, parent_path, w)?;
        let mut raw = self.dir_image_owned(dev, parent, w)?;
        let (rec, ino) = find_dirent(&raw, name).ok_or(FsError::NotFound)?;
        let (_, kind) = self.stat(dev, ino, w)?;
        if kind == InodeKind::Dir
            && dir_records(&self.dir_image_owned(dev, ino, w)?).any(|(_, i, _)| i != 0)
        {
            return Err(FsError::NotEmpty);
        }
        self.truncate(dev, ino, w)?;
        self.write_inode(dev, ino, &DiskInode::default(), w)?;
        compact_dir(&mut raw, Some(rec));
        self.write_dir_image(dev, parent, &raw, w)?;
        Ok(())
    }

    fn readdir_walk(
        &mut self,
        dev: &mut dyn BlockDev,
        path: &str,
        w: &mut FsWork,
    ) -> Result<Vec<(String, Ino)>, FsError> {
        let dir = self.lookup_walk(dev, path, w)?;
        Ok(parse_dir(&self.dir_image_owned(dev, dir, w)?))
    }
}

/// The three directories a script works in; `/x` and `/y` are made by
/// the script's first two ops and may be removed, or shadowed by a file.
const SCRIPT_DIRS: [&str; 3] = ["/", "/x", "/y"];

/// Entry names: colliding short names, the directory names, and names
/// that hold U+FFFD or other non-ASCII text.
const SCRIPT_NAMES: [&str; 9] = ["a", "b", "ab", "x", "y", "\u{FFFD}", "é", "a\u{FFFD}", "c"];

/// Raw name bytes for hostile records: every script name plus bytes that
/// are not UTF-8 (which decode to names holding U+FFFD).
fn hostile_name(pick: u8) -> Vec<u8> {
    match pick % 12 {
        9 => vec![0xff],
        10 => vec![b'a', 0xc3],
        11 => vec![0xfe, 0xfe, b'b'],
        i => SCRIPT_NAMES[i as usize].as_bytes().to_vec(),
    }
}

/// One scripted call. `dir` and `name` index [`SCRIPT_DIRS`] and
/// [`SCRIPT_NAMES`] modulo their lengths.
#[derive(Debug, Clone)]
enum Op {
    Create {
        dir: u8,
        name: u8,
    },
    Mkdir {
        dir: u8,
        name: u8,
    },
    Unlink {
        dir: u8,
        name: u8,
    },
    Rmdir {
        dir: u8,
    },
    Lookup {
        dir: u8,
        name: u8,
    },
    Readdir {
        dir: u8,
    },
    Sync,
    /// A raw `write` of hostile records (inodes 0..=13; 0 makes a hole) to
    /// the directory's inode: at offset 0 (`at % 3 == 0`), at its end, or
    /// past its end (zero-filled holes). `cut` bytes come off the end, so
    /// the last record can end inside its header or name.
    RawWrite {
        dir: u8,
        at: u8,
        records: Vec<(u8, u8)>,
        cut: u8,
    },
    /// A raw truncate of the directory's inode to empty.
    RawTruncate {
        dir: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let pair = (any::<u8>(), any::<u8>());
    prop_oneof![
        pair.prop_map(|(dir, name)| Op::Create { dir, name }),
        pair.prop_map(|(dir, name)| Op::Create { dir, name }),
        pair.prop_map(|(dir, name)| Op::Mkdir { dir, name }),
        pair.prop_map(|(dir, name)| Op::Unlink { dir, name }),
        pair.prop_map(|(dir, name)| Op::Unlink { dir, name }),
        any::<u8>().prop_map(|dir| Op::Rmdir { dir }),
        pair.prop_map(|(dir, name)| Op::Lookup { dir, name }),
        pair.prop_map(|(dir, name)| Op::Lookup { dir, name }),
        any::<u8>().prop_map(|dir| Op::Readdir { dir }),
        Just(Op::Sync),
        (
            any::<u8>(),
            any::<u8>(),
            proptest::collection::vec((2u8..17, any::<u8>()), 0..5),
            0u8..16,
        )
            .prop_map(|(dir, at, records, cut)| Op::RawWrite {
                dir,
                at,
                records,
                cut,
            }),
        any::<u8>().prop_map(|dir| Op::RawTruncate { dir }),
    ]
}

fn dir_path(dir: u8) -> &'static str {
    SCRIPT_DIRS[dir as usize % SCRIPT_DIRS.len()]
}

fn entry_path(dir: u8, name: u8) -> String {
    let name = SCRIPT_NAMES[name as usize % SCRIPT_NAMES.len()];
    format!("{}/{name}", dir_path(dir).trim_end_matches('/'))
}

/// What one call returned, in a form both sides can be compared in.
type Outcome = Result<Vec<(String, Ino)>, FsError>;

/// Runs `op` on `fs`: through the indexed calls, or through the walk-only
/// oracles when `oracle` is set.
fn apply(fs: &mut VgFs, dev: &mut LogDisk, op: &Op, oracle: bool, w: &mut FsWork) -> Outcome {
    let ino = |r: Result<Ino, FsError>| r.map(|i| vec![(String::new(), i)]);
    let unit = |r: Result<(), FsError>| r.map(|()| Vec::new());
    let lookup = |fs: &mut VgFs, dev: &mut LogDisk, path: &str, w: &mut FsWork| {
        if oracle {
            fs.lookup_walk(dev, path, w)
        } else {
            fs.lookup(dev, path, w)
        }
    };
    let create = |fs: &mut VgFs, dev: &mut LogDisk, path: &str, kind, w: &mut FsWork| {
        if oracle {
            fs.create_walk(dev, path, kind, w)
        } else {
            fs.create(dev, path, kind, w)
        }
    };
    let unlink = |fs: &mut VgFs, dev: &mut LogDisk, path: &str, w: &mut FsWork| {
        if oracle {
            fs.unlink_walk(dev, path, w)
        } else {
            fs.unlink(dev, path, w)
        }
    };
    match op {
        Op::Create { dir, name } => ino(create(
            fs,
            dev,
            &entry_path(*dir, *name),
            InodeKind::File,
            w,
        )),
        Op::Mkdir { dir, name } => {
            ino(create(fs, dev, &entry_path(*dir, *name), InodeKind::Dir, w))
        }
        Op::Unlink { dir, name } => unit(unlink(fs, dev, &entry_path(*dir, *name), w)),
        Op::Rmdir { dir } => unit(unlink(fs, dev, dir_path(*dir), w)),
        Op::Lookup { dir, name } => ino(lookup(fs, dev, &entry_path(*dir, *name), w)),
        Op::Readdir { dir } if oracle => fs.readdir_walk(dev, dir_path(*dir), w),
        Op::Readdir { dir } => fs.readdir(dev, dir_path(*dir), w),
        Op::Sync => fs.sync(dev).map(|n| vec![(String::new(), Ino(n as u32))]),
        Op::RawWrite {
            dir,
            at,
            records,
            cut,
        } => {
            let d = lookup(fs, dev, dir_path(*dir), w)?;
            let mut bytes = Vec::new();
            for &(pick, name) in records {
                // One record in five is a hole.
                let ino = u32::from(pick.saturating_sub(3));
                record(&mut bytes, ino, &hostile_name(name));
            }
            bytes.truncate(bytes.len().saturating_sub(usize::from(*cut / 2)));
            let (size, _) = fs.stat(dev, d, w)?;
            let off = match at % 3 {
                0 => 0,
                1 => size,
                _ => size + u64::from(*at % 13),
            };
            unit(fs.write(dev, d, off, &bytes, w).map(|_| ()))
        }
        Op::RawTruncate { dir } => {
            let d = lookup(fs, dev, dir_path(*dir), w)?;
            unit(fs.truncate(dev, d, w))
        }
    }
}

fn script_fs(cache_cap: Option<usize>) -> (LogDisk, VgFs) {
    let mut dev = LogDisk {
        disk: MemDisk::new(1024),
        log: Vec::new(),
    };
    let mut fs = VgFs::mkfs(&mut dev, 64);
    if let Some(cap) = cache_cap {
        fs.cache_cap = cap;
    }
    (dev, fs)
}

/// Runs `ops` on an indexed and an oracle `VgFs`, comparing each call's
/// result, [`FsWork`] and cache state, then every directory listing, the
/// device traffic and the synced disk image.
fn check_script(cache_cap: Option<usize>, ops: &[Op]) -> Result<(), TestCaseError> {
    let (mut dev_a, mut fast) = script_fs(cache_cap);
    let (mut dev_b, mut slow) = script_fs(cache_cap);
    let setup = [Op::Mkdir { dir: 0, name: 3 }, Op::Mkdir { dir: 0, name: 4 }];
    for (i, op) in setup.iter().chain(ops).enumerate() {
        let (mut wa, mut wb) = (FsWork::default(), FsWork::default());
        let a = apply(&mut fast, &mut dev_a, op, false, &mut wa);
        let b = apply(&mut slow, &mut dev_b, op, true, &mut wb);
        prop_assert_eq!(&a, &b, "op {} {:?}", i, op);
        prop_assert_eq!(wa, wb, "op {} {:?}", i, op);
        prop_assert_eq!(cache_state(&fast), cache_state(&slow), "op {} {:?}", i, op);
    }
    for dir in 0..3 {
        let (mut wa, mut wb) = (FsWork::default(), FsWork::default());
        let a = fast.readdir(&mut dev_a, dir_path(dir), &mut wa);
        let b = slow.readdir_walk(&mut dev_b, dir_path(dir), &mut wb);
        prop_assert_eq!(a, b);
        prop_assert_eq!(wa, wb);
    }
    prop_assert_eq!(fast.sync(&mut dev_a), slow.sync(&mut dev_b));
    prop_assert_eq!(&dev_a.log, &dev_b.log);
    prop_assert_eq!(disk_hash(&dev_a.disk), disk_hash(&dev_b.disk));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn indexed_directory_calls_match_the_walk(
        ops in proptest::collection::vec(op_strategy(), 0..48),
    ) {
        check_script(None, &ops)?;
    }

    #[test]
    fn indexed_directory_calls_match_the_walk_under_an_8_block_cache(
        ops in proptest::collection::vec(op_strategy(), 0..48),
    ) {
        check_script(Some(8), &ops)?;
    }
}

/// A directory rewritten behind its index, to an image of the same length
/// that swaps two entries' inodes, answers from the new bytes.
#[test]
fn lookup_after_a_rewrite_behind_the_index_reads_the_new_bytes() {
    let mut dev = MemDisk::new(2048);
    let mut fs = VgFs::mkfs(&mut dev, 256);
    let mut w = FsWork::default();
    let d = fs.create(&mut dev, "/d", InodeKind::Dir, &mut w).unwrap();
    let a = fs
        .create(&mut dev, "/d/a", InodeKind::File, &mut w)
        .unwrap();
    let b = fs
        .create(&mut dev, "/d/b", InodeKind::File, &mut w)
        .unwrap();
    assert_eq!(fs.lookup(&mut dev, "/d/a", &mut w), Ok(a));
    assert!(fs.memos[&d.0].names.contains_key(&b"a"[..]), "indexed");

    let mut swapped = Vec::new();
    record(&mut swapped, b.0, b"a");
    record(&mut swapped, a.0, b"c");
    let before = fs.dir_image_owned(&mut dev, d, &mut w).unwrap();
    assert_eq!(swapped.len(), before.len());
    fs.write(&mut dev, d, 0, &swapped, &mut w).unwrap();

    assert_eq!(fs.lookup(&mut dev, "/d/a", &mut w), Ok(b));
    assert_eq!(fs.lookup(&mut dev, "/d/b", &mut w), Err(FsError::NotFound));
    assert_eq!(fs.lookup(&mut dev, "/d/c", &mut w), Ok(a));
    assert_eq!(fs.memos[&d.0].image, swapped);
}

/// Unlinking the first of two records with one name, in a canonical image
/// written behind vgfs, leaves the second one found.
#[test]
fn unlink_of_a_shadowing_record_uncovers_the_next() {
    let mut dev = MemDisk::new(2048);
    let mut fs = VgFs::mkfs(&mut dev, 256);
    let mut w = FsWork::default();
    let d = fs.create(&mut dev, "/d", InodeKind::Dir, &mut w).unwrap();
    let a = fs.create(&mut dev, "/a", InodeKind::File, &mut w).unwrap();
    let b = fs.create(&mut dev, "/b", InodeKind::File, &mut w).unwrap();
    let mut dup = Vec::new();
    record(&mut dup, a.0, b"n");
    record(&mut dup, 5, b"m");
    record(&mut dup, b.0, b"n");
    fs.write_dir_image(&mut dev, d, &dup, &mut w).unwrap();
    assert_eq!(fs.lookup(&mut dev, "/d/n", &mut w), Ok(a));
    assert!(fs.memos[&d.0].shadowed);
    fs.unlink(&mut dev, "/d/n", &mut w).unwrap();
    assert_eq!(fs.lookup(&mut dev, "/d/n", &mut w), Ok(b));
}

// ---- golden accounting pins -------------------------------------------------

/// FNV-1a over every written block (index, then contents).
fn disk_hash(dev: &MemDisk) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, blk) in dev.blocks.iter().enumerate() {
        if let Some(data) = blk {
            for &b in (i as u32).to_le_bytes().iter().chain(data) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// A fixed Postmark-style script: `/pm` gets 600 files, then 600 rounds
/// of read, append, unlink and create, then everything is removed.
fn golden_run(cache_cap: Option<usize>) -> (FsWork, usize, u64) {
    let mut dev = MemDisk::new(8192);
    let mut fs = VgFs::mkfs(&mut dev, 2048);
    if let Some(cap) = cache_cap {
        fs.cache_cap = cap;
    }
    let mut w = FsWork::default();
    fs.create(&mut dev, "/pm", InodeKind::Dir, &mut w).unwrap();
    let path = |i: usize| format!("/pm/f{i}");
    let mut live = vec![false; 1200];
    for (i, l) in live.iter_mut().enumerate().take(600) {
        let ino = fs
            .create(&mut dev, &path(i), InodeKind::File, &mut w)
            .unwrap();
        let len = (i * 37) % 4000 + 100;
        fs.write(&mut dev, ino, 0, &vec![i as u8; len], &mut w)
            .unwrap();
        *l = true;
    }
    let mut buf = vec![0u8; 8192];
    for t in 0..600 {
        let r = (t * 7) % 600;
        if live[r] {
            let ino = fs.lookup(&mut dev, &path(r), &mut w).unwrap();
            let (size, _) = fs.stat(&mut dev, ino, &mut w).unwrap();
            let n = (size as usize).min(buf.len());
            fs.read(&mut dev, ino, 0, &mut buf[..n], &mut w).unwrap();
        }
        let a = (t * 11) % 600;
        if live[a] {
            let ino = fs.lookup(&mut dev, &path(a), &mut w).unwrap();
            let (size, _) = fs.stat(&mut dev, ino, &mut w).unwrap();
            fs.write(&mut dev, ino, size, &[0x6d; 512], &mut w).unwrap();
        }
        let u = (t * 13) % 600;
        if live[u] {
            fs.unlink(&mut dev, &path(u), &mut w).unwrap();
            live[u] = false;
        }
        let ino = fs
            .create(&mut dev, &path(600 + t), InodeKind::File, &mut w)
            .unwrap();
        fs.write(&mut dev, ino, 0, &[t as u8; 700], &mut w).unwrap();
        live[600 + t] = true;
    }
    for (i, l) in live.iter().enumerate() {
        if *l {
            fs.unlink(&mut dev, &path(i), &mut w).unwrap();
        }
    }
    assert!(fs.readdir(&mut dev, "/pm", &mut w).unwrap().is_empty());
    fs.sync(&mut dev).unwrap();
    (w, fs.cached_blocks(), disk_hash(&dev))
}

/// Exact simulated accounting of [`golden_run`]. The constants were
/// captured by running this script on the code before the directory,
/// inode-allocation and buffer-cache fast paths existed; any change to
/// them is a change to the simulated cost model.
#[test]
fn golden_postmark_script_accounting_is_pinned() {
    let default_cache = golden_run(None);
    assert_eq!(
        default_cache,
        (
            FsWork {
                accesses: 6_848_005,
                branches: 649_759,
                disk_reads: 639,
                disk_writes: 0,
                bytes_copied: 25_153_086,
            },
            641,
            0x2c89_3397_79e7_ef4e,
        )
    );
    let small_cache = golden_run(Some(8));
    assert_eq!(
        small_cache,
        (
            FsWork {
                accesses: 6_848_005,
                branches: 649_759,
                disk_reads: 17_696,
                disk_writes: 6_685,
                bytes_copied: 25_153_086,
            },
            8,
            0x2c89_3397_79e7_ef4e,
        )
    );
}
