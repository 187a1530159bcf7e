//! vgfs fast-path equivalence and golden accounting pins.
//!
//! The directory edits (`find_dirent`, `compact_dir` + `push_dirent`) are
//! checked against `parse_dir` plus the pre-fast-path serializer, and the
//! block-batched `alloc_inode` against a loop of per-inode `read_inode`
//! calls — same inode, same [`FsWork`], same cache contents and LRU ticks,
//! same device traffic. The golden pins then fix the whole simulated
//! contract of a Postmark-style run.

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

/// vgfs itself writes only canonical images, so its creates and unlinks
/// take `compact_dir`'s in-place branch: same bytes as the rebuild, same
/// buffer.
#[test]
fn canonical_images_are_edited_in_place() {
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
    let raw = fs.dir_image(&mut dev, d, &mut w).unwrap();
    assert_eq!(raw, serialize_entries(&parse_dir(&raw)));
    assert_eq!(parse_dir(&raw).len(), 40 - 14);

    let (rec, _) = find_dirent(&raw, "n7").unwrap();
    let mut edited = raw.clone();
    let buffer = edited.as_ptr();
    compact_dir(&mut edited, Some(rec));
    assert_eq!(edited.as_ptr(), buffer, "canonical image was rebuilt");
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
    let raw = fs.dir_image(&mut dev, d, &mut w).unwrap();
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
