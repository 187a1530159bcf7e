//! The paper's reproduced claims, pinned as tests with stated bands.
//!
//! Tables 2–4 and Figures 2–4 read their measured values from the same
//! `vg_bench` runners that `paper-tables` prints (`vg_bench::table2`,
//! `tables_3_4`, `figure2`, `figure3`, `figure4`), at `Scale::FAST`, the
//! `paper-tables --fast` scale, and compare them with the paper's values
//! in `vg_bench::PAPER_TABLE*`. A printed table and its band therefore
//! run the same code at a scale defined once.
//!
//! Table 2 (LMBench): each of the nine Virtual Ghost / native
//! latency ratios stays within ±12% of the paper's. The widest gap is
//! signal delivery, 1.75× against the paper's 1.61× (+8.4%).
//!
//! Tables 3–4 (LMBench file deletion and creation), at the paper's 0, 1,
//! 4 and 10 KB sizes; each overhead is native files/sec over Virtual Ghost
//! files/sec.
//! - Table 3: each deletion overhead stays within ±12% of the paper's
//!   (today: 4.41–4.42× against the paper's 4.43–4.61×).
//! - Table 4: the 0 KB creation overhead matches the paper's 4.63×
//!   (today: 4.62×), but the model's overhead falls as files grow while
//!   the paper's rises: 4.03×, 3.85× and 3.28× at 1, 4 and 10 KB against
//!   5.21×, 5.19× and 4.72×, 23–31% low, because the model charges the
//!   data copy the same under both modes. Each band holds today's value
//!   ±5% so drift shows, and states the gap rather than hiding it in a
//!   wide band, as the Figure 3 mean does.
//!
//! Table 5 (Postmark, §8.5): Virtual Ghost runs the mail-server mix 4.72×
//! slower than native FreeBSD. No artefact runs Postmark at this test's
//! scale (50 base files, 200 transactions, seeds 1 and 2), so it drives
//! Postmark itself. The simulator gives ~4.1–4.2×; the band accepts the
//! paper's figure ±20%.
//!
//! Figures 2–4 (thttpd and ssh bandwidth):
//! - Figure 2: the paper sees negligible thttpd impact; VG/native stays
//!   within ±1% of 1.0 at every size (today: exactly 1.0).
//! - Figure 3: the paper's worst sshd reduction is 45%, at small files;
//!   ours stays within ±12% of it (today: 40.1%, at 64 KB). The paper's
//!   mean reduction is 23%; ours is 29.6%, because the model holds every
//!   size from 1 to 64 KB at a 39–40% reduction and only 256 KB and up
//!   recover. The band holds today's mean ±5% so drift shows, and states
//!   the gap rather than hiding it in a wide band.
//! - Figure 4: the ghosting ssh client loses at most 5% against the
//!   original; ghost/orig stays ≥ 0.95 at every size (today's lowest:
//!   0.995, at 64 KB).
//!
//! The exact cycle and [`Counters`] pins below were captured by running
//! this test on the code before vgfs gained its in-place directory scan,
//! block-at-a-time inode allocation and single-map buffer cache. Host-speed
//! work must leave them bit-identical; a change to them is a change to the
//! cost model and must say so.

use vg_apps::postmark::{self, PostmarkConfig};
use vg_bench::{Scale, PAPER_TABLE2, PAPER_TABLE3, PAPER_TABLE4, PAPER_TABLE5};
use vg_kernel::{Mode, System};
use vg_machine::Counters;

/// Allowed relative distance of a Table 2 ratio from the paper's.
const TABLE2_BAND: f64 = 0.12;

/// Allowed relative distance of a Table 3 deletion overhead from the
/// paper's.
const TABLE3_BAND: f64 = 0.12;

/// Table 4's creation overheads this model reproduces at `Scale::FAST`,
/// in [`PAPER_TABLE4`] order.
const MODEL_TABLE4: [f64; 4] = [4.62, 4.03, 3.85, 3.28];

/// Figure 3's worst-case sshd bandwidth reduction in the paper.
const PAPER_FIGURE3_WORST: f64 = 0.45;

/// Figure 3's mean sshd bandwidth reduction in the paper.
const PAPER_FIGURE3_MEAN: f64 = 0.23;

/// Figure 3's mean reduction this model reproduces at `Scale::FAST`.
const MODEL_FIGURE3_MEAN: f64 = 0.296;

/// Runs the test-scale Postmark; returns total simulated cycles (boot
/// included), the counters, and the timed phase in simulated seconds.
fn postmark_run(mode: Mode, seed: u64) -> (u64, Counters, f64) {
    let mut sys = System::boot(mode);
    let r = postmark::run(
        &mut sys,
        PostmarkConfig {
            base_files: 50,
            transactions: 200,
            seed,
            ..Default::default()
        },
    );
    (sys.machine.clock.cycles(), sys.machine.counters, r.seconds)
}

/// The counters of one Postmark run: identical under both modes, since
/// they count logical events, not cycles.
#[allow(clippy::too_many_arguments)]
fn counters(
    syscalls: u64,
    kernel_accesses: u64,
    kernel_branches: u64,
    bytes_copied: u64,
    disk_blocks: u64,
    tlb_hits: [u64; 3],
) -> Counters {
    Counters {
        traps: syscalls + 1,
        syscalls,
        page_faults: 1,
        pte_updates: 1,
        kernel_accesses,
        kernel_branches,
        bytes_copied,
        disk_blocks,
        context_switches: 1,
        tlb_hits,
        tlb_misses: [0, 2, 0],
        ..Counters::default()
    }
}

#[test]
fn table5_postmark_cycles_and_counters_are_pinned() {
    let seed1 = counters(3613, 4_018_706, 165_890, 2_962_594, 116, [1729, 959, 0]);
    let seed2 = counters(3948, 4_125_359, 169_471, 3_281_107, 127, [1828, 1170, 0]);
    let expect = [
        (Mode::Native, 1, 14_762_866, seed1),
        (Mode::VirtualGhost, 1, 61_285_346, seed1),
        (Mode::Native, 2, 15_332_467, seed2),
        (Mode::VirtualGhost, 2, 63_273_101, seed2),
    ];
    for (mode, seed, cycles, ctrs) in expect {
        let label = format!("{mode:?} seed {seed}");
        let (got_cycles, got_ctrs, _) = postmark_run(mode, seed);
        assert_eq!(got_cycles, cycles, "{label}: simulated cycles");
        assert_eq!(got_ctrs, ctrs, "{label}: counters");
    }
}

#[test]
fn table5_postmark_ratio_within_band_of_paper() {
    let paper = PAPER_TABLE5.1 / PAPER_TABLE5.0;
    let band = paper * 0.8..paper * 1.2;
    for seed in [1, 2] {
        let (_, _, native) = postmark_run(Mode::Native, seed);
        let (_, _, vg) = postmark_run(Mode::VirtualGhost, seed);
        let ratio = vg / native;
        assert!(
            band.contains(&ratio),
            "seed {seed}: Postmark VG/native {ratio:.3} outside {band:?}"
        );
    }
}

#[test]
fn table3_deletion_overheads_within_band_of_paper() {
    let mut outside = Vec::new();
    for (((_, delete_n), (_, delete_v)), paper) in vg_bench::tables_3_4(&Scale::FAST)
        .into_iter()
        .zip(PAPER_TABLE3)
    {
        let delete = delete_n / delete_v;
        let (label, paper) = (paper.0, paper.2 / paper.3);
        let band = paper * (1.0 - TABLE3_BAND)..paper * (1.0 + TABLE3_BAND);
        if !band.contains(&delete) {
            outside.push(format!("{label}: deletion {delete:.3}x outside {band:.3?}"));
        }
    }
    assert!(outside.is_empty(), "{outside:#?}");
}

#[test]
fn table4_creation_overheads_pinned_below_paper() {
    let mut outside = Vec::new();
    let rows = vg_bench::tables_3_4(&Scale::FAST)
        .into_iter()
        .zip(PAPER_TABLE4);
    for ((((create_n, _), (create_v, _)), paper), model) in rows.zip(MODEL_TABLE4) {
        let create = create_n / create_v;
        // The gap to the paper is stated in the module docs; the band pins
        // today's value so it cannot drift unnoticed.
        let band = model * 0.95..model * 1.05;
        if !band.contains(&create) {
            let (label, paper) = (paper.0, paper.2 / paper.3);
            outside.push(format!(
                "{label}: creation {create:.3}x outside {band:.3?} (paper: {paper:.2}x)"
            ));
        }
    }
    assert!(outside.is_empty(), "{outside:#?}");
}

#[test]
fn table2_overhead_ratios_within_band_of_paper() {
    let rows = vg_bench::table2(&Scale::FAST);
    assert_eq!(rows.len(), PAPER_TABLE2.len());
    let mut outside = Vec::new();
    for ((n, v), &(name, paper_native, paper_vg, _)) in rows.iter().zip(PAPER_TABLE2) {
        assert_eq!((n.name.as_str(), v.name.as_str()), (name, name));
        let ratio = v.micros / n.micros;
        let paper = paper_vg / paper_native;
        let band = paper * (1.0 - TABLE2_BAND)..paper * (1.0 + TABLE2_BAND);
        if !band.contains(&ratio) {
            outside.push(format!("{name}: VG/native {ratio:.3} outside {band:.3?}"));
        }
    }
    assert!(outside.is_empty(), "{outside:#?}");
}

#[test]
fn figure2_thttpd_overhead_is_negligible() {
    for (kb, native, vg) in vg_bench::figure2(&Scale::FAST) {
        let ratio = vg / native;
        assert!(
            (0.99..=1.01).contains(&ratio),
            "{kb} KB: thttpd VG/native {ratio:.4} outside 1.0 ± 1%"
        );
    }
}

#[test]
fn figure3_sshd_reduction_worst_case_and_mean() {
    let reductions: Vec<f64> = vg_bench::figure3(&Scale::FAST)
        .into_iter()
        .map(|(_, native, vg)| 1.0 - vg / native)
        .collect();
    let worst = reductions.iter().copied().fold(f64::MIN, f64::max);
    let band = PAPER_FIGURE3_WORST * 0.88..PAPER_FIGURE3_WORST * 1.12;
    assert!(
        band.contains(&worst),
        "worst-case reduction {worst:.3} outside {band:.3?} (paper 45% ± 12%): {reductions:.3?}"
    );
    // The mean stays above the paper's 23% (see the module docs); the
    // band pins today's value so the gap cannot drift unnoticed.
    let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
    let band = MODEL_FIGURE3_MEAN * 0.95..MODEL_FIGURE3_MEAN * 1.05;
    assert!(
        band.contains(&mean),
        "mean reduction {mean:.4} outside {band:.4?} (paper: {PAPER_FIGURE3_MEAN}): {reductions:.3?}"
    );
}

#[test]
fn figure4_ghosting_client_loses_at_most_five_percent() {
    for (kb, original, ghosting) in vg_bench::figure4(&Scale::FAST) {
        let ratio = ghosting / original;
        assert!(
            ratio >= 0.95,
            "{kb} KB: ghosting/original ssh client {ratio:.4} below 0.95"
        );
    }
}
