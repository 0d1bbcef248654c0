//! Pinned simulated cycles at P=1.
//!
//! With one simulated processor nothing in `ssmp::Machine` depends on real
//! thread interleaving, so `total_time()` and `tree_time()` are a pure
//! function of the cost model, the algorithm and the bodies. A change that
//! only makes the simulator faster on the host must leave every value here
//! as it is; a change to a cost model or to what an algorithm touches moves
//! them, and then the table is regenerated on purpose: the failure message
//! prints it in paste-ready form.
//!
//! Five presets x six algorithms, Plummer n=512, seed 1998, 1 warm-up and 2
//! measured steps. The values are the same in debug and release builds:
//! nothing an algorithm charges may sit inside a `debug_assert!`.

use bh_repro::bh_core::prelude::*;
use bh_repro::ssmp::{platform, Machine};

const N: usize = 512;
const SEED: u64 = 1998;

/// `GOLDEN[platform][algorithm] = (total_time, tree_time)`, platforms in
/// `platform::all_platforms` order, algorithms in `Algorithm::ALL` order.
///
/// Restated in PR 25, total half only: the default `group_size` went from
/// 16 to 64, so the force kernel walks the tree once per 64 bodies and
/// emits fewer list entries: every total falls by 117–136 k cycles
/// (1.0–1.2 %; 0.3–0.8 % in the HLRC platforms' tree-heavy ORIG, LOCAL
/// and UPDATE cells). Every `tree_time` is the parent's.
///
/// Restated again, both halves: each builder now allocates only the
/// state it reads. SPACE's partitioner arrays moved out of `World` into
/// SPACE's own builder (allocated after the tree), the never-read
/// `Arena::free_cells`, `World::sp_nsub` and the cells' and leaves' `owner`
/// bytes went, the free-stack depth is one word, and UPDATE stores its own
/// husk-list length with a timed store at step 0. Every lock, list entry,
/// interaction and final body bit is the parent's; only simulated
/// addresses (hence line and page sharing) and a few stores moved. 29 of
/// the 30 cells changed: totals by at most 0.27 % (Paragon UPDATE), tree
/// times by at most 3.6 % (Typhoon-0 HLRC MORTON, whose sort workspace
/// now starts 2 MiB lower).
#[rustfmt::skip]
const GOLDEN: [[(u64, u64); 6]; 5] = [
    [(11412924, 477396), (11412924, 477396), (10662320, 194643), (11384239, 448712), (11387462, 451934), (11118997, 181879)], // SGI-Challenge
    [(11974905, 1035777), (11974905, 1035777), (10858188, 386911), (11940743, 1001616), (11922491, 983363), (11139294, 197376)], // SGI-Origin2000
    [(38411265, 27211219), (38400917, 27200869), (21205840, 10481517), (12160895, 960846), (12576305, 1368320), (11933474, 720045)], // Paragon-HLRC
    [(30184575, 19049289), (30176132, 19040844), (17616465, 6955492), (11868695, 733406), (12193365, 1051560), (11709534, 565335)], // Typhoon0-HLRC
    [(12694399, 1740074), (12694399, 1740074), (11135511, 649023), (12645531, 1691206), (12640376, 1686055), (11210428, 249858)], // Typhoon0-SC
];
#[test]
fn p1_cycles_match_the_pinned_table() {
    let bodies = Model::Plummer.generate(N, SEED);
    let platforms = platform::all_platforms(1);
    let mut measured = [[(0u64, 0u64); 6]; 5];
    for (row, cost) in measured.iter_mut().zip(&platforms) {
        for (cell, alg) in row.iter_mut().zip(Algorithm::ALL) {
            let machine = Machine::new(cost.clone(), 1);
            let mut cfg = SimConfig::new(alg);
            cfg.warmup_steps = 1;
            cfg.measured_steps = 2;
            cfg.validate = false;
            let stats = run_simulation(&machine, &cfg, &bodies);
            *cell = (stats.total_time(), stats.tree_time());
        }
    }
    let mut table = String::new();
    for (row, cost) in measured.iter().zip(&platforms) {
        let cells: Vec<String> = row.iter().map(|(t, tr)| format!("({t}, {tr})")).collect();
        table += &format!("    [{}], // {}\n", cells.join(", "), cost.name);
    }
    let columns = Algorithm::ALL.map(Algorithm::name);
    // The paper's subject first: a change outside the tree phase (the force
    // kernel, the partition, the update) must leave this half alone.
    let tree = |t: &[[(u64, u64); 6]; 5]| t.map(|row| row.map(|(_, tree)| tree));
    assert!(
        tree(&measured) == tree(&GOLDEN),
        "P=1 tree-phase cycles differ from the pinned table; measured \
         (columns {columns:?}):\n{table}"
    );
    let total = |t: &[[(u64, u64); 6]; 5]| t.map(|row| row.map(|(total, _)| total));
    assert!(
        total(&measured) == total(&GOLDEN),
        "P=1 total cycles differ from the pinned table while every tree-phase \
         cycle holds; measured (columns {columns:?}):\n{table}"
    );
}
