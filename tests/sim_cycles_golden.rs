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
///
/// Restated a third time, both halves: the tree state only UPDATE reads (each
/// body's leaf, the leaf parent and bounds mirrors, the leaf free stacks
/// and the root cube) left `World` and `SharedTree` for UPDATE's own
/// builder, so ORIG, LOCAL, PARTREE and SPACE no longer store a body's leaf
/// and a new leaf's parent and bounds on every insertion. UPDATE reads a
/// leaf's parent and bounds from its record, and every builder reads its
/// zone bounds with timed loads. Every lock, list entry, interaction and
/// final body bit is the parent's. Tree times fell on the HLRC platforms
/// by 26–32 % for ORIG and LOCAL, 6–7 % for UPDATE, PARTREE and MORTON
/// (whose unused tree shrank) and 4 % for SPACE; elsewhere no cell moved
/// by more than 1.8 %, and the one cell that rose (Typhoon-0 SC MORTON)
/// rose by 12 cycles.
#[rustfmt::skip]
const GOLDEN: [[(u64, u64); 6]; 5] = [
    [(11408503, 472967), (11408315, 472803), (10658747, 191062), (11379630, 444119), (11383522, 448010), (11118819, 181719)], // SGI-Challenge
    [(11970484, 1031348), (11970399, 1031287), (10855130, 383845), (11936237, 997126), (11918860, 979748), (11139219, 197319)], // SGI-Origin2000
    [(31300085, 20080022), (31075520, 19861534), (20628346, 9896147), (12117332, 903345), (12541536, 1319613), (11886014, 672705)], // Paragon-HLRC
    [(24347050, 13196377), (24162710, 13016504), (17141216, 6473777), (11832152, 685945), (12164216, 1011493), (11670574, 526475)], // Typhoon0-HLRC
    [(12689978, 1735645), (12689978, 1735645), (11134065, 647569), (12641110, 1686777), (12636891, 1682562), (11210440, 249862)], // Typhoon0-SC
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
