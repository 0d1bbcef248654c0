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
#[rustfmt::skip]
const GOLDEN: [[(u64, u64); 6]; 5] = [
    [(11412745, 477240), (11412933, 477404), (10662310, 194633), (11384428, 448898), (11387021, 451496), (11118807, 181715)], // SGI-Challenge
    [(11974829, 1035724), (11974914, 1035785), (10858178, 386901), (11940829, 1001699), (11922359, 983234), (11139207, 197315)], // SGI-Origin2000
    [(38448224, 27240238), (38405067, 27197082), (21149874, 10425485), (12168913, 960928), (12560730, 1352745), (11909742, 696305)], // Paragon-HLRC
    [(30214969, 19073163), (30179547, 19037742), (17570494, 6909465), (11875283, 733478), (12180580, 1038775), (11690052, 545845)], // Typhoon0-HLRC
    [(12694401, 1740076), (12694401, 1740076), (11135540, 649052), (12645533, 1691208), (12640380, 1686059), (11210428, 249858)], // Typhoon0-SC
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
