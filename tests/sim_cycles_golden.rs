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
#[rustfmt::skip]
const GOLDEN: [[(u64, u64); 6]; 5] = [
    [(11542225, 477240), (11542551, 477404), (10786293, 194633), (11514046, 448898), (11516639, 451496), (11248132, 181715)], // SGI-Challenge
    [(12103897, 1035724), (12104120, 1035785), (10982161, 386901), (12070035, 1001699), (12051565, 983234), (11268532, 197315)], // SGI-Origin2000
    [(38565466, 27240238), (38530196, 27197082), (21285890, 10425485), (12294042, 960928), (12685859, 1352745), (12035350, 696305)], // Paragon-HLRC
    [(30333621, 19073163), (30304676, 19037742), (17703690, 6909465), (12000412, 733478), (12305709, 1038775), (11815660, 545845)], // Typhoon0-HLRC
    [(12827412, 1740076), (12827412, 1740076), (11263203, 649052), (12778544, 1691208), (12773391, 1686059), (11343731, 249858)], // Typhoon0-SC
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
    if measured != GOLDEN {
        let mut table = String::new();
        for (row, cost) in measured.iter().zip(&platforms) {
            let cells: Vec<String> = row.iter().map(|(t, tr)| format!("({t}, {tr})")).collect();
            table += &format!("    [{}], // {}\n", cells.join(", "), cost.name);
        }
        panic!(
            "P=1 simulated cycles differ from the pinned table; measured \
             (columns {:?}):\n{table}",
            Algorithm::ALL.map(Algorithm::name)
        );
    }
}
