//! The best sequential version of the application — no locks, no shared
//! memory bookkeeping — and the tests' physics oracle. (The experiments'
//! speedups divide by a simulated run instead: PARTREE on one processor.)

use crate::body::Body;
use crate::force::{seq_accel, ForceParams};
use crate::math::Vec3;
use crate::tree::seq::SeqTree;
use std::time::Instant;

/// Wall-clock time (nanoseconds) spent in each phase of a sequential run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqTimes {
    pub tree: u64,
    pub force: u64,
    pub update: u64,
}

impl SeqTimes {
    pub fn total(&self) -> u64 {
        self.tree + self.force + self.update
    }
}

/// Advance `bodies` by one time step sequentially; returns phase times.
pub fn seq_step(bodies: &mut [Body], k: usize, params: &ForceParams, dt: f64) -> SeqTimes {
    let t0 = Instant::now();
    let tree = SeqTree::build(bodies, k);
    let t1 = Instant::now();
    let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let accs: Vec<Vec3> = (0..bodies.len() as u32)
        .map(|b| seq_accel(&tree, &pos, &mass, b, params).0)
        .collect();
    let t2 = Instant::now();
    for (b, acc) in bodies.iter_mut().zip(accs) {
        b.vel += acc * dt;
        b.pos += b.vel * dt;
    }
    let t3 = Instant::now();
    SeqTimes {
        tree: (t1 - t0).as_nanos() as u64,
        force: (t2 - t1).as_nanos() as u64,
        update: (t3 - t2).as_nanos() as u64,
    }
}

/// Run `steps` sequential time steps; returns the summed phase times.
pub fn seq_run(
    bodies: &mut [Body],
    k: usize,
    params: &ForceParams,
    dt: f64,
    steps: usize,
) -> SeqTimes {
    let mut acc = SeqTimes::default();
    for _ in 0..steps {
        let t = seq_step(bodies, k, params, dt);
        acc.tree += t.tree;
        acc.force += t.force;
        acc.update += t.update;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::total_energy;
    use crate::model::Model;

    #[test]
    fn tree_build_is_small_fraction_sequentially() {
        // The paper's premise: tree building takes < a few percent of a
        // sequential step (force calculation dominates).
        let mut bodies = Model::Plummer.generate(4000, 5);
        let params = ForceParams {
            theta: 0.8,
            ..Default::default()
        };
        let t = seq_run(&mut bodies, 8, &params, 0.01, 2);
        let frac = t.tree as f64 / t.total() as f64;
        assert!(
            frac < 0.25,
            "sequential tree fraction {frac} unexpectedly high"
        );
    }

    #[test]
    fn energy_is_approximately_conserved() {
        let mut bodies = Model::Plummer.generate(600, 12);
        let params = ForceParams {
            theta: 0.5,
            eps: 0.05,
            gravity: 1.0,
        };
        let e0 = total_energy(&bodies, params.gravity, params.eps);
        seq_run(&mut bodies, 8, &params, 0.005, 10);
        let e1 = total_energy(&bodies, params.gravity, params.eps);
        let drift = ((e1 - e0) / e0.abs()).abs();
        assert!(drift < 0.05, "energy drift {drift} over 10 steps");
    }

    #[test]
    fn momentum_is_conserved() {
        let mut bodies = Model::Plummer.generate(500, 3);
        let params = ForceParams::default();
        let p0: crate::math::Vec3 = bodies.iter().map(|b| b.vel * b.mass).sum();
        seq_run(&mut bodies, 8, &params, 0.01, 5);
        let p1: crate::math::Vec3 = bodies.iter().map(|b| b.vel * b.mass).sum();
        // BH forces are not exactly pairwise-symmetric, so allow a small drift.
        assert!((p1 - p0).norm() < 0.02, "momentum drift {:?}", p1 - p0);
    }
}
