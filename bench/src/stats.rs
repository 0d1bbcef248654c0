//! Sample summaries. Percentiles are nearest-rank (always an observed
//! value), the same rule the repository's own tables use.

use std::time::Instant;

pub use bh_core::prelude::percentile_f64 as percentile;

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Time `f` in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, ms_since(t0))
}

/// Median cost of one call of `f`, in nanoseconds: `batches` timed batches
/// of `per_batch` calls each, median over the batches.
pub fn ns_per_call(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// The host calibration loop: a fixed xorshift + square-root chain that
/// touches no memory. Timed once per round in every workload; if its
/// median moved between two sets of runs, the machine moved, not the code.
pub fn calib_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0f64;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += ((x >> 11) as f64).sqrt();
    }
    std::hint::black_box(acc);
    ms_since(t0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(median(&v), 5.0, "even count takes the lower middle");
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ns_per_call_grows_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 1u64;
                for i in 0..n {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
                }
                std::hint::black_box(x);
            }
        };
        let small = ns_per_call(5, 200, spin(100));
        let large = ns_per_call(5, 200, spin(10_000));
        assert!(large > 10.0 * small, "{small} ns vs {large} ns");
    }
}
