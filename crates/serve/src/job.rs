//! Job specifications: what one simulation request asks for.
//!
//! A [`JobSpec`] is the validated, fully-defaulted form of a protocol
//! request (and of an in-process submission): scenario, algorithm, platform,
//! problem size, processor count, step counts and the force-kernel group
//! size. Its [`JobSpec::shape`] is the engine-cache key — two jobs with the
//! same shape can reuse one [`bh_core::engine::SimEngine`]'s worker pool and
//! allocations (PR 5 certified that reuse bitwise-safe at one processor).

use bh_core::force::MAX_GROUP_SIZE;
use bh_core::prelude::*;
use ssmp::platform;

/// Where a job runs: the native host or a simulated ssmp platform.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PlatformId {
    Native,
    /// A simulated platform, by `ssmp::platform::by_name` name.
    Sim(String),
}

impl PlatformId {
    pub fn parse(s: &str) -> Option<PlatformId> {
        if s.eq_ignore_ascii_case("native") {
            return Some(PlatformId::Native);
        }
        // Validate the name eagerly so a bad platform is an admission error,
        // not an executor panic.
        platform::by_name(s, 1).map(|cost| PlatformId::Sim(cost.name))
    }

    pub fn name(&self) -> &str {
        match self {
            PlatformId::Native => "native",
            PlatformId::Sim(name) => name,
        }
    }
}

/// Hard limits on what the server will run; violations are admission-time
/// `bad_request` errors, never executor panics.
pub const MAX_N: usize = 1 << 20;
pub const MIN_N: usize = 16;
pub const MAX_PROCS: usize = 32;
pub const MAX_STEPS: usize = 64;
/// The widest leaf the core's tree builders hold.
pub const MAX_K: usize = bh_core::tree::MAX_LEAF_BODIES;

/// One validated simulation job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub scenario: Model,
    pub algorithm: Algorithm,
    pub platform: PlatformId,
    pub n: usize,
    pub procs: usize,
    /// Measured steps (the paper's protocol; warm-up runs before them).
    pub steps: usize,
    pub warmup: usize,
    pub k: usize,
    pub group_size: usize,
    pub seed: u64,
}

impl JobSpec {
    /// A job with every optional knob at its default: Plummer scenario,
    /// PARTREE, one native processor, 1 warm-up + 1 measured step.
    pub fn defaults(n: usize) -> JobSpec {
        JobSpec {
            scenario: Model::Plummer,
            algorithm: Algorithm::Partree,
            platform: PlatformId::Native,
            n,
            procs: 1,
            steps: 1,
            warmup: 1,
            k: 8,
            group_size: SimConfig::new(Algorithm::Partree).group_size,
            seed: 1998,
        }
    }

    /// Check the spec against the admission limits.
    pub fn validate(&self) -> Result<(), String> {
        if !(MIN_N..=MAX_N).contains(&self.n) {
            return Err(format!("n {} out of range [{MIN_N}, {MAX_N}]", self.n));
        }
        if !(1..=MAX_PROCS).contains(&self.procs) {
            return Err(format!(
                "procs {} out of range [1, {MAX_PROCS}]",
                self.procs
            ));
        }
        if !(1..=MAX_STEPS).contains(&self.steps) {
            return Err(format!(
                "steps {} out of range [1, {MAX_STEPS}]",
                self.steps
            ));
        }
        if self.warmup > MAX_STEPS {
            return Err(format!(
                "warmup {} out of range [0, {MAX_STEPS}]",
                self.warmup
            ));
        }
        if !(1..=MAX_K).contains(&self.k) {
            return Err(format!("k {} out of range [1, {MAX_K}]", self.k));
        }
        if !(1..=MAX_GROUP_SIZE).contains(&self.group_size) {
            return Err(format!(
                "group_size {} out of range [1, {MAX_GROUP_SIZE}]",
                self.group_size
            ));
        }
        Ok(())
    }

    /// The allocation shape this job needs from an engine. Jobs with equal
    /// shapes reuse one engine's pool and allocations; the algorithm is
    /// *not* part of the shape for the builder map (`SimEngine` caches one
    /// builder per algorithm), but the tree layout is, because switching
    /// layouts reallocates the shared tree inside the engine.
    pub fn shape(&self) -> EngineShape {
        EngineShape {
            platform: self.platform.clone(),
            procs: self.procs,
            n: self.n,
            k: self.k,
            layout: self.algorithm.layout(),
        }
    }

    /// The simulation config this job runs with.
    pub fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(self.algorithm);
        cfg.k = self.k;
        cfg.warmup_steps = self.warmup;
        cfg.measured_steps = self.steps;
        cfg.group_size = self.group_size;
        cfg
    }

    /// The initial bodies (deterministic for the spec).
    pub fn bodies(&self) -> Vec<Body> {
        self.scenario.generate(self.n, self.seed)
    }

    /// Rough relative cost for deficit round-robin accounting: the dominant
    /// force-evaluation term, `steps * n log n` (the model `repro`'s `--jobs`
    /// prewarm also orders its runs by).
    pub fn cost(&self) -> u64 {
        let n = self.n as u64;
        (self.warmup + self.steps) as u64 * n * n.max(2).ilog2() as u64
    }
}

/// The engine-cache key: everything that determines an engine's allocation
/// shape (environment, pool width, state sizes, tree layout).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EngineShape {
    pub platform: PlatformId,
    pub procs: usize,
    pub n: usize,
    pub k: usize,
    pub layout: TreeLayout,
}

/// FNV-1a over the exact bit patterns of the final body state. Equal
/// digests across the served and direct paths certify bitwise-identical
/// physics (the acceptance gate at one processor, where runs are fully
/// deterministic).
pub fn digest_bodies(bodies: &[Body]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for b in bodies {
        eat(b.pos.x);
        eat(b.pos.y);
        eat(b.pos.z);
        eat(b.vel.x);
        eat(b.vel.y);
        eat(b.vel.z);
        eat(b.mass);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_out_of_range_fields() {
        let ok = JobSpec::defaults(256);
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.n = 4;
        assert!(bad.validate().unwrap_err().contains("n 4"));
        let mut bad = ok.clone();
        bad.procs = 64;
        assert!(bad.validate().unwrap_err().contains("procs 64"));
        let mut bad = ok.clone();
        bad.steps = 0;
        assert!(bad.validate().is_err());
        for gs in [0, 65, 1000] {
            let mut bad = ok.clone();
            bad.group_size = gs;
            assert!(bad.validate().unwrap_err().contains("group_size"), "{gs}");
        }
        for gs in [1, 64] {
            let mut good = ok.clone();
            good.group_size = gs;
            assert!(good.validate().is_ok(), "{gs}");
        }
    }

    #[test]
    fn leaf_threshold_is_bounded_by_what_the_builders_hold() {
        let mut spec = JobSpec::defaults(64);
        spec.k = MAX_K + 1;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("k 17 out of range [1, 16]"), "{err}");
        spec.k = MAX_K;
        spec.validate().expect("k = 16 is admitted");
        let mut engine = crate::cache::AnyEngine::fresh(&spec.shape());
        let out = crate::exec::run_job(&mut engine, &spec);
        assert_eq!(out.steps, spec.steps);
    }

    #[test]
    fn shapes_distinguish_layout_but_not_algorithm() {
        let a = JobSpec::defaults(256);
        let mut b = a.clone();
        b.algorithm = Algorithm::Space; // same per-processor layout
        assert_eq!(a.shape(), b.shape());
        let mut c = a.clone();
        c.algorithm = Algorithm::Orig; // global layout
        assert_ne!(a.shape(), c.shape());
    }

    #[test]
    fn platform_ids_parse_and_name() {
        assert_eq!(PlatformId::parse("native"), Some(PlatformId::Native));
        let p = PlatformId::parse("origin2000").expect("known platform");
        assert_eq!(PlatformId::parse(p.name()), Some(p));
        assert!(PlatformId::parse("cray").is_none());
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let a = Model::Plummer.generate(32, 1);
        let mut b = a.clone();
        assert_eq!(digest_bodies(&a), digest_bodies(&b));
        b[0].pos.x = f64::from_bits(b[0].pos.x.to_bits() ^ 1);
        assert_ne!(digest_bodies(&a), digest_bodies(&b));
    }
}
