//! Keyed LRU cache of warm [`SimEngine`]s.
//!
//! Creating an engine is the expensive part of serving a job: it spawns a
//! worker pool, allocates the shared tree and per-processor scratch, and
//! (for simulated platforms) builds a whole [`ssmp::machine::Machine`].
//! The cache keeps finished engines parked, keyed by
//! [`EngineShape`](crate::job::EngineShape), so the next same-shape job
//! reuses the pool and allocations. PR 5's reuse certification makes this
//! bitwise-safe at one processor on the native environment; at higher
//! processor counts physics remains valid (the engine revalidates state
//! compatibility per run) but timings are scheduling-dependent as always.
//!
//! The cache is a pure data structure; the server serializes access with
//! its own mutex. Engines are *checked out* (removed) while a job runs, so
//! one engine never runs two jobs concurrently; if a job panics, the
//! executor simply does not return the engine, and the poisoned pool is
//! dropped rather than wedging future jobs.

use crate::job::EngineShape;
use bh_core::prelude::*;
use ssmp::machine::Machine;
use ssmp::platform;

/// An engine over either environment the server can run on. Both variants
/// are boxed: entries move between the cache vector and workers, and a
/// `SimEngine` is over a kilobyte of inline state.
pub enum AnyEngine {
    Native(Box<SimEngine<NativeEnv>>),
    Sim(Box<SimEngine<Machine>>),
}

impl AnyEngine {
    /// Build a fresh engine for the given shape (pool spawn + allocations).
    pub fn fresh(shape: &EngineShape) -> AnyEngine {
        match &shape.platform {
            crate::job::PlatformId::Native => {
                AnyEngine::Native(Box::new(SimEngine::new(NativeEnv::new(shape.procs))))
            }
            crate::job::PlatformId::Sim(name) => {
                let cost =
                    platform::by_name(name, shape.procs).expect("platform validated at admission");
                AnyEngine::Sim(Box::new(SimEngine::new(Machine::new(cost, shape.procs))))
            }
        }
    }

    /// Run a job on this engine, returning stats, final bodies, and the
    /// simulated cycle totals (zero on the native environment).
    pub fn run(&mut self, cfg: &SimConfig, bodies: &[Body]) -> (RunStats, Vec<Body>) {
        match self {
            AnyEngine::Native(e) => e.run_with_state(cfg, bodies),
            AnyEngine::Sim(e) => e.run_with_state(cfg, bodies),
        }
    }
}

/// Counters behind the `stats` protocol op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

struct Entry {
    shape: EngineShape,
    engine: AnyEngine,
    /// Logical clock of last use, for LRU eviction.
    last_used: u64,
}

/// LRU cache of parked engines. Duplicate shapes are allowed (two workers
/// can each hold a warm engine for the same popular shape).
pub struct EngineCache {
    entries: Vec<Entry>,
    capacity: usize,
    tick: u64,
    pub counters: CacheCounters,
}

impl EngineCache {
    pub fn new(capacity: usize) -> EngineCache {
        assert!(capacity > 0);
        EngineCache {
            entries: Vec::new(),
            capacity,
            tick: 0,
            counters: CacheCounters::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Take a parked engine matching `shape`, if any. Records a hit or a
    /// miss; on a miss the caller builds a fresh engine (outside the
    /// server lock — construction is slow).
    pub fn checkout(&mut self, shape: &EngineShape) -> Option<AnyEngine> {
        self.tick += 1;
        match self.entries.iter().position(|e| &e.shape == shape) {
            Some(i) => {
                self.counters.hits += 1;
                Some(self.entries.swap_remove(i).engine)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Park an engine after a successful job. Evicts the least recently
    /// used entry if the cache is at capacity.
    pub fn park(&mut self, shape: EngineShape, engine: AnyEngine) {
        self.tick += 1;
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("capacity > 0 implies non-empty at this point");
            self.entries.swap_remove(lru);
            self.counters.evictions += 1;
        }
        self.entries.push(Entry {
            shape,
            engine,
            last_used: self.tick,
        });
    }

    /// Drop every parked engine (graceful shutdown: pools park their
    /// threads on drop).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    fn shape(n: usize) -> EngineShape {
        let mut s = JobSpec::defaults(n);
        s.n = n;
        s.shape()
    }

    #[test]
    fn checkout_miss_then_hit() {
        let mut c = EngineCache::new(2);
        let s = shape(64);
        assert!(c.checkout(&s).is_none());
        assert_eq!(c.counters.misses, 1);
        c.park(s.clone(), AnyEngine::fresh(&s));
        assert!(c.checkout(&s).is_some());
        assert_eq!(c.counters.hits, 1);
        assert!(c.is_empty(), "checkout removes the entry");
    }

    #[test]
    fn lru_eviction_counts_and_prefers_oldest() {
        let mut c = EngineCache::new(2);
        let (s1, s2, s3) = (shape(64), shape(128), shape(256));
        c.park(s1.clone(), AnyEngine::fresh(&s1));
        c.park(s2.clone(), AnyEngine::fresh(&s2));
        // Touch s1 so s2 becomes the LRU entry.
        let e1 = c.checkout(&s1).unwrap();
        c.park(s1.clone(), e1);
        c.park(s3.clone(), AnyEngine::fresh(&s3));
        assert_eq!(c.counters.evictions, 1);
        assert_eq!(c.len(), 2);
        assert!(c.checkout(&s2).is_none(), "s2 was the LRU victim");
        assert!(c.checkout(&s1).is_some());
        assert!(c.checkout(&s3).is_some());
    }

    #[test]
    fn cached_engine_replays_physics_bitwise_at_one_proc() {
        let spec = JobSpec::defaults(96);
        let (cfg, bodies) = (spec.config(), spec.bodies());
        let direct = {
            let mut e = AnyEngine::fresh(&spec.shape());
            e.run(&cfg, &bodies).1
        };
        let mut c = EngineCache::new(2);
        c.park(spec.shape(), AnyEngine::fresh(&spec.shape()));
        let mut e = c.checkout(&spec.shape()).unwrap();
        let first = e.run(&cfg, &bodies).1;
        c.park(spec.shape(), e);
        let mut e = c.checkout(&spec.shape()).unwrap();
        let second = e.run(&cfg, &bodies).1;
        assert_eq!(
            crate::job::digest_bodies(&direct),
            crate::job::digest_bodies(&first)
        );
        assert_eq!(
            crate::job::digest_bodies(&first),
            crate::job::digest_bodies(&second)
        );
    }
}
