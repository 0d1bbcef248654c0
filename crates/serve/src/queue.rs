//! Bounded admission queue with per-tenant deficit round-robin fairness.
//!
//! The queue is a pure data structure (no locking, no threads) so its
//! fairness and backpressure behaviour can be tested exhaustively; the
//! server wraps it in one mutex. Admission is bounded by a global capacity:
//! a full queue rejects with an explicit `queue_full` — the server never
//! buffers unboundedly and the client always learns it was shed.
//!
//! Dispatch is deficit round-robin (Shreedhar & Varghese): each tenant has
//! a weight-scaled quantum of "cost credit" added when its turn comes
//! around, and may dispatch jobs until the next job's cost exceeds its
//! accumulated deficit. Costs come from [`crate::job::JobSpec::cost`]
//! (`steps * n log n`), so a tenant submitting huge jobs cannot starve a
//! tenant submitting small ones just by keeping the queue non-empty.

use std::collections::VecDeque;

/// Per-tenant accounting, reported in server stats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantCounters {
    pub enqueued: u64,
    pub served: u64,
    pub rejected: u64,
}

struct Tenant<T> {
    name: String,
    weight: u32,
    deficit: u64,
    jobs: VecDeque<(u64, T)>, // (cost, payload)
    counters: TenantCounters,
}

/// Bounded multi-tenant queue. `T` is the queued payload (the server queues
/// ready-to-run tasks; tests queue labels).
pub struct AdmissionQueue<T> {
    tenants: Vec<Tenant<T>>,
    /// Round-robin cursor into `tenants`.
    cursor: usize,
    /// Total queued jobs across all tenants.
    len: usize,
    capacity: usize,
    /// Base quantum of cost credit per DRR turn (scaled by tenant weight).
    quantum: u64,
    /// Lifetime high-water mark of `len`.
    pub depth_hwm: usize,
    /// Total rejections due to a full queue.
    pub rejected_full: u64,
}

impl<T> AdmissionQueue<T> {
    /// `capacity` bounds the total queued jobs; `quantum` is the per-turn
    /// cost credit for a weight-1 tenant (see [`crate::job::JobSpec::cost`]
    /// for the cost scale — a quantum around one mid-size job's cost gives
    /// fine-grained interleaving).
    pub fn new(capacity: usize, quantum: u64) -> AdmissionQueue<T> {
        assert!(capacity > 0 && quantum > 0);
        AdmissionQueue {
            tenants: Vec::new(),
            cursor: 0,
            len: 0,
            capacity,
            quantum,
            depth_hwm: 0,
            rejected_full: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn tenant_index(&mut self, name: &str, weight: u32) -> usize {
        if let Some(i) = self.tenants.iter().position(|t| t.name == name) {
            return i;
        }
        self.tenants.push(Tenant {
            name: name.to_string(),
            weight: weight.max(1),
            deficit: 0,
            jobs: VecDeque::new(),
            counters: TenantCounters::default(),
        });
        self.tenants.len() - 1
    }

    /// Set a tenant's fair-share weight (default 1). Creates the tenant's
    /// lane if it does not exist yet.
    pub fn set_weight(&mut self, tenant: &str, weight: u32) {
        let i = self.tenant_index(tenant, weight);
        self.tenants[i].weight = weight.max(1);
    }

    /// Admit a job, or reject it with `Err(payload)` if the queue is at
    /// capacity (the payload is handed back so the caller can answer the
    /// client with `queue_full`).
    pub fn push(&mut self, tenant: &str, cost: u64, payload: T) -> Result<(), T> {
        let i = self.tenant_index(tenant, 1);
        if self.len >= self.capacity {
            self.tenants[i].counters.rejected += 1;
            self.rejected_full += 1;
            return Err(payload);
        }
        self.tenants[i].jobs.push_back((cost.max(1), payload));
        self.tenants[i].counters.enqueued += 1;
        self.len += 1;
        self.depth_hwm = self.depth_hwm.max(self.len);
        Ok(())
    }

    /// Dispatch the next job under deficit round-robin, together with its
    /// tenant name. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(String, T)> {
        if self.len == 0 {
            return None;
        }
        // At most two sweeps: the first tops up deficits, and because some
        // tenant is non-empty, within two sweeps someone's deficit covers
        // its head job (deficit grows by quantum*weight >= 1 per sweep and
        // is retained while the lane is non-empty).
        loop {
            let n = self.tenants.len();
            for _ in 0..n {
                let i = self.cursor % n;
                self.cursor = (self.cursor + 1) % n;
                let t = &mut self.tenants[i];
                if t.jobs.is_empty() {
                    // An idle tenant accumulates no credit — otherwise a
                    // long-idle tenant could burst far past its share.
                    t.deficit = 0;
                    continue;
                }
                t.deficit = t.deficit.saturating_add(self.quantum * t.weight as u64);
                if let Some(&(cost, _)) = t.jobs.front() {
                    if cost <= t.deficit {
                        let (cost, payload) = t.jobs.pop_front().unwrap();
                        t.deficit -= cost;
                        t.counters.served += 1;
                        self.len -= 1;
                        if t.jobs.is_empty() {
                            t.deficit = 0;
                        }
                        return Some((t.name.clone(), payload));
                    }
                }
            }
        }
    }

    /// Drain every queued job in DRR order (used for shutdown).
    pub fn drain(&mut self) -> Vec<(String, T)> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(job) = self.pop() {
            out.push(job);
        }
        out
    }

    /// Per-tenant counters, sorted by tenant name for stable reporting.
    pub fn counters(&self) -> Vec<(String, TenantCounters)> {
        let mut rows: Vec<_> = self
            .tenants
            .iter()
            .map(|t| (t.name.clone(), t.counters.clone()))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_when_full_and_reports_it() {
        let mut q = AdmissionQueue::new(2, 100);
        assert!(q.push("a", 10, "j1").is_ok());
        assert!(q.push("a", 10, "j2").is_ok());
        assert_eq!(q.push("b", 10, "j3"), Err("j3"));
        assert_eq!(q.rejected_full, 1);
        assert_eq!(q.depth_hwm, 2);
        let c = q.counters();
        assert_eq!(c[1].0, "b");
        assert_eq!(c[1].1.rejected, 1);
        // Popping frees capacity again.
        q.pop().unwrap();
        assert!(q.push("b", 10, "j4").is_ok());
    }

    #[test]
    fn round_robin_interleaves_equal_tenants() {
        let mut q = AdmissionQueue::new(16, 100);
        for i in 0..4 {
            q.push("a", 50, format!("a{i}")).unwrap();
            q.push("b", 50, format!("b{i}")).unwrap();
        }
        let order: Vec<String> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        // Equal weights and equal costs: strict alternation.
        assert_eq!(order, ["a", "b", "a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn expensive_jobs_do_not_starve_cheap_tenant() {
        let mut q = AdmissionQueue::new(64, 100);
        // Tenant "big" queues jobs costing 10 quanta each; tenant "small"
        // queues 10 cheap jobs. DRR must not serve all of "big" first.
        for i in 0..4 {
            q.push("big", 1000, format!("B{i}")).unwrap();
        }
        for i in 0..10 {
            q.push("small", 10, format!("s{i}")).unwrap();
        }
        let mut small_done = 0;
        let mut big_done = 0;
        while big_done < 2 {
            let (t, _) = q.pop().unwrap();
            if t == "small" {
                small_done += 1;
            } else {
                big_done += 1;
            }
        }
        // By the time two big jobs ran, all ten small jobs (total cost 100,
        // a tenth of one big job) must have been served.
        assert_eq!(small_done, 10, "cheap tenant starved behind big jobs");
    }

    #[test]
    fn weights_bias_service_proportionally() {
        let mut q = AdmissionQueue::new(256, 50);
        q.set_weight("gold", 3);
        q.set_weight("bronze", 1);
        for i in 0..40 {
            q.push("gold", 100, format!("g{i}")).unwrap();
            q.push("bronze", 100, format!("b{i}")).unwrap();
        }
        // After 20 dispatches, gold should have roughly 3x bronze's share.
        let mut gold = 0;
        for _ in 0..20 {
            if q.pop().unwrap().0 == "gold" {
                gold += 1;
            }
        }
        assert!((14..=16).contains(&gold), "gold got {gold}/20");
    }

    #[test]
    fn idle_tenant_does_not_bank_credit() {
        let mut q = AdmissionQueue::new(64, 100);
        q.push("a", 100, "a0".to_string()).unwrap();
        q.push("b", 100, "b0".to_string()).unwrap();
        for _ in 0..2 {
            q.pop().unwrap();
        }
        // "b" sat idle through many rounds of "a" traffic...
        for i in 0..8 {
            q.push("a", 100, format!("a{i}")).unwrap();
        }
        while q.pop().is_some() {}
        // ...and when it returns it cannot burst ahead: service alternates.
        for i in 0..3 {
            q.push("a", 100, format!("x{i}")).unwrap();
            q.push("b", 100, format!("y{i}")).unwrap();
        }
        let first_two: Vec<String> = (0..2).map(|_| q.pop().unwrap().0).collect();
        assert!(first_two.contains(&"a".to_string()));
        assert!(first_two.contains(&"b".to_string()));
    }

    #[test]
    fn drain_empties_in_fair_order() {
        let mut q = AdmissionQueue::new(16, 100);
        q.push("a", 10, 1).unwrap();
        q.push("b", 10, 2).unwrap();
        q.push("a", 10, 3).unwrap();
        let drained = q.drain();
        assert_eq!(drained.len(), 3);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
