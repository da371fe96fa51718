//! A forwarding [`MetricSpace`] wrapper that attributes metric-layer work
//! from outside the program: every trait method forwards to the wrapped
//! space's own implementation (so its specialised kernels still run), and
//! the batched entry points are counted in calls and pairs and timed.
//! Scalar `dist` / `within` calls are counted only: timing a call that
//! takes nanoseconds would cost more than the call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mpc_clustering::metric::{KernelStats, MetricSpace, PointId};

/// Calls, pairs and busy nanoseconds of one family of entry points.
#[derive(Debug, Default)]
struct Family {
    calls: AtomicU64,
    pairs: AtomicU64,
    busy_ns: AtomicU64,
}

impl Family {
    fn time<R>(&self, pairs: usize, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        let ns = started.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.pairs.fetch_add(pairs as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    fn snapshot(&self) -> FamilyCounts {
        FamilyCounts {
            calls: self.calls.load(Ordering::Relaxed),
            pairs: self.pairs.load(Ordering::Relaxed),
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// Plain counts of one family, read after a traced call finished.
#[derive(Debug, Clone, Copy, Default)]
pub struct FamilyCounts {
    pub calls: u64,
    pub pairs: u64,
    /// Summed over threads: at one thread this is wall-clock busy time.
    pub busy_s: f64,
}

/// Everything [`TracedSpace`] recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpaceTrace {
    /// Distance-returning entry points: `dists_into`, `dist_to_set`.
    pub dist: FamilyCounts,
    /// Single-τ threshold entry points: `count_within`, `neighbors_within`
    /// and their `_many` forms.
    pub threshold: FamilyCounts,
    /// Multi-τ threshold entry points: `count_within_taus`,
    /// `neighbors_within_taus`.
    pub taus: FamilyCounts,
    /// Scalar `dist` and `within` calls (counted, not timed).
    pub scalar_calls: u64,
}

impl SpaceTrace {
    pub fn busy_s(&self) -> f64 {
        self.dist.busy_s + self.threshold.busy_s + self.taus.busy_s
    }

    pub fn pairs(&self) -> u64 {
        self.dist.pairs + self.threshold.pairs + self.taus.pairs
    }
}

/// See the module documentation.
pub struct TracedSpace<'a, M: MetricSpace + ?Sized> {
    inner: &'a M,
    dist: Family,
    threshold: Family,
    taus: Family,
    scalar: AtomicU64,
}

impl<'a, M: MetricSpace + ?Sized> TracedSpace<'a, M> {
    pub fn new(inner: &'a M) -> Self {
        Self {
            inner,
            dist: Family::default(),
            threshold: Family::default(),
            taus: Family::default(),
            scalar: AtomicU64::new(0),
        }
    }

    pub fn trace(&self) -> SpaceTrace {
        SpaceTrace {
            dist: self.dist.snapshot(),
            threshold: self.threshold.snapshot(),
            taus: self.taus.snapshot(),
            scalar_calls: self.scalar.load(Ordering::Relaxed),
        }
    }
}

impl<M: MetricSpace + ?Sized> MetricSpace for TracedSpace<'_, M> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn dist(&self, i: PointId, j: PointId) -> f64 {
        self.scalar.fetch_add(1, Ordering::Relaxed);
        self.inner.dist(i, j)
    }

    fn point_weight(&self) -> u64 {
        self.inner.point_weight()
    }

    fn within(&self, i: PointId, j: PointId, tau: f64) -> bool {
        self.scalar.fetch_add(1, Ordering::Relaxed);
        self.inner.within(i, j, tau)
    }

    fn count_within(&self, v: PointId, candidates: &[u32], tau: f64) -> usize {
        self.threshold.time(candidates.len(), || {
            self.inner.count_within(v, candidates, tau)
        })
    }

    fn neighbors_within(&self, v: PointId, candidates: &[u32], tau: f64, out: &mut Vec<u32>) {
        self.threshold.time(candidates.len(), || {
            self.inner.neighbors_within(v, candidates, tau, out)
        })
    }

    fn count_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<usize> {
        self.threshold.time(vs.len() * candidates.len(), || {
            self.inner.count_within_many(vs, candidates, tau)
        })
    }

    fn neighbors_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<Vec<u32>> {
        self.threshold.time(vs.len() * candidates.len(), || {
            self.inner.neighbors_within_many(vs, candidates, tau)
        })
    }

    fn dists_into(&self, v: PointId, candidates: &[u32], out: &mut Vec<f64>) {
        self.dist.time(candidates.len(), || {
            self.inner.dists_into(v, candidates, out)
        })
    }

    fn dist_to_set(&self, p: PointId, set: &[PointId]) -> f64 {
        self.dist.time(set.len(), || self.inner.dist_to_set(p, set))
    }

    fn count_within_taus(&self, v: PointId, candidates: &[u32], taus: &[f64]) -> Vec<usize> {
        self.taus.time(candidates.len(), || {
            self.inner.count_within_taus(v, candidates, taus)
        })
    }

    fn neighbors_within_taus(&self, v: PointId, candidates: &[u32], taus: &[f64]) -> Vec<Vec<u32>> {
        self.taus.time(candidates.len(), || {
            self.inner.neighbors_within_taus(v, candidates, taus)
        })
    }

    fn kernel_stats(&self) -> Option<KernelStats> {
        self.inner.kernel_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Records which of its own methods ran. If the wrapper left a method
    /// to the trait default, the default would call `dist`/`within` on the
    /// wrapper and the probe would log those instead of the method itself.
    #[derive(Default)]
    struct Probe {
        log: Mutex<Vec<&'static str>>,
    }

    impl Probe {
        fn hit(&self, name: &'static str) {
            self.log.lock().expect("probe log poisoned").push(name);
        }

        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut *self.log.lock().expect("probe log poisoned"))
        }
    }

    impl MetricSpace for Probe {
        fn n(&self) -> usize {
            self.hit("n");
            4
        }
        fn dist(&self, _: PointId, _: PointId) -> f64 {
            self.hit("dist");
            1.0
        }
        fn point_weight(&self) -> u64 {
            self.hit("point_weight");
            7
        }
        fn within(&self, _: PointId, _: PointId, _: f64) -> bool {
            self.hit("within");
            true
        }
        fn count_within(&self, _: PointId, _: &[u32], _: f64) -> usize {
            self.hit("count_within");
            0
        }
        fn neighbors_within(&self, _: PointId, _: &[u32], _: f64, _: &mut Vec<u32>) {
            self.hit("neighbors_within");
        }
        fn count_within_many(&self, _: &[u32], _: &[u32], _: f64) -> Vec<usize> {
            self.hit("count_within_many");
            Vec::new()
        }
        fn neighbors_within_many(&self, _: &[u32], _: &[u32], _: f64) -> Vec<Vec<u32>> {
            self.hit("neighbors_within_many");
            Vec::new()
        }
        fn dists_into(&self, _: PointId, _: &[u32], _: &mut Vec<f64>) {
            self.hit("dists_into");
        }
        fn dist_to_set(&self, _: PointId, _: &[PointId]) -> f64 {
            self.hit("dist_to_set");
            0.0
        }
        fn count_within_taus(&self, _: PointId, _: &[u32], _: &[f64]) -> Vec<usize> {
            self.hit("count_within_taus");
            Vec::new()
        }
        fn neighbors_within_taus(&self, _: PointId, _: &[u32], _: &[f64]) -> Vec<Vec<u32>> {
            self.hit("neighbors_within_taus");
            Vec::new()
        }
        fn kernel_stats(&self) -> Option<KernelStats> {
            self.hit("kernel_stats");
            Some(KernelStats {
                run_pairs: 3,
                ..KernelStats::default()
            })
        }
    }

    #[test]
    fn every_trait_method_reaches_the_inner_implementation() {
        let probe = Probe::default();
        let space = TracedSpace::new(&probe);
        let (p, c, taus) = (PointId(0), [1u32, 2, 3], [0.5, 1.0]);
        let mut ids = Vec::new();
        let mut dists = Vec::new();
        type Call<'a> = (&'static str, Box<dyn Fn() + 'a>);
        let calls: Vec<Call> = vec![
            ("n", Box::new(|| assert_eq!(space.n(), 4))),
            (
                "dist",
                Box::new(|| assert_eq!(space.dist(p, PointId(1)), 1.0)),
            ),
            (
                "point_weight",
                Box::new(|| assert_eq!(space.point_weight(), 7)),
            ),
            (
                "within",
                Box::new(|| assert!(space.within(p, PointId(1), 0.1))),
            ),
            (
                "count_within",
                Box::new(|| assert_eq!(space.count_within(p, &c, 2.0), 0)),
            ),
            (
                "count_within_many",
                Box::new(|| assert!(space.count_within_many(&c, &c, 2.0).is_empty())),
            ),
            (
                "neighbors_within_many",
                Box::new(|| assert!(space.neighbors_within_many(&c, &c, 2.0).is_empty())),
            ),
            (
                "dist_to_set",
                Box::new(|| assert_eq!(space.dist_to_set(p, &[PointId(1)]), 0.0)),
            ),
            (
                "count_within_taus",
                Box::new(|| assert!(space.count_within_taus(p, &c, &taus).is_empty())),
            ),
            (
                "neighbors_within_taus",
                Box::new(|| assert!(space.neighbors_within_taus(p, &c, &taus).is_empty())),
            ),
            (
                "kernel_stats",
                Box::new(|| assert_eq!(space.kernel_stats().map(|k| k.run_pairs), Some(3))),
            ),
        ];
        for (name, call) in &calls {
            call();
            assert_eq!(probe.take(), vec![*name], "{name} was not forwarded");
        }
        space.neighbors_within(p, &c, 2.0, &mut ids);
        assert_eq!(probe.take(), vec!["neighbors_within"]);
        space.dists_into(p, &c, &mut dists);
        assert_eq!(probe.take(), vec!["dists_into"]);

        let t = space.trace();
        assert_eq!(t.scalar_calls, 2);
        assert_eq!((t.threshold.calls, t.threshold.pairs), (4, 3 + 9 + 9 + 3));
        assert_eq!((t.dist.calls, t.dist.pairs), (2, 1 + 3));
        assert_eq!((t.taus.calls, t.taus.pairs), (2, 6));
    }
}
