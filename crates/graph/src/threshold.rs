//! Implicit threshold graphs `G_τ` over a metric space.

use std::collections::HashMap;

use mpc_metric::{MetricSpace, PointId};

use crate::GraphView;

/// The threshold graph `G_τ` of a metric space: vertex ids are point ids
/// and `u ~ v` iff `u != v` and `d(u, v) ≤ τ` (paper §2).
///
/// Adjacency is *implicit* — resolved through the distance oracle on
/// demand — so the graph costs no memory beyond the points themselves.
/// This is what lets the MPC algorithms query edges among any subset of
/// vertices a machine happens to hold.
///
/// ```
/// use mpc_graph::{GraphView, ThresholdGraph};
/// use mpc_metric::{EuclideanSpace, PointSet};
///
/// let space = EuclideanSpace::new(PointSet::from_rows(&[
///     vec![0.0], vec![1.0], vec![5.0],
/// ]));
/// let g = ThresholdGraph::new(&space, 1.5);
/// assert!(g.is_edge(0, 1));  // d = 1 <= 1.5
/// assert!(!g.is_edge(1, 2)); // d = 4
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ThresholdGraph<M> {
    metric: M,
    tau: f64,
}

impl<M: MetricSpace> ThresholdGraph<M> {
    /// The graph `G_tau` over `metric`. `tau` must be non-negative and
    /// finite.
    pub fn new(metric: M, tau: f64) -> Self {
        assert!(
            tau.is_finite() && tau >= 0.0,
            "threshold must be finite and non-negative"
        );
        Self { metric, tau }
    }

    /// The threshold τ.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The underlying metric.
    pub fn metric(&self) -> &M {
        &self.metric
    }
}

impl<M: MetricSpace> GraphView for ThresholdGraph<M> {
    fn n_vertices(&self) -> usize {
        self.metric.n()
    }

    #[inline]
    fn is_edge(&self, u: u32, v: u32) -> bool {
        u != v && self.metric.within(PointId(u), PointId(v), self.tau)
    }

    /// Forwards the whole batch to the metric's [`MetricSpace::count_within`]
    /// kernel, then subtracts the self-pairs the kernel counted: τ ≥ 0 means
    /// every occurrence of `v` itself in `candidates` is within threshold,
    /// but the graph is irreflexive.
    fn degree_among(&self, v: u32, candidates: &[u32]) -> usize {
        let within = self.metric.count_within(PointId(v), candidates, self.tau);
        let selfs = candidates.iter().filter(|&&c| c == v).count();
        within - selfs
    }

    /// Batched via [`MetricSpace::neighbors_within`], dropping self-pairs.
    fn neighbors_among(&self, v: u32, candidates: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        self.metric
            .neighbors_within(PointId(v), candidates, self.tau, &mut out);
        out.retain(|&c| c != v);
        out
    }

    /// One multi-query metric kernel call for the whole grid
    /// ([`MetricSpace::count_within_many`] — tiled, and SIMD-classified at
    /// the SoA speed tiers, on coordinate-backed spaces), then a self-pair
    /// fixup:
    /// τ ≥ 0 means every occurrence of a query vertex in `candidates` was
    /// counted within threshold, but the graph is irreflexive. Candidate
    /// multiplicities are tallied once for the batch (restricted to ids
    /// that actually occur in `vs`), replacing the per-query self scan.
    fn degrees_among(&self, vs: &[u32], candidates: &[u32]) -> Vec<usize> {
        let within = self.metric.count_within_many(vs, candidates, self.tau);
        let mut selfs: HashMap<u32, usize> = vs.iter().map(|&v| (v, 0)).collect();
        for &c in candidates {
            if let Some(count) = selfs.get_mut(&c) {
                *count += 1;
            }
        }
        vs.iter().zip(within).map(|(&v, w)| w - selfs[&v]).collect()
    }

    /// Batched via [`MetricSpace::neighbors_within_many`], dropping
    /// self-pairs per row.
    fn neighbors_among_many(&self, vs: &[u32], candidates: &[u32]) -> Vec<Vec<u32>> {
        let mut rows = self.metric.neighbors_within_many(vs, candidates, self.tau);
        for (row, &v) in rows.iter_mut().zip(vs) {
            row.retain(|&c| c != v);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_metric::{EuclideanSpace, PointSet};

    fn line() -> EuclideanSpace {
        EuclideanSpace::new(PointSet::from_rows(&[
            vec![0.0],
            vec![1.0],
            vec![2.5],
            vec![10.0],
        ]))
    }

    #[test]
    fn adjacency_follows_threshold() {
        let g = ThresholdGraph::new(line(), 1.5);
        assert!(g.is_edge(0, 1)); // d = 1
        assert!(g.is_edge(1, 2)); // d = 1.5, boundary inclusive
        assert!(!g.is_edge(0, 2)); // d = 2.5
        assert!(!g.is_edge(2, 3));
    }

    #[test]
    fn no_self_loops() {
        let g = ThresholdGraph::new(line(), 100.0);
        for v in 0..4 {
            assert!(!g.is_edge(v, v));
        }
    }

    #[test]
    fn degree_and_neighbors_among_subsets() {
        let g = ThresholdGraph::new(line(), 1.5);
        let all = [0, 1, 2, 3];
        assert_eq!(g.degree_among(1, &all), 2);
        assert_eq!(g.neighbors_among(1, &all), vec![0, 2]);
        assert_eq!(
            g.degree_among(1, &[1, 3]),
            0,
            "self and far vertex contribute nothing"
        );
    }

    #[test]
    fn zero_threshold_isolates_distinct_points() {
        let g = ThresholdGraph::new(line(), 0.0);
        assert!(!g.is_edge(0, 1));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_threshold() {
        ThresholdGraph::new(line(), -1.0);
    }
}
