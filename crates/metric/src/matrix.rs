//! Explicit distance-matrix metric — the fully general "any metric space"
//! oracle, for metrics with no coordinate structure at all.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::point::PointId;
use crate::space::{self, KernelStats, MetricSpace};

/// Pair tallies for [`MatrixSpace`]'s batched kernels, mirroring the
/// Euclidean counters so `MatrixSpace` runs report [`KernelStats`] too.
/// Row scans have no run/indexed split, so the mapping is by
/// kernel shape: single-query scans count as `run_pairs`, multi-query
/// scans as `indexed_pairs`. Relaxed atomics — tallies, not
/// synchronization.
#[derive(Debug, Default)]
struct MatrixCounters {
    run_pairs: AtomicU64,
    indexed_pairs: AtomicU64,
}

impl MatrixCounters {
    fn add(counter: &AtomicU64, pairs: u64) {
        counter.fetch_add(pairs, Ordering::Relaxed);
    }

    fn snapshot(&self) -> KernelStats {
        KernelStats {
            run_pairs: self.run_pairs.load(Ordering::Relaxed),
            indexed_pairs: self.indexed_pairs.load(Ordering::Relaxed),
            ..KernelStats::default()
        }
    }
}

impl Clone for MatrixCounters {
    fn clone(&self) -> Self {
        Self {
            run_pairs: AtomicU64::new(self.run_pairs.load(Ordering::Relaxed)),
            indexed_pairs: AtomicU64::new(self.indexed_pairs.load(Ordering::Relaxed)),
        }
    }
}

/// A metric given by an explicit `n × n` distance matrix.
///
/// Stores the full matrix (not just the upper triangle) so lookups are a
/// single multiply-add; construction validates symmetry and zero diagonal
/// and optionally the triangle inequality.
#[derive(Debug, Clone)]
pub struct MatrixSpace {
    d: Vec<f64>,
    n: usize,
    counters: MatrixCounters,
}

/// Construction-time validation failures for [`MatrixSpace`].
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixSpaceError {
    /// The flat buffer is not `n * n` long.
    BadShape { expected: usize, got: usize },
    /// `d[i][i] != 0` for some `i`.
    NonZeroDiagonal(usize),
    /// `d[i][j] != d[j][i]` for some pair.
    Asymmetric(usize, usize),
    /// Some entry is negative or non-finite.
    InvalidEntry(usize, usize),
    /// `d[i][k] > d[i][j] + d[j][k]` for some triple (only checked by
    /// [`MatrixSpace::new_checked`]).
    TriangleViolation(usize, usize, usize),
}

impl std::fmt::Display for MatrixSpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadShape { expected, got } => {
                write!(f, "matrix buffer has {got} entries, expected {expected}")
            }
            Self::NonZeroDiagonal(i) => write!(f, "d[{i}][{i}] is not zero"),
            Self::Asymmetric(i, j) => write!(f, "d[{i}][{j}] != d[{j}][{i}]"),
            Self::InvalidEntry(i, j) => write!(f, "d[{i}][{j}] is negative or non-finite"),
            Self::TriangleViolation(i, j, k) => {
                write!(f, "triangle inequality violated on ({i}, {j}, {k})")
            }
        }
    }
}

impl std::error::Error for MatrixSpaceError {}

impl MatrixSpace {
    /// Builds from a flat row-major `n × n` matrix, validating shape,
    /// symmetry, zero diagonal, and entry sanity (O(n²)).
    pub fn new(n: usize, d: Vec<f64>) -> Result<Self, MatrixSpaceError> {
        if d.len() != n * n {
            return Err(MatrixSpaceError::BadShape {
                expected: n * n,
                got: d.len(),
            });
        }
        for i in 0..n {
            if d[i * n + i] != 0.0 {
                return Err(MatrixSpaceError::NonZeroDiagonal(i));
            }
            for j in 0..n {
                let v = d[i * n + j];
                if !v.is_finite() || v < 0.0 {
                    return Err(MatrixSpaceError::InvalidEntry(i, j));
                }
                if v != d[j * n + i] {
                    return Err(MatrixSpaceError::Asymmetric(i, j));
                }
            }
        }
        Ok(Self {
            d,
            n,
            counters: MatrixCounters::default(),
        })
    }

    /// Like [`MatrixSpace::new`] but additionally verifies the triangle
    /// inequality over all triples (O(n³); intended for tests and small
    /// hand-built metrics).
    pub fn new_checked(n: usize, d: Vec<f64>) -> Result<Self, MatrixSpaceError> {
        let m = Self::new(n, d)?;
        const EPS: f64 = 1e-9;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    if m.d[i * n + k] > m.d[i * n + j] + m.d[j * n + k] + EPS {
                        return Err(MatrixSpaceError::TriangleViolation(i, j, k));
                    }
                }
            }
        }
        Ok(m)
    }

    /// Builds the matrix by evaluating `f` on every ordered pair with
    /// `f(i,i) = 0` enforced; `f` must be symmetric.
    pub fn from_fn(
        n: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Result<Self, MatrixSpaceError> {
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = f(i, j);
                d[i * n + j] = v;
                d[j * n + i] = v;
            }
        }
        Self::new(n, d)
    }
}

impl MetricSpace for MatrixSpace {
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn dist(&self, i: PointId, j: PointId) -> f64 {
        self.d[i.idx() * self.n + j.idx()]
    }

    /// Batched kernel: borrow `v`'s matrix row once and scan it
    /// contiguously, instead of recomputing the row offset per pair. Large
    /// batches fan candidate chunks out across the worker pool (see
    /// [`space::par_bulk`]); integer chunk counts sum exactly, so the
    /// parallel and sequential answers coincide.
    fn count_within(&self, v: PointId, candidates: &[u32], tau: f64) -> usize {
        MatrixCounters::add(&self.counters.run_pairs, candidates.len() as u64);
        let row = &self.d[v.idx() * self.n..(v.idx() + 1) * self.n];
        let scan = |chunk: &[u32]| chunk.iter().filter(|&&c| row[c as usize] <= tau).count();
        if space::par_bulk(candidates.len()) {
            space::par_count_chunks(candidates, scan)
        } else {
            scan(candidates)
        }
    }

    /// Batched filter twin of [`MetricSpace::count_within`] over the same
    /// contiguous row slice; per-chunk survivors concatenate in chunk
    /// order, preserving the sequential output order.
    fn neighbors_within(&self, v: PointId, candidates: &[u32], tau: f64, out: &mut Vec<u32>) {
        MatrixCounters::add(&self.counters.run_pairs, candidates.len() as u64);
        out.clear();
        let row = &self.d[v.idx() * self.n..(v.idx() + 1) * self.n];
        if space::par_bulk(candidates.len()) {
            space::par_filter_chunks(candidates, out, |chunk| {
                chunk
                    .iter()
                    .copied()
                    .filter(|&c| row[c as usize] <= tau)
                    .collect()
            });
        } else {
            out.extend(
                candidates
                    .iter()
                    .copied()
                    .filter(|&c| row[c as usize] <= tau),
            );
        }
    }

    /// Row-sliced multi-query kernel: each query borrows its matrix row
    /// once and scans candidates against it, skipping the per-call row
    /// offset and `par_bulk` gating the single-query kernel would redo per
    /// query. Large query batches fan fixed query chunks across the worker
    /// pool; rows concatenate in query order.
    fn count_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<usize> {
        MatrixCounters::add(
            &self.counters.indexed_pairs,
            vs.len() as u64 * candidates.len() as u64,
        );
        let run = |qs: &[u32]| -> Vec<usize> {
            qs.iter()
                .map(|&v| {
                    let row = &self.d[v as usize * self.n..(v as usize + 1) * self.n];
                    candidates
                        .iter()
                        .filter(|&&c| row[c as usize] <= tau)
                        .count()
                })
                .collect()
        };
        if space::par_bulk_pairs(vs.len(), candidates.len()) {
            space::par_query_chunks(vs, run)
        } else {
            run(vs)
        }
    }

    /// Filter twin of [`MetricSpace::count_within_many`] over the same row
    /// slices; candidate order is preserved per query.
    fn neighbors_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<Vec<u32>> {
        MatrixCounters::add(
            &self.counters.indexed_pairs,
            vs.len() as u64 * candidates.len() as u64,
        );
        let run = |qs: &[u32]| -> Vec<Vec<u32>> {
            qs.iter()
                .map(|&v| {
                    let row = &self.d[v as usize * self.n..(v as usize + 1) * self.n];
                    candidates
                        .iter()
                        .copied()
                        .filter(|&c| row[c as usize] <= tau)
                        .collect()
                })
                .collect()
        };
        if space::par_bulk_pairs(vs.len(), candidates.len()) {
            space::par_query_chunks(vs, run)
        } else {
            run(vs)
        }
    }

    /// Bulk distance fill: one row borrow, then a gather — each entry is
    /// the exact matrix lookup [`MetricSpace::dist`] performs.
    fn dists_into(&self, v: PointId, candidates: &[u32], out: &mut Vec<f64>) {
        out.clear();
        let row = &self.d[v.idx() * self.n..(v.idx() + 1) * self.n];
        out.extend(candidates.iter().map(|&c| row[c as usize]));
    }

    /// Row-sliced minimum over the set: same values as the per-pair fold,
    /// without recomputing the row offset per element.
    fn dist_to_set(&self, p: PointId, set: &[PointId]) -> f64 {
        let row = &self.d[p.idx() * self.n..(p.idx() + 1) * self.n];
        set.iter()
            .map(|s| row[s.idx()])
            .fold(f64::INFINITY, f64::min)
    }

    /// Cumulative pair tallies of the batched row-scan kernels.
    fn kernel_stats(&self) -> Option<KernelStats> {
        Some(self.counters.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_matrix_accepted() {
        // Path metric on a 3-path with unit edges: 0 -1- 1 -1- 2.
        let m =
            MatrixSpace::new_checked(3, vec![0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0]).unwrap();
        assert_eq!(m.dist(PointId(0), PointId(2)), 2.0);
    }

    #[test]
    fn rejects_asymmetry() {
        let err = MatrixSpace::new(2, vec![0.0, 1.0, 2.0, 0.0]).unwrap_err();
        assert_eq!(err, MatrixSpaceError::Asymmetric(0, 1));
    }

    #[test]
    fn rejects_nonzero_diagonal() {
        let err = MatrixSpace::new(2, vec![1.0, 1.0, 1.0, 0.0]).unwrap_err();
        assert_eq!(err, MatrixSpaceError::NonZeroDiagonal(0));
    }

    #[test]
    fn rejects_triangle_violation() {
        // d(0,2) = 10 > d(0,1) + d(1,2) = 2.
        let err = MatrixSpace::new_checked(3, vec![0.0, 1.0, 10.0, 1.0, 0.0, 1.0, 10.0, 1.0, 0.0])
            .unwrap_err();
        assert!(matches!(err, MatrixSpaceError::TriangleViolation(..)));
    }

    #[test]
    fn rejects_bad_shape_and_nan() {
        assert!(matches!(
            MatrixSpace::new(2, vec![0.0; 3]).unwrap_err(),
            MatrixSpaceError::BadShape { .. }
        ));
        assert!(matches!(
            MatrixSpace::new(2, vec![0.0, f64::NAN, f64::NAN, 0.0]).unwrap_err(),
            MatrixSpaceError::InvalidEntry(..)
        ));
    }

    #[test]
    fn kernel_stats_tally_batched_scans() {
        let m = MatrixSpace::from_fn(6, |i, j| (i as f64 - j as f64).abs()).unwrap();
        let cands: Vec<u32> = (0..6).collect();
        assert_eq!(m.count_within(PointId(0), &cands, 2.0), 3);
        let _ = m.count_within_many(&[0, 5], &cands, 2.0);
        let ks = m.kernel_stats().unwrap();
        assert_eq!(ks.run_pairs, 6);
        assert_eq!(ks.indexed_pairs, 12);
        // Clones snapshot the tallies rather than sharing them.
        let c = m.clone();
        let _ = m.count_within(PointId(1), &cands, 2.0);
        assert_eq!(c.kernel_stats().unwrap().run_pairs, 6);
        assert_eq!(m.kernel_stats().unwrap().run_pairs, 12);
    }

    #[test]
    fn from_fn_symmetrizes() {
        let m = MatrixSpace::from_fn(4, |i, j| (i as f64 - j as f64).abs()).unwrap();
        assert_eq!(m.dist(PointId(3), PointId(1)), 2.0);
        assert_eq!(m.dist(PointId(1), PointId(3)), 2.0);
    }
}
