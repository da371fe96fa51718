//! Metric-space substrate for the MPC clustering algorithms.
//!
//! The paper's algorithms ("Almost Optimal Massively Parallel Algorithms for
//! k-Center Clustering and Diversity Maximization", SPAA 2023) work in **any
//! metric space** and touch the input only through a constant-time distance
//! oracle. This crate provides that oracle as the [`MetricSpace`] trait,
//! together with:
//!
//! * concrete spaces: [`EuclideanSpace`], [`ManhattanSpace`],
//!   [`ChebyshevSpace`], [`AngularSpace`], [`HammingSpace`],
//!   [`JaccardSpace`], [`EditDistanceSpace`], [`MatrixSpace`] (arbitrary
//!   precomputed metrics) and [`GraphMetricSpace`] (shortest-path metrics);
//! * the [`CountingSpace`] wrapper that counts distance evaluations, used by
//!   the benchmark harness;
//! * deterministic synthetic dataset generators in [`datasets`];
//! * a sampling-based metric-axiom checker in [`validate`].
//!
//! Points are identified by dense indices ([`PointId`]); coordinates live in
//! flat, cache-friendly arrays. All spaces are `Sync` so machine-local
//! computation can run under rayon.

pub mod angular;
pub mod counting;
pub mod datasets;
pub mod edit;
pub mod euclidean;
pub mod graph_metric;
pub mod grid;
pub mod hamming;
pub mod io;
pub mod jaccard;
pub mod matrix;
pub mod minkowski;
pub mod point;
pub mod simd;
pub mod soa;
pub mod space;
pub mod validate;

pub use angular::AngularSpace;
pub use counting::CountingSpace;
pub use edit::EditDistanceSpace;
pub use euclidean::EuclideanSpace;
pub use graph_metric::GraphMetricSpace;
pub use grid::{GridIndex, GridScan};
pub use hamming::HammingSpace;
pub use io::{load_dataset, parse_bvecs, parse_fvecs, parse_kcps, save_dataset, to_fvecs, to_kcps};
pub use jaccard::JaccardSpace;
pub use matrix::MatrixSpace;
pub use minkowski::{ChebyshevSpace, ManhattanSpace};
pub use point::{PointId, PointSet};
pub use soa::SpeedTier;
pub use space::{
    dist_point_to_set, dist_set_to_set, min_pairwise_distance, par_bulk, par_bulk_pairs,
    par_bulk_weighted, par_chunk_size, par_chunk_size_weighted, par_count_chunks,
    par_count_chunks_weighted, par_filter_chunks, par_filter_chunks_weighted, par_query_chunks,
    KernelStats, MetricSpace, PAR_MIN_BULK,
};
