//! Property-based tests: for **every** [`MetricSpace`] implementation the
//! batched threshold kernels (`count_within` / `neighbors_within`) agree
//! exactly with the scalar oracle (`within`) — also one ulp either side of
//! every pair distance — and the scalar oracle agrees with
//! `dist(i, j) <= tau` away from floating-point threshold boundaries.
//!
//! This pins the contract the graph layer relies on: `ThresholdGraph`
//! answers `degree_among` through `count_within`, so a kernel that drifted
//! from the scalar path would silently change every algorithm built on it.

use mpc_metric::{
    AngularSpace, ChebyshevSpace, CountingSpace, EditDistanceSpace, EuclideanSpace,
    GraphMetricSpace, HammingSpace, JaccardSpace, ManhattanSpace, MatrixSpace, MetricSpace,
    PointId, PointSet,
};
use proptest::prelude::*;

/// Thresholds worth probing: below zero, zero, every pair distance one ulp
/// either side (`next_down` / `next_up`), and for a sample of actual
/// distances both the exact value and `±1e-9`-relative nudges. The exact
/// and one-ulp values exercise tie handling inside each space's own
/// comparison, where `EuclideanSpace`'s `dist_sq <= τ²` may disagree with
/// `dist <= τ`; the nudged values sit far enough (≫ 1 ulp) from every
/// boundary that the `within ⇔ dist <= tau` cross-check is well-posed.
fn probe_taus<M: MetricSpace + ?Sized>(m: &M) -> Vec<f64> {
    let n = m.n() as u32;
    let mut ds: Vec<f64> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            ds.push(m.dist(PointId(i), PointId(j)));
        }
    }
    ds.sort_by(f64::total_cmp);
    let mut taus = vec![-1.0, 0.0];
    for &d in &ds {
        taus.push(d.next_down());
        taus.push(d.next_up());
    }
    let picks = [0, ds.len() / 4, ds.len() / 2, (3 * ds.len()) / 4];
    for &p in &picks {
        if let Some(&d) = ds.get(p) {
            taus.push(d);
            taus.push(d * (1.0 - 1e-9) - 1e-12);
            taus.push(d * (1.0 + 1e-9) + 1e-12);
        }
    }
    if let Some(&d) = ds.last() {
        taus.push(d + 1.0);
    }
    taus
}

/// The invariants every implementation must satisfy, for every probed
/// vertex / candidate-set / threshold combination:
///
/// 1. `count_within == |{c : within(v, c, tau)}|` — bulk count vs scalar;
/// 2. `neighbors_within` filters by the same predicate, preserving order;
/// 3. the `&M` blanket impl forwards the kernels (not the loop defaults);
/// 4. away from threshold boundaries (no pair distance within one ulp of
///    `tau`), `within(i, j, tau) ⇔ dist(i, j) <= tau`;
/// 5. the multi-query kernels (`count_within_many` / `neighbors_within_many`)
///    equal the per-query scalar kernels row for row, including at exact
///    boundary thresholds (for `EuclideanSpace` this exercises the Gram
///    band's exact-recompute fallback);
/// 6. `dists_into` is bitwise `dist` per candidate, and `dist_to_set` is
///    bitwise the min-fold of `dist` over the set (`INFINITY` on empty);
/// 7. the multi-τ methods (`count_within_taus` / `neighbors_within_taus`)
///    over the full sorted probe batch equal the per-τ kernels rung for
///    rung — including exact boundary thresholds, negative rungs, and
///    duplicated rungs.
fn check_kernels<M: MetricSpace>(m: &M) -> Result<(), TestCaseError> {
    let n = m.n() as u32;
    let all: Vec<u32> = (0..n).collect();
    let evens: Vec<u32> = (0..n).step_by(2).collect();
    let with_dup: Vec<u32> = {
        let mut v = vec![0u32, 0];
        v.extend((0..n).rev());
        v
    };
    let empty: Vec<u32> = Vec::new();
    let probes: Vec<u32> = vec![0, n / 2, n - 1];
    // (6) — τ-independent, so checked once per candidate set.
    for &v in &probes {
        let v = PointId(v);
        for cands in [&all, &evens, &with_dup, &empty] {
            let mut bulk = Vec::new();
            m.dists_into(v, cands, &mut bulk);
            prop_assert_eq!(bulk.len(), cands.len());
            for (&c, &d) in cands.iter().zip(&bulk) {
                prop_assert_eq!(
                    d.to_bits(),
                    m.dist(v, PointId(c)).to_bits(),
                    "dists_into vs dist: v={:?} c={}",
                    v,
                    c
                );
            }
            let ids: Vec<PointId> = cands.iter().map(|&c| PointId(c)).collect();
            let scalar_min = ids
                .iter()
                .map(|&c| m.dist(v, c))
                .fold(f64::INFINITY, f64::min);
            prop_assert_eq!(
                m.dist_to_set(v, &ids).to_bits(),
                scalar_min.to_bits(),
                "dist_to_set vs min-fold: v={:?} |set|={}",
                v,
                ids.len()
            );
        }
    }
    // (7) — the multi-τ kernels over the whole sorted probe batch. The
    // kernels require non-decreasing thresholds (`probe_taus` is not
    // sorted), and `total_cmp` keeps duplicates adjacent.
    {
        let mut batch = probe_taus(m);
        batch.sort_by(f64::total_cmp);
        for &v in &probes {
            let v = PointId(v);
            for cands in [&all, &evens, &with_dup, &empty] {
                let per_tau_counts: Vec<usize> = batch
                    .iter()
                    .map(|&tau| m.count_within(v, cands, tau))
                    .collect();
                prop_assert_eq!(
                    m.count_within_taus(v, cands, &batch),
                    per_tau_counts,
                    "count_within_taus vs per-τ: v={:?} |cands|={}",
                    v,
                    cands.len()
                );
                let rows = m.neighbors_within_taus(v, cands, &batch);
                prop_assert_eq!(rows.len(), batch.len());
                for (&tau, row) in batch.iter().zip(&rows) {
                    let mut per = Vec::new();
                    m.neighbors_within(v, cands, tau, &mut per);
                    prop_assert_eq!(
                        row,
                        &per,
                        "neighbors_within_taus vs per-τ: v={:?} tau={}",
                        v,
                        tau
                    );
                }
                let fwd = &m;
                prop_assert_eq!(fwd.count_within_taus(v, cands, &batch), per_tau_counts);
            }
        }
    }
    for tau in probe_taus(m) {
        // (5) — the whole probe batch against every candidate set.
        for cands in [&all, &evens, &with_dup, &empty] {
            let scalar_counts: Vec<usize> = probes
                .iter()
                .map(|&v| m.count_within(PointId(v), cands, tau))
                .collect();
            prop_assert_eq!(
                m.count_within_many(&probes, cands, tau),
                scalar_counts,
                "count_within_many vs per-query: tau={} |cands|={}",
                tau,
                cands.len()
            );
            let many = m.neighbors_within_many(&probes, cands, tau);
            prop_assert_eq!(many.len(), probes.len());
            for (&v, row) in probes.iter().zip(&many) {
                let mut per = Vec::new();
                m.neighbors_within(PointId(v), cands, tau, &mut per);
                prop_assert_eq!(
                    row,
                    &per,
                    "neighbors_within_many vs per-query: v={} tau={}",
                    v,
                    tau
                );
            }
        }
        let near_boundary = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .map(|(i, j)| m.dist(PointId(i), PointId(j)))
            .any(|d| d == tau || d.next_down() == tau || d.next_up() == tau);
        for &v in &probes {
            let v = PointId(v);
            for cands in [&all, &evens, &with_dup, &empty] {
                let scalar: Vec<u32> = cands
                    .iter()
                    .copied()
                    .filter(|&c| m.within(v, PointId(c), tau))
                    .collect();
                prop_assert_eq!(
                    m.count_within(v, cands, tau),
                    scalar.len(),
                    "count_within vs scalar within: v={:?} tau={} |cands|={}",
                    v,
                    tau,
                    cands.len()
                );
                let mut bulk = Vec::new();
                m.neighbors_within(v, cands, tau, &mut bulk);
                prop_assert_eq!(
                    &bulk,
                    &scalar,
                    "neighbors_within vs scalar filter: v={:?} tau={}",
                    v,
                    tau
                );
                let fwd = &m;
                prop_assert_eq!(fwd.count_within(v, cands, tau), scalar.len());
                if !near_boundary {
                    for &c in cands {
                        prop_assert_eq!(
                            m.within(v, PointId(c), tau),
                            m.dist(v, PointId(c)) <= tau,
                            "within vs dist<=tau: v={:?} c={} tau={}",
                            v,
                            c,
                            tau
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

fn arb_rows(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-50.0f64..50.0, dim..=dim), 3..max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn euclidean_kernels_match_scalar(rows in arb_rows(24, 3)) {
        check_kernels(&EuclideanSpace::new(PointSet::from_rows(&rows)))?;
    }

    #[test]
    fn euclidean_gram_kernels_match_scalar(rows in arb_rows(20, 18)) {
        // dim ≥ GRAM_MIN_DIM: the many-kernels take the norm-cached
        // Gram-estimate path (with the banded exact fallback) instead of
        // the tiled diff loop — both must match the scalar oracle exactly.
        check_kernels(&EuclideanSpace::new(PointSet::from_rows(&rows)))?;
    }

    #[test]
    fn minkowski_kernels_match_scalar(rows in arb_rows(20, 3)) {
        let ps = PointSet::from_rows(&rows);
        check_kernels(&ManhattanSpace::new(ps.clone()))?;
        check_kernels(&ChebyshevSpace::new(ps))?;
    }

    #[test]
    fn angular_kernels_match_scalar(rows in arb_rows(18, 3)) {
        let shifted: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|c| c.abs() + 0.5).collect())
            .collect();
        check_kernels(&AngularSpace::new(PointSet::from_rows(&shifted)))?;
    }

    #[test]
    fn bitset_kernels_match_scalar(
        masks in prop::collection::vec(prop::collection::vec(any::<bool>(), 32), 3..18),
    ) {
        let n = masks.len();
        let bits: Vec<Vec<usize>> = masks
            .iter()
            .map(|row| row.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect())
            .collect();
        check_kernels(&HammingSpace::from_set_bits(n, 32, &bits))?;
        check_kernels(&JaccardSpace::from_set_bits(n, 32, &bits))?;
    }

    #[test]
    fn edit_distance_kernels_match_scalar(words in prop::collection::vec("[a-d]{0,6}", 3..12)) {
        check_kernels(&EditDistanceSpace::new(&words))?;
    }

    #[test]
    fn counting_kernels_match_scalar_and_charge(rows in arb_rows(16, 3)) {
        let m = CountingSpace::new(EuclideanSpace::new(PointSet::from_rows(&rows)));
        check_kernels(&m)?;
        // The wrapper must charge exactly what the per-query loop would:
        // |vs|·|candidates| for the grid kernels, |candidates| for a
        // distance fill, |set| for a set distance — so batching never
        // changes reported oracle counts.
        let n = m.n() as u32;
        let all: Vec<u32> = (0..n).collect();
        let vs = vec![0u32, n - 1];
        m.reset();
        let _ = m.count_within_many(&vs, &all, 1.0);
        prop_assert_eq!(m.calls(), (vs.len() * all.len()) as u64);
        m.reset();
        let _ = m.neighbors_within_many(&vs, &all, 1.0);
        prop_assert_eq!(m.calls(), (vs.len() * all.len()) as u64);
        m.reset();
        let mut out = Vec::new();
        m.dists_into(PointId(0), &all, &mut out);
        prop_assert_eq!(m.calls(), all.len() as u64);
        m.reset();
        let ids: Vec<PointId> = all.iter().map(|&c| PointId(c)).collect();
        let _ = m.dist_to_set(PointId(0), &ids);
        prop_assert_eq!(m.calls(), ids.len() as u64);
    }

    #[test]
    fn matrix_kernels_match_scalar(rows in arb_rows(16, 2)) {
        let ps = PointSet::from_rows(&rows);
        let n = ps.len();
        let e = EuclideanSpace::new(ps);
        let m = MatrixSpace::from_fn(n, |i, j| {
            e.dist(PointId(i as u32), PointId(j as u32))
        }).unwrap();
        check_kernels(&m)?;
    }

    #[test]
    fn graph_metric_kernels_match_scalar(
        weights in prop::collection::vec(0.1f64..10.0, 3..14),
        extra in prop::collection::vec((0u32..14, 0u32..14, 0.1f64..20.0), 0..6),
    ) {
        // A path graph keeps everything connected; extra edges add shortcuts.
        let n = weights.len() + 1;
        let mut edges: Vec<(usize, usize, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (i, i + 1, w))
            .collect();
        for &(a, b, w) in &extra {
            let (a, b) = (a as usize % n, b as usize % n);
            if a != b {
                edges.push((a, b, w));
            }
        }
        let m = GraphMetricSpace::from_edges(n, &edges).unwrap();
        check_kernels(&m)?;
    }
}
