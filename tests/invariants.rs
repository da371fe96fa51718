//! Property-based tests (proptest) on the paper's core invariants, driven
//! by randomly generated instances.

use mpc_clustering::baselines::exact::{exact_diversity, exact_kcenter, exact_ksupplier};
use mpc_clustering::core::{diversity, gmm::gmm, kbmis::k_bounded_mis, kcenter, ksupplier, Params};
use mpc_clustering::graph::verify::{is_independent, is_k_bounded_mis};
use mpc_clustering::graph::ThresholdGraph;
use mpc_clustering::metric::{
    dist_point_to_set, min_pairwise_distance, EuclideanSpace, PointId, PointSet,
};
use mpc_clustering::sim::{Cluster, Partition};
use proptest::prelude::*;

/// Random small point sets in the unit square (possibly with duplicates).
fn arb_points(max_n: usize) -> impl Strategy<Value = PointSet> {
    prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..max_n).prop_map(|pts| {
        PointSet::from_rows(&pts.iter().map(|&(x, y)| vec![x, y]).collect::<Vec<_>>())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GMM's anti-cover properties (§2.2) hold on arbitrary inputs.
    #[test]
    fn gmm_anti_cover((points, k) in arb_points(60).prop_flat_map(|p| {
        let n = p.len();
        (Just(p), 2..=n.min(8))
    })) {
        let metric = EuclideanSpace::new(points);
        let subset: Vec<u32> = (0..metric.points().len() as u32).collect();
        let out = gmm(&metric, &subset, k);
        let ids: Vec<PointId> = out.selected.iter().map(|&v| PointId(v)).collect();
        let r = out.diversity();
        if r.is_finite() {
            // Every selected point >= r away from the other selections.
            for (i, &p) in ids.iter().enumerate() {
                let others: Vec<PointId> = ids.iter().enumerate()
                    .filter(|&(j, _)| j != i).map(|(_, &q)| q).collect();
                prop_assert!(dist_point_to_set(&metric, p, &others) >= r - 1e-9);
            }
        }
        // Every input point within covering radius of the selection.
        let cov = out.covering_radius();
        for &v in &subset {
            prop_assert!(dist_point_to_set(&metric, PointId(v), &ids) <= cov + 1e-9);
        }
    }

    /// Algorithm 4's output is a valid k-bounded MIS for arbitrary
    /// thresholds, machine counts, and k.
    #[test]
    fn k_bounded_mis_validity(
        (points, k, m, tau, seed) in arb_points(50).prop_flat_map(|p| {
            let n = p.len();
            (Just(p), 1..=n, 1usize..=6, 0.0f64..1.5, 0u64..1000)
        })
    ) {
        let metric = EuclideanSpace::new(points);
        let n = metric.points().len();
        let mut cluster = Cluster::new(m, seed);
        let params = Params::practical(m, 0.1, seed);
        let alive = Partition::round_robin(n, m).all_items().to_vec();
        let res = k_bounded_mis(&mut cluster, &metric, &alive, tau, k, n, &params, false);
        let g = ThresholdGraph::new(&metric, tau);
        let universe: Vec<u32> = (0..n as u32).collect();
        prop_assert!(
            is_k_bounded_mis(&g, &res.set, &universe, k),
            "set {:?} (outcome {:?}) not a {k}-bounded MIS at tau {tau}",
            res.set, res.outcome
        );
    }

    /// End-to-end guarantee against brute force on tiny instances.
    #[test]
    fn approximation_guarantees_small(
        (points, seed) in (arb_points(18), 0u64..200)
    ) {
        let metric = EuclideanSpace::new(points);
        let n = metric.points().len();
        let k = 3.min(n - 1).max(2);
        if n <= k { return Ok(()); }
        let eps = 0.25;
        let params = Params::practical(2, eps, seed);

        let (opt_r, _) = exact_kcenter(&metric, k);
        let kc = kcenter::mpc_kcenter(&metric, k, &params);
        prop_assert!(kc.radius <= 2.0 * (1.0 + eps) * opt_r + 1e-9,
            "k-center {} vs opt {opt_r}", kc.radius);

        let (opt_d, _) = exact_diversity(&metric, k);
        let dv = diversity::mpc_diversity(&metric, k, &params);
        prop_assert!(dv.diversity >= opt_d / (2.0 * (1.0 + eps)) - 1e-9,
            "diversity {} vs opt {opt_d}", dv.diversity);
    }

    /// Algorithm 6's 3(1+ε) guarantee against brute force: rows before
    /// `split` are customers, the rest suppliers.
    #[test]
    fn ksupplier_guarantee_small(
        (points, split, k, seed) in arb_points(18).prop_flat_map(|p| {
            let n = p.len();
            (Just(p), 1..n, 1usize..=3, 0u64..200)
        })
    ) {
        let metric = EuclideanSpace::new(points);
        let n = metric.points().len() as u32;
        let customers: Vec<u32> = (0..split as u32).collect();
        let suppliers: Vec<u32> = (split as u32..n).collect();
        let k = k.min(suppliers.len());
        let eps = 0.25;
        let params = Params::practical(2, eps, seed);

        let (opt_r, _) = exact_ksupplier(&metric, &customers, &suppliers, k);
        let ks = ksupplier::mpc_ksupplier(&metric, &customers, &suppliers, k, &params);
        prop_assert!(ks.radius <= 3.0 * (1.0 + eps) * opt_r + 1e-9,
            "k-supplier {} vs opt {opt_r}", ks.radius);
    }

    /// The diversity value reported always matches the subset returned,
    /// and the subset is made of distinct input points.
    #[test]
    fn reported_values_are_realized(
        (points, seed) in (arb_points(40), 0u64..100)
    ) {
        let metric = EuclideanSpace::new(points);
        let n = metric.points().len();
        let k = 4.min(n);
        if k < 2 { return Ok(()); }
        let params = Params::practical(3, 0.2, seed);
        let dv = diversity::mpc_diversity(&metric, k, &params);
        let mut ids: Vec<u32> = dv.subset.iter().map(|p| p.0).collect();
        prop_assert!((dv.diversity - min_pairwise_distance(&metric, &dv.subset)).abs() < 1e-9);
        ids.sort_unstable();
        let len_before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), len_before, "duplicate points in subset");
        prop_assert!(ids.iter().all(|&v| (v as usize) < n));
    }

    /// trim() always yields an independent subset of its input sample.
    #[test]
    fn trim_independence(
        (points, tau) in (arb_points(40), 0.0f64..1.0)
    ) {
        let metric = EuclideanSpace::new(points);
        let n = metric.points().len();
        let g = ThresholdGraph::new(&metric, tau);
        let sample: Vec<u32> = (0..n as u32).step_by(2).collect();
        let weights: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64).collect();
        for tie in [mpc_clustering::graph::mis::TieBreak::Strict,
                    mpc_clustering::graph::mis::TieBreak::ById] {
            let t = mpc_clustering::graph::mis::trim(&g, &sample, &weights, tie);
            prop_assert!(is_independent(&g, &t));
            prop_assert!(t.iter().all(|v| sample.contains(v)));
        }
    }
}
