//! Property-based pinning of the speed tiers: for every [`SpeedTier`] the
//! `EuclideanSpace` bulk threshold kernels must return **bit-identical**
//! answers to the exact-f64 tier — on thresholds deliberately placed at and
//! around exact pairwise distances, where a naive f32 path would flip
//! verdicts — and the answers must not depend on the worker thread count.
//!
//! Together with `kernel_consistency.rs` (exact tier ≡ scalar oracle) this
//! gives `tier ≡ scalar oracle` for every tier, which is the contract the
//! ladder digest check relies on: `KCENTER_SPEED` may change wall-clock
//! time, never a single output bit.

use mpc_metric::{EuclideanSpace, MetricSpace, PointId, PointSet, SpeedTier};
use proptest::prelude::*;
use rayon::with_threads;

/// Adversarial thresholds: every pairwise distance one ulp either side
/// (`next_down` / `next_up`), every quartile pairwise distance exactly,
/// plus `±1e-9`-relative nudges. All of these sit inside the f32 error
/// band (the band is ~`(4d+32)·ε_f32` relative, vastly wider than 1e-9),
/// so every probe forces the banded estimate into its exact-f64 re-decide
/// branch — precisely the region where a sloppy fast path would diverge
/// from the oracle, and where `dist_sq <= τ²` and `dist <= τ` can
/// disagree. `-1.0`, `0.0`, and `max+1` pin the edges.
fn probe_taus(m: &EuclideanSpace) -> Vec<f64> {
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
    for &p in &[0, ds.len() / 4, ds.len() / 2, (3 * ds.len()) / 4] {
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

const TIERS: [SpeedTier; 2] = [SpeedTier::Exact, SpeedTier::Soa];

/// One full kernel transcript — everything the four bulk kernels return for
/// a fixed dataset, over every probe τ and candidate-set shape. Two spaces
/// agree iff their transcripts are `==` (counts are `usize`, neighbor rows
/// are `Vec<u32>`; no floats, so `==` is exact).
#[derive(Debug, PartialEq, Eq)]
struct Transcript {
    counts: Vec<usize>,
    neighbors: Vec<Vec<u32>>,
    counts_many: Vec<Vec<usize>>,
    neighbors_many: Vec<Vec<Vec<u32>>>,
}

fn transcript(m: &EuclideanSpace, taus: &[f64]) -> Transcript {
    let n = m.n() as u32;
    let all: Vec<u32> = (0..n).collect();
    let evens: Vec<u32> = (0..n).step_by(2).collect();
    let with_dup: Vec<u32> = {
        let mut v = vec![0u32, 0];
        v.extend((0..n).rev());
        v
    };
    let empty: Vec<u32> = Vec::new();
    let cand_sets = [&all, &evens, &with_dup, &empty];
    let probes: Vec<u32> = vec![0, n / 2, n - 1];
    let mut out = Transcript {
        counts: Vec::new(),
        neighbors: Vec::new(),
        counts_many: Vec::new(),
        neighbors_many: Vec::new(),
    };
    for &tau in taus {
        for cands in cand_sets {
            for &v in &probes {
                out.counts.push(m.count_within(PointId(v), cands, tau));
                let mut row = Vec::new();
                m.neighbors_within(PointId(v), cands, tau, &mut row);
                out.neighbors.push(row);
            }
            out.counts_many
                .push(m.count_within_many(&probes, cands, tau));
            out.neighbors_many
                .push(m.neighbors_within_many(&probes, cands, tau));
        }
    }
    out
}

/// Builds one space per tier over the same rows. `with_speed_tier`
/// overrides whatever `KCENTER_SPEED` says, so the test is hermetic.
fn spaces(rows: &[Vec<f64>]) -> Vec<(SpeedTier, EuclideanSpace)> {
    TIERS
        .iter()
        .map(|&t| {
            (
                t,
                EuclideanSpace::new(PointSet::from_rows(rows)).with_speed_tier(t),
            )
        })
        .collect()
}

/// Wide rows (dim ≥ 16 = `GRAM_MIN_DIM`) so the SoA path actually
/// engage; narrow rows would make the tier comparison vacuous.
fn arb_wide_rows(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-50.0f64..50.0, dim..=dim), 4..max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every tier's transcript is identical to the exact tier's, on
    /// thresholds engineered to land inside the f32 error band.
    #[test]
    fn tiers_match_exact_oracle(rows in arb_wide_rows(18, 18)) {
        let spaces = spaces(&rows);
        let taus = probe_taus(&spaces[0].1);
        let oracle = transcript(&spaces[0].1, &taus);
        for (tier, space) in &spaces[1..] {
            prop_assert_eq!(
                &transcript(space, &taus),
                &oracle,
                "tier {} diverged from exact", tier.name()
            );
        }
    }

    /// Same check at dim=32 — the width the benchmarks target, and a
    /// multiple of the AVX2 f32 lane width (8), so every SIMD remainder
    /// path is the empty one.
    #[test]
    fn tiers_match_exact_oracle_d32(rows in arb_wide_rows(12, 32)) {
        let spaces = spaces(&rows);
        let taus = probe_taus(&spaces[0].1);
        let oracle = transcript(&spaces[0].1, &taus);
        for (tier, space) in &spaces[1..] {
            prop_assert_eq!(
                &transcript(space, &taus),
                &oracle,
                "tier {} diverged from exact", tier.name()
            );
        }
    }

    /// Clustered duplicates and near-duplicates: many identical rows give
    /// zero distances and maximal tie pressure at τ = 0.
    #[test]
    fn tiers_match_on_duplicates(base in prop::collection::vec(-5.0f64..5.0, 20), copies in 3usize..8) {
        let mut rows: Vec<Vec<f64>> = (0..copies).map(|_| base.clone()).collect();
        // One near-duplicate inside f32 rounding range and one far point.
        let mut near = base.clone();
        near[0] += 1e-8;
        rows.push(near);
        rows.push(base.iter().map(|c| c + 100.0).collect());
        let spaces = spaces(&rows);
        let taus = probe_taus(&spaces[0].1);
        let oracle = transcript(&spaces[0].1, &taus);
        for (tier, space) in &spaces[1..] {
            prop_assert_eq!(
                &transcript(space, &taus),
                &oracle,
                "tier {} diverged from exact", tier.name()
            );
        }
    }

    /// Every tier is deterministic across worker thread counts {1, 2, 8}:
    /// the transcript at t=1 equals the transcripts at t=2 and t=8. (The
    /// tiled kernels split candidate lists into parallel chunks; chunk
    /// boundaries must never leak into results.)
    #[test]
    fn tiers_thread_count_deterministic(rows in arb_wide_rows(14, 18)) {
        for (tier, space) in &spaces(&rows) {
            let taus = probe_taus(space);
            let t1 = with_threads(1, || transcript(space, &taus));
            for threads in [2usize, 8] {
                let tn = with_threads(threads, || transcript(space, &taus));
                prop_assert_eq!(
                    &tn,
                    &t1,
                    "tier {} changed output at {} threads", tier.name(), threads
                );
            }
        }
    }
}

/// Non-finite coordinates must not break tier equivalence: the f32 band
/// goes infinite, forcing the exact branch.
/// Deterministic, so a plain test rather than a proptest.
#[test]
fn tiers_match_with_non_finite_rows() {
    let mut rows: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            (0..18)
                .map(|j| ((i * 31 + j * 7) % 13) as f64 - 6.0)
                .collect()
        })
        .collect();
    rows[2][5] = f64::INFINITY;
    rows[5][0] = f64::NAN;
    let spaces = spaces(&rows);
    let taus = vec![-1.0, 0.0, 5.0, 25.0, f64::INFINITY];
    let oracle = transcript(&spaces[0].1, &taus);
    for (tier, space) in &spaces[1..] {
        assert_eq!(
            transcript(space, &taus),
            oracle,
            "tier {} diverged on non-finite data",
            tier.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The serving-index insert path: growing a space with `push_point`
    /// after its lazy SoA mirror already exists (so the mirror is
    /// *extended* in place, padded-stride lanes and all) must leave every
    /// tier bit-identical to the exact tier over a from-scratch build of
    /// the full data.
    #[test]
    fn tiers_match_after_incremental_growth(
        rows in arb_wide_rows(16, 18),
        split in 4usize..12,
    ) {
        let split = split.min(rows.len() - 1).max(1);
        let oracle_space = EuclideanSpace::new(PointSet::from_rows(&rows));
        let oracle_taus = probe_taus(&oracle_space);
        let oracle = transcript(&oracle_space, &oracle_taus);
        for tier in TIERS {
            let mut space =
                EuclideanSpace::new(PointSet::from_rows(&rows[..split])).with_speed_tier(tier);
            // Force the lazy fast-path builds on the prefix so the pushes
            // below exercise extension, not a fresh build.
            let prefix_ids: Vec<u32> = (0..split as u32).collect();
            let _ = space.count_within(PointId(0), &prefix_ids, 1.0);
            for row in &rows[split..] {
                space.push_point(row);
            }
            prop_assert_eq!(
                &transcript(&space, &oracle_taus),
                &oracle,
                "tier {} diverged after incremental growth (split {})",
                tier.name(),
                split
            );
        }
    }

    /// Thread counts must not leak into grown spaces either.
    #[test]
    fn grown_space_thread_count_deterministic(rows in arb_wide_rows(12, 18)) {
        let split = rows.len() / 2;
        let mut space = EuclideanSpace::new(PointSet::from_rows(&rows[..split.max(1)]))
            .with_speed_tier(SpeedTier::Soa);
        let warm: Vec<u32> = (0..space.n() as u32).collect();
        let _ = space.count_within(PointId(0), &warm, 1.0);
        for row in &rows[split.max(1)..] {
            space.push_point(row);
        }
        let taus = probe_taus(&space);
        let t1 = with_threads(1, || transcript(&space, &taus));
        for threads in [2usize, 8] {
            let tn = with_threads(threads, || transcript(&space, &taus));
            prop_assert_eq!(&tn, &t1, "grown space changed output at {} threads", threads);
        }
    }
}
