//! Speed-tier benchmarks (`BENCH_speed.json`): the multi-query
//! `count_within_many` kernel at every [`SpeedTier`], on the same
//! d=32 / n=1e5 / Q=1024 shape whose `tiled/many` median is the PR-6
//! acceptance baseline. Ids embed the tier, e.g.
//! `speed/many-d32-n100000-q1024/soa`.
//!
//! The acceptance criterion reads off this group against
//! `BENCH_tiled.json`: `speed/…/soa` must be ≥ 2× faster than
//! `tiled/many-d32-n100000-q1024/t1`. The tier proptests
//! (`crates/metric/tests/speed_tiers.rs`) separately pin that every tier
//! computes bit-identical answers, so this group measures pure speed —
//! there is no accuracy axis to trade against.
//!
//! Tiers are fixed per space via `with_speed_tier` (not `KCENTER_SPEED`),
//! so one run measures both; the SoA mirror build happens on the
//! first iteration and are amortized away by the remaining samples, which
//! matches production shape (the ladder reuses one space across rungs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpc_metric::{datasets, EuclideanSpace, MetricSpace, SpeedTier};
use rayon::with_threads;

fn bench_speed(c: &mut Criterion) {
    let mut group = c.benchmark_group("speed");
    group.sample_size(10);
    let tiers = [SpeedTier::Exact, SpeedTier::Soa];
    for (dim, n, q) in [(32usize, 100_000usize, 1024usize), (32, 10_000, 256)] {
        let candidates: Vec<u32> = (0..n as u32).collect();
        let vs: Vec<u32> = (0..q).map(|i| (i * 7919 % n) as u32).collect();
        for tier in tiers {
            let metric =
                EuclideanSpace::new(datasets::uniform_cube(n, dim, 7)).with_speed_tier(tier);
            let tau = mpc_bench::distance_quantile(&metric, 0.2, 7);
            group.bench_with_input(
                BenchmarkId::new(format!("many-d{dim}-n{n}-q{q}"), tier.name()),
                &tier,
                |b, _| {
                    b.iter(|| with_threads(1, || metric.count_within_many(&vs, &candidates, tau)))
                },
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench_speed);
criterion_main!(benches);
